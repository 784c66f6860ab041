"""Axiom-schema catalog and Hilbert-style derivation checking.

A derivation is a numbered list of formulas, each justified as an axiom
instance, modus ponens, a modal rule applied to a whole earlier theorem, or
uniform substitution into an earlier theorem.  Checking is deterministic;
no proof search is attempted.
"""
from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional, Union

from .errors import BudgetError
from .frame_classes import FrameClass
from .modelio import excerpt, model_to_doc, read_json
from .search import agents_for_formula, enumerate_frames
from .semantics import DEFAULT_ASSIGNMENT_CAP, falsified
from .syntax import (
    AgentSet, Box, Dia, Formula, Group, Implies, Or, ParseError, Program,
    Schema, match_instance, parse, render, substitute,
)


class LogicId(str, Enum):
    L_all = "L_all"
    L_dox = "L_dox"
    L_epi = "L_epi"
    L_par = "L_par"
    L_all_D = "L_all_D"
    L_dox_D = "L_dox_D"
    L_epi_D = "L_epi_D"
    L_par_D = "L_par_D"


_SCHEMA_SOURCES = {
    # intuitionistic propositional base
    "IPL1": "p -> (q -> p)",
    "IPL2": "(p -> (q -> r)) -> ((p -> q) -> (p -> r))",
    "IPL3": "p /\\ q -> p",
    "IPL4": "p /\\ q -> q",
    "IPL5": "p -> (q -> p /\\ q)",
    "IPL6": "p -> p \\/ q",
    "IPL7": "q -> p \\/ q",
    "IPL8": "(p -> r) -> ((q -> r) -> (p \\/ q -> r))",
    "IPL9": "F -> p",
    "IPL10": "T",
    # modal axioms
    "A1": "[alpha]p /\\ [alpha]q -> [alpha](p /\\ q)",
    "A2": "<alpha>(p \\/ q) -> <alpha>p \\/ <alpha>q",
    "A3": "[alpha]T",
    "A4": "~<alpha>F",
    "A5": "[alpha](p \\/ q) -> ((<alpha>p -> [alpha]q) -> [alpha]q)",
    "A6": "p -> [alpha]p",
    "A7": "[alpha]p -> ~~<alpha>p",
    "A8": "[alpha]p -> p",
    "A9": "p -> <alpha>p",
    "A10": "p -> [alpha]<alpha>p",
    "A11": "<alpha>[alpha]p -> p",
    "A12": "[alpha]p \\/ [beta]p -> [alpha,beta]p",
    "A13": "<alpha,beta>p -> <alpha>p /\\ <beta>p",
    # catalogued for experimentation; not assigned to any logic
    "A14": "[alpha]p -> [alpha][alpha]p",
    "A15": "<alpha><alpha>p -> <alpha>p",
    "A16": "<alpha>p -> [alpha]<alpha>p",
    "A17": "<alpha>[alpha]p -> [alpha]p",
}

_IPL = tuple(f"IPL{i}" for i in range(1, 11))
_CORE = _IPL + ("A1", "A2", "A3", "A4", "A5")

LOGIC_SCHEMAS: dict = {
    LogicId.L_all: _CORE,
    LogicId.L_dox: _CORE + ("A6",),
    LogicId.L_epi: _CORE + ("A6", "A7"),
    LogicId.L_par: _CORE + ("A8", "A9", "A10", "A11"),
}
LOGIC_SCHEMAS[LogicId.L_all_D] = LOGIC_SCHEMAS[LogicId.L_all] + ("A12", "A13")
LOGIC_SCHEMAS[LogicId.L_dox_D] = LOGIC_SCHEMAS[LogicId.L_dox] + ("A12", "A13")
LOGIC_SCHEMAS[LogicId.L_epi_D] = LOGIC_SCHEMAS[LogicId.L_epi] + ("A12", "A13")
LOGIC_SCHEMAS[LogicId.L_par_D] = LOGIC_SCHEMAS[LogicId.L_par] + ("A12", "A13")

LOGIC_CLASSES: dict = {
    LogicId.L_all: (FrameClass.ALL,),
    LogicId.L_dox: (FrameClass.DOXASTIC,),
    LogicId.L_epi: (FrameClass.EPISTEMIC,),
    LogicId.L_par: (FrameClass.PARTITION,),
    LogicId.L_all_D: (FrameClass.ALL, FrameClass.STANDARD),
    LogicId.L_dox_D: (FrameClass.DOXASTIC, FrameClass.STANDARD),
    LogicId.L_epi_D: (FrameClass.EPISTEMIC, FrameClass.STANDARD),
    LogicId.L_par_D: (FrameClass.PARTITION, FrameClass.STANDARD),
}

@functools.cache
def schema_catalog() -> dict:
    """All schemata by id, parsed once."""
    return {sid: Schema(sid, parse(src)) for sid, src in _SCHEMA_SOURCES.items()}


# ---------- derivations ----------

@dataclass(frozen=True)
class AxiomStep:
    schema_id: str


@dataclass(frozen=True)
class MPStep:
    i: int
    j: int  # line j must read (line i) -> (current line)


@dataclass(frozen=True)
class RuleStep:
    rule: str  # R1 | R2 | R3
    i: int
    group: Group


@dataclass(frozen=True)
class SubStep:
    i: int
    sigma: tuple  # sorted ((atom, Formula), ...)


Step = Union[AxiomStep, MPStep, RuleStep, SubStep]


@dataclass(frozen=True)
class Derivation:
    lines: tuple  # ((Formula, Step), ...)

    def agents(self) -> AgentSet:
        names = frozenset().union(*Program(f for f, _ in self.lines).groups())
        return AgentSet(tuple(sorted(names))) if names else AgentSet.of("a")


@dataclass(frozen=True)
class CheckResult:
    accepted: bool
    logic: LogicId
    evidence: tuple  # one dict per checked line
    failure: Optional[tuple] = None  # (line number, reason)

    def to_json(self) -> dict:
        if self.accepted:
            return {"accepted": True, "logic": self.logic.value,
                    "lines": list(self.evidence)}
        line, reason = self.failure
        return {"accepted": False, "logic": self.logic.value,
                "line": line, "reason": reason,
                "lines": list(self.evidence)}


def _rule_conclusion(rule: str, group: Group, premise: Formula) -> Optional[Formula]:
    """Shape-check a modal rule; None when the premise does not fit."""
    if rule in ("R1", "R2"):
        if not isinstance(premise, Implies):
            return None
        wrap = Box if rule == "R1" else Dia
        return Implies(wrap(group, premise.left), wrap(group, premise.right))
    if rule == "R3":
        # premise <g>A -> B \/ [g](A -> C)   yields   <g>A -> B \/ <g>C
        if not isinstance(premise, Implies) or not isinstance(premise.left, Dia):
            return None
        if premise.left.group != group:
            return None
        rhs = premise.right
        if not isinstance(rhs, Or) or not isinstance(rhs.right, Box):
            return None
        if rhs.right.group != group or not isinstance(rhs.right.body, Implies):
            return None
        if rhs.right.body.left != premise.left.body:
            return None
        return Implies(premise.left, Or(rhs.left, Dia(group, rhs.right.body.right)))
    raise ValueError(f"unknown rule {rule!r}")


def check_derivation(d: Derivation, logic: LogicId) -> CheckResult:
    """Accept iff every line is an axiom instance of the logic, follows by
    modus ponens, by one of the modal rules, or by uniform substitution."""
    logic = LogicId(logic)
    agents = d.agents()
    catalog = schema_catalog()
    allowed = LOGIC_SCHEMAS[logic]
    evidence = []

    def reject(line_no: int, reason: str) -> CheckResult:
        return CheckResult(False, logic, tuple(evidence), (line_no, reason))

    for no, (formula, step) in enumerate(d.lines, start=1):
        if isinstance(step, AxiomStep):
            schema = catalog.get(step.schema_id)
            if schema is None:
                return reject(no, f"unknown schema id {excerpt(step.schema_id)}")
            if step.schema_id not in allowed:
                return reject(no, f"schema {step.schema_id} is not in {logic.value}")
            match = match_instance(schema, formula, agents)
            if match is None:
                return reject(
                    no, f"{render(formula)} is not an instance of {step.schema_id}")
            evidence.append({
                "line": no, "rule": "axiom", "schema": step.schema_id,
                "atoms": {k: render(v) for k, v in match.atoms},
                "groups": {k: sorted(v) for k, v in match.groups},
            })
        elif isinstance(step, MPStep):
            if not (1 <= step.i < no and 1 <= step.j < no):
                return reject(no, f"modus ponens indices {step.i},{step.j} out of range")
            minor = d.lines[step.i - 1][0]
            major = d.lines[step.j - 1][0]
            if major != Implies(minor, formula):
                return reject(
                    no, f"line {step.j} is not (line {step.i}) -> (line {no})")
            evidence.append({"line": no, "rule": "mp", "i": step.i, "j": step.j})
        elif isinstance(step, RuleStep):
            if not 1 <= step.i < no:
                return reject(no, f"{step.rule} index {step.i} out of range")
            premise = d.lines[step.i - 1][0]
            want = _rule_conclusion(step.rule, step.group, premise)
            if want is None:
                return reject(no, f"line {step.i} does not have the {step.rule} premise shape")
            if want != formula:
                return reject(no, f"{step.rule} on line {step.i} yields {render(want)}")
            evidence.append({"line": no, "rule": step.rule.lower(), "i": step.i,
                             "group": sorted(step.group)})
        elif isinstance(step, SubStep):
            if not 1 <= step.i < no:
                return reject(no, f"substitution index {step.i} out of range")
            source = d.lines[step.i - 1][0]
            if substitute(source, dict(step.sigma)) != formula:
                return reject(no, f"substitution into line {step.i} does not yield line {no}")
            evidence.append({"line": no, "rule": "sub", "i": step.i,
                             "map": {k: render(v) for k, v in step.sigma}})
        else:
            return reject(no, f"unknown justification {step!r}")
    return CheckResult(True, logic, tuple(evidence))


# ---------- derivation files ----------

class _Malformed(Exception):
    """A field of the wrong type; ``parse_derivation`` adds the line."""


def _strs(values) -> bool:
    return all(isinstance(v, str) for v in values)


# What each justification field must hold, and how an error says it.
_FIELDS = {
    "kind": (lambda v: isinstance(v, str), "a string"),
    "id": (lambda v: isinstance(v, str), "a string"),
    "i": (lambda v: type(v) is int, "a line number"),  # not a bool
    "j": (lambda v: type(v) is int, "a line number"),
    "group": (lambda v: isinstance(v, list) and v and _strs(v),
              "a nonempty list of agent names"),
    "map": (lambda v: isinstance(v, dict) and _strs(v) and _strs(v.values()),
            "an object from atom names to formulas"),
}


def _field(just: dict, name: str):
    """``just[name]``, checked against ``_FIELDS``; a missing field is a
    KeyError."""
    value = just[name]
    ok, want = _FIELDS[name]
    if not ok(value):
        raise _Malformed(f"{name!r} must be {want}, got {excerpt(value, json.dumps)}")
    return value


def parse_derivation(data: list) -> Derivation:
    """The derivation a JSON document holds.  Every field is checked for its
    type, so a malformed line is a ValueError naming the line and the field,
    never an engine error; an unknown schema or a bad premise index is left
    for ``check_derivation`` to reject at its line."""
    if not isinstance(data, list):
        raise ValueError("a derivation file holds a JSON list of lines")
    lines = []
    for k, entry in enumerate(data, start=1):
        try:
            formula = parse(entry["formula"])
            field = functools.partial(_field, entry["just"])
            kind = field("kind")
            if kind == "axiom":
                step: Step = AxiomStep(field("id"))
            elif kind == "mp":
                step = MPStep(field("i"), field("j"))
            elif kind in ("r1", "r2", "r3"):
                step = RuleStep(kind.upper(), field("i"), frozenset(field("group")))
            elif kind == "sub":
                step = SubStep(field("i"), tuple(sorted(
                    (a, parse(v)) for a, v in field("map").items())))
            else:
                raise _Malformed(f"unknown justification kind {excerpt(kind)}")
        except (KeyError, TypeError) as e:
            raise ValueError(f"line {k}: malformed entry ({e})") from None
        except (_Malformed, ParseError) as e:
            raise ValueError(f"line {k}: {e}") from None
        lines.append((formula, step))
    return Derivation(tuple(lines))


def load_derivation(path: Union[str, Path]) -> Derivation:
    return parse_derivation(read_json(path))


def derivation_to_json(d: Derivation) -> list:
    out = []
    for formula, step in d.lines:
        if isinstance(step, AxiomStep):
            just: dict = {"kind": "axiom", "id": step.schema_id}
        elif isinstance(step, MPStep):
            just = {"kind": "mp", "i": step.i, "j": step.j}
        elif isinstance(step, RuleStep):
            just = {"kind": step.rule.lower(), "i": step.i,
                    "group": sorted(step.group)}
        else:
            just = {"kind": "sub", "i": step.i,
                    "map": {k: render(v) for k, v in step.sigma}}
        out.append({"formula": render(formula), "just": just})
    return out


# ---------- empirical soundness ----------

@dataclass(frozen=True)
class ProbeReport:
    logic: LogicId
    formula: str
    frames_checked: int
    countermodels: tuple
    exhausted: bool

    @property
    def ok(self) -> bool:
        return not self.countermodels

    def to_json(self) -> dict:
        return {"logic": self.logic.value, "formula": self.formula,
                "frames_checked": self.frames_checked,
                "countermodels": list(self.countermodels),
                "exhausted": self.exhausted}


def soundness_probe(theorem: Formula, logic: LogicId, budget,
                    cap: int = DEFAULT_ASSIGNMENT_CAP,
                    max_witnesses: int = 3) -> ProbeReport:
    """Search the logic's frame class for frames falsifying a theorem.

    By soundness an accepted derivation's last line admits no countermodel;
    any witness found is reported with its model and state.
    """
    logic = LogicId(logic)
    classes = LOGIC_CLASSES[logic]
    stats: dict = {}
    checked = 0
    witnesses = []
    agents = agents_for_formula(theorem)
    frames = enumerate_frames(budget, classes, agents=agents, stats=stats)
    tagged = ((frame, stats["exhaustive"]) for frame in frames)
    for hit, exhaustive in falsified(tagged, theorem, cap):
        checked += 1
        if hit is None:
            continue
        if isinstance(hit, BudgetError):
            raise hit
        model, state = hit
        witnesses.append({"model": model_to_doc(model), "state": f"w{state}"})
        if len(witnesses) >= max_witnesses:
            break  # the stream as it stood at this frame
    else:
        exhaustive = stats.get("exhaustive", False)
    return ProbeReport(logic, render(theorem), checked, tuple(witnesses),
                       bool(exhaustive))
