"""Frame/model generation, countermodel search, and the proposition battery.

Frame streams are deterministic: ascending state count, lexicographic within
a state count, exhaustive whenever the raw candidate space fits the budget
and seeded rejection sampling otherwise.  Samplers propose frames biased
toward the wanted classes, but every emitted frame is verified by the class
decision procedures and deduplicated.
"""
from __future__ import annotations

import functools
import itertools
import os
import random
from dataclasses import dataclass, replace
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union

from .constructions import (
    collapse_mono, equivalence_mismatches, expand_mono,
    mono_equivalence_mismatches, partition_lift, rs_collapse, standardize,
    transitive_lift,
)
from .errors import BudgetError
from .frame_classes import FrameClass, has_class, is_iel_structure
from .modelio import model_to_doc
from .semantics import (
    DEFAULT_ASSIGNMENT_CAP, Evaluator, Frame, Model, MonoStructure, Rel, bits,
    falsified, is_closed, kept, satisfies, up_sets, valid_in_frame,
)
from .syntax import (
    AgentSet, And, Atom, BOT, Box, Dia, Formula, Group, Implies, Or, Program,
    TOP, _AND, _ATOM, _BOT, _BOX, _DIA, _IMPLIES, _OR, _TOP, agents_of,
    groups_of, instantiate, render,
)

AGENT_POOL = ("a", "b", "c", "d", "e", "f", "g", "h")


@dataclass(frozen=True)
class SizeBudget:
    max_states: int = 3
    max_agents: int = 2
    max_formula_depth: int = 2
    max_candidates: int = 20000
    seed: int = 0

    def __post_init__(self):
        if self.max_agents < 1 or self.max_agents > 8:
            raise ValueError("max_agents must be between 1 and 8")
        if min(self.max_states, self.max_formula_depth, self.max_candidates) < 0:
            raise ValueError("budget fields must be nonnegative")

    def is_empty(self) -> bool:
        return self.max_states == 0 or self.max_candidates == 0


def budget_from_env(**overrides) -> SizeBudget:
    """Defaults, then IEML_BUDGET_* environment variables, then overrides."""
    fields = {}
    for name in ("max_states", "max_agents", "max_formula_depth",
                 "max_candidates", "seed"):
        var = f"IEML_BUDGET_{name.upper()}"
        env = os.environ.get(var)
        if env is not None:
            try:
                fields[name] = int(env)
            except ValueError:
                raise ValueError(f"{var} ({name}) must be an integer, "
                                 f"got {env!r}") from None
    fields.update({k: v for k, v in overrides.items() if v is not None})
    return SizeBudget(**fields)


def default_agents(k: int) -> AgentSet:
    return AgentSet(AGENT_POOL[:k])


# ---------- frame enumeration ----------

# Up to 3 states (2^9 masks a relation: a fixed size limit), one frame table
# per state count for the process, which every ``enumerate_frames`` stream
# shares; from 4 states on, each stream keeps its own.
_frame_tables: dict = {}


@functools.cache
def preorders(n: int) -> list[Rel]:
    """All preorders on n states, ascending by encoded bitmask (n <= 4)."""
    if n > 4:
        raise BudgetError(f"preorder enumeration supports at most 4 states, "
                          f"not {n} (lower max_states, IEML_BUDGET_MAX_STATES)")
    seen = {Rel.from_mask(n, m).rt_closure() for m in range(1 << (n * n))}
    return sorted(seen, key=Rel.mask)


def _raw_space(n: int, n_groups: int) -> Optional[int]:
    if n > 4:
        return None
    return len(preorders(n)) * (1 << (n * n)) ** n_groups


def _normalize_classes(classes) -> tuple:
    if isinstance(classes, (FrameClass, str)):
        classes = (classes,)
    return tuple(FrameClass(c) for c in classes)


def _random_relation(rng: random.Random, n: int) -> int:
    mask = rng.getrandbits(n * n)
    if rng.random() < 0.5:
        mask &= rng.getrandbits(n * n)
    return mask


@functools.cache
def _diag(n: int) -> int:
    return sum(1 << (i * n + i) for i in range(n))


def _symmetrize(n: int, mask: int) -> int:
    out = mask
    for i in range(n):
        for j in range(n):
            if mask >> (i * n + j) & 1:
                out |= 1 << (j * n + i)
    return out


def _composed(memo: dict, n: int, p: int, q: int, converse: bool) -> int:
    """The mask of ``P;Q``, or of ``P^-1;Q`` with ``converse``."""
    rel = kept(memo, p, Rel.from_mask, n, p)
    rel = rel.converse() if converse else rel
    return rel.compose(kept(memo, q, Rel.from_mask, n, q)).mask()


# The sampler's memo keys: negative ints, apart from the masks and the
# verdict keys of ``has_class`` (both nonnegative) in the same frame table
_CLOSURE, _SYM, _TRANS, _FC = range(4)


def _key(kind: int, x: int) -> int:
    return ~(x << 2 | kind)


def _propose_group_mask(rng: random.Random, n: int, leq: int, wanted: set,
                        memo: dict) -> int:
    if "partition" in wanted:
        labels = [rng.randrange(n) for _ in range(n)]
        return sum(1 << (i * n + j) for i in range(n) for j in range(n)
                   if labels[i] == labels[j])
    if "epistemic" in wanted or "doxastic" in wanted:
        mask = _random_relation(rng, n) & leq
        if "epistemic" in wanted:
            mask |= _diag(n)  # guarantees a successor through the preorder
        return mask
    if "rs" in wanted or ("ud" in wanted and rng.random() < 0.6):
        mask = _random_relation(rng, n)
        return kept(memo, _key(_SYM, mask), _symmetrize, n, mask) | _diag(n)
    mask = _random_relation(rng, n)
    if "reflexive" in wanted:
        mask |= _diag(n)
    if "symmetric" in wanted:
        mask = kept(memo, _key(_SYM, mask), _symmetrize, n, mask)
    if "transitive" in wanted:
        mask |= kept(memo, _key(_TRANS, mask), _composed, memo, n, mask, mask, False)
    if "forward_confluent" in wanted:
        mask = kept(memo, _key(_FC, leq << n * n | mask), _composed, memo, n, leq,
                    mask, True)
    return mask


def _propose_masks(rng: random.Random, n: int, n_groups: int, wanted: set,
                   memo: dict) -> tuple[int, ...]:
    """The masks ``(leq, R(1), ..., R(n_groups))`` of a random frame biased
    toward ``wanted``, reusing the closures and proposals kept in ``memo``."""
    raw = _random_relation(rng, n)
    leq = kept(memo, _key(_CLOSURE, raw),
               lambda: Rel.from_mask(n, raw).rt_closure().mask())
    masks: dict = {}
    if "standard" in wanted:
        for gm in range(1, n_groups + 1):
            if gm & (gm - 1) == 0:
                masks[gm] = _propose_group_mask(rng, n, leq, wanted, memo)
        for gm in range(1, n_groups + 1):
            if gm & (gm - 1):
                acc = (1 << (n * n)) - 1
                for a in bits(gm):
                    acc &= masks[1 << a]
                masks[gm] = acc
    elif "prestandard" in wanted:
        for gm in sorted(range(1, n_groups + 1), key=lambda m: (bin(m).count("1"), m)):
            bound = (1 << (n * n)) - 1
            for sub in range(1, gm):
                if sub | gm == gm and sub in masks:
                    bound &= masks[sub]
            masks[gm] = _propose_group_mask(rng, n, leq, wanted, memo) & bound
    else:
        for gm in range(1, n_groups + 1):
            masks[gm] = _propose_group_mask(rng, n, leq, wanted, memo)
    return (leq,) + tuple(masks[gm] for gm in range(1, n_groups + 1))


def enumerate_frames(budget: SizeBudget, classes=FrameClass.ALL,
                     agents: Optional[AgentSet] = None,
                     stats: Optional[dict] = None) -> Iterator[Frame]:
    """Deterministic stream of pairwise-distinct frames of the given classes.

    Per state count the frames share one memo (``Frame.share``): one ``Rel``
    per mask, so what a ``Rel`` keeps is computed once, each class test's
    verdict per ``(leq, R)`` (``has_class``), and the sampler's closures and
    proposal masks.  Up to 3 states the memo is the process's frame table,
    which every stream shares; only the rng, the dedup set, ``stats`` and the
    frame order are the stream's own.  Samples dedupe on their masks."""
    classes = _normalize_classes(classes)
    # class names, not members: an Enum member hashes in Python code
    wanted = {c.value for c in classes}
    if agents is None:
        agents = default_agents(budget.max_agents)
    n_groups = (1 << len(agents)) - 1
    if stats is None:
        stats = {}
    stats.update({"candidates": 0, "emitted": 0, "exhaustive": True})
    if budget.is_empty():
        stats["exhaustive"] = False
        return
    rng = None  # made at the first sampled state count: the exhaustive ones draw nothing
    remaining = budget.max_candidates
    for n in range(1, budget.max_states + 1):
        raw = _raw_space(n, n_groups)
        memo = _frame_tables.setdefault(n, {}) if n <= 3 else {}
        if raw is not None and raw <= remaining:
            rels = [kept(memo, m, Rel.from_mask, n, m) for m in range(1 << (n * n))]
            for p in preorders(n):
                leq = rels[p.mask()]
                for group_rels in itertools.product(rels, repeat=n_groups):
                    stats["candidates"] += 1
                    frame = Frame(agents, n, leq, group_rels).share(memo)
                    if all(has_class(frame, c) for c in classes):
                        stats["emitted"] += 1
                        yield frame
            remaining -= raw
        else:
            stats["exhaustive"] = False
            rng = rng or random.Random(budget.seed)
            levels_left = budget.max_states - n + 1
            tries = remaining // levels_left
            remaining -= tries
            seen: set = set()
            for _ in range(tries):
                stats["candidates"] += 1
                key = _propose_masks(rng, n, n_groups, wanted, memo)
                if key in seen:
                    continue
                seen.add(key)
                leq, *group_rels = [kept(memo, m, Rel.from_mask, n, m) for m in key]
                frame = Frame(agents, n, leq, tuple(group_rels)).share(memo)
                if all(has_class(frame, c) for c in classes):
                    stats["emitted"] += 1
                    yield frame


def mono_structures(n: int, kind: Optional[str] = None) -> Iterator[MonoStructure]:
    """All single-relation structures on n states, optionally filtered.
    Both kinds need accessibility inside the preorder, so a kind visits only
    the submasks of the preorder's mask, in ascending order."""
    for leq in preorders(n):
        masks = range(1 << (n * n)) if kind is None else _submasks(leq.mask())
        for mask in masks:
            ms = MonoStructure(n, leq, Rel.from_mask(n, mask))
            if kind is None or is_iel_structure(ms, kind):
                yield ms


def _submasks(full: int) -> Iterator[int]:
    sub = 0
    while True:
        yield sub
        if sub == full:
            return
        sub = (sub - full) & full  # the next submask up


# ---------- random models ----------

def random_model(budget: SizeBudget, frame: Frame,
                 atoms: Sequence[str] = ("p", "q")) -> Model:
    return _random_model(random.Random(budget.seed), frame, atoms)


def _random_model(rng: random.Random, frame: Union[Frame, MonoStructure],
                  atoms: Sequence[str]) -> Model:
    sets = up_sets(frame)
    return Model.make(frame, {a: rng.choice(sets) for a in atoms})


# ---------- formula spaces ----------

def _levels(atoms: Sequence[str], depth: int, groups: Sequence[Group],
            modal: tuple) -> Program:
    """The atoms, TOP and BOT, then ``depth`` rounds adding every new
    formula among the ``modal`` boxes or diamonds of each group over the
    level and the binary combinations of the level, as one node array.  A
    formula is new when its ``(op, left, right)`` triple is."""
    consts: dict = {}  # atom name or group -> its index
    level = dict.fromkeys([(_ATOM, consts.setdefault(a, len(consts)), 0) for a in atoms]
                          + [(_TOP, 0, 0), (_BOT, 0, 0)])
    for _ in range(depth):
        n = len(level)
        fresh = [(op, f, consts.setdefault(g, len(consts)))
                 for g in groups for f in range(n) for op in modal]
        fresh += [(op, a, b) for a in range(n) for b in range(n)
                  for op in (_IMPLIES, _OR, _AND)]
        level.update(dict.fromkeys(fresh))
    return Program._of_nodes(level, consts, list(range(len(level))))


def all_formulas(atoms: Sequence[str], groups: Sequence[Group],
                 depth: int) -> list[Formula]:
    """Every formula over the atoms and groups up to the given depth."""
    return _levels(atoms, depth, groups, (_BOX, _DIA))._formulas()


def diamond_free_formulas(atoms: Sequence[str], group: Group,
                          depth: int) -> list[Formula]:
    """Every diamond-free formula (single box group) up to the given depth."""
    return _levels(atoms, depth, (group,), (_BOX,))._formulas()


def random_formula(rng: random.Random, atoms: Sequence[str],
                   groups: Sequence[Group], depth: int) -> Formula:
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        f = Atom(rng.choice(list(atoms))) if roll < 0.7 else \
            TOP if roll < 0.85 else BOT
    elif (kind := rng.choice("iioabd" if groups else "iioa")) in "bd":
        f = (Box if kind == "b" else Dia)(
            rng.choice(list(groups)), random_formula(rng, atoms, groups, depth - 1))
    else:
        left = random_formula(rng, atoms, groups, depth - 1)
        right = random_formula(rng, atoms, groups, depth - 1)
        f = {"i": Implies, "o": Or, "a": And}[kind](left, right)
    # each node hashed as it is built, from its children's kept hashes, so
    # no later hash (``sample_formulas``' dedup) takes the node-array pass
    hash(f)
    return f


def sample_formulas(rng: random.Random, atoms: Sequence[str],
                    groups: Sequence[Group], depth: int,
                    count: int) -> list[Formula]:
    out: list[Formula] = []
    seen = set()
    for _ in range(count * 30):
        if len(out) >= count:
            break
        f = random_formula(rng, atoms, groups, depth)
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


# ---------- countermodel search ----------

@dataclass(frozen=True)
class CountermodelResult:
    found: bool
    model: Optional[Model]
    state: Optional[int]
    frames_checked: int
    exhausted: bool  # whole class space within the size bound was examined

    def to_json(self) -> dict:
        out = {"found": self.found, "frames_checked": self.frames_checked,
               "exhausted": self.exhausted}
        if self.found:
            out["model"] = model_to_doc(self.model)
            out["state"] = f"w{self.state}"
        return out


def agents_for_formula(a: Formula) -> AgentSet:
    """The agent universe a search over frames needs: the formula's own
    agents, or a single default agent for purely propositional input."""
    names = sorted(agents_of(a))
    if not names:
        return default_agents(1)
    return AgentSet(tuple(names))


def countermodel(a: Formula, classes, budget: SizeBudget,
                 cap: int = DEFAULT_ASSIGNMENT_CAP) -> CountermodelResult:
    """First model of the class falsifying ``a`` at some state, if any.

    A miss is only a validity proof when the result is exhaustive."""
    classes = _normalize_classes(classes)
    stats: dict = {}
    checked = 0
    skipped = False
    agents = agents_for_formula(a)
    frames = enumerate_frames(budget, classes, agents=agents, stats=stats)
    for hit, _ in falsified(((frame, None) for frame in frames), a, cap):
        checked += 1
        if hit is None:
            continue
        if isinstance(hit, BudgetError):
            skipped = True
            continue
        model, state = hit
        if satisfies(model, state, a):  # pragma: no cover
            raise RuntimeError("countermodel witness failed re-verification")
        if not all(has_class(model.frame, c) for c in classes):  # pragma: no cover
            raise RuntimeError("countermodel witness left the frame class")
        return CountermodelResult(True, model, state, checked, False)
    return CountermodelResult(False, None, None, checked,
                              stats.get("exhaustive", False) and not skipped)


# ---------- proposition battery ----------

@dataclass(frozen=True)
class SuiteEntry:
    name: str
    checked: int
    witnesses: tuple
    extra: tuple = ()

    @property
    def status(self) -> str:
        """A check fails exactly when it has witnesses."""
        return "fail" if self.witnesses else "pass"

    def to_json(self) -> dict:
        out = {"status": self.status, "checked": self.checked,
               "witnesses": list(self.witnesses)}
        out.update(dict(self.extra))
        return out


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    entries: tuple

    @property
    def ok(self) -> bool:
        return all(e.status == "pass" for e in self.entries)

    def entry(self, name: str) -> SuiteEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def to_json(self) -> dict:
        return {"seed": self.seed,
                "entries": {e.name: e.to_json() for e in self.entries}}


AXIOM_CLASSES = (
    ("A1", FrameClass.ALL), ("A2", FrameClass.ALL), ("A3", FrameClass.ALL),
    ("A4", FrameClass.ALL), ("A5", FrameClass.ALL),
    ("A6", FrameClass.DOXASTIC), ("A7", FrameClass.EPISTEMIC),
    ("A8", FrameClass.UD), ("A9", FrameClass.UD),
    ("A10", FrameClass.UD), ("A11", FrameClass.UD),
    ("A12", FrameClass.PRESTANDARD), ("A13", FrameClass.PRESTANDARD),
)


def axiom_instances(sid: str, agents: AgentSet) -> list[Formula]:
    """Concrete instances of a schema with atoms kept as atoms, one per
    group (or ordered pair of groups) over the agent set."""
    from .proofs import schema_catalog

    schema = schema_catalog()[sid]
    gvars = set()
    for slot in groups_of(schema.formula):
        gvars |= slot
    atom_map = {nm: Atom(nm) for nm in ("p", "q", "r")}
    out = []
    if not gvars:
        return [instantiate(schema, atom_map, {})]
    if gvars == {"alpha"}:
        for g in agents.groups():
            out.append(instantiate(schema, atom_map, {"alpha": g}))
        return out
    for g1 in agents.groups():
        for g2 in agents.groups():
            out.append(instantiate(schema, atom_map, {"alpha": g1, "beta": g2}))
    return out


_RULE_POOL_AB = (
    (Atom("p"), Atom("p")),
    (Atom("p"), Or(Atom("p"), Atom("q"))),
    (And(Atom("p"), Atom("q")), Atom("p")),
    (BOT, Atom("p")),
    (Atom("p"), TOP),
    (Atom("p"), Atom("q")),
)


def _rule_pool_r3(group: Group) -> list[tuple[Formula, Formula, Formula]]:
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    return [(p, TOP, q), (p, Dia(group, p), p), (p, BOT, p), (p, q, r)]


def _witness_doc(frame: Frame, formula: Formula, note: str) -> dict:
    return {"formula": render(formula), "note": note,
            "frame": model_to_doc(Model.make(frame, {}))}


def proposition_suite(budget: SizeBudget,
                      frames_per_check: Optional[int] = None) -> SuiteReport:
    """Run the validity, rule-preservation, heredity and construction-claim
    batteries at the given budget; failures become report witnesses."""
    if budget.is_empty():
        return SuiteReport(budget.seed, ())
    if frames_per_check is None:
        frames_per_check = max(1, min(100, budget.max_candidates // 50))
    agents = default_agents(budget.max_agents)
    entries: list[SuiteEntry] = []

    entries.append(_heredity_entry(budget, agents, frames_per_check))
    entries.extend(_axiom_entries(budget, agents, frames_per_check))
    entries.extend(_rule_entries(budget, agents, frames_per_check))
    entries.extend(_claim_entries(budget, agents, frames_per_check))
    return SuiteReport(budget.seed, tuple(entries))


def _take_frames(budget: SizeBudget, classes, count: int,
                 agents: AgentSet, max_states: Optional[int] = None) -> list[Frame]:
    b = budget if max_states is None else replace(
        budget, max_states=min(budget.max_states, max_states))
    return list(itertools.islice(enumerate_frames(b, classes, agents=agents), count))


def _heredity_entry(budget: SizeBudget, agents: AgentSet,
                    frames_per_check: int) -> SuiteEntry:
    rng = random.Random(f"{budget.seed}:heredity")
    groups = agents.groups()
    checked = 0
    witnesses = []
    for frame in _take_frames(budget, FrameClass.ALL, frames_per_check, agents):
        model = _random_model(rng, frame, ("p", "q"))
        program = Program(sample_formulas(rng, ("p", "q"), groups,
                                          budget.max_formula_depth, 20))
        masks = Evaluator(frame).run(program, model.val_map())
        for f, i in zip(program, program.roots):
            checked += 1
            if not is_closed(frame.leq, masks[i]):
                witnesses.append({"formula": render(f),
                                  "model": model_to_doc(model)})
    return SuiteEntry("heredity", checked, tuple(witnesses[:3]))


def _axiom_entries(budget: SizeBudget, agents: AgentSet,
                   frames_per_check: int) -> list[SuiteEntry]:
    out = []
    for sid, cls in AXIOM_CLASSES:
        instances = axiom_instances(sid, agents)
        checked = 0
        witnesses = []
        for frame in _take_frames(budget, cls, frames_per_check, agents):
            for inst in instances:
                checked += 1
                if not valid_in_frame(frame, inst):
                    witnesses.append(_witness_doc(frame, inst, "axiom falsified"))
            if witnesses:
                break
        out.append(SuiteEntry(f"{sid}_on_{cls.value}", checked,
                              tuple(witnesses[:3])))
    return out


def _rule_entries(budget: SizeBudget, agents: AgentSet,
                  frames_per_check: int) -> list[SuiteEntry]:
    group = frozenset({agents.names[0]})
    out = []
    frames = _take_frames(budget, FrameClass.ALL, frames_per_check, agents)
    for rule in ("R1", "R2", "R3"):
        checked = 0
        vacuous = 0
        witnesses = []
        if rule == "R3":
            cases = [(Implies(Dia(group, a), Or(b, Box(group, Implies(a, c)))),
                      Implies(Dia(group, a), Or(b, Dia(group, c))))
                     for a, b, c in _rule_pool_r3(group)]
        else:
            wrap = Box if rule == "R1" else Dia
            cases = [(Implies(a, b),
                      Implies(wrap(group, a), wrap(group, b)))
                     for a, b in _RULE_POOL_AB]
        for frame in frames:
            for premise, conclusion in cases:
                checked += 1
                if not valid_in_frame(frame, premise):
                    vacuous += 1
                    continue
                if not valid_in_frame(frame, conclusion):
                    witnesses.append(_witness_doc(frame, conclusion,
                                                  "conclusion falsified"))
        out.append(SuiteEntry(f"{rule}_preserves_validity", checked,
                              tuple(witnesses[:3]),
                              extra=(("vacuous", vacuous),)))
    return out


class _Claim(NamedTuple):
    """One construction claim: build an output from each input model, check
    that it agrees with the input on a formula battery, check its classes.
    An input whose output would exceed the size budget is skipped and
    counted."""
    name: str
    build: Callable  # (input model, agents, group) -> ConstructionResult
    inputs: object  # frame classes, or the kind of mono-structure inputs
    share: int  # inputs: frames_per_check // share, at least 2 (all if 1)
    max_states: Optional[int]  # input state cap
    out: object  # output frame classes, or the kind of a mono output
    kept: tuple = ()  # output classes wherever the input has them


_PRESERVED = (FrameClass.DOXASTIC, FrameClass.EPISTEMIC, FrameClass.UD,
              FrameClass.RS, FrameClass.PARTITION)

# A claim looks its construction up by name when it runs, so a wrapper
# rebound over the module attribute (a tracer, a test's patch) is called.
_CLAIMS = (
    _Claim("claim_standardize", lambda m, ag, g: standardize(m, "default"),
           (FrameClass.PRESTANDARD,), 12, 2, (FrameClass.STANDARD,),
           _PRESERVED),
    _Claim("claim_standardize_partition",
           lambda m, ag, g: standardize(m, "partition"),
           (FrameClass.PRESTANDARD, FrameClass.PARTITION), 12, 2,
           (FrameClass.STANDARD,), _PRESERVED),
    _Claim("claim_transitive_lift", lambda m, ag, g: transitive_lift(m),
           (FrameClass.ALL,), 1, None, (FrameClass.TRANSITIVE,),
           (FrameClass.PRESTANDARD, FrameClass.STANDARD)),
    _Claim("claim_rs_collapse", lambda m, ag, g: rs_collapse(m),
           (FrameClass.UD,), 1, None, (FrameClass.RS,)),
    _Claim("claim_partition_lift", lambda m, ag, g: partition_lift(m, "plain"),
           (FrameClass.RS,), 3, None, (FrameClass.PARTITION,)),
    _Claim("claim_partition_lift_prestandard",
           lambda m, ag, g: partition_lift(m, "prestandard"),
           (FrameClass.RS, FrameClass.PRESTANDARD), 3, None,
           (FrameClass.PARTITION, FrameClass.PRESTANDARD)),
    _Claim("claim_expand_mono", lambda m, ag, g: expand_mono(m, ag, "minus"),
           "minus", 1, 3, (FrameClass.DOXASTIC, FrameClass.STANDARD)),
    _Claim("claim_expand_mono_full", lambda m, ag, g: expand_mono(m, ag, "full"),
           "full", 1, 3, (FrameClass.EPISTEMIC, FrameClass.STANDARD)),
    _Claim("claim_collapse_mono", lambda m, ag, g: collapse_mono(m, g, "minus"),
           (FrameClass.DOXASTIC,), 1, None, "minus"),
    _Claim("claim_collapse_mono_epi",
           lambda m, ag, g: collapse_mono(m, g, "full"),
           (FrameClass.EPISTEMIC,), 1, None, "full"),
)


def _claim_inputs(c: _Claim, budget: SizeBudget, agents: AgentSet,
                  frames_per_check: int, rng: random.Random) -> list:
    count = frames_per_check if c.share == 1 else \
        max(2, frames_per_check // c.share)
    if not isinstance(c.inputs, str):
        return _take_frames(budget, c.inputs, count, agents, c.max_states)
    out = [ms for n in range(1, min(budget.max_states, c.max_states) + 1)
           for ms in mono_structures(n, c.inputs)]
    if len(out) > count:
        out = out[:count // 2] + rng.sample(out, count // 2)
    return out


def _claim_entries(budget: SizeBudget, agents: AgentSet,
                   frames_per_check: int) -> list[SuiteEntry]:
    rng = random.Random(f"{budget.seed}:claims")
    groups = agents.groups()
    depth = min(2, budget.max_formula_depth)
    # each battery is born a node array and then evaluated once per model
    small = _levels(("p",), depth, groups, (_BOX, _DIA))
    free = {g: _levels(("p",), depth, (g,), (_BOX,)) for g in groups}
    entries = []
    for c in _CLAIMS:
        checked = skipped = 0
        mismatches: list = []
        failures: list = []
        # a mono output is built once for each end group, first and last
        alphas = (groups[0], groups[-1]) if isinstance(c.out, str) else (None,)
        for source in _claim_inputs(c, budget, agents, frames_per_check, rng):
            mono_input = isinstance(source, MonoStructure)
            model = _random_model(rng, source, ("p",))
            for alpha in alphas:
                try:
                    result = c.build(model, agents, alpha)
                except BudgetError:
                    skipped += 1
                    continue
                checked += 1
                out = result.model
                if mono_input or isinstance(c.out, str):
                    # B against tau(B) over each group's diamond-free battery
                    multi, mono = (out, model) if mono_input else (model, out)
                    for g in (groups if alpha is None else (alpha,)):
                        mismatches.extend(
                            mono_equivalence_mismatches(multi, mono, free[g]))
                else:
                    mismatches.extend(equivalence_mismatches(model, result, small))
                if isinstance(c.out, str):
                    if not is_iel_structure(out.frame, c.out):
                        failures.append({"note": f"{c.name}: output fails "
                                                 f"the {c.out} conditions"})
                else:
                    failures.extend({"note": f"{c.name}: output not {k.value}"}
                                    for k in c.out if not has_class(out.frame, k))
                failures.extend(
                    {"note": f"{c.name} preserving {k.value}: output not {k.value}"}
                    for k in c.kept
                    if has_class(source, k) and not has_class(out.frame, k))
        witnesses = tuple(mismatches[:3]) + tuple(failures[:3])
        entries.append(SuiteEntry(c.name, checked, witnesses,
                                  extra=(("skipped_over_budget", skipped),)))
    return entries
