import json
from pathlib import Path

import pytest

from ieml import (
    AgentSet, FrameClass, parse, render,
)
from ieml.proofs import (
    AxiomStep, CheckResult, Derivation, LOGIC_CLASSES, LOGIC_SCHEMAS, LogicId,
    MPStep, RuleStep, SubStep, check_derivation, derivation_to_json,
    load_derivation, parse_derivation, schema_catalog, soundness_probe,
)
from ieml.search import SizeBudget, countermodel

DATA = Path(__file__).resolve().parent.parent / "src" / "ieml" / "data" / "derivations"

SHIPPED = {
    "l_all_box_t_to_box_t.json": LogicId.L_all,
    "l_dox_nested_box_t.json": LogicId.L_dox,
    "l_epi_dia_t_consistent.json": LogicId.L_epi,
    "l_par_dia_box_refl.json": LogicId.L_par,
    "l_all_d_distributed_box_t.json": LogicId.L_all_D,
    "l_dox_d_group_split.json": LogicId.L_dox_D,
    "l_epi_d_group_knowledge.json": LogicId.L_epi_D,
    "l_par_d_group_box_refl.json": LogicId.L_par_D,
}


# ---------- the catalog ----------

CATALOG_RENDERS = {
    "A1": "[alpha]p /\\ [alpha]q -> [alpha](p /\\ q)",
    "A2": "<alpha>(p \\/ q) -> <alpha>p \\/ <alpha>q",
    "A3": "[alpha]T",
    "A4": "<alpha>F -> F",
    "A5": "[alpha](p \\/ q) -> (<alpha>p -> [alpha]q) -> [alpha]q",
    "A6": "p -> [alpha]p",
    "A7": "[alpha]p -> (<alpha>p -> F) -> F",
    "A8": "[alpha]p -> p",
    "A9": "p -> <alpha>p",
    "A10": "p -> [alpha]<alpha>p",
    "A11": "<alpha>[alpha]p -> p",
    "A12": "[alpha]p \\/ [beta]p -> [alpha,beta]p",
    "A13": "<alpha,beta>p -> <alpha>p /\\ <beta>p",
    "A14": "[alpha]p -> [alpha][alpha]p",
    "A15": "<alpha><alpha>p -> <alpha>p",
    "A16": "<alpha>p -> [alpha]<alpha>p",
    "A17": "<alpha>[alpha]p -> [alpha]p",
}


def test_catalog_contents():
    cat = schema_catalog()
    for sid, text in CATALOG_RENDERS.items():
        assert render(cat[sid].formula) == text, sid
    # A4 and A7 are stored desugared
    assert cat["A4"].formula == parse("~<alpha>F")
    assert cat["A7"].formula == parse("[alpha]p -> ~~<alpha>p")
    assert len([s for s in cat if s.startswith("IPL")]) == 10


def test_logic_memberships():
    assert "A6" not in LOGIC_SCHEMAS[LogicId.L_all]
    assert "A6" in LOGIC_SCHEMAS[LogicId.L_dox]
    assert "A7" in LOGIC_SCHEMAS[LogicId.L_epi]
    assert "A6" not in LOGIC_SCHEMAS[LogicId.L_par]
    assert set(LOGIC_SCHEMAS[LogicId.L_par]) >= {"A8", "A9", "A10", "A11"}
    for logic in LogicId:
        schemas = LOGIC_SCHEMAS[logic]
        assert ("A12" in schemas) == logic.value.endswith("_D")
        for banned in ("A14", "A15", "A16", "A17"):
            assert banned not in schemas


# ---------- acceptance of derivations ----------

@pytest.mark.parametrize("fname,logic", sorted(SHIPPED.items()))
def test_shipped_derivations_accepted(fname, logic):
    d = load_derivation(DATA / fname)
    result = check_derivation(d, logic)
    assert result.accepted, result.failure
    assert len(result.evidence) == len(d.lines)


def test_single_axiom_line():
    d = parse_derivation([
        {"formula": "[a]T", "just": {"kind": "axiom", "id": "A3"}}])
    result = check_derivation(d, LogicId.L_all)
    assert result.accepted
    assert result.evidence[0]["groups"] == {"alpha": ["a"]}


def test_r1_example_from_identity():
    d = load_derivation(DATA / "l_all_box_t_to_box_t.json")
    assert render(d.lines[-1][0]) == "[a]T -> [a]T"
    assert check_derivation(d, LogicId.L_all).accepted


def test_acceptance_monotone_over_logics():
    d = load_derivation(DATA / "l_all_box_t_to_box_t.json")
    for logic in LogicId:
        assert check_derivation(d, logic).accepted
    d_dox = load_derivation(DATA / "l_dox_nested_box_t.json")
    assert check_derivation(d_dox, LogicId.L_dox_D).accepted


def test_certificate_replay_deterministic():
    d = load_derivation(DATA / "l_all_d_distributed_box_t.json")
    one = check_derivation(d, LogicId.L_all_D).to_json()
    two = check_derivation(d, LogicId.L_all_D).to_json()
    assert json.dumps(one, sort_keys=True) == json.dumps(two, sort_keys=True)


def test_derivation_json_roundtrip():
    d = load_derivation(DATA / "l_par_dia_box_refl.json")
    again = parse_derivation(derivation_to_json(d))
    assert again == d


# ---------- rejections ----------

def _lines(*entries):
    return parse_derivation(list(entries))


def axiom(formula, sid):
    return {"formula": formula, "just": {"kind": "axiom", "id": sid}}


def mp(formula, i, j):
    return {"formula": formula, "just": {"kind": "mp", "i": i, "j": j}}


def rule(formula, kind, i, group):
    return {"formula": formula, "just": {"kind": kind, "i": i, "group": group}}


REJECTIONS = [
    # (lines, logic, failing line, reason fragment)
    ([axiom("p -> [a]p", "A6")], LogicId.L_all, 1, "not in L_all"),
    ([axiom("p -> [a]p", "A6")], LogicId.L_par, 1, "not in L_par"),
    ([axiom("[a]p -> p", "A8")], LogicId.L_epi, 1, "not in L_epi"),
    ([axiom("[a]p \\/ [b]p -> [a,b]p", "A12")], LogicId.L_all, 1, "not in L_all"),
    ([axiom("[a]p -> [a][a]p", "A14")], LogicId.L_all, 1, "not in L_all"),
    ([axiom("[a]T", "A99")], LogicId.L_all, 1, "unknown schema"),
    ([axiom("[a]p", "A3")], LogicId.L_all, 1, "not an instance"),
    ([axiom("[a]p /\\ [b]q -> [a](p /\\ q)", "A1")], LogicId.L_all, 1, "not an instance"),
    ([axiom("[a]p \\/ [b]p -> [b]p", "A12")], LogicId.L_all_D, 1, "not an instance"),
    ([axiom("p -> q -> p", "IPL2")], LogicId.L_all, 1, "not an instance"),
    ([axiom("T", "IPL10"), mp("T", 1, 1)], LogicId.L_all, 2, "not (line 1)"),
    ([axiom("T", "IPL10"), mp("T", 1, 5)], LogicId.L_all, 2, "out of range"),
    ([axiom("T", "IPL10"), mp("T", 2, 1)], LogicId.L_all, 2, "out of range"),
    ([axiom("T", "IPL10"), mp("T", 0, 1)], LogicId.L_all, 2, "out of range"),
    ([axiom("p -> p \\/ q", "IPL6"),
      mp("p \\/ q", 1, 1)], LogicId.L_all, 2, "not (line 1)"),
    ([axiom("p -> p \\/ q", "IPL6"),
      rule("[a]p -> [a](p \\/ q)", "r1", 2, ["a"])], LogicId.L_all, 2, "out of range"),
    ([axiom("p -> p \\/ q", "IPL6"),
      rule("[b]p -> [b](p \\/ q)", "r1", 1, ["a"])], LogicId.L_all, 2, "yields"),
    ([axiom("p -> p \\/ q", "IPL6"),
      rule("<a>p -> [a](p \\/ q)", "r2", 1, ["a"])], LogicId.L_all, 2, "yields"),
    ([axiom("[a]T", "A3"),
      rule("<a>[a]T -> <a>[a]T", "r3", 1, ["a"])], LogicId.L_all, 2, "premise shape"),
    ([axiom("<a>p -> T \\/ [a](p -> q)", "IPL1")], LogicId.L_all, 1, "not an instance"),
    ([axiom("p -> (q -> p)", "IPL1"),
      rule("<a>p -> q \\/ <a>p", "r3", 1, ["a"])], LogicId.L_all, 2, "premise shape"),
    ([axiom("p -> (q -> p)", "IPL1"),
      {"formula": "T -> (q -> T)",
       "just": {"kind": "sub", "i": 1, "map": {"q": "T"}}}],
     LogicId.L_all, 2, "does not yield"),
    ([axiom("T", "IPL10"),
      {"formula": "T", "just": {"kind": "sub", "i": 3, "map": {}}}],
     LogicId.L_all, 2, "out of range"),
]


@pytest.mark.parametrize("case", range(len(REJECTIONS)))
def test_rejections_with_first_failure_line(case):
    entries, logic, line, fragment = REJECTIONS[case]
    result = check_derivation(_lines(*entries), logic)
    assert not result.accepted
    assert result.failure[0] == line
    assert fragment in result.failure[1]


def test_unknown_step_type_is_rejected():
    # a Derivation built through the Python API may hold any object as a step
    d = Derivation(((parse("[a]T"), AxiomStep("A3")), (parse("[a]T"), "A3")))
    result = check_derivation(d, LogicId.L_all)
    assert not result.accepted
    assert result.failure == (2, "unknown justification 'A3'")
    assert len(result.evidence) == 1


def test_rejection_reports_json():
    result = check_derivation(
        _lines(axiom("p -> [a]p", "A6")), LogicId.L_all)
    doc = result.to_json()
    assert doc["accepted"] is False and doc["line"] == 1


def test_r3_happy_path():
    d = _lines(
        axiom("<a>p -> T \\/ [a](p -> q)", "IPL1"),
    )
    # premise itself is not an axiom instance; build it honestly instead
    d = _lines(
        axiom("(<a>p -> T) -> <a>p -> T", "IPL1"),
    )
    # simpler: validate the rule-shape checker directly
    from ieml.proofs import _rule_conclusion
    premise = parse("<a>p -> q \\/ [a](p -> r)")
    want = parse("<a>p -> q \\/ <a>r")
    assert _rule_conclusion("R3", frozenset({"a"}), premise) == want
    assert _rule_conclusion("R3", frozenset({"b"}), premise) is None
    bad = parse("<a>p -> q \\/ [a](r -> p)")
    assert _rule_conclusion("R3", frozenset({"a"}), bad) is None


# ---------- soundness probes ----------

def test_probe_accepted_theorems_have_no_countermodels():
    bud = SizeBudget(max_states=3, max_agents=2, max_candidates=700, seed=19)
    for fname, logic in sorted(SHIPPED.items()):
        d = load_derivation(DATA / fname)
        report = soundness_probe(d.lines[-1][0], logic, bud)
        assert report.ok, (fname, report.countermodels)
        assert report.frames_checked > 50


def test_probe_finds_a6_countermodel_outside_doxastic():
    bud = SizeBudget(max_states=2, max_agents=1, max_candidates=800, seed=20)
    report = soundness_probe(parse("p -> [a]p"), LogicId.L_all, bud)
    assert not report.ok
    # the classic witness: an accessibility step between order-incomparable states
    result = countermodel(parse("p -> [a]p"), FrameClass.ALL, bud)
    assert result.found and result.model.frame.n == 2
    assert not result.model.frame.leq.has(0, 1) or not result.model.frame.leq.has(1, 0)
