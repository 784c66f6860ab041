"""The acceptance battery: one test per criterion, exact tolerances.

Every check is an equality or membership assertion at desk scale; budgets
control enumeration sizes only, never tolerances.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one verdict line per
criterion with its timing.
"""
import itertools
import random
import time

import pytest

from ieml import (
    AgentSet, Atom, Evaluator, Frame, FrameClass, Model, Rel, check_frame,
    classify, collapse_mono, equivalence_mismatches, expand_mono, has_class,
    is_closed, is_iel_structure, mono_equivalence_mismatches, parse,
    partition_lift, Program, render, rs_collapse, standardize,
    transitive_lift, up_sets, valid_in_frame,
)
from ieml.errors import BudgetError
from ieml.proofs import check_derivation, load_derivation, soundness_probe
from ieml.search import (
    SizeBudget, all_formulas, axiom_instances, countermodel,
    diamond_free_formulas, enumerate_frames, mono_structures, sample_formulas,
    _random_model,
)

from helpers import random_ast
from test_proofs import DATA, REJECTIONS, SHIPPED, _lines

AG1 = AgentSet.of("a")
AG2 = AgentSet.of("a", "b")
A, B, AB = frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})

PRESERVED = (FrameClass.DOXASTIC, FrameClass.EPISTEMIC, FrameClass.UD,
             FrameClass.RS, FrameClass.PARTITION)


def report(n, name, detail, t0):
    print(f"\nACCEPTANCE {n} {name}: PASS ({detail}, {time.time() - t0:.1f}s)")


def test_criterion_1_heredity():
    t0 = time.time()
    budget = SizeBudget(max_states=4, max_agents=2, max_formula_depth=3,
                        max_candidates=2000, seed=101)
    rng = random.Random(101)
    groups = AG2.groups()
    formulas = all_formulas(("p", "q"), groups, 1) \
        + sample_formulas(rng, ("p", "q"), groups, 3, 250)
    program = Program(formulas)  # compiled once, run once per model
    frames = models = checks = 0
    for frame in enumerate_frames(budget, FrameClass.ALL):
        frames += 1
        ev = Evaluator(frame)
        for _ in range(2):
            model = _random_model(rng, frame, ("p", "q"))
            models += 1
            masks = ev.run(program, model.val_map())
            for f, i in zip(formulas, program.roots):
                assert is_closed(frame.leq, masks[i]), (f, model)
                checks += 1
    assert frames >= 500 and max(f.n for f in [frame]) <= 4
    report(1, "heredity", f"{checks} truth sets over {models} models "
                          f"on {frames} frames up to 4 states", t0)


AXIOM_PLAN = [
    # axiom, validity class, complementary search class, witness must lack
    ("A1", FrameClass.ALL, None, None),
    ("A2", FrameClass.ALL, None, None),
    ("A3", FrameClass.ALL, None, None),
    ("A4", FrameClass.ALL, None, None),
    ("A5", FrameClass.ALL, None, None),
    ("A6", FrameClass.DOXASTIC, FrameClass.ALL, FrameClass.DOXASTIC),
    ("A7", FrameClass.EPISTEMIC, FrameClass.ALL, FrameClass.EPISTEMIC),
    ("A8", FrameClass.UD, FrameClass.DOXASTIC, FrameClass.UD),
    ("A9", FrameClass.UD, FrameClass.DOXASTIC, FrameClass.UD),
    ("A10", FrameClass.UD, FrameClass.ALL, FrameClass.UD),
    ("A11", FrameClass.UD, FrameClass.DOXASTIC, FrameClass.UD),
    ("A12", FrameClass.PRESTANDARD, FrameClass.ALL, FrameClass.PRESTANDARD),
    ("A13", FrameClass.PRESTANDARD, FrameClass.ALL, FrameClass.PRESTANDARD),
]


def test_criterion_2_axiom_validity_battery():
    t0 = time.time()
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=2500, seed=102)
    search1 = SizeBudget(max_states=3, max_agents=1, max_candidates=4000, seed=103)
    search2 = SizeBudget(max_states=3, max_agents=2, max_candidates=4000, seed=103)
    validity_checks = witnesses = 0
    for sid, cls, complement, must_lack in AXIOM_PLAN:
        instances = axiom_instances(sid, AG2)
        frames = 0
        for frame in enumerate_frames(budget, cls):
            frames += 1
            for inst in instances:
                assert valid_in_frame(frame, inst), (sid, render(inst), frame)
                validity_checks += 1
            if frames >= 300:
                break
        assert frames >= 200, sid
        if complement is None:
            continue
        if sid in ("A12", "A13"):
            # these need two genuinely different groups to be falsifiable
            inst = parse("[a]p \\/ [b]p -> [a,b]p") if sid == "A12" \
                else parse("<a,b>p -> <a>p /\\ <b>p")
            result = countermodel(inst, complement, search2)
        else:
            inst = axiom_instances(sid, AG1)[0]
            result = countermodel(inst, complement, search1)
        assert result.found, sid
        assert result.model.frame.n <= 3
        assert not has_class(result.model.frame, must_lack), sid
        witnesses += 1
    report(2, "axiom validity", f"{validity_checks} validity checks, "
                                f"{witnesses} complementary countermodels", t0)


def test_criterion_3_rule_preservation():
    t0 = time.time()
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=2200, seed=104)
    frames = list(itertools.islice(enumerate_frames(budget, FrameClass.ALL), 520))
    assert len(frames) >= 500
    p, q, r = Atom("p"), Atom("q"), Atom("r")
    from ieml.syntax import And, BOT, Box, Dia, Implies, Or, TOP
    g = A
    pool_ab = [(p, p), (p, Or(p, q)), (And(p, q), p), (BOT, p), (p, TOP), (p, q)]
    pool_r3 = [(p, TOP, q), (p, Dia(g, p), p), (p, BOT, p), (p, q, r)]
    lines = []
    for rule in ("R1", "R2", "R3"):
        checked = vacuous = 0
        for frame in frames:
            if rule == "R3":
                cases = [(Implies(Dia(g, a), Or(b, Box(g, Implies(a, c)))),
                          Implies(Dia(g, a), Or(b, Dia(g, c))))
                         for a, b, c in pool_r3]
            else:
                wrap = Box if rule == "R1" else Dia
                cases = [(Implies(a, b), Implies(wrap(g, a), wrap(g, b)))
                         for a, b in pool_ab]
            for premise, conclusion in cases:
                checked += 1
                if not valid_in_frame(frame, premise):
                    vacuous += 1
                    continue
                assert valid_in_frame(frame, conclusion), (rule, frame)
        assert vacuous < checked  # vacuity strictly below 100 percent
        lines.append(f"{rule} {checked - vacuous}/{checked} non-vacuous")
    report(3, "rule preservation", f"{len(frames)} frames per rule; "
                                   + "; ".join(lines), t0)


def _standardize_battery(model, variant, formulas):
    result = standardize(model, variant)
    out = result.model.frame
    assert check_frame(out).ok
    assert has_class(out, FrameClass.STANDARD)
    assert equivalence_mismatches(model, result, formulas) == []
    src = model.frame
    preserved = []
    for c in PRESERVED:
        if has_class(src, c):
            assert has_class(out, c), c
            preserved.append(c.value)
    return out.n, preserved


def test_criterion_4_standardization():
    t0 = time.time()
    rng = random.Random(105)
    fs1 = all_formulas(("p",), AG1.groups(), 2)
    fs2 = all_formulas(("p",), AG2.groups(), 2)
    runs = big = 0
    covered = set()

    # one agent: every frame up to two states is prestandard; run them all
    # with every closed valuation of the single atom
    budget1 = SizeBudget(max_states=2, max_agents=1, max_candidates=100, seed=105)
    for frame in enumerate_frames(budget1, FrameClass.PRESTANDARD):
        for mask in up_sets(frame):
            n_out, preserved = _standardize_battery(
                Model.make(frame, {"p": mask}), "default", fs1)
            runs += 1
            covered.update(preserved)

    # two agents, one state: all five prestandard frames, all valuations
    budget2 = SizeBudget(max_states=1, max_agents=2, max_candidates=50, seed=106)
    for frame in enumerate_frames(budget2, FrameClass.PRESTANDARD):
        for mask in up_sets(frame):
            _standardize_battery(Model.make(frame, {"p": mask}), "default", fs2)
            runs += 1

    # two agents, two states: the 8192-state regime; curated class coverage
    # plus seeded samples (the full space of roughly nine thousand models
    # would need days, see the decision ledger)
    chain = Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    curated = [
        Frame.make(AG2, 2, Rel.total(2), {g: Rel.total(2) for g in AG2.groups()}),
        Frame.make(AG2, 2, chain, {g: Rel.empty(2) for g in AG2.groups()}),
        Frame.make(AG2, 2, chain, {A: Rel.from_pairs(2, [(0, 1), (1, 1)]),
                                   B: Rel.from_pairs(2, [(1, 1)]),
                                   AB: Rel.from_pairs(2, [(1, 1)])}),
    ]
    budget3 = SizeBudget(max_states=2, max_agents=2, max_candidates=17000, seed=107)
    sampled = [f for f in enumerate_frames(budget3, FrameClass.PRESTANDARD)
               if f.n == 2]
    picks = curated + rng.sample(sampled, 3)
    for frame in picks:
        model = _random_model(rng, frame, ("p",))
        n_out, preserved = _standardize_battery(model, "default", fs2)
        runs += 1
        big += n_out == 8192
        covered.update(preserved)

    # partition variant: all one-agent partitions, plus one 8192-state case
    pbudget = SizeBudget(max_states=2, max_agents=1, max_candidates=100, seed=108)
    for frame in enumerate_frames(pbudget, (FrameClass.PRESTANDARD,
                                            FrameClass.PARTITION)):
        for mask in up_sets(frame):
            _standardize_battery(Model.make(frame, {"p": mask}), "partition", fs1)
            runs += 1
    n_out, _ = _standardize_battery(
        Model.make(curated[0], {"p": {0, 1}}), "partition", fs2)
    assert n_out == 8192
    runs += 1

    assert covered >= {c.value for c in PRESERVED}
    assert big >= 4
    elapsed = time.time() - t0
    assert elapsed < 300  # the stated target
    report(4, "standardization", f"{runs} standardizations, {big + 1} at 8192 "
                                 f"states, classes preserved: {sorted(covered)}", t0)


def test_criterion_5_lift_collapse_partition():
    t0 = time.time()
    rng = random.Random(109)
    fs = Program(all_formulas(("p",), AG2.groups(), 2))
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=2600, seed=110)

    lifted = 0
    for frame in itertools.islice(enumerate_frames(budget, FrameClass.ALL), 300):
        model = _random_model(rng, frame, ("p",))
        result = transitive_lift(model)
        assert has_class(result.model.frame, FrameClass.TRANSITIVE)
        assert equivalence_mismatches(model, result, fs) == []
        for c in (FrameClass.PRESTANDARD, FrameClass.STANDARD):
            if has_class(frame, c):
                assert has_class(result.model.frame, c)
        lifted += 1

    collapsed = 0
    for frame in itertools.islice(enumerate_frames(budget, FrameClass.UD), 250):
        model = _random_model(rng, frame, ("p",))
        result = rs_collapse(model)
        assert has_class(result.model.frame, FrameClass.RS)
        assert equivalence_mismatches(model, result, fs) == []
        collapsed += 1

    parted = skipped = 0
    for frame in itertools.islice(enumerate_frames(budget, FrameClass.RS), 110):
        model = _random_model(rng, frame, ("p",))
        try:
            result = partition_lift(model)
        except BudgetError:
            skipped += 1
            continue
        assert has_class(result.model.frame, FrameClass.PARTITION)
        assert equivalence_mismatches(model, result, fs) == []
        parted += 1
    parted_pre = 0
    for frame in itertools.islice(
            enumerate_frames(budget, (FrameClass.RS, FrameClass.PRESTANDARD)), 90):
        model = _random_model(rng, frame, ("p",))
        try:
            result = partition_lift(model, "prestandard")
        except BudgetError:
            skipped += 1
            continue
        assert has_class(result.model.frame, FrameClass.PARTITION)
        assert has_class(result.model.frame, FrameClass.PRESTANDARD)
        assert equivalence_mismatches(model, result, fs) == []
        parted_pre += 1

    assert lifted == 300 and collapsed == 250
    assert parted >= 60 and parted_pre >= 50
    report(5, "lift/collapse/partition", f"{lifted} transitive lifts, "
           f"{collapsed} collapses, {parted}+{parted_pre} partition lifts "
           f"({skipped} over budget)", t0)


def test_criterion_6_conservative_extension_round_trip():
    t0 = time.time()
    rng = random.Random(111)
    df = {g: Program(diamond_free_formulas(("p",), g, 2)) for g in AG2.groups()}

    expands = 0
    for kind in ("minus", "full"):
        structures = [s for n in (1, 2, 3) for s in mono_structures(n, kind)]
        picks = structures[:60] + rng.sample(structures, min(140, len(structures)))
        need = (FrameClass.EPISTEMIC if kind == "full" else FrameClass.DOXASTIC,
                FrameClass.STANDARD)
        for ms in picks:
            mono = _random_model(rng, ms, ("p",))
            result = expand_mono(mono, AG2, kind)
            for c in need:
                assert has_class(result.model.frame, c)
            for g, formulas in df.items():
                assert mono_equivalence_mismatches(result.model, mono,
                                                   formulas) == []
            expands += 1

    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=2000, seed=112)
    collapses = 0
    for kind, cls in (("minus", FrameClass.DOXASTIC),
                      ("full", FrameClass.EPISTEMIC)):
        for frame in itertools.islice(enumerate_frames(budget, cls), 120):
            model = _random_model(rng, frame, ("p",))
            for alpha in (A, AB):
                result = collapse_mono(model, alpha, kind)
                assert is_iel_structure(result.model.frame, kind)
                assert mono_equivalence_mismatches(model, result.model,
                                                   df[alpha]) == []
                collapses += 1
    assert expands >= 300 and collapses >= 400
    report(6, "conservative extension", f"{expands} expansions, "
                                        f"{collapses} collapses round-trip", t0)


def test_criterion_7_proof_checker():
    t0 = time.time()
    probe_budget = SizeBudget(max_states=3, max_agents=2,
                              max_candidates=900, seed=113)
    for fname, logic in sorted(SHIPPED.items()):
        d = load_derivation(DATA / fname)
        result = check_derivation(d, logic)
        assert result.accepted, (fname, result.failure)
        probe = soundness_probe(d.lines[-1][0], logic, probe_budget)
        assert probe.ok and probe.frames_checked > 50, fname
    assert any(fname == "l_all_d_distributed_box_t.json" for fname in SHIPPED)

    assert len(REJECTIONS) >= 20
    for entries, logic, line, fragment in REJECTIONS:
        result = check_derivation(_lines(*entries), logic)
        assert not result.accepted
        assert result.failure[0] == line and fragment in result.failure[1]
    report(7, "proof checker", f"{len(SHIPPED)} derivations accepted and "
           f"probed, {len(REJECTIONS)} mutations rejected at the right line", t0)


def test_criterion_8_variant_agreement():
    t0 = time.time()
    rng = random.Random(114)
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=17000, seed=115)
    frames = list(itertools.islice(
        enumerate_frames(budget, FrameClass.FORWARD_CONFLUENT), 200))
    assert len(frames) == 200
    groups = AG2.groups()
    comparisons = 0
    for frame in frames:
        model = _random_model(rng, frame, ("p", "q"))
        val = model.val_map()
        program = Program(sample_formulas(rng, ("p", "q"), groups, 3, 40))
        runs = [Evaluator(frame, v).run(program, val) for v in
                ("prenosil", "fischer_servi", "wijesekera")]
        for f, i in zip(program, program.roots):
            masks = {run[i] for run in runs}
            assert len(masks) == 1, (f, frame)
            comparisons += 1
    report(8, "variant agreement", f"three diamonds agree on {comparisons} "
                                   f"formula evaluations over 200 models", t0)


def test_criterion_9_parser_round_trip():
    t0 = time.time()
    rng = random.Random(116)
    for _ in range(10000):
        f = random_ast(rng)
        assert parse(render(f)) == f
    corpus = [
        "[a](p \\/ q) -> ((<a>p -> [a]q) -> [a]q)",
        "T", "F", "~p", "~~<a>p", "p <-> q", "p -> q -> r",
        "[a,b]p /\\ <b>q \\/ r", "[a][b][a]p", "<a>(p \\/ q) -> <a>p \\/ <a>q",
        "((p))", "~(p /\\ q)", "[a]p \\/ [b]p -> [a,b]p",
    ]
    for text in corpus:
        once = render(parse(text))
        assert render(parse(once)) == once
    report(9, "parser round trip", "10000 seeded trees plus corpus idempotence", t0)
