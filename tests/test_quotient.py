"""The evaluator's bisimulation quotient: on a large structure a program runs
on the coarsest partition that respects the valuation and is stable under
the relations the clauses read, and every mask must come out exactly as on
the direct path."""
import random
import time

import pytest

from ieml import (
    AgentSet, Atom, BOT, Box, Dia, Evaluator, Frame, Implies, Model,
    MonoStructure, Rel, TOP, is_closed, is_diamond_free, parse,
    partition_lift, satisfies, standardize, tau, up_sets,
)
from ieml import semantics
from ieml.search import SizeBudget, enumerate_frames, mono_structures
from ieml.semantics import VARIANTS, Program, is_forward_confluent, refine
from ieml.syntax import MonoBox

from helpers import (
    bisimilar_blow_up, blow_up, naive_mono_satisfies, naive_satisfies,
    random_ast,
)

AG2 = AgentSet.of("a", "b")
P, Q = Atom("p"), Atom("q")


@pytest.fixture
def always_quotient(monkeypatch):
    """Take the quotient whenever the refinement finishes, however small
    the gain, so that small blow-ups exercise it."""
    monkeypatch.setattr(semantics, "QUOTIENT_MIN_GAIN", 0)


def _battery(rng, agents, count):
    """Random formulas and implications between them, sharing subformula
    objects the way generated batteries do."""
    base = [random_ast(rng, atoms=("p", "q"), agents=agents, depth=3)
            for _ in range(count)]
    return base + [Implies(a, b) for a, b in zip(base, base[1:])]


def _sizes(rng, k):
    """Copies per state for a blow-up of 66-300 states."""
    return [rng.randrange(22, 300 // k + 1) for _ in range(k)]


def _lift_val(src_val, origin):
    return {a: sum(1 << x for x, s in enumerate(origin) if mask >> s & 1)
            for a, mask in src_val}


def _frames():
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=400, seed=5)
    return [f for f in enumerate_frames(budget, "all")
            if f.n == 3 and f.agents == AG2]


SINGLE = [node(g, x) for g in AG2.groups() for node in (Box, Dia)
          for x in (P, Q, TOP, BOT)] + [Implies(P, Q), Implies(Q, P)]


@pytest.mark.parametrize("tabled", [False, True], ids=["raw", "row_tables"])
def test_quotient_masks_match_direct_run_and_oracles(always_quotient, tabled):
    rng = random.Random(61 + tabled)
    pool = _frames()
    confluent = [f for f in pool if is_forward_confluent(f)]
    for variant in VARIANTS:
        for base in rng.sample(confluent if variant == "fischer_servi" else pool, 3):
            origin, leq, rels = bisimilar_blow_up(rng, base.leq, base.rels,
                                                  _sizes(rng, base.n), tabled)
            frame = Frame(AG2, len(origin), leq, rels)
            sets = up_sets(base)
            src = Model.make(base, {"p": rng.choice(sets), "q": rng.choice(sets)})
            model = Model.make(frame, _lift_val(src.val, origin))
            val = model.val_map()
            ev = Evaluator(frame, variant)
            quotient = ev._quotient(val)
            assert quotient is not None and len(quotient[0]) <= base.n
            formulas = _battery(rng, ("a", "b"), 12) + SINGLE
            program = Program(formulas)
            masks = ev.run(program, val)
            assert masks == ev._run(program, val)
            for f, i in zip(formulas, program.roots):
                # each copy satisfies what its origin satisfies in the source
                holds = [naive_satisfies(src, s, f, variant) for s in range(base.n)]
                assert masks[i] == sum(1 << x for x, s in enumerate(origin)
                                       if holds[s]), (variant, f)
                assert ev.truth_mask(f, val) == masks[i]
            # the oracle on the blow-up itself (it rebuilds its pair tables
            # on every call), for three single-pass formulas at random copies
            tail = list(zip(SINGLE, program.roots[-len(SINGLE):]))
            for f, i in rng.sample(tail, 3):
                x = rng.randrange(frame.n)
                assert (masks[i] >> x & 1) == naive_satisfies(model, x, f, variant)


@pytest.mark.parametrize("tabled", [False, True], ids=["raw", "row_tables"])
def test_quotient_on_mono_structures_matches_direct_run_and_oracle(
        always_quotient, tabled):
    rng = random.Random(67 + tabled)
    pool = list(mono_structures(3))
    for ms in rng.sample(pool, 8):
        origin, leq, (r,) = bisimilar_blow_up(rng, ms.leq, (ms.r,),
                                              _sizes(rng, ms.n), tabled)
        big = MonoStructure(len(origin), leq, r)
        closed = [u for u in range(1 << ms.n) if is_closed(ms.leq, u)]
        src = Model.make(ms, {"p": rng.choice(closed), "q": rng.choice(closed)})
        val = _lift_val(src.val, origin)
        ev = Evaluator(big)
        assert ev._quotient(val) is not None
        formulas = [tau(f) for f in _battery(rng, ("a",), 16) if is_diamond_free(f)]
        formulas += [MonoBox(P), MonoBox(Implies(P, Q)), Implies(MonoBox(P), Q)]
        program = Program(formulas)
        masks = ev.run(program, val)
        assert masks == ev._run(program, val)
        for f, i in zip(formulas, program.roots):
            holds = [naive_mono_satisfies(src, s, f) for s in range(ms.n)]
            assert masks[i] == sum(1 << x for x, s in enumerate(origin)
                                   if holds[s]), f
        mm = Model.make(big, val)
        x = rng.randrange(big.n)
        for f, i in zip(formulas[-3:], program.roots[-3:]):
            assert (masks[i] >> x & 1) == naive_mono_satisfies(mm, x, f)


def test_quotient_tells_states_apart_by_their_predecessors(always_quotient):
    # 1 and 2 agree on p and reach nothing, but only 1 lies above 0, which
    # sees p through a: the prenosil <a>p holds at 1 and fails at 2, so a
    # partition stable under leq and R alone, {0} {1, 2}, gets it wrong
    base = Frame.make(AG2, 3, Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1)]),
                      {g: Rel.from_pairs(3, [(0, 1)] if g == frozenset("a") else [])
                       for g in AG2.groups()})
    src = Model.make(base, {"p": 0b110})
    rng = random.Random(79)
    for tabled in (False, True):
        origin, leq, rels = bisimilar_blow_up(rng, base.leq, base.rels,
                                              _sizes(rng, 3), tabled)
        frame = Frame(AG2, len(origin), leq, rels)
        val = _lift_val(src.val, origin)
        formulas = [parse(t) for t in ("<a>p", "<a>p -> p", "[b]<a>p", "~<a>p")]
        program = Program(formulas)
        for variant in ("prenosil", "wijesekera"):
            ev = Evaluator(frame, variant)
            assert len(ev._quotient(val)[0]) == 3
            masks = ev.run(program, val)
            assert masks == ev._run(program, val)
            for f, i in zip(formulas, program.roots):
                holds = [naive_satisfies(src, s, f, variant) for s in range(3)]
                assert masks[i] == sum(1 << x for x, s in enumerate(origin)
                                       if holds[s]), (variant, f)
    assert satisfies(src, 1, formulas[0], "prenosil")
    assert not satisfies(src, 2, formulas[0], "prenosil")


def _blown_up_model(rng, base):
    origin, leq, rels = bisimilar_blow_up(rng, base.leq, base.rels,
                                          _sizes(rng, base.n))
    return origin, Frame(base.agents, len(origin), leq, rels)


def _two_valuations(rng, base, origin):
    """Two lifted valuations under which p differs."""
    sets = up_sets(base)
    a, b = rng.sample(sets, 2)
    return _lift_val((("p", a), ("q", b)), origin), \
        _lift_val((("p", b), ("q", a)), origin)


def test_alternating_valuations_never_reuse_a_stale_quotient(always_quotient):
    rng = random.Random(71)
    pool = [f for f in _frames() if len(up_sets(f)) > 2]
    for base in rng.sample(pool, 4):
        origin, frame = _blown_up_model(rng, base)
        first, second = _two_valuations(rng, base, origin)
        formulas = _battery(rng, ("a", "b"), 10) + SINGLE
        program = Program(formulas)
        ev = Evaluator(frame)
        want = {id(v): ev._run(program, v) for v in (first, second)}
        assert want[id(first)] != want[id(second)]
        for val in (first, second, first, second):
            assert ev.run(program, val) == want[id(val)]
            for f, i in zip(formulas, program.roots):
                assert ev.truth_mask(f, val) == want[id(val)][i]


def _converse(pairs):
    """The pairs ``refine`` takes for the converse of a relation."""
    return tuple((states, row) for row, states in pairs)


def test_refine_examples():
    # a successor chain 0 -> 1 -> 2 -> 3 with p at the top needs a round per
    # state: the distance to p tells the states apart
    succ = Rel(4, (0b0010, 0b0100, 0b1000, 0))
    ident = Rel.identity(4)
    relations = [ident.row_classes(), succ.row_classes()]
    blocks, (leq_rows, succ_rows) = refine([0b0111, 0b1000], relations, 10**6)
    assert sorted(blocks) == [0b0001, 0b0010, 0b0100, 0b1000]
    at = {b: c for c, b in enumerate(blocks)}
    assert all(leq_rows[at[1 << s]] == 1 << at[1 << s] for s in range(4))
    assert all(succ_rows[at[1 << s]] == 1 << at[1 << (s + 1)] for s in range(3))
    assert succ_rows[at[0b1000]] == 0
    assert refine([0b0111, 0b1000], relations, 30) is None
    # a cycle through all four states is one block, whatever its rows
    cycle = Rel(4, (0b0010, 0b0100, 0b1000, 0b0001))
    assert refine([0b1111], [cycle.row_classes()], 10**6) == ([0b1111], [[1]])
    # the converse counts: 0 and 1 reach nothing, but only 0 is reached
    lead = Rel(3, (0, 0, 0b001))
    blocks, _ = refine([0b011, 0b100], [lead.row_classes()], 10**6)
    assert blocks == [0b011, 0b100]
    blocks, (rows, back) = refine([0b011, 0b100], [lead.row_classes(),
                                                   _converse(lead.row_classes())],
                                  10**6)
    assert sorted(blocks) == [0b001, 0b010, 0b100]
    at = {b: c for c, b in enumerate(blocks)}
    assert rows[at[0b100]] == 1 << at[0b001] and back[at[0b001]] == 1 << at[0b100]


def _chain():
    """A 512-state successor chain: refining it takes a round per state."""
    n = 512
    succ = Rel(n, tuple(1 << (i + 1) if i + 1 < n else 0 for i in range(n)))
    return (Frame(AgentSet.of("a"), n, Rel.identity(n), (succ,)),
            {"p": 1 << (n - 1)}, parse("<a>p"))


def _dense():
    """2048 states, every accessibility row distinct and dense."""
    n = 2048
    rng = random.Random(7)
    rels = tuple(Rel(n, tuple(rng.getrandbits(n) for _ in range(n)))
                 for _ in range(3))
    return (Frame(AG2, n, Rel.identity(n), rels), {"p": rng.getrandbits(n)},
            parse("[a](p -> <b>p)"))


def _lift():
    """The partition lift of the construct benchmark's 3-state source."""
    base = Frame.make(AG2, 3, Rel.identity(3), {
        frozenset("a"): Rel.identity(3),
        frozenset("b"): Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0),
                                           (1, 2), (2, 1)]),
        frozenset("ab"): Rel.total(3)})
    out = partition_lift(Model.make(base, {"p": 0b001})).model
    return out.frame, out.val_map(), parse("[a](p -> <b>p)")


def test_quotient_rule_on_constructed_outputs():
    """The 8192-state standardized outputs run on one or two blocks; the
    972-state lift, with 3-6 row classes per relation, and a blow-up whose
    copies share their originals' rows stay on the direct path."""
    total = Rel.total(2)
    src = Model.make(Frame.make(AG2, 2, total, {g: total for g in AG2.groups()}),
                     {"p": 0b11})
    out = standardize(src).model
    ev = Evaluator(out.frame)
    val = out.val_map()
    quotient = ev._quotient(val)
    assert out.frame.n == 8192 and quotient is not None and len(quotient[0]) <= 2
    program = Program([parse(t) for t in ("[a,b]p", "<a>p -> [b]p", "[a]<b>p",
                                          "<a,b>T", "[a](p -> <b>~p)")])
    assert ev.run(program, val) == ev._run(program, val)
    frame, val, _ = _lift()
    assert frame.n == 972 and Evaluator(frame)._quotient(val) is None
    base = _frames()[0]
    frame = blow_up(base, [40, 40, 40])
    assert Evaluator(frame)._quotient({"p": 0}) is None


# First evaluations on fresh structures, best of seven (Python 3.11, 2
# vCPUs): the 512-state successor chain gives up refining in 1.1-1.7 ms
# against 0.4-0.7 ms direct, the 2048-state dense model (all rows distinct)
# takes 7.7-8.1 ms against 4.9-5.6 ms, the 972-state lift 0.41-0.45 ms
# against 0.31-0.34 ms: it skips refining, and the rest is the row classes
# of the relation its formula does not read.  The bound leaves room for a
# loaded machine.
FIRST_EVALUATION_BOUND = 20


@pytest.mark.parametrize("build", [_chain, _dense, _lift],
                         ids=["chain512", "dense2048", "lift972"])
def test_first_evaluation_stays_near_the_direct_path(monkeypatch, build):
    def direct():  # the clause dispatch alone
        frame, val, f = build()  # fresh: no row classes kept yet
        start = time.perf_counter()
        masks = Evaluator(frame)._run(Program((f,)), val)
        return time.perf_counter() - start, masks[-1]

    def first():
        frame, val, f = build()
        start = time.perf_counter()
        ev = Evaluator(frame)
        mask = ev.truth_mask(f, val)
        return time.perf_counter() - start, mask, ev, val, f

    plain = [direct() for _ in range(5)]
    chosen = [first() for _ in range(5)]
    assert len({mask for _, mask, *_ in plain + chosen}) == 1
    assert min(t for t, *_ in chosen) <= \
        FIRST_EVALUATION_BOUND * min(t for t, _ in plain)
    # the choice is kept for the valuation: the next call refines nothing
    calls = []
    real_refine = semantics.refine
    monkeypatch.setattr(semantics, "refine",
                        lambda *a: calls.append(1) or real_refine(*a))
    _, mask, ev, val, f = chosen[-1]
    assert ev.truth_mask(f, dict(val)) == mask and not calls
    ev.truth_mask(f, {})
    # the lift's 3-6 row classes cannot pay even for one block: no refining
    assert bool(calls) == (build is not _lift)


def test_quotient_slot_keeps_no_reference_to_the_structure(always_quotient):
    import gc
    import weakref
    from ieml.semantics import evaluator
    rng = random.Random(83)
    origin, frame = _blown_up_model(rng, _frames()[0])
    val = {"p": 0}
    assert evaluator(frame).truth_mask(P, val) == 0
    assert evaluator(frame)._quotient(val) is not None
    # freed by reference counting alone, evaluator, slot and quotient too
    alive = weakref.ref(frame.leq)
    gc.disable()
    try:
        del frame
        assert alive() is None
    finally:
        gc.enable()
