import itertools
import random

import pytest

from ieml import (
    AgentSet, Atom, Box, Frame, FrameClass, Model, MonoStructure, Rel,
    check_frame, classify, collapse_mono, equivalence_mismatches, expand_mono,
    has_class, Implies, is_closed, is_diamond_free, is_iel_structure,
    mono_equivalence_mismatches, parse,
    partition_lift, partition_lift_witnesses, Program, rs_collapse, satisfies,
    standardize, tau, transitive_lift, witness_h,
)
from ieml import constructions
from ieml.constructions import _icoords, _pi_table
from ieml.errors import BudgetError, PreconditionError
from ieml.search import (
    SizeBudget, all_formulas, diamond_free_formulas, enumerate_frames,
    mono_structures, _random_model,
)
from ieml.semantics import evaluator, mono_truth_mask

from helpers import (
    bisimilar_blow_up, naive_mono_satisfies, naive_satisfies, random_ast,
    two_chain_frame,
)

AG = AgentSet.of("a")
AG2 = AgentSet.of("a", "b")
A, B, AB = frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})


def one_point_model(agents=AG, reflexive=True):
    r = Rel.identity(1) if reflexive else Rel.empty(1)
    frame = Frame.make(agents, 1, Rel.identity(1),
                       {g: r for g in agents.groups()})
    return Model.make(frame, {"p": {0}})


# ---------- standardization ----------

def brute_standard_rel(m, alpha_mask, tables, variant="default"):
    """The lifted relation computed directly from its defining condition."""
    frame = m.frame
    n = frame.n
    agents = frame.agents
    k = len(agents)
    coords = _icoords(agents)
    cpos = {c: i for i, c in enumerate(coords)}
    pi = _pi_table(m, variant)
    n_i = len(tables)
    pairs = []
    for (t, gi), (u, hi) in itertools.product(
            itertools.product(range(n), range(n_i)), repeat=2):
        g, h = tables[gi], tables[hi]
        ok = True
        for gm in range(1, 1 << k):
            for a in range(k):
                if gm >> a & 1 and alpha_mask >> a & 1:
                    if g[cpos[(gm, a)]] != h[cpos[(gm, a)]]:
                        ok = False
            sg = sh = 0
            for a in range(k):
                if gm >> a & 1:
                    sg ^= g[cpos[(gm, a)]]
                    sh ^= h[cpos[(gm, a)]]
            if sg ^ sh != pi[gm][t][u]:
                ok = False
        if ok:
            pairs.append((t * n_i + gi, u * n_i + hi))
    return Rel.from_pairs(n * n_i, pairs)


def test_digit_masks_follow_the_product_order():
    # the masks standardize and partition_lift build rows from: bit i is the
    # i-th table of itertools.product over the radices' ranges
    for radices in ([2], [3, 2, 4], [4, 4, 4], [1, 3]):
        digit = constructions._digit_masks(radices)
        tables = list(itertools.product(*map(range, radices)))
        for c, r in enumerate(radices):
            for v in range(r):
                assert digit(c, v) == sum(1 << i for i, t in enumerate(tables) if t[c] == v)


@pytest.mark.parametrize("agents,nstates,variant", [
    pytest.param(AG, 1, "default", id="agents0-1"),
    pytest.param(AG, 2, "default", id="agents1-2"),
    pytest.param(AG2, 1, "default", id="agents2-1"),
    pytest.param(AG, 1, "partition", id="partition-agents0-1"),
    pytest.param(AG, 2, "partition", id="partition-agents1-2"),
    pytest.param(AG2, 1, "partition", id="partition-agents2-1"),
])
def test_standardize_matches_brute_force(agents, nstates, variant):
    rng = random.Random(nstates + len(agents))
    budget = SizeBudget(max_states=nstates, max_agents=len(agents),
                        max_candidates=20000, seed=1)
    cls = FrameClass.PRESTANDARD if variant == "default" else FrameClass.PARTITION
    frames = [f for f in enumerate_frames(budget, cls, agents=agents)
              if f.n == nstates and has_class(f, FrameClass.PRESTANDARD)]
    assert frames
    for frame in frames[:6] + rng.sample(frames, min(6, len(frames))):
        model = _random_model(rng, frame, ("p",))
        result = standardize(model, variant)
        nvals = 1 << frame.n
        tables = list(itertools.product(range(nvals),
                                        repeat=len(_icoords(agents))))
        for gm in range(1, 1 << len(agents)):
            want = brute_standard_rel(model, gm, tables, variant)
            got = result.model.frame.r_mask(gm)
            assert got == want, (frame, gm)
        # every output relation keeps a row table of distinct rows in order
        # of first occurrence, so states with equal rows share one int
        # object, and the row classes the build hands over are the rows' own
        out = result.model.frame
        for r in (out.leq, *out.rels):
            heads, index = r.__dict__["_table"]
            assert heads == list(dict.fromkeys(r.rows))
            assert index == [heads.index(row) for row in r.rows]
            assert all(row is heads[c] for row, c in zip(r.rows, index))
            assert r.row_classes() == Rel(r.n, r.rows).row_classes()


def test_standardize_one_point_example():
    res = standardize(one_point_model())
    assert res.model.frame.n == 2
    assert res.names == ("w0|g0", "w0|g1")
    assert has_class(res.model.frame, FrameClass.STANDARD)
    assert check_frame(res.model.frame).ok


def test_standardize_requires_prestandard():
    rel = {A: Rel.empty(2), B: Rel.empty(2), AB: Rel.identity(2)}
    frame = Frame.make(AG2, 2, Rel.identity(2), rel)
    with pytest.raises(PreconditionError):
        standardize(Model.make(frame, {}))


def test_standardize_budget():
    frame = Frame.make(AG2, 2, Rel.identity(2),
                       {g: Rel.identity(2) for g in AG2.groups()})
    with pytest.raises(BudgetError):
        standardize(Model.make(frame, {}), max_states=64)


def test_standardize_partition_variant_needs_partition():
    frame = two_chain_frame(AG)  # empty accessibility: not reflexive
    with pytest.raises(PreconditionError):
        standardize(Model.make(frame, {}), "partition")


def test_standardize_claim_and_preservation_small():
    rng = random.Random(23)
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=200, seed=5)
    formulas = all_formulas(("p",), AG.groups(), 2)
    preserved = (FrameClass.DOXASTIC, FrameClass.EPISTEMIC, FrameClass.UD,
                 FrameClass.RS, FrameClass.PARTITION)
    count = 0
    for frame in enumerate_frames(budget, FrameClass.PRESTANDARD):
        model = _random_model(rng, frame, ("p",))
        result = standardize(model)
        assert check_frame(result.model.frame).ok
        assert has_class(result.model.frame, FrameClass.STANDARD)
        assert equivalence_mismatches(model, result, formulas) == []
        for c in preserved:
            if has_class(frame, c):
                assert has_class(result.model.frame, c), c
        count += 1
    assert count == 66  # every 1-agent frame up to two states is prestandard


def test_witness_h_lands_in_lifted_relation():
    rng = random.Random(31)
    budget = SizeBudget(max_states=2, max_agents=2, max_candidates=17000, seed=7)
    frames = list(enumerate_frames(budget, FrameClass.PRESTANDARD))
    for frame in rng.sample(frames, 5):
        model = _random_model(rng, frame, ("p",))
        result = standardize(model)
        nvals = 1 << frame.n
        coords = _icoords(frame.agents)
        tables = list(itertools.product(range(nvals), repeat=len(coords)))
        index_of = {t: i for i, t in enumerate(tables)}
        n_i = len(tables)
        for gm in range(1, 1 << len(frame.agents)):
            alpha = frame.agents.group_of_mask(gm)
            for t, u in frame.r(alpha).pairs():
                for g in rng.sample(tables, 4):
                    h = witness_h(model, alpha, t, u, g)
                    src = t * n_i + index_of[g]
                    dst = u * n_i + index_of[h]
                    assert result.model.frame.r(alpha).has(src, dst)


def test_witness_h_four_cases():
    model = one_point_model(AG2)
    g = tuple([1] * len(_icoords(AG2)))
    h = witness_h(model, A, 0, 0, g)
    coords = _icoords(AG2)
    for (gm, a), value in zip(coords, h):
        in_group = bool(gm >> a & 1)
        in_alpha = a == 0  # alpha = {a}, agent index 0
        if not in_group:
            assert value == 0
        elif in_alpha:
            assert value == g[coords.index((gm, a))]


def test_witness_h_preconditions():
    model = one_point_model(AG, reflexive=False)
    with pytest.raises(PreconditionError, match="t related to u"):
        witness_h(model, A, 0, 0, (0,))
    # R(a,b) outside R(a) & R(b): not prestandard
    frame = Frame.make(AG2, 1, Rel.identity(1),
                       {A: Rel.empty(1), B: Rel.empty(1), AB: Rel.identity(1)})
    with pytest.raises(PreconditionError, match="prestandard"):
        witness_h(Model.make(frame, {}), AB, 0, 0, (0,) * len(_icoords(AG2)))


def test_partition_lift_witnesses_preconditions():
    chain = Model.make(two_chain_frame(AG, {A: Rel.total(2)}), {})
    with pytest.raises(PreconditionError, match="reflexive symmetric"):
        partition_lift_witnesses(Model.make(two_chain_frame(AG), {}), A, 0, 1)
    rs = Frame.make(AG, 2, chain.frame.leq, {A: Rel.identity(2)})
    with pytest.raises(PreconditionError, match="u related to v"):
        partition_lift_witnesses(Model.make(rs, {}), A, 0, 1)
    assert partition_lift_witnesses(chain, A, 0, 1) == ((1, 1), (0, 0))


# ---------- transitive lift ----------

def test_transitive_lift_examples():
    res = transitive_lift(one_point_model())
    out = res.model.frame
    assert out.r(A).pairs() == [(0, 1)]
    assert has_class(out, FrameClass.TRANSITIVE)
    assert res.names == ("w0|0", "w0|1")
    # the point satisfies the diamond of top iff its images do
    dia_top = parse("<a>T")
    assert satisfies(one_point_model(), 0, dia_top)
    assert satisfies(res.model, 0, dia_top)
    assert satisfies(res.model, 1, dia_top)

    empty = Model.make(two_chain_frame(AG), {})
    res2 = transitive_lift(empty)
    assert res2.model.frame.r(A) == Rel.empty(4)


def test_transitive_lift_claim_battery():
    rng = random.Random(41)
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=2000, seed=9)
    formulas = Program(all_formulas(("p",), AG2.groups(), 2))
    for frame in list(enumerate_frames(budget, FrameClass.ALL))[:60]:
        model = _random_model(rng, frame, ("p",))
        result = transitive_lift(model)
        assert check_frame(result.model.frame).ok
        assert has_class(result.model.frame, FrameClass.TRANSITIVE)
        assert equivalence_mismatches(model, result, formulas) == []
        for c in (FrameClass.PRESTANDARD, FrameClass.STANDARD):
            if has_class(frame, c):
                assert has_class(result.model.frame, c)


# ---------- rs collapse ----------

def test_rs_collapse_examples():
    m = one_point_model()
    res = rs_collapse(m)
    assert res.model.frame == m.frame and res.model.val == m.val

    with pytest.raises(PreconditionError):
        rs_collapse(Model.make(two_chain_frame(AG), {}))


def test_rs_collapse_on_rs_inputs_grows_and_preserves():
    rng = random.Random(43)
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=1500, seed=10)
    formulas = all_formulas(("p",), AG2.groups(), 2)
    for frame in list(enumerate_frames(budget, FrameClass.RS))[:40]:
        model = _random_model(rng, frame, ("p",))
        result = rs_collapse(model)
        out = result.model.frame
        assert has_class(out, FrameClass.RS)
        for g in AG2.groups():
            assert frame.r(g).le(out.r(g))
        assert equivalence_mismatches(model, result, formulas) == []


# ---------- partition lift ----------

def test_partition_lift_one_point_identity():
    res = partition_lift(one_point_model())
    assert res.model.frame.n == 1
    assert has_class(res.model.frame, FrameClass.PARTITION)


def test_partition_lift_two_point_total():
    frame = Frame.make(AG, 2, Rel.identity(2), {A: Rel.total(2)})
    model = Model.make(frame, {"p": {1}})
    res = partition_lift(model)
    assert has_class(res.model.frame, FrameClass.PARTITION)
    formulas = all_formulas(("p",), AG.groups(), 2)
    assert equivalence_mismatches(model, res, formulas) == []


def test_partition_lift_preconditions_and_budget():
    with pytest.raises(PreconditionError):
        partition_lift(Model.make(two_chain_frame(AG), {}))
    frame = Frame.make(AG2, 3, Rel.identity(3),
                       {g: Rel.total(3) for g in AG2.groups()})
    with pytest.raises(BudgetError):
        partition_lift(Model.make(frame, {}), max_states=1000)


def test_partition_lift_witnesses_reproduce_reachability():
    frame = Frame.make(AG, 2, Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)]).rt_closure(),
                       {A: Rel.total(2)})
    model = Model.make(frame, {})
    res = partition_lift(model)
    out = res.model.frame
    n_j = len(res.fibers[0])
    coords = [(t, gm) for t in range(2) for gm in (1,)]
    succ_lists = [sorted(j for j in range(2) if frame.r_mask(gm).has(t, j))
                  for t, gm in coords]
    tables = list(itertools.product(*succ_lists))
    index_of = {t: i for i, t in enumerate(tables)}
    # order-then-step reachability transfers up and down the lift
    for t, u, v in itertools.product(range(2), repeat=3):
        src_reach = frame.leq.has(t, u) and frame.r(A).has(u, v)
        for gi in range(n_j):
            lifted = any(
                out.leq.has(t * n_j + gi, u * n_j + hi)
                and out.r(A).has(u * n_j + hi, v * n_j + ii)
                for hi in range(n_j) for ii in range(n_j))
            assert lifted == src_reach
        if src_reach:
            h, i = partition_lift_witnesses(model, A, u, v)
            hi, ii = index_of[h], index_of[i]
            assert out.leq.has(t * n_j + 0, u * n_j + hi)
            assert out.r(A).has(u * n_j + hi, v * n_j + ii)


def test_partition_lift_prestandard_variant():
    rng = random.Random(47)
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=1200, seed=13)
    formulas = all_formulas(("p",), AG2.groups(), 2)
    done = 0
    for frame in enumerate_frames(budget, (FrameClass.RS, FrameClass.PRESTANDARD)):
        model = _random_model(rng, frame, ("p",))
        try:
            res = partition_lift(model, "prestandard")
        except BudgetError:
            continue
        assert has_class(res.model.frame, FrameClass.PARTITION)
        assert has_class(res.model.frame, FrameClass.PRESTANDARD)
        assert equivalence_mismatches(model, res, formulas) == []
        done += 1
        if done >= 25:
            break
    assert done >= 10


# ---------- mono conversions ----------

def test_expand_mono_examples():
    ms = MonoStructure(1, Rel.identity(1), Rel.identity(1))
    mono = Model.make(ms, {"p": {0}})
    res = expand_mono(mono, AG2, "minus")
    tags = classify(res.model.frame)
    assert FrameClass.DOXASTIC in tags and FrameClass.STANDARD in tags
    res_full = expand_mono(mono, AG2, "full")
    assert FrameClass.EPISTEMIC in classify(res_full.model.frame)


def test_expand_mono_precondition():
    leq = Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    bad = Model.make(MonoStructure(2, leq, Rel.from_pairs(2, [(1, 1)])), {})
    with pytest.raises(PreconditionError):
        expand_mono(bad, AG2, "minus")


def test_expand_mono_claim_battery():
    from ieml.search import mono_structures, _random_model
    rng = random.Random(53)
    structures = [s for n in (1, 2, 3) for s in mono_structures(n, "minus")]
    formulas = {g: Program(diamond_free_formulas(("p",), g, 2)) for g in AG2.groups()}
    for ms in structures[:20] + rng.sample(structures, 30):
        mono = _random_model(rng, ms, ("p",))
        res = expand_mono(mono, AG2, "minus")
        for g, fs in formulas.items():
            assert mono_equivalence_mismatches(res.model, mono, fs) == []


def test_collapse_mono_examples():
    m = one_point_model(AG2)
    res = collapse_mono(m, A, "minus")
    assert is_iel_structure(res.model.frame, "minus")

    empty = Model.make(two_chain_frame(AG2), {})
    res2 = collapse_mono(empty, A, "minus")
    assert res2.model.frame.r == Rel.empty(2)
    assert is_iel_structure(res2.model.frame, "minus")

    with pytest.raises(PreconditionError):
        collapse_mono(empty, A, "full")  # not epistemic


def test_collapse_mono_epistemic_yields_full_structure():
    rng = random.Random(59)
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=1500, seed=17)
    formulas = {g: Program(diamond_free_formulas(("p",), g, 2)) for g in AG2.groups()}
    done = 0
    for frame in enumerate_frames(budget, FrameClass.EPISTEMIC):
        model = _random_model(rng, frame, ("p",))
        for alpha in (A, AB):
            res = collapse_mono(model, alpha, "full")
            assert is_iel_structure(res.model.frame, "full")
            assert mono_equivalence_mismatches(model, res.model,
                                               formulas[alpha]) == []
        done += 1
        if done >= 30:
            break
    assert done >= 20


# ---------- claim checks over compiled programs ----------

def _closed_flip(leq, mask):
    """``mask`` with one state toggled, still closed under ``leq``, or None."""
    from ieml.semantics import is_closed
    for s in range(leq.n):
        if is_closed(leq, mask ^ 1 << s):
            return mask ^ 1 << s
    return None


def _dropped_edge(r):
    pairs = r.pairs()
    return Rel.from_pairs(r.n, pairs[1:]) if pairs else None


def _three_ways(check, *args, formulas):
    """The check's records for a Program, a list and a generator."""
    records = [check(*args, Program(formulas)), check(*args, list(formulas)),
               check(*args, (f for f in formulas))]
    assert records[0] == records[1] == records[2]
    return records[0]


def test_equivalence_checks_agree_on_program_list_and_generator():
    rng = random.Random(61)
    formulas = all_formulas(("p",), AG2.groups(), 1) + \
        [parse("[a,b]p -> <a>(p /\\ [b]F)"), parse("~~p \\/ <b>p")]
    budget = SizeBudget(max_states=2, max_agents=2, max_candidates=300, seed=62)
    broken = 0
    for frame in enumerate_frames(budget, FrameClass.PRESTANDARD):
        m = _random_model(rng, frame, ("p",))
        results = [transitive_lift(m)]
        if frame.n == 1 or len(frame.agents) == 1:  # at most 64 output states
            results.append(standardize(m))
        for result in results:
            assert _three_ways(equivalence_mismatches, m, result,
                               formulas=formulas) == []
            out = result.model
            flipped = _closed_flip(out.frame.leq, out.v("p"))
            variants = []
            if flipped is not None:
                variants.append(Model.make(out.frame, {"p": flipped}))
            for i, r in enumerate(out.frame.rels):
                dropped = _dropped_edge(r)
                if dropped is not None:
                    rels = out.frame.rels[:i] + (dropped,) + out.frame.rels[i + 1:]
                    variants.append(Model(Frame(out.frame.agents, out.frame.n,
                                                out.frame.leq, rels), out.val))
                    break
            for bad in variants:
                bad_result = type(result)(bad, result.names, result.fibers)
                records = _three_ways(equivalence_mismatches, m, bad_result,
                                      formulas=formulas)
                broken += bool(records)
                for rec in records:
                    assert set(rec) == {"formula", "source_mask",
                                        "output_disagreement"}
    assert broken >= 10


def test_mono_equivalence_checks_agree_on_program_list_and_generator():
    from ieml.search import mono_structures, _random_model
    rng = random.Random(63)
    formulas = diamond_free_formulas(("p",), A, 1) + [parse("[a]([a]p -> p)")]
    broken = 0
    structures = [s for n in (1, 2, 3) for s in mono_structures(n, "minus")]
    for st in rng.sample(structures, 30):
        mm = _random_model(rng, st, ("p",))
        multi = expand_mono(mm, AG, "minus").model
        assert _three_ways(mono_equivalence_mismatches, multi, mm,
                           formulas=formulas) == []
        flipped = _closed_flip(st.leq, mm.v("p"))
        bad = []
        if flipped is not None:
            bad.append(Model.make(st, {"p": flipped}))
        dropped = _dropped_edge(st.r)
        if dropped is not None:
            bad.append(Model(MonoStructure(st.n, st.leq, dropped), mm.val))
        for mono in bad:
            records = _three_ways(mono_equivalence_mismatches, multi, mono,
                                  formulas=formulas)
            broken += bool(records)
            for rec in records:
                assert set(rec) == {"formula", "multi_mask", "mono_mask"}
                assert rec["multi_mask"] != rec["mono_mask"]
    assert broken >= 10


def test_equivalence_check_on_a_deep_formula():
    from ieml import Atom, Implies
    p = Atom("p")
    f = p
    for _ in range(3000):  # built with the constructors, not the parser
        f = Implies(f, p)
    m = one_point_model()
    assert equivalence_mismatches(m, standardize(m), [f, p]) == []


def test_mono_equivalence_reads_a_battery_in_one_mono_call(monkeypatch):
    calls = []
    one_pass = constructions.mono_truth_mask

    def counted(mm, f):
        calls.append(f)
        return one_pass(mm, f)

    monkeypatch.setattr(constructions, "mono_truth_mask", counted)
    rng = random.Random(65)
    program = Program(diamond_free_formulas(("p",), A, 2))
    st = rng.choice([s for s in mono_structures(3, "minus") if s.r.pairs()])
    mm = _random_model(rng, st, ("p",))
    multi = expand_mono(mm, AG, "minus").model
    assert mono_equivalence_mismatches(multi, mm, program) == []
    assert len(calls) == 1 and isinstance(calls[0], Program)


def _lifted(origin, holds):
    """The blow-up mask of the copies whose origin state satisfies ``holds``."""
    at = [holds(s) for s in range(max(origin) + 1)]
    return sum(1 << x for x, s in enumerate(origin) if at[s])


def test_mono_equivalence_on_a_quotiented_blow_up_matches_oracle():
    rng = random.Random(67)
    formulas = diamond_free_formulas(("p",), A, 1) + [
        f for f in (random_ast(rng, atoms=("p", "q"), agents=("a",), depth=4)
                    for _ in range(120)) if is_diamond_free(f)]
    program = Program(formulas)
    images = tau(program)
    checked = planted = 0
    for st in rng.sample(list(mono_structures(3, "minus")), 40):
        closed = [u for u in range(8) if is_closed(st.leq, u)]
        src = Model.make(st, {"p": rng.choice(closed), "q": rng.choice(closed)})
        flips = [(s, src.v("p") ^ 1 << s) for s in range(3)
                 if is_closed(st.leq, src.v("p") ^ 1 << s)]
        if not flips:
            continue
        s, moved = rng.choice(flips)
        # the moved state gets one copy, so the planted mismatch moves one bit
        sizes = [1 if t == s else rng.randrange(70, 100) for t in range(3)]
        origin, leq, (r,) = bisimilar_blow_up(rng, st.leq, (st.r,), sizes)
        n = len(origin)
        big = MonoStructure(n, leq, r)

        def lift_val(model):
            return {a: _lifted(origin, lambda t: m >> t & 1) for a, m in model.val}

        multi_src = expand_mono(src, AG, "minus").model
        multi = Model.make(Frame.make(AG, n, leq, {A: r}), lift_val(src))
        multi_masks = [_lifted(origin, lambda t: naive_satisfies(multi_src, t, f))
                       for f in formulas]
        for mono_src in (src, Model.make(st, {**dict(src.val), "p": moved})):
            mono = Model.make(big, lift_val(mono_src))
            if evaluator(big)._quotient(dict(mono.val)) is None:
                break  # the direct path: not what this test is about
            want = [_lifted(origin, lambda t: naive_mono_satisfies(mono_src, t, g))
                    for g in images]
            assert mono_truth_mask(mono, images) == want
            expected = [{"formula": str(f), "multi_mask": left, "mono_mask": right}
                        for f, left, right in zip(formulas, multi_masks, want)
                        if left != right]
            assert mono_equivalence_mismatches(multi, mono, program) == expected
            if mono_src is src:
                assert expected == []
                checked += 1
            else:
                assert expected
                planted += 1
    assert checked >= 10 and planted >= 10


def test_tau_and_mono_check_on_a_deep_formula():
    p = Atom("p")
    f = p
    for k in range(3000):  # built with the constructors, not the parser
        f = Box(A, f) if k % 2 else Implies(f, p)
    assert is_diamond_free(f)
    g = tau(f)
    assert tau(f) == g
    st = MonoStructure(2, Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
                       Rel.from_pairs(2, [(0, 1), (1, 1)]))
    mm = Model.make(st, {"p": {1}})
    multi = expand_mono(mm, AG, "minus").model
    assert mono_equivalence_mismatches(multi, mm, [f, p]) == []
