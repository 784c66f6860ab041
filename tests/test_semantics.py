import os
import random
import subprocess
import sys
import textwrap

import pytest

from ieml import (
    AgentSet, Atom, BOT, Box, Dia, Evaluator, Frame, Implies, Model,
    MonoStructure, Rel, TOP, check_frame, compose,
    falsify_on_frame, is_closed, parse, satisfies,
    substitute, up_sets, valid_in_frame,
)
from ieml.errors import BudgetError, PreconditionError
from ieml.search import SizeBudget, enumerate_frames, sample_formulas
from ieml import semantics
from ieml.semantics import VARIANTS, Program, bits, mono_truth_mask
from ieml.syntax import MonoBox

from helpers import (
    blow_up, naive_compose, naive_converse, naive_falsify, naive_is_closed,
    naive_mono_satisfies, naive_satisfies, naive_set_bits, naive_valid_in_frame,
    random_ast, two_chain_frame,
)

AG = AgentSet.of("a")
AG2 = AgentSet.of("a", "b")
A = frozenset({"a"})


def chain_model(val=None, rel=None):
    frame = two_chain_frame(AG, rel)
    return Model.make(frame, val or {})


# ---------- relations ----------

def test_rel_compose_examples():
    r = Rel.from_pairs(3, [(0, 1), (1, 2)])
    assert compose(Rel.identity(3), r) == r
    assert compose(Rel.empty(3), r) == Rel.empty(3)
    assert compose(Rel.from_pairs(3, [(0, 1)]), Rel.from_pairs(3, [(1, 2)])) \
        == Rel.from_pairs(3, [(0, 2)])


def test_rel_compose_against_oracle():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randrange(1, 5)
        p = Rel.from_mask(n, rng.getrandbits(n * n))
        q = Rel.from_mask(n, rng.getrandbits(n * n))
        assert set(compose(p, q).pairs()) == naive_compose(p, q)


def test_rel_rejects_rows_outside_the_carrier():
    assert Rel(2, (0b11, 0)).rows == (3, 0)
    for rows in ((0b100, 0), (0, -1), (1 << 70, 1)):
        with pytest.raises(ValueError, match="outside the carrier"):
            Rel(2, rows)
    with pytest.raises(ValueError, match="row count"):
        Rel(2, (1,))
    # a relation built from a row table checks its heads and index
    assert Rel._from_table(2, [0b11, 0], [1, 0]) == Rel(2, (0, 3))
    for heads, index in (([0b100], [0, 0]), ([-1], [0, 0]), ([1 << 70], [0, 0]),
                         ([1], [0])):
        with pytest.raises(ValueError, match="does not fit the carrier"):
            Rel._from_table(2, heads, index)


def test_rel_converse_and_closure():
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randrange(1, 5)
        r = Rel.from_mask(n, rng.getrandbits(n * n))
        assert set(r.converse().pairs()) == {(j, i) for i, j in r.pairs()}
        c = r.rt_closure()
        assert c.is_reflexive() and c.is_transitive()
        assert r.le(c)


def test_rel_converse_transpose_path(monkeypatch):
    n = 200
    rng = random.Random(5)
    pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(900)}
    r = Rel.from_pairs(n, pairs)
    assert set(r.converse().pairs()) == {(j, i) for i, j in pairs}

    # the converse picks the bit-matrix transpose for a dense relation with
    # all rows distinct and the row-class pass for one with few distinct rows
    transposes = []
    bit_transpose = semantics._bit_transpose
    monkeypatch.setattr(semantics, "_bit_transpose",
                        lambda *a: transposes.append(a) or bit_transpose(*a))
    dense = Rel(n, tuple(rng.getrandbits(n) for _ in range(n)))
    base = [rng.getrandbits(n) for _ in range(3)]
    repetitive = Rel(n, tuple(rng.choice(base) for _ in range(n)))
    assert len(set(dense.rows)) == n and len(set(repetitive.rows)) <= 3
    for rel, via_transpose in ((dense, True), (repetitive, False)):
        transposes.clear()
        c = rel.converse()
        assert bool(transposes) == via_transpose
        assert c is rel.converse()
        assert c.converse() == rel
        assert set(c.pairs()) == {(j, i) for i, j in rel.pairs()}


def test_bit_transpose_against_pairwise():
    rng = random.Random(16)
    for n in (1, 2, 7, 8, 9, 63, 64, 65, 127, 200, 1000):
        full = (1 << n) - 1
        rows = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(n)]
        rows[0], rows[n // 2] = 0, full  # an empty and an all-ones row
        rows[-1] |= 1 << (n - 1)  # and bit n-1 set in a row and a column
        want = [0] * n
        for i, r in enumerate(rows):
            for j in range(n):
                if r >> j & 1:
                    want[j] |= 1 << i
        assert semantics._bit_transpose(n, tuple(rows)) == want


def test_bits_on_narrow_and_wide_ints():
    # the lowest-bit loop up to WIDE_BITS bits, the scan of the binary text
    # above: the same positions in the same (ascending) order
    rng = random.Random(18)
    wide = semantics.WIDE_BITS
    for width in (1, 2, 63, 64, 65, wide - 1, wide, wide + 1, 8192):
        top = 1 << (width - 1)
        for m in (top, top | 1, rng.getrandbits(width) | top,
                  rng.getrandbits(width) & rng.getrandbits(width) | top,
                  (1 << width) - 1):
            assert list(bits(m)) == naive_set_bits(m)
    assert list(bits(0)) == []


def test_converse_from_64_states_matches_the_pairwise_transpose(monkeypatch):
    # from CLASS_PASS_MIN_STATES states on, a sparse relation takes the
    # signature pass over its row table and a dense one with distinct rows
    # the bit-matrix transpose; both give the pairwise transpose and a row
    # table of distinct heads, each state's row being its head's int object
    transposes = []
    bit_transpose = semantics._bit_transpose
    monkeypatch.setattr(semantics, "_bit_transpose",
                        lambda *a: transposes.append(a) or bit_transpose(*a))
    rng = random.Random(19)

    def sparse_row(n):
        return sum(1 << rng.randrange(n) for _ in range(rng.randrange(4)))

    for n in (semantics.CLASS_PASS_MIN_STATES, 70, 300, semantics.WIDE_BITS + 52):
        base = [sparse_row(n) for _ in range(5)] + [0, (1 << n) - 1 >> n // 2]
        index = [rng.randrange(len(base)) for _ in range(n)]
        rels = [  # (relation, whether the bit-matrix transpose serves it, or
            # None where the class count decides)
            (Rel(n, tuple(base[c] for c in index)), False),
            # heads that repeat, as compose hands them over
            (Rel._from_table(n, base + base,
                             [c + len(base) * rng.randrange(2) for c in index]), False),
            # one or two bits a row, nearly every row distinct
            (Rel(n, tuple(1 << rng.randrange(n) | 1 << rng.randrange(n)
                          for _ in range(n))), None)]
        if n <= 300:  # dense, every row distinct
            rels.append((Rel(n, tuple(rng.getrandbits(n) | 1 << i for i in range(n))), True))
        for r, via_transpose in rels:
            transposes.clear()
            c = r.converse()
            assert via_transpose in (None, bool(transposes))
            assert set(c.pairs()) == naive_converse(r)
            heads, index_ = c.__dict__["_table"]
            assert len(set(heads)) == len(heads)
            assert all(row is heads[k] for row, k in zip(c.rows, index_))
            assert c.converse().rows == r.rows


def test_is_closed_per_class_matches_the_per_state_check():
    # from CLASS_PASS_MIN_STATES states on, a preorder that keeps a row table
    # is checked per row class; the verdicts equal a per-state check, on
    # up-sets and on sets that miss a successor of one of their states
    rng = random.Random(20)
    for n in (semantics.CLASS_PASS_MIN_STATES, 70, 300, semantics.WIDE_BITS + 52):
        if n <= 300:  # the closure of a random functional graph
            leq = Rel(n, tuple(1 << rng.randrange(n) for _ in range(n))).rt_closure()
        else:  # blocks under a chain: a block's row is it and the later ones
            index = [rng.randrange(5) for _ in range(n)]
            blocks = [sum(1 << i for i, c in enumerate(index) if c == b) for b in range(5)]
            leq = Rel._from_table(n, [sum(blocks[b:]) for b in range(5)], index)
        assert "_table" in leq.__dict__
        untabled = Rel(n, leq.rows)
        verdicts = set()
        for _ in range(12 if n <= 300 else 2):  # the oracle reads n-digit rows
            up = 0
            for s in rng.sample(range(n), 3):
                up |= leq.rows[s]
            sets = [up, rng.getrandbits(n), 0, (1 << n) - 1]
            s = next((s for s in naive_set_bits(up) if leq.rows[s] != 1 << s), None)
            if s is not None:  # drop a successor of s other than s itself
                sets.append(up & ~(1 << naive_set_bits(leq.rows[s] & ~(1 << s))[0]))
            for mask in sets:
                want = naive_is_closed(leq, mask)
                assert is_closed(leq, mask) == want == is_closed(untabled, mask)
                verdicts.add(want)
        assert verdicts == {True, False}


def test_runs_without_numpy():
    # numpy blocked from import: the dense converse and the classification
    # of a dense 128-state frame take the bit-matrix transpose and give what
    # they give where numpy can be imported
    code = textwrap.dedent("""
        import random, sys
        from ieml import AgentSet, Frame, Rel, classify, semantics
        calls = []
        bit_transpose = semantics._bit_transpose
        semantics._bit_transpose = lambda *a: calls.append(a) or bit_transpose(*a)
        rng = random.Random(5)
        dense = Rel(200, tuple(rng.getrandbits(200) for _ in range(200)))
        r = Rel.from_mask(128, rng.getrandbits(128 * 128))
        r = Rel.from_pairs(128, r.pairs() + [(j, i) for i, j in r.pairs()]
                           + [(i, i) for i in range(128)])
        frame = Frame(AgentSet.of("a"), 128, Rel.identity(128), (r,))
        print(dense.converse().rows, sorted(c.value for c in classify(frame)))
        print(len(calls) >= 2, sys.modules.get("numpy") is not None)
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    outs = [subprocess.run([sys.executable, "-c", block + code], env=env,
                           check=True, capture_output=True, text=True).stdout
            for block in ("", "import sys; sys.modules['numpy'] = None\n")]
    assert outs[0] == outs[1]
    assert outs[0].splitlines()[1] == "True False"


def test_rt_closure_against_warshall():
    # the pass over row classes from CLASS_PASS_MIN_STATES states on, on raw
    # rows, tables with repeated heads, converses, composites and a chain
    # whose paths run against the state order
    rng = random.Random(17)
    for n in (64, 70, 200):
        chain = Rel(n, (0,) + tuple(1 << (i - 1) for i in range(1, n)))
        for make in _rels_three_ways(rng, n) + [lambda: chain]:
            r = make()
            rows = [x | 1 << i for i, x in enumerate(r.rows)]
            for j in range(n):
                for i in range(n):
                    if rows[i] >> j & 1:
                        rows[i] |= rows[j]
            c = r.rt_closure()
            assert c.rows == tuple(rows)
            assert c.converse() == Rel(n, tuple(rows)).converse()


def test_rel_row_classes():
    rng = random.Random(6)
    base = [rng.getrandbits(40) for _ in range(4)]
    p = Rel(40, tuple(rng.choice(base) for _ in range(40)))
    q = Rel(40, tuple(rng.choice(base[:2]) for _ in range(40)))
    p.row_classes(), q.row_classes()  # compose then hands their states over
    made = [p.converse(), p.compose(q), q.compose(p.converse())]
    assert [set(r.pairs()) for r in made] == [
        {(j, i) for i, j in p.pairs()}, naive_compose(p, q),
        naive_compose(q, p.converse())]
    # built directly, and handed over by converse and compose
    for r in [p, q, Rel.from_mask(5, rng.getrandbits(25)), Rel.identity(3),
              Rel.total(6), Rel.empty(0)] + made:
        classes = r.row_classes()
        assert classes is r.row_classes()
        assert len(classes) == len(set(r.rows))
        covered = 0
        for row, states in classes:
            assert states and not covered & states
            covered |= states
            assert all(r.rows[s] == row for s in bits(states))
        assert covered == (1 << r.n) - 1


def _rels_three_ways(rng, n):
    """Makers of relations on n states built from raw rows, through
    ``Rel._from_table`` with repeated heads, and through ``compose`` and
    ``converse``; each call builds fresh instances.  Rows repeat and some
    relations are reflexive, so every predicate meets both answers; above
    8 states rows outside the reflexive ones are sparse, so the oracles stay
    quick."""
    def draw():
        r = rng.getrandbits(n)
        for _ in range(0 if n <= 8 else 3):
            r &= rng.getrandbits(n)
        return r

    base = [draw() for _ in range(rng.randrange(1, 5) if n <= 8 else 2)]
    index = [rng.randrange(len(base)) for _ in range(n)]
    states = [0] * len(base)
    for i, c in enumerate(index):
        states[c] |= 1 << i
    refl = [h | s for h, s in zip(base, states)]
    wider = [h | draw() for h in refl]
    scattered = [draw() for _ in range(n)]

    def tabled(heads):  # each head twice, states split between the copies
        return Rel._from_table(n, heads + heads, [c + len(heads) * rng.randrange(2)
                                                  for c in index])

    def raw(heads):
        return Rel(n, tuple(heads[c] for c in index))

    return [lambda: raw(base), lambda: raw(refl), lambda: raw(wider),
            lambda: tabled(base), lambda: tabled(refl), lambda: tabled(wider),
            lambda: Rel(n, tuple(scattered)), lambda: Rel.identity(n),
            lambda: Rel.total(n) if n <= 8 else Rel.empty(n),
            lambda: tabled(refl).converse(), lambda: raw(base).converse(),
            lambda: tabled(base).compose(tabled(base)),
            lambda: raw(base).compose(raw(base).converse()),
            lambda: tabled(base).compose(raw(base)).converse()]


def test_rel_algebra_against_oracles():
    rng = random.Random(11)
    for n in [1, 2, 3, 4, 5, 6, 64, 70]:
        makers = _rels_three_ways(rng, n)
        combos = [(a, b) for a in makers for b in makers]
        if n > 6:
            combos = rng.sample(combos, 24)
        for mp in makers:
            p = mp()
            pairs = set(p.pairs())
            assert p.is_reflexive() == all((i, i) in pairs for i in range(n))
            assert p.is_symmetric() == all((j, i) in pairs for i, j in pairs)
            if len(pairs) <= 1000:  # naive_compose takes |pairs|^2 steps
                assert p.is_transitive() == (naive_compose(p, p) <= pairs)
        for mp, mq in combos:
            p, q = mp(), mq()
            pairs, qpairs = set(p.pairs()), set(q.pairs())
            want = naive_compose(p, q) if len(pairs) * len(qpairs) <= 10 ** 6 else None
            # once on fresh instances, then again once both keep tables,
            # row classes and converses
            for _ in range(2):
                if want is not None:
                    assert set(p.compose(q).pairs()) == want
                assert p.le(q) == (pairs <= qpairs) and q.le(p) == (qpairs <= pairs)
                assert p.is_reflexive() == all((i, i) in pairs for i in range(n))
                p.converse(), p.row_classes(), q.converse(), q.row_classes()


def test_rel_compose_class_path(monkeypatch):
    seen = []
    row_classes = Rel.row_classes
    monkeypatch.setattr(Rel, "row_classes",
                        lambda self: seen.append(self) or row_classes(self))
    # a dense-row relation composed with a partner that keeps a table goes
    # through the partner's row classes, from CLASS_PASS_MIN_STATES states on
    rng = random.Random(12)
    for n in (semantics.CLASS_PASS_MIN_STATES - 1, 70):
        seen.clear()
        dense = Rel(n, tuple(rng.getrandbits(n) | 1 for _ in range(n)))
        base = [rng.getrandbits(n) & rng.getrandbits(n) for _ in range(3)]
        partner = Rel._from_table(n, base + base, [rng.randrange(6) for _ in range(n)])
        assert set(dense.compose(partner).pairs()) == naive_compose(dense, partner)
        assert seen == ([partner] if n >= semantics.CLASS_PASS_MIN_STATES else [])
        # a sparse one stays on the per-bit pass, which from
        # CLASS_PASS_MIN_STATES states on ORs one row per class of the partner
        seen.clear()
        sparse = Rel(n, tuple(1 << rng.randrange(n) | 1 << rng.randrange(n)
                              for _ in range(n)))
        assert set(sparse.compose(partner).pairs()) == naive_compose(sparse, partner)
        assert seen == []
    # raw relations of at most 3 states stay on the per-bit loop, also when
    # composed with themselves
    for n in range(4):
        for mask in range(1 << (n * n)):
            seen.clear()
            p, q = Rel.from_mask(n, mask), Rel.from_mask(n, mask ^ 0b101)
            assert set(p.compose(p).pairs()) == naive_compose(p, p)
            assert set(p.compose(q).pairs()) == naive_compose(p, q)
            assert seen == []


# ---------- frames and reports ----------

def test_check_frame_examples():
    one = Frame.make(AG, 1, Rel.identity(1), {A: Rel.empty(1)})
    assert check_frame(one).ok

    bad_refl = Frame.make(AG, 1, Rel.empty(1), {A: Rel.empty(1)})
    rep = check_frame(bad_refl)
    assert not rep.ok and "not reflexive" in rep.problems[0]

    leq = Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2)])
    bad_trans = Frame.make(AG, 3, leq, {A: Rel.empty(3)})
    rep = check_frame(bad_trans)
    assert not rep.ok and any("not transitive" in p for p in rep.problems)


def test_up_sets_examples():
    one = Frame.make(AG, 1, Rel.identity(1), {A: Rel.empty(1)})
    assert up_sets(one) == [0, 1]
    assert up_sets(two_chain_frame(AG)) == [0, 2, 3]
    flat = Frame.make(AG, 2, Rel.identity(2), {A: Rel.empty(2)})
    assert up_sets(flat) == [0, 1, 2, 3]
    with pytest.raises(BudgetError):
        up_sets(flat, cap=2)


def test_valuation_closure_enforced():
    with pytest.raises(ValueError, match="not closed"):
        chain_model({"p": {0}})
    m = chain_model({"p": {1}})
    assert m.v("p") == 0b10


# ---------- satisfaction ----------

def test_satisfies_spec_examples():
    m = chain_model({"p": {1}})
    assert satisfies(m, 0, parse("T"))
    assert not satisfies(m, 0, parse("p \\/ ~p"))
    assert satisfies(m, 1, parse("p \\/ ~p"))
    assert satisfies(m, 0, parse("[a]p"))  # vacuous: empty accessibility
    assert not satisfies(m, 0, parse("p"))


def test_satisfies_cross_validated_with_oracle():
    rng = random.Random(77)
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=300, seed=8)
    frames = list(enumerate_frames(budget, "all"))
    for frame in frames[:40]:
        sets = up_sets(frame)
        model = Model.make(frame, {"p": rng.choice(sets), "q": rng.choice(sets)})
        for _ in range(12):
            f = random_ast(rng, depth=3)
            for s in range(frame.n):
                assert satisfies(model, s, f) == naive_satisfies(model, s, f), \
                    (f, s, model)


def test_satisfies_variants():
    one = Frame.make(AG, 1, Rel.identity(1), {A: Rel.identity(1)})
    m = Model.make(one, {"p": {0}})
    for v in ("prenosil", "fischer_servi", "wijesekera"):
        assert satisfies(m, 0, parse("<a>p"), v)
    # prenosil variant is the plain relation
    m2 = chain_model({"p": {1}}, {A: Rel.from_pairs(2, [(0, 1)])})
    f = parse("<a>p")
    assert satisfies(m2, 0, f, "prenosil") == satisfies(m2, 0, f)


def test_fischer_servi_requires_forward_confluence():
    # 0<=1 with accessibility only at 0 is not forward confluent
    frame = two_chain_frame(AG, {A: Rel.from_pairs(2, [(0, 0)])})
    m = Model.make(frame, {})
    with pytest.raises(PreconditionError):
        satisfies(m, 0, parse("<a>p"), "fischer_servi")


def test_variants_cross_validated_with_oracle():
    rng = random.Random(13)
    budget = SizeBudget(max_states=3, max_agents=1, max_candidates=400, seed=21)
    frames = list(enumerate_frames(budget, "forward_confluent"))
    assert frames
    for frame in frames[:25]:
        sets = up_sets(frame)
        model = Model.make(frame, {"p": rng.choice(sets)})
        for _ in range(8):
            f = random_ast(rng, atoms=("p",), agents=("a",), depth=3)
            for variant in ("prenosil", "fischer_servi", "wijesekera"):
                for s in range(frame.n):
                    assert satisfies(model, s, f, variant) == \
                        naive_satisfies(model, s, f, variant)


def _blow_up_sizes(rng, base):
    """Block sizes that blow ``base`` up to 130-200 states, and a function
    picking one random copy from every block."""
    sizes = [rng.randrange(130, 201) // base.n for _ in range(base.n)]
    starts = [sum(sizes[:k]) for k in range(base.n)]
    return sizes, lambda: [rng.randrange(s, s + k) for s, k in zip(starts, sizes)]


def _lifted(mask, sizes):
    """A state set of the source read on its blow-up: every copy of a member."""
    origin = [s for s, k in enumerate(sizes) for _ in range(k)]
    return sum(1 << x for x, s in enumerate(origin) if mask >> s & 1)


def test_variants_on_blown_up_frames_match_oracle():
    # each state of a 2-3-state frame becomes a block of identical copies,
    # so every row class holds a whole block.  The oracle rebuilds its pair
    # tables on every call and visits states in pairs at each modality, so
    # every formula is a single pass (a box or diamond over an atom or a
    # constant, or an implication between atoms), checked at one random copy
    # per block.
    rng = random.Random(23)
    p, q = Atom("p"), Atom("q")
    formulas = [node(g, x) for g in AG2.groups()
                for node, const in ((Box, BOT), (Dia, TOP)) for x in (p, q, const)]
    formulas += [Implies(p, q), Implies(q, p)]
    for variant in VARIANTS:
        budget = SizeBudget(max_states=3, max_agents=2, max_candidates=1500,
                            seed=9)
        cls = "forward_confluent" if variant == "fischer_servi" else "all"
        pool = [f for f in enumerate_frames(budget, cls) if f.n > 1]
        for base in rng.sample(pool, 2):
            sizes, copies = _blow_up_sizes(rng, base)
            frame = blow_up(base, sizes)
            assert all(len(r.row_classes()) <= base.n
                       for r in (frame.leq,) + frame.rels)
            sets = up_sets(base)
            model = Model.make(frame, {a: _lifted(rng.choice(sets), sizes)
                                       for a in ("p", "q")})
            for f in formulas:
                for s in copies():
                    assert satisfies(model, s, f, variant) == \
                        naive_satisfies(model, s, f, variant), (variant, f, s)


def test_true_in_model():
    # truth in a model is satisfaction at every state
    def true_in(m, f):
        return all(satisfies(m, s, f) for s in range(m.frame.n))

    m = chain_model({"p": {1}})
    assert true_in(m, parse("T"))
    assert not true_in(m, parse("p"))
    one = Frame.make(AG, 1, Rel.identity(1), {A: Rel.identity(1)})
    assert true_in(Model.make(one, {"p": {0}}), parse("[a]p"))


# ---------- validity ----------

def test_valid_in_frame_examples():
    frame = two_chain_frame(AG)
    assert valid_in_frame(frame, parse("T"))
    assert valid_in_frame(frame, parse("[a]p /\\ [a]q -> [a](p /\\ q)"))
    assert not valid_in_frame(frame, parse("p \\/ ~p"))
    hit = falsify_on_frame(frame, parse("p \\/ ~p"))
    model, state = hit
    assert model.v("p") == 0b10 and state == 0


def test_validity_against_full_valuation_oracle():
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=70, seed=6)
    frames = list(enumerate_frames(budget, "all"))
    rng = random.Random(14)
    formulas = [random_ast(rng, atoms=("p", "q"), agents=("a",), depth=2)
                for _ in range(15)]
    checked = 0
    for frame in frames:
        for f in formulas:
            assert valid_in_frame(frame, f) == naive_valid_in_frame(frame, f)
            checked += 1
    assert checked >= 100


def _first_countermodel(frame, f):
    hit = falsify_on_frame(frame, f)
    return None if hit is None else (hit[0].val_map(), hit[1])


def test_lane_sweep_finds_the_naive_first_countermodel():
    """falsify_on_frame checks all valuations in lanes; it must name the
    same first falsifying valuation (product order) and lowest falsified
    state as the one-valuation-at-a-time oracle."""
    rng = random.Random(16)
    for _ in range(80):
        agents = rng.choice((AG, AG2))
        n = rng.randint(1, 4)
        leq = Rel.from_mask(n, rng.getrandbits(n * n)
                            & rng.getrandbits(n * n)).rt_closure()
        rels = tuple(Rel.from_mask(n, rng.getrandbits(n * n))
                     for _ in agents.groups())
        frame = Frame(agents, n, leq, rels)
        atoms = ("p", "q", "r")[:rng.randrange(4)]
        f = random_ast(rng, atoms or ("p",), agents.names, 3)
        if not atoms:
            f = substitute(f, {"p": rng.choice((TOP, BOT))})
        assert _first_countermodel(frame, f) == naive_falsify(frame, f), \
            (frame, f)


def test_lane_sweep_across_chunks():
    """On the discrete four-state frame three atoms have 16^3 valuations,
    more than one chunk holds, so the sweep takes several chunks."""
    frame = Frame(AG2, 4, Rel.identity(4),
                  (Rel.total(4), Rel.from_pairs(4, [(0, 1), (2, 3)]),
                   Rel.empty(4)))
    assert len(up_sets(frame)) ** 3 * 5 > semantics.LANE_CHUNK_BITS
    for text in ("p /\\ q -> r", "p -> [a](q \\/ r)", "<b>q /\\ r -> <a>p",
                 "p /\\ q -> q \\/ r", "[a,b]r -> [a,b]r"):
        f = parse(text)
        assert _first_countermodel(frame, f) == naive_falsify(frame, f), text
    # the first falsifying valuation of p /\ q -> r lies past the first chunk
    assert _first_countermodel(frame, parse("p /\\ q -> r")) \
        == ({"p": 1, "q": 1, "r": 0}, 0)


def test_validity_invariant_under_atom_renaming():
    frame = two_chain_frame(AG, {A: Rel.from_pairs(2, [(0, 1)])})
    rng = random.Random(15)
    for _ in range(25):
        f = random_ast(rng, atoms=("p", "q"), agents=("a",), depth=3)
        g = substitute(f, {"p": Atom("x1"), "q": Atom("x2")})
        assert valid_in_frame(frame, f) == valid_in_frame(frame, g)


def test_validity_budget():
    frame = Frame.make(AG, 2, Rel.identity(2), {A: Rel.empty(2)})
    with pytest.raises(BudgetError):
        valid_in_frame(frame, parse("p \\/ q"), cap=8)


def test_heredity_property_small():
    rng = random.Random(16)
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=250, seed=31)
    for frame in enumerate_frames(budget, "all"):
        sets = up_sets(frame)
        model = Model.make(frame, {"p": rng.choice(sets), "q": rng.choice(sets)})
        program = Program(sample_formulas(rng, ("p", "q"), frame.agents.groups(), 3, 10))
        masks = Evaluator(frame).run(program, model.val_map())
        for i in program.roots:
            assert is_closed(frame.leq, masks[i])


def test_box_antitone_in_accessibility():
    # growing the accessibility relation can only shrink the box truth set
    rng = random.Random(17)
    box_p = parse("[a]p")
    for _ in range(40):
        n = rng.randrange(1, 4)
        leq = Rel.from_mask(n, rng.getrandbits(n * n)).rt_closure()
        r1 = Rel.from_mask(n, rng.getrandbits(n * n))
        r2 = r1 | Rel.from_mask(n, rng.getrandbits(n * n))
        f1 = Frame.make(AG, n, leq, {A: r1})
        f2 = Frame.make(AG, n, leq, {A: r2})
        sets = up_sets(f1)
        val = {"p": rng.choice(sets)}
        big = Evaluator(f1).truth_mask(box_p, val)
        small = Evaluator(f2).truth_mask(box_p, val)
        assert small & ~big == 0


# ---------- mono structures ----------

def test_mono_satisfaction_box_clause():
    st = MonoStructure(2, Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
                       Rel.from_pairs(2, [(0, 1), (1, 1)]))
    mm = Model.make(st, {"p": {1}})
    assert satisfies(mm, 0, MonoBox(Atom("p")))
    assert satisfies(mm, 0, parse("~~p"))
    assert not satisfies(mm, 0, Atom("p"))


def test_mono_satisfaction_against_oracle():
    rng = random.Random(18)
    from ieml.search import mono_structures
    structures = [s for n in (1, 2, 3) for s in mono_structures(n)]
    for ms in rng.sample(structures, 60):
        closed = [u for u in range(1 << ms.n) if is_closed(ms.leq, u)]
        mm = Model.make(ms, {"p": rng.choice(closed)})
        for _ in range(6):
            f = random_ast(rng, atoms=("p",), agents=("a",), depth=3)
            from ieml import is_diamond_free, tau
            if not is_diamond_free(f):
                continue
            g = tau(f)
            for s in range(ms.n):
                assert satisfies(mm, s, g) == naive_mono_satisfies(mm, s, g)


def test_mono_satisfies_on_blown_up_structure_matches_oracle():
    rng = random.Random(29)
    from ieml.search import mono_structures
    p, q = Atom("p"), Atom("q")
    formulas = [MonoBox(p), MonoBox(TOP), MonoBox(BOT), MonoBox(MonoBox(p)),
                MonoBox(Implies(p, q)), Implies(MonoBox(p), q), Implies(p, q)]
    for ms in rng.sample([s for s in mono_structures(3)], 3):
        sizes, copies = _blow_up_sizes(rng, ms)
        big = blow_up(Frame(AG, ms.n, ms.leq, (ms.r,)), sizes)
        st = MonoStructure(big.n, big.leq, big.rels[0])
        assert len(st.r.row_classes()) <= ms.n
        closed = [u for u in range(1 << ms.n) if is_closed(ms.leq, u)]
        mm = Model.make(st, {a: _lifted(rng.choice(closed), sizes)
                                 for a in ("p", "q")})
        for f in formulas:
            for s in copies():
                assert satisfies(mm, s, f) == naive_mono_satisfies(mm, s, f), (f, s)


def test_wrong_kind_of_box_is_a_type_error():
    st = MonoStructure(2, Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
                       Rel.from_pairs(2, [(0, 1), (1, 1)]))
    mm = Model.make(st, {"p": {1}})
    p = Atom("p")
    with pytest.raises(TypeError, match="^not a formula over a Frame: "):
        Evaluator(chain_model().frame).truth_mask(MonoBox(p), {})
    with pytest.raises(TypeError, match="^not a formula over a MonoStructure: "):
        mono_truth_mask(mm, Box(A, p))
    with pytest.raises(TypeError, match="^not a formula over a MonoStructure: "):
        mono_truth_mask(mm, Dia(A, p))


# ---------- compiled programs ----------

def _shared_battery(rng, atoms, agents, count):
    """Random formulas plus combinations of them, so the list shares
    subformula objects the way generated batteries do."""
    base = [random_ast(rng, atoms=atoms, agents=agents, depth=3)
            for _ in range(count)]
    return base + [Implies(a, b) for a, b in zip(base, base[1:])] + base[:3]


def test_program_run_matches_truth_mask_and_oracle():
    from ieml.semantics import Program
    rng = random.Random(41)
    checked = set()
    for agents in (AG, AG2):
        names = agents.names
        budget = SizeBudget(max_states=3, max_agents=len(names),
                            max_candidates=60, seed=42)
        for frame in enumerate_frames(budget, "all"):
            if frame.agents != agents:
                continue
            sets = up_sets(frame)
            model = Model.make(frame, {"p": rng.choice(sets), "q": rng.choice(sets)})
            formulas = _shared_battery(rng, ("p", "q"), names, 6)
            program = Program(formulas)
            assert len(program) == len(formulas)
            assert all(a is b for a, b in zip(program, formulas))
            for variant in VARIANTS:
                try:
                    ev = Evaluator(frame, variant)
                except PreconditionError:
                    continue
                masks = ev.run(program, model.val_map())
                assert len(masks) == len(program.ops)
                for f, i in zip(formulas, program.roots):
                    assert masks[i] == ev.truth_mask(f, model.val_map()), (f, variant)
                    assert masks[i] == sum(
                        1 << s for s in range(frame.n)
                        if naive_satisfies(model, s, f, variant)), (f, variant)
                checked.add((frame.n, len(names), variant))
    assert {(n, k) for n, k, _ in checked} == {(n, k) for n in (1, 2, 3) for k in (1, 2)}
    assert {v for _, _, v in checked} == set(VARIANTS)


def test_program_run_on_mono_structures_matches_oracle():
    from ieml import is_diamond_free, tau
    from ieml.search import mono_structures
    from ieml.semantics import Program, evaluator
    rng = random.Random(43)
    structures = [s for n in (1, 2, 3) for s in mono_structures(n)]
    for ms in rng.sample(structures, 40):
        closed = [u for u in range(1 << ms.n) if is_closed(ms.leq, u)]
        mm = Model.make(ms, {"p": rng.choice(closed), "q": rng.choice(closed)})
        formulas = [tau(f) for f in _shared_battery(rng, ("p", "q"), ("a",), 8)
                    if is_diamond_free(f)]
        program = Program(formulas)
        masks = evaluator(ms).run(program, dict(mm.val))
        for f, i, mask in zip(formulas, program.roots, mono_truth_mask(mm, program)):
            assert masks[i] == mono_truth_mask(mm, f) == mask
            assert masks[i] == sum(1 << s for s in range(ms.n)
                                   if naive_mono_satisfies(mm, s, f)), f


def test_program_shares_nodes_by_identity():
    from ieml.semantics import Program
    p, q = Atom("p"), Atom("q")
    both = Implies(p, q)
    program = Program([both, Box(A, both), Implies(both, both), both])
    # p, q, both, [a]both, both -> both: the repeated objects are one node
    assert len(program.ops) == 5 and len(program) == 4
    assert program.roots[0] == program.roots[3]
    assert program.consts.count("p") == 1 and A in program.consts
    with pytest.raises(TypeError):
        Program([Implies(p, "q")])


def test_deep_formula_compiles_and_runs_without_recursion():
    from ieml.semantics import Program
    p = Atom("p")
    f = p
    for _ in range(3000):  # p, p->p, (p->p)->p, ... : even depth is p again
        f = Implies(f, p)
    model = chain_model({"p": {1}})
    ev = Evaluator(model.frame)
    program = Program([f])
    assert len(program.ops) == 3001
    assert ev.run(program, model.val_map())[-1] == 0b10
    assert ev.truth_mask(f, model.val_map()) == 0b10
    assert satisfies(model, 1, f) and not satisfies(model, 0, f)


def test_structures_keep_one_evaluator_without_a_cycle():
    import gc
    import weakref
    from ieml.semantics import evaluator
    model = chain_model({"p": {1}})
    frame = model.frame
    assert evaluator(frame) is evaluator(frame)
    assert evaluator(frame, "wijesekera") is not evaluator(frame)
    assert satisfies(model, 1, parse("p")) and evaluator(frame) is evaluator(frame)
    assert frame not in gc.get_referents(evaluator(frame))
    # the frame is freed by reference counting alone, evaluators and all
    alive = weakref.ref(frame.leq)
    gc.disable()
    try:
        del model, frame
        assert alive() is None
    finally:
        gc.enable()
