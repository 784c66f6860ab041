import random

import pytest

from ieml import (
    AgentSet, Frame, FrameClass, MonoStructure, Rel, classify, has_class,
    is_iel_structure,
)
from ieml import semantics
from ieml.search import SizeBudget, enumerate_frames

from helpers import blow_up, naive_classes, two_chain_frame

AG = AgentSet.of("a")
AG2 = AgentSet.of("a", "b")
A, B, AB = frozenset({"a"}), frozenset({"b"}), frozenset({"a", "b"})


def test_one_point_full_frame_has_every_class():
    frame = Frame.make(AG2, 1, Rel.identity(1),
                       {g: Rel.identity(1) for g in AG2.groups()})
    assert classify(frame) == list(FrameClass)


def test_has_class_rejects_unknown_classes():
    frame = two_chain_frame(AG2)
    with pytest.raises(ValueError, match="not a valid FrameClass"):
        has_class(frame, "bogus")
    assert all(isinstance(has_class(frame, c), bool) for c in FrameClass)


def test_two_chain_empty_relations():
    frame = two_chain_frame(AG2)
    assert has_class(frame, FrameClass.DOXASTIC)      # vacuous
    assert not has_class(frame, FrameClass.EPISTEMIC)  # no successors
    assert not has_class(frame, FrameClass.UD)
    assert has_class(frame, FrameClass.PRESTANDARD)


def test_standard_by_intersection_example():
    rel = {A: Rel.from_pairs(2, [(0, 0), (1, 1)]),
           B: Rel.from_pairs(2, [(0, 0)]),
           AB: Rel.from_pairs(2, [(0, 0)])}
    frame = Frame.make(AG2, 2, Rel.identity(2), rel)
    assert has_class(frame, FrameClass.STANDARD)
    # break the equality: the pair relation loses a required pair
    rel[AB] = Rel.empty(2)
    frame2 = Frame.make(AG2, 2, Rel.identity(2), rel)
    assert has_class(frame2, FrameClass.PRESTANDARD)
    assert not has_class(frame2, FrameClass.STANDARD)


def test_classify_consistent_with_has_class():
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=250, seed=2)
    for frame in enumerate_frames(budget, FrameClass.ALL):
        tags = set(classify(frame))
        for c in FrameClass:
            assert (c in tags) == has_class(frame, c)


def _tags(frame):
    return {c.value for c in classify(frame)}


def _random_frame(rng, agents, n, rs=False):
    """A random frame; with ``rs`` every relation is reflexive and symmetric."""
    leq = Rel.from_mask(n, rng.getrandbits(n * n)).rt_closure()
    rels = []
    for _ in agents.groups():
        r = Rel.from_mask(n, rng.getrandbits(n * n))
        if rs:
            r = Rel.from_pairs(n, r.pairs() + [(j, i) for i, j in r.pairs()]
                               + [(i, i) for i in range(n)])
        rels.append(r)
    return Frame(agents, n, leq, tuple(rels))


@pytest.fixture
def transposes(monkeypatch):
    """Count the converses that take the bit-matrix transpose."""
    calls = []
    bit_transpose = semantics._bit_transpose
    monkeypatch.setattr(semantics, "_bit_transpose",
                        lambda *a: calls.append(a) or bit_transpose(*a))
    return calls


def test_classify_matches_naive_classes_on_enumerated_frames():
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=400, seed=6)
    seen = 0
    for frame in enumerate_frames(budget, FrameClass.ALL):
        seen += 1
        assert _tags(frame) == naive_classes(frame)
    assert seen > 100


def test_classify_matches_naive_classes_on_repeated_rows(transposes):
    # blocks of identical copies of a 2- or 3-state frame, 130-200 states in
    # all: no relation has more than three distinct rows, so every converse
    # takes the row-class pass
    rng = random.Random(12)
    found = set()
    for agents, rs in ((AG, True), (AG2, True), (AG2, False)):
        base = _random_frame(rng, agents, rng.choice((2, 3)), rs)
        frame = blow_up(base, [rng.randrange(130, 201) // base.n
                               for _ in range(base.n)])
        tags = _tags(frame)
        assert tags == naive_classes(frame) == _tags(base)
        found |= tags
    assert not transposes
    assert {"rs", "ud", "transitive", "forward_confluent"} <= found


def _tabled(rng, r):
    """``r`` with a row table in which every head appears twice and the
    states of each class are split between the copies."""
    heads = sorted(set(r.rows))
    return Rel._from_table(r.n, heads + heads,
                           [heads.index(x) + len(heads) * rng.randrange(2)
                            for x in r.rows])


def test_classify_on_row_tables_matches_raw_rows():
    # blow-ups of 2- and 3-state frames to 64-200 states, classified once
    # with raw rows and once with every relation on a row table, where the
    # class tests read the distinct tuples of class positions
    rng = random.Random(14)
    found = {c: set() for c in ("prestandard", "standard", "epistemic")}
    for k in range(12):
        base = _random_frame(rng, AG2, rng.choice((2, 3)), rs=k % 2 == 0)
        if k % 3 == 0:  # standard by intersection
            rels = list(base.rels)
            rels[2] = rels[0] & rels[1]
            base = Frame(AG2, base.n, base.leq, tuple(rels))
        frame = blow_up(base, [rng.randrange(64, 201) // base.n + 1
                               for _ in range(base.n)])
        tabled = Frame(AG2, frame.n, _tabled(rng, frame.leq),
                       tuple(_tabled(rng, r) for r in frame.rels))
        tags = _tags(tabled)
        assert tags == _tags(frame) == _tags(base)
        for c, seen in found.items():
            seen.add(c in tags)
    assert all(seen == {True, False} for seen in found.values())


def test_classify_matches_naive_classes_on_dense_distinct_rows(transposes):
    # a reflexive symmetric relation with all 128 rows distinct: its
    # converse takes the bit-matrix transpose
    rng = random.Random(13)
    n = 128
    r = Rel.from_mask(n, rng.getrandbits(n * n))
    r = Rel.from_pairs(n, r.pairs() + [(j, i) for i, j in r.pairs()]
                       + [(i, i) for i in range(n)])
    assert len(set(r.rows)) == n
    frame = Frame(AG, n, Rel.identity(n), (r,))
    tags = _tags(frame)
    assert transposes
    assert tags == naive_classes(frame)
    assert {"rs", "ud", "standard"} <= tags


def _exhaustive_frames_1agent(max_n):
    from ieml.search import preorders
    for n in range(1, max_n + 1):
        for leq in preorders(n):
            for mask in range(1 << (n * n)):
                yield Frame.make(AG, n, leq, {A: Rel.from_mask(n, mask)})


def test_class_implication_chains_exhaustive():
    # partition => rs => ud, standard => prestandard, on every 1-agent frame
    count = 0
    for frame in _exhaustive_frames_1agent(3):
        count += 1
        if has_class(frame, FrameClass.PARTITION):
            assert has_class(frame, FrameClass.RS)
        if has_class(frame, FrameClass.RS):
            assert has_class(frame, FrameClass.UD)
        assert has_class(frame, FrameClass.STANDARD)  # single group
    assert count == 2 + 4 * 16 + 29 * 512


def test_rs_implies_ud_two_agents_sampled():
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=900, seed=3)
    seen = 0
    for frame in enumerate_frames(budget, FrameClass.RS):
        seen += 1
        assert has_class(frame, FrameClass.UD)
        assert has_class(frame, FrameClass.UD_REFLEXIVE)
        assert has_class(frame, FrameClass.UD_SYMMETRIC)
    assert seen > 30


def test_standard_means_intersection_of_singletons():
    budget = SizeBudget(max_states=2, max_agents=2, max_candidates=600, seed=4)
    seen = 0
    for frame in enumerate_frames(budget, FrameClass.STANDARD):
        seen += 1
        for g in AG2.groups():
            acc = None
            for a in sorted(g):
                r = frame.r(frozenset({a}))
                acc = r if acc is None else acc & r
            assert frame.r(g) == acc
    assert seen > 10


def test_ud_need_not_be_rs():
    # swapping the two chain states is up-and-down reflexive via order
    # detours but has no fixed points at all
    leq = Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    frame = Frame.make(AG, 2, leq, {A: Rel.from_pairs(2, [(0, 1), (1, 0)])})
    assert has_class(frame, FrameClass.UD)
    assert not has_class(frame, FrameClass.REFLEXIVE)
    assert not has_class(frame, FrameClass.RS)


# ---------- single-relation structures ----------

def test_iel_one_point():
    ms = MonoStructure(1, Rel.identity(1), Rel.identity(1))
    assert is_iel_structure(ms, "minus") and is_iel_structure(ms, "full")


def test_iel_two_chain_empty():
    leq = Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    ms = MonoStructure(2, leq, Rel.empty(2))
    assert is_iel_structure(ms, "minus")
    assert not is_iel_structure(ms, "full")


def test_iel_edge_case_from_examples():
    # r = {(0,1)} on the chain: (i) holds, (ii) holds since the only
    # order-then-step pair is (0,1) itself, (iii) fails at state 1
    leq = Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    ms = MonoStructure(2, leq, Rel.from_pairs(2, [(0, 1)]))
    assert is_iel_structure(ms, "minus")
    assert not is_iel_structure(ms, "full")


def test_iel_condition_ii_can_fail():
    # 0<=1 and 1 r 1: then 0 (leq;r) 1 but not 0 r 1
    leq = Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    ms = MonoStructure(2, leq, Rel.from_pairs(2, [(1, 1)]))
    assert not is_iel_structure(ms, "minus")


def test_iel_bad_kind():
    ms = MonoStructure(1, Rel.identity(1), Rel.identity(1))
    with pytest.raises(ValueError):
        is_iel_structure(ms, "classic")
