"""Decision procedures for the named frame classes."""
from __future__ import annotations

from enum import Enum

from .semantics import Frame, MonoStructure, joint_rows, kept


class FrameClass(str, Enum):
    ALL = "all"
    DOXASTIC = "doxastic"
    EPISTEMIC = "epistemic"
    REFLEXIVE = "reflexive"
    SYMMETRIC = "symmetric"
    TRANSITIVE = "transitive"
    RS = "rs"
    PARTITION = "partition"
    UD_REFLEXIVE = "ud_reflexive"
    UD_SYMMETRIC = "ud_symmetric"
    UD = "ud"
    PRESTANDARD = "prestandard"
    STANDARD = "standard"
    FORWARD_CONFLUENT = "forward_confluent"


# Every class but prestandard and standard is a conjunction over the frame's
# relations R of tests on the pair (leq, R).
_TESTS = {
    "doxastic": lambda f, r: r.le(f.leq),
    # every state reaches some state through leq followed by accessibility
    "serial": lambda f, r: all(row for (row,) in joint_rows(f.leq.compose(r))),
    "reflexive": lambda f, r: r.is_reflexive(),
    "symmetric": lambda f, r: r.is_symmetric(),
    "transitive": lambda f, r: r.is_transitive(),
    "ud_reflexive": lambda f, r: all(x.is_reflexive() for x in f.ud_pair(r)),
    # every (s, t) in R has t up s and t down s, i.e. the converse of R lies
    # inside both composites
    "ud_symmetric": lambda f, r: all(r.converse().le(x) for x in f.ud_pair(r)),
    "forward_confluent": lambda f, r: f.geq().compose(r).le(r.compose(f.geq())),
}
# each test as (position in _TESTS, test): a verdict is kept under one int
_PER_RELATION = {c: tuple((list(_TESTS).index(t), _TESTS[t]) for t in names)
                 for c, names in {
    FrameClass.ALL: (),
    FrameClass.EPISTEMIC: ("doxastic", "serial"),
    FrameClass.RS: ("reflexive", "symmetric"),
    FrameClass.PARTITION: ("reflexive", "symmetric", "transitive"),
    FrameClass.UD: ("ud_reflexive", "ud_symmetric"),
    # each other class is the test of its name
    **{FrameClass(t): (t,) for t in _TESTS if t != "serial"},
}.items()}


def _prestandard(f: Frame, exact: bool) -> bool:
    # R(G1 u G2) inside (exact: equal to) R(G1) & R(G2), row by row; pairs
    # with G1 = G2 hold trivially and (G2, G1) repeats (G1, G2).  The rows
    # of all relations at one state are read together (``rels`` is indexed
    # by group bitmask - 1)
    top = 1 << len(f.agents)
    triples = [(m1 - 1, m2 - 1, (m1 | m2) - 1)
               for m1 in range(1, top) for m2 in range(m1 + 1, top)]
    for rows in joint_rows(*f.rels):
        for i, j, k in triples:
            u, meet = rows[k], rows[i] & rows[j]
            if (u != meet) if exact else (u | meet != meet):
                return False
    return True


def has_class(f: Frame, c: FrameClass) -> bool:
    """Does the frame belong to the class?  Each test's verdict on a pair
    ``(leq, R)`` is kept in the frame's memo (``Frame.memo``).  Up to 3
    states every ``enumerate_frames`` stream shares one, the process's frame
    table, which keeps alive every relation whose id it keys: the process
    judges each pair once per test, however many frames and streams hold it."""
    if not isinstance(c, FrameClass):
        c = FrameClass(c)
    if c is FrameClass.PRESTANDARD or c is FrameClass.STANDARD:
        return _prestandard(f, exact=c is FrameClass.STANDARD)
    memo, leq = f.memo(), f.leq
    # the key: the ids of leq and R, each under 2^64, and the test's position
    base = id(leq) << 64
    return all(kept(memo, (base | id(r)) * len(_TESTS) + i, test, f, r)
               for r in f.rels for i, test in _PER_RELATION[c])


def classify(f: Frame) -> list[FrameClass]:
    """All class tags the frame belongs to, in declaration order."""
    return [c for c in FrameClass if has_class(f, c)]


def is_iel_structure(ms: MonoStructure, kind: str = "minus") -> bool:
    """Conditions (i) accessibility refines the preorder, (ii) the preorder
    absorbs into accessibility on the left, and for ``full`` also (iii)
    every state has a successor."""
    if kind not in ("minus", "full"):
        raise ValueError(f"kind must be 'minus' or 'full', got {kind!r}")
    if not ms.r.le(ms.leq):
        return False
    if not ms.leq.compose(ms.r).le(ms.r):
        return False
    if kind == "full" and not all(ms.r.rows[s] for s in range(ms.n)):
        return False
    return True
