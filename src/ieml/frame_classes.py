"""Decision procedures for the named frame classes."""
from __future__ import annotations

from enum import Enum

from .semantics import Frame, MonoStructure, is_forward_confluent, joint_rows


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


def _doxastic(f: Frame) -> bool:
    return all(r.le(f.leq) for r in f.rels)


def _serial_box(f: Frame) -> bool:
    # every state reaches some state through leq followed by accessibility
    return all(row for r in f.rels for (row,) in joint_rows(f.leq.compose(r)))


def _ud_reflexive(f: Frame) -> bool:
    return all(up.is_reflexive() and down.is_reflexive()
               for up, down in f.ud_composites())


def _ud_symmetric(f: Frame) -> bool:
    # every (s, t) in R has t up s and t down s, i.e. the converse of R
    # lies inside both composites
    return all(r.converse().le(up) and r.converse().le(down)
               for r, (up, down) in zip(f.rels, f.ud_composites()))


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
    c = FrameClass(c)
    if c is FrameClass.ALL:
        return True
    if c is FrameClass.DOXASTIC:
        return _doxastic(f)
    if c is FrameClass.EPISTEMIC:
        return _doxastic(f) and _serial_box(f)
    if c is FrameClass.REFLEXIVE:
        return all(r.is_reflexive() for r in f.rels)
    if c is FrameClass.SYMMETRIC:
        return all(r.is_symmetric() for r in f.rels)
    if c is FrameClass.TRANSITIVE:
        return all(r.is_transitive() for r in f.rels)
    if c is FrameClass.RS:
        return has_class(f, FrameClass.REFLEXIVE) and has_class(f, FrameClass.SYMMETRIC)
    if c is FrameClass.PARTITION:
        return has_class(f, FrameClass.RS) and has_class(f, FrameClass.TRANSITIVE)
    if c is FrameClass.UD_REFLEXIVE:
        return _ud_reflexive(f)
    if c is FrameClass.UD_SYMMETRIC:
        return _ud_symmetric(f)
    if c is FrameClass.UD:
        return _ud_reflexive(f) and _ud_symmetric(f)
    if c is FrameClass.PRESTANDARD:
        return _prestandard(f, exact=False)
    if c is FrameClass.STANDARD:
        return _prestandard(f, exact=True)
    return is_forward_confluent(f)  # FrameClass.FORWARD_CONFLUENT


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
