"""Finite birelational frames, models, satisfaction, truth, validity.

States are indices 0..n-1.  Relations are bitsets per row: ``rows[i]`` has
bit ``j`` set when i relates to j.  Group-indexed accessibility is stored as
a tuple over all nonempty groups in ascending bitmask order, so it is total
by construction.

``Evaluator`` is the one truth-set core, for group frames and for the
single-relation structures ``tau`` images are read on: two row passes (image
inside / image meets the body) plus one preorder-interior pass.  Every pass
runs over a relation's row classes (``Rel.row_classes``: each distinct row
with the set of states that have it), so its cost follows the number of
distinct rows, not of states.  It evaluates a ``Program``, a formula list
compiled once into a node array, in one loop per valuation, or, for
``falsify_on_frame``, in one loop for all of a frame's valuations, each in a
lane of the same ints (for the frame stream ``falsified``, of a run of
frames').  The satisfaction and validity functions below wrap it, through
the evaluator each structure keeps (``evaluator``).
"""
from __future__ import annotations

import bisect
import itertools
import operator
from dataclasses import dataclass
from math import isqrt
from typing import Callable, Iterable, Iterator, Mapping, Optional, Union

from .errors import BudgetError, PreconditionError
from .syntax import (
    _ATOM, _TOP, _BOT, _AND, _OR, _IMPLIES, _BOX, _DIA, _MONOBOX, AgentSet,
    Formula, Group, Program, _compiled, atoms_of,
)

DEFAULT_ASSIGNMENT_CAP = 1 << 20
_CAP_HINT = "raise cap, default DEFAULT_ASSIGNMENT_CAP; CLI valid --max-assignments"

VARIANTS = ("prenosil", "fischer_servi", "wijesekera")
# ``bits`` scans the binary text of an int wider than this with more than 16
# bits set: a lowest-bit step costs a pass over the int, about 1 us at 8192
# bits, the scan 10 us plus 0.25 us per set bit (Python 3.11).
WIDE_BITS = 1024


def bits(mask: int) -> Iterator[int]:
    if mask.bit_length() > WIDE_BITS and mask.bit_count() > 16:
        text = bin(mask)
        top = len(text) - 1  # bit j is the character top - j
        i = text.rfind("1")
        while i >= 0:
            yield top - i
            i = text.rfind("1", 0, i)
        return
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------- Relations ----------

# The class passes of ``le``, ``is_reflexive`` and ``compose`` serve
# relations of at least this many states.  Narrower rows are a machine word
# or two: a pass over the states is cheap, and building the classes or the
# class pairs a pass needs costs more than it saves (measured, Python 3.11,
# 1-4 classes: at 2-16 states the class passes cost up to 3x the per-state
# ones, near 64 states they break even, and at 1024-8192 states ``le`` and
# ``is_reflexive`` run 1.5-4.5x and ``compose`` 3-55x faster).
CLASS_PASS_MIN_STATES = 64


@dataclass(frozen=True)
class Rel:
    n: int
    rows: tuple[int, ...]

    def __post_init__(self):
        n, rows = self.n, self.rows
        if n < 0 or len(rows) != n:
            raise ValueError("row count must equal carrier size")
        for r in rows:  # r >> n is 0 exactly when 0 <= r < 2**n, in O(1)
            if r >> n:
                raise ValueError("row refers to states outside the carrier")

    @classmethod
    def empty(cls, n: int) -> "Rel":
        return cls(n, (0,) * n)

    @classmethod
    def identity(cls, n: int) -> "Rel":
        return cls(n, tuple(1 << i for i in range(n)))

    @classmethod
    def total(cls, n: int) -> "Rel":
        return cls(n, ((1 << n) - 1,) * n)

    @classmethod
    def from_pairs(cls, n: int, pairs: Iterable[tuple[int, int]]) -> "Rel":
        rows = [0] * n
        for i, j in pairs:
            rows[i] |= 1 << j
        return cls(n, tuple(rows))

    @classmethod
    def from_mask(cls, n: int, mask: int) -> "Rel":
        """Decode a relation from an n*n bitmask, row-major."""
        full = (1 << n) - 1
        return cls(n, tuple(mask >> (n * i) & full for i in range(n)))

    def mask(self) -> int:
        return sum(r << (self.n * i) for i, r in enumerate(self.rows))

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in bits(self.rows[i])]

    def __and__(self, other: "Rel") -> "Rel":
        return Rel(self.n, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def __or__(self, other: "Rel") -> "Rel":
        return Rel(self.n, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def le(self, other: "Rel") -> bool:
        """Is every pair of self a pair of other?"""
        if self.n < CLASS_PASS_MIN_STATES:
            # inline: frame enumeration tests small frames very often
            return all(a | b == b for a, b in zip(self.rows, other.rows))
        return all(a | b == b for a, b in joint_rows(self, other))

    def row_classes(self) -> tuple[tuple[int, int], ...]:
        """``(row, states)`` pairs, one per distinct row in order of first
        occurrence, ``states`` being the bitmask of the states with that
        row.  Computed once per instance and kept with it: a pass over these
        visits each distinct row once, however many states share it."""
        memo = self.__dict__.get("_row_classes")
        if memo is None:
            classes: dict[int, int] = {}
            table = self.__dict__.get("_table")
            if table is None:
                for i, r in enumerate(self.rows):
                    classes[r] = classes.get(r, 0) | 1 << i
            else:
                states = self.__dict__.get("_head_states")
                if states is None:
                    states = self.__dict__["_head_states"] = [0] * len(table[0])
                    for i, c in enumerate(table[1]):
                        states[c] |= 1 << i
                for r, members in zip(table[0], states):  # equal heads merge
                    classes[r] = classes.get(r, 0) | members
            # the dataclass is frozen, so write the dict itself
            memo = self.__dict__["_row_classes"] = tuple(classes.items())
        return memo

    def _row_table(self) -> tuple[list[int], list[int]]:
        """``(heads, index)``: state i has row ``heads[index[i]]``.  Built once
        per instance from the rows (then the heads are distinct), or handed
        over by ``converse`` or ``compose`` (whose heads may repeat)."""
        memo = self.__dict__.get("_table")
        if memo is None:
            memo = self.__dict__["_table"] = _table_of(self.rows)
        return memo

    @classmethod
    def _from_table(cls, n: int, heads: list[int], index: list[int],
                    states: Optional[list[int]] = None) -> "Rel":
        """The relation whose state i has row ``heads[index[i]]``: states of
        one class share one int object.  The table is kept with it, and
        ``states[c]`` (index c's states) if known; only the heads are checked."""
        if len(index) != n or any(h >> n for h in heads):
            raise ValueError("row table does not fit the carrier")
        out = object.__new__(cls)  # fields set in the dict: no __post_init__
        out.__dict__.update(n=n, rows=tuple(map(heads.__getitem__, index)),
                            _table=(heads, index), _head_states=states)
        return out

    def converse(self) -> "Rel":
        """The transpose, computed once per instance and kept with it.

        Each row class is visited once per bit of its row, so the work is
        the sum of popcounts over distinct rows.  When that outweighs a
        bit-matrix transpose of all n*n cells (``_bit_transpose``), the
        transpose runs instead: only dense relations with mostly distinct
        rows come near that point, no constructed frame."""
        memo = self.__dict__.get("_converse")
        if memo is None:
            memo = self.__dict__["_converse"] = self._transpose()
        return memo

    def _transpose(self) -> "Rel":
        n = self.n
        heads = self._row_table()[0]
        # _bit_transpose moves all n*n cells at once; the class pass takes
        # `work` steps.  Break-even work/n (Python 3.11): 3 at n=16; from 64
        # states on, where a step costs more with more classes, under 1 at
        # 64-256 and 7-8 at 2048-8192 with all rows distinct, 5+ at 1024 and
        # 25+ at 8192 with 32-256 classes.  The floor of 4 keeps frames of
        # four states or fewer off it.  Heads that compose handed over may
        # repeat, which can only overcount.
        limit, work = n * max(4, isqrt(n) // 3), 0
        if n >= CLASS_PASS_MIN_STATES:
            limit = limit * n // (n + 4 * len(heads))
        for r in heads:
            work += r.bit_count()
            if work > limit:
                return Rel._from_table(n, *_table_of(_bit_transpose(n, self.rows)))
        # below CLASS_PASS_MIN_STATES, acc[j] is the converse row of j, the
        # states of the classes whose row holds j; from there on the set of
        # those classes (bit c: class c), a signature, so no n-bit int is
        # built per state.  The states of one signature share one row, the
        # sum of its classes' disjoint states, so the heads stay distinct.
        classes, signed = self.row_classes(), n >= CLASS_PASS_MIN_STATES
        acc = [0] * n
        for c, (r, states) in enumerate(classes):
            x = 1 << c if signed else states
            for j in bits(r):
                acc[j] |= x
        heads, index = _table_of(acc)
        if signed:
            heads = [sum(classes[c][1] for c in bits(h)) for h in heads]
        return Rel._from_table(n, heads, index)

    def compose(self, other: "Rel") -> "Rel":
        """Left-to-right: i (self;other) k iff some j with i self j and j other k.

        One image per class of ``self``'s row table; the result keeps those
        classes, so its table comes without hashing its rows.  An image is
        the OR of ``other``'s rows at the head's bits (one per class of
        ``other``'s when it keeps a row table), or, when ``other`` already
        keeps a row table, the relations span ``CLASS_PASS_MIN_STATES``
        states or more and that costs fewer steps, the OR of the rows of
        ``other``'s classes whose states meet the head."""
        # other's table is read before self's is built: they may be one
        table = other.__dict__.get("_table") \
            if self.n >= CLASS_PASS_MIN_STATES else None
        heads, index = self._row_table()
        classes = None
        if table is not None:
            # the class pass does one AND per (head, class) pair, the per-bit
            # pass one OR per bit of the heads: count bits up to that limit
            limit, work = len(heads) * len(table[0]), 0
            for r in heads:
                work += r.bit_count()
                if work > limit:
                    classes = other.row_classes()
                    break
        images = []
        if classes is not None:
            for r in heads:
                acc = 0
                for row, states in classes:
                    if states & r:
                        acc |= row
                images.append(acc)
        else:
            orows, oindex = other.rows, table[1] if table else None
            for r in heads:
                # with other's table, one bit per class of other's that r meets
                cols = bits(r) if oindex is None else {oindex[j]: j for j in bits(r)}.values()
                acc = 0
                for j in cols:
                    acc |= orows[j]
                images.append(acc)
        # the same index list: the same states per position
        return Rel._from_table(self.n, images, index, self.__dict__.get("_head_states"))

    def is_reflexive(self) -> bool:
        if self.n >= CLASS_PASS_MIN_STATES and "_table" in self.__dict__:
            # each class's states lie in its row
            return all(states & row == states for row, states in self.row_classes())
        return all(self.rows[i] >> i & 1 for i in range(self.n))

    def is_symmetric(self) -> bool:
        return self.le(self.converse())

    def is_transitive(self) -> bool:
        return self.compose(self).le(self)

    def rt_closure(self) -> "Rel":
        """The reflexive-transitive closure.  From ``CLASS_PASS_MIN_STATES``
        states on, Warshall's pass runs over row classes, not states: a
        class's star (the states its states reach in one or more steps) takes
        in the star of every class whose states it meets.  State i's row is
        its class's star with i added; the result keeps a row table."""
        n = self.n
        if n < CLASS_PASS_MIN_STATES:  # per state: cheaper on a word or two
            rows = [r | (1 << i) for i, r in enumerate(self.rows)]
            for j in range(n):
                bit = 1 << j
                for i in range(n):
                    if rows[i] & bit:
                        rows[i] |= rows[j]
            return Rel(n, tuple(rows))
        classes = self.row_classes()
        stars = [row for row, _ in classes]
        for d, (_, states) in enumerate(classes):
            for c, star in enumerate(stars):
                if star & states:
                    stars[c] = star | stars[d]
        rows = [0] * n
        for star, (_, states) in zip(stars, classes):
            for i in bits(states):
                rows[i] = star if star >> i & 1 else star | 1 << i
        return Rel._from_table(n, *_table_of(rows))


def joint_rows(*rels: Rel) -> Iterable[tuple[int, ...]]:
    """The rows the relations give a state, as one tuple per state.  When
    all of them keep row tables and span ``CLASS_PASS_MIN_STATES`` states or
    more, each distinct tuple comes once instead, read off the distinct
    tuples of class positions: a test over them visits each combination of
    classes once, however many states share it."""
    if rels[0].n >= CLASS_PASS_MIN_STATES:
        tables = [r.__dict__.get("_table") for r in rels]
        if None not in tables:
            heads = [h for h, _ in tables]
            return (tuple(h[c] for h, c in zip(heads, cs))
                    for cs in set(zip(*[index for _, index in tables])))
    return zip(*[r.rows for r in rels])


def _table_of(rows: Iterable[int]) -> tuple[list[int], list[int]]:
    """Distinct rows in order of first occurrence, and the position of each
    row among them: one hash per row."""
    first: dict[int, int] = {}
    index = []
    for r in rows:  # a loop, not a comprehension: cheaper on 2-3 rows
        index.append(first.setdefault(r, len(first)))
    return list(first), index


def _bit_transpose(n: int, rows: tuple[int, ...]) -> list[int]:
    """Transpose an n*n bit matrix in one int (Warren, *Hacker's Delight*,
    2nd ed., 7-3): bit j of row i at i*w + j for a power-of-two width w,
    each round swaps the off-diagonal b*b quarters of every 2b*2b block, for
    b = w/2 ... 1.  Masks kept across calls would take w*w*log2(w)/8 bytes."""
    w = max(8, 1 << (n - 1).bit_length())
    wb = w // 8
    m = int.from_bytes(b"".join(r.to_bytes(wb, "little") for r in rows), "little")
    b = w // 2
    while b:
        # columns j with j & b in rows i without i & b, by doubling: the
        # upper b of each 2b columns, a row, b rows, then every 2b rows
        mask, size = ((1 << b) - 1) << b, 2 * b
        while size < w * w:
            if size != b * w:
                mask |= mask << size
            size *= 2
        s = b * (w - 1)  # from (i, j) to (i + b, j - b)
        t = ((m >> s) ^ m) & mask
        m ^= t ^ (t << s)
        b //= 2
    buf = m.to_bytes(n * wb, "little")
    return [int.from_bytes(buf[i * wb:(i + 1) * wb], "little") for i in range(n)]


def compose(p: Rel, q: Rel) -> Rel:
    """Relational composition, left to right."""
    if p.n != q.n:
        raise ValueError("compose needs relations over the same carrier")
    return p.compose(q)


# ---------- Frames, models, mono structures ----------

@dataclass(frozen=True)
class Frame:
    agents: AgentSet
    n: int
    leq: Rel
    rels: tuple[Rel, ...]  # index = group bitmask - 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("frames need a nonempty state set")
        if self.leq.n != self.n:
            raise ValueError("preorder carrier mismatch")
        want = (1 << len(self.agents)) - 1
        if len(self.rels) != want:
            raise ValueError(f"need one relation per nonempty group ({want})")
        for r in self.rels:
            if r.n != self.n:
                raise ValueError("relation carrier mismatch")

    @classmethod
    def make(cls, agents: AgentSet, n: int, leq: Rel,
             rel: Mapping[Group, Rel]) -> "Frame":
        rels = []
        for g in agents.groups():
            if g not in rel:
                raise ValueError(f"missing relation for group {{{','.join(sorted(g))}}}")
            rels.append(rel[g])
        return cls(agents, n, leq, tuple(rels))

    def r(self, group: Group) -> Rel:
        return self.rels[self.agents.mask(group) - 1]

    def r_mask(self, gmask: int) -> Rel:
        return self.rels[gmask - 1]

    def geq(self) -> Rel:
        return self.leq.converse()

    def memo(self) -> dict:
        """Class verdicts on the frame's pairs ``(leq, R)`` (``has_class``),
        each keyed by one int from the relations' ids: no lookup hashes rows."""
        return self.__dict__.setdefault("_memo", {})

    def share(self, memo: dict) -> "Frame":
        """Use (and return the frame with) a shared memo, which must hold
        every relation whose id it keys: up to 3 states, the frame table of
        ``enumerate_frames``, which outlives the stream and keeps them alive."""
        self.__dict__["_memo"] = memo
        return self

    def ud_pair(self, r: Rel) -> tuple[Rel, Rel]:
        """``(leq;R;leq, geq;R;geq)`` for a relation of the frame, for the
        up-and-down classes and ``rs_collapse``, computed once per frame
        (not in a shared memo, which would keep them for good)."""
        leq, geq = self.leq, self.geq()
        return kept(self.__dict__.setdefault("_ud", {}), id(r), lambda: (
            leq.compose(r).compose(leq), geq.compose(r).compose(geq)))


def kept(memo: dict, key, compute: Callable, *args):
    """``memo[key]``, set to ``compute(*args)`` on first demand.  Of two
    callers racing on a key, both get the value set first."""
    out = memo.get(key)
    if out is None:
        out = memo.setdefault(key, compute(*args))
    return out


@dataclass(frozen=True)
class FrameReport:
    ok: bool
    problems: tuple[str, ...]


def check_frame(f: Frame) -> FrameReport:
    """Confirm ``leq`` is a preorder (``Frame`` itself makes accessibility
    total over groups)."""
    problems = []
    if not f.leq.is_reflexive():
        missing = [i for i in range(f.n) if not f.leq.has(i, i)]
        problems.append(f"not reflexive: missing {missing}")
    if not f.leq.is_transitive():
        gaps = [(i, j) for i, j in f.leq.compose(f.leq).pairs() if not f.leq.has(i, j)]
        problems.append(f"not transitive: missing {gaps[:4]}")
    return FrameReport(not problems, tuple(problems))


def is_closed(leq: Rel, mask: int) -> bool:
    """Is the state set an up-set of the preorder?  Checked per row class
    when the preorder keeps a table and spans ``CLASS_PASS_MIN_STATES``."""
    if leq.n >= CLASS_PASS_MIN_STATES and "_table" in leq.__dict__:
        return all(row & ~mask == 0 for row, states in leq.row_classes()
                   if states & mask)
    return all(leq.rows[s] & ~mask == 0 for s in bits(mask))


def up_sets(f: Union[Frame, MonoStructure],
            cap: int = DEFAULT_ASSIGNMENT_CAP) -> list[int]:
    """All closed state sets as bitmasks, ascending.  The list is computed
    once per preorder and kept with ``f.leq``, like its row classes, so the
    frames that share a preorder share it: do not modify it."""
    if 1 << f.n > cap:
        raise BudgetError(f"2^{f.n} candidate sets exceed the cap {cap} "
                          f"({_CAP_HINT})")
    leq = f.leq
    memo = leq.__dict__.get("_up_sets")
    if memo is None:
        memo = leq.__dict__["_up_sets"] = \
            [u for u in range(1 << f.n) if is_closed(leq, u)]
    return memo


def _val_items(n: int, val: Mapping[str, Union[int, Iterable[int]]]) -> tuple:
    items = []
    for name, v in val.items():
        mask = v if isinstance(v, int) else sum(1 << i for i in set(v))
        if mask & ~((1 << n) - 1):
            raise ValueError(f"valuation of {name!r} mentions unknown states")
        items.append((name, mask))
    return tuple(sorted(items))


@dataclass(frozen=True)
class MonoStructure:
    """Single-relation birelational structure (no groups)."""

    n: int
    leq: Rel
    r: Rel

    def __post_init__(self):
        if self.leq.n != self.n or self.r.n != self.n:
            raise ValueError("carrier mismatch")


@dataclass(frozen=True)
class Model:
    """A valuation on a group ``Frame`` or on a ``MonoStructure``."""

    frame: Union[Frame, MonoStructure]
    val: tuple  # sorted ((atom, state mask), ...)

    def __post_init__(self):
        for name, mask in self.val:
            if not is_closed(self.frame.leq, mask):
                raise ValueError(f"valuation of {name!r} is not closed under the preorder")

    @classmethod
    def make(cls, frame: Union[Frame, MonoStructure],
             val: Mapping[str, Union[int, Iterable[int]]]) -> "Model":
        return cls(frame, _val_items(frame.n, val))

    def v(self, atom: str) -> int:
        for name, mask in self.val:
            if name == atom:
                return mask
        return 0

    def val_map(self) -> dict:
        return dict(self.val)


# ---------- Satisfaction ----------

def is_forward_confluent(f: Frame) -> bool:
    geq = f.geq()
    return all(geq.compose(r).le(r.compose(geq)) for r in f.rels)


def refine(blocks: list[int], relations: list[tuple],
           limit: int) -> Optional[tuple[list[int], list[list[int]]]]:
    """The coarsest refinement of the partition ``blocks`` in which the
    states of a block meet the same blocks through each relation, given as
    ``(row, states)`` pairs (its row classes, or them swapped for its
    converse), and per relation each block's quotient row (bit c: its rows
    meet block c).  Naive refinement (Paige and Tarjan, SIAM J. Comput.
    16(6), 1987): a round's AND per (pair, block) gives each block's
    pre-image, which splits the blocks; None once the ANDs pass ``limit``."""
    work = 0
    while True:
        split, images = blocks, []
        for pairs in relations:
            work += len(blocks) * (len(pairs) + len(split))
            if work > limit:
                return None
            images.append([])
            for block in blocks:
                hit = 0
                for row, states in pairs:
                    if row & block:
                        hit |= states
                images[-1].append(hit)
                split = [x for part in split for x in (part & hit, part & ~hit) if x]
        if len(split) == len(blocks):
            return blocks, [[sum(1 << c for c, hit in enumerate(pre) if hit & block)
                             for block in blocks] for pre in images]
        blocks = split


# From CLASS_PASS_MIN_STATES states on, an evaluator runs on its quotient if
# that makes a pass (a visit per row class of each relation, at 1 + n/2048
# times the cost on small ints: 95 ns up to 256 states, 576 ns at 8192, Python
# 3.11) QUOTIENT_MIN_GAIN times cheaper.  Forced quotients of blow-ups (66-2049
# states) broke even near 2-4, and from 10 on took 0.18-0.64 of the direct
# time on the 7203-formula battery; the suite's 64- and 128-state outputs
# (6-13, a wash) stay direct.  Refining gives up past QUOTIENT_MAX_PASSES
# passes' worth of ANDs: standardize's 8192-state outputs need 1-3.
QUOTIENT_MIN_GAIN = 16
QUOTIENT_MAX_PASSES = 8


def _meets(classes: tuple, x: int) -> int:
    """The union of the states of the ``(row, states)`` classes whose row
    meets ``x``: the test every modal and interior clause is made of."""
    out = 0
    for row, states in classes:
        if row & x:
            out |= states
    return out


def _lift(q: tuple, mask: int) -> int:
    """The states of the blocks in ``mask``, a mask on the quotient ``q``."""
    return sum(map(q[0].__getitem__, bits(mask)))


class Evaluator:
    """Truth sets over one ``Frame`` or one ``MonoStructure``.

    ``run`` evaluates a ``Program`` under a valuation: one mask per node, the
    bitmask of states satisfying it.  ``truth_mask`` gives one formula's
    mask.  The structure kind is resolved once, here; one clause dispatch
    (``_run``) serves both.  Each modal clause is one pass over the row
    classes of a plain relation, so no composed relation is ever
    materialized and states sharing a row are decided together: "image
    inside the body" for the group box and ``MonoBox`` (a class whose row
    meets the complement makes all its states bad), "image meets the body"
    for the three diamonds (a class whose row meets the body makes all its
    states witnesses; ``prenosil`` then takes the witnesses' up-closure in
    one pass over the preorder's classes, the other variants keep the
    witnesses).  Implication, the group box and the ``wijesekera`` diamond
    end in one shared preorder-interior pass: the states of a preorder class
    hold when its row misses every bad state.  So every clause is built from
    one test, "the states of the classes whose row meets x".  A large
    structure runs on its bisimulation quotient under the valuation when
    that pays (``_quotient``).  ``falsified_blocks`` runs ``_run`` on many
    valuations of many frames at once, one per lane; there the meets test
    reads a carry into each lane's guard bit instead of branching per class.

    An evaluator keeps no reference to its structure, so the structure can
    keep it (``evaluator``) without a reference cycle.
    """

    __slots__ = ("variant", "_mono", "_box", "_dia", "_full", "_leq",
                 "_rels", "_agents", "_kind", "_classes", "_last_quotient")

    def __init__(self, frame: Union[Frame, MonoStructure],
                 variant: str = "prenosil"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}")
        self._mono = isinstance(frame, MonoStructure)
        if variant == "fischer_servi" and not self._mono \
                and not is_forward_confluent(frame):
            raise PreconditionError(
                "the fischer_servi diamond requires a forward confluent frame")
        self.variant = variant
        self._box, self._dia = (_MONOBOX, None) if self._mono else (_BOX, _DIA)
        self._full = (1 << frame.n) - 1
        self._leq = frame.leq
        self._rels, self._agents = ((frame.r,), None) if self._mono \
            else (frame.rels, frame.agents)
        self._kind = type(frame).__name__
        self._classes: Optional[dict] = None  # _own_classes
        self._last_quotient: tuple = (None, None)  # valuation, quotient

    def truth_mask(self, f: Formula, val: Mapping[str, int]) -> int:
        """The states satisfying ``f``.  A battery asked many times is
        cheaper compiled once into a ``Program`` and given to ``run``."""
        return self._mask(f, val)

    def run(self, program: Program, val: Mapping[str, int]) -> list[int]:
        """One truth mask per node of ``program``, in node order."""
        q = self._quotient(val)
        masks = (q[1] if q else self)._run(program, q[2] if q else val)
        if q:
            lifted = {m: _lift(q, m) for m in set(masks)}
            masks[:] = map(lifted.__getitem__, masks)
        return masks

    def _mask(self, f: Formula, val: Mapping[str, int]) -> int:
        program = _compiled(f)
        # the root is the last node; below the size test there is no quotient
        if not self._full >> (CLASS_PASS_MIN_STATES - 1):
            return self._run(program, val)[-1]
        q = self._quotient(val)  # only the root's mask is lifted
        masks = (q[1] if q else self)._run(program, q[2] if q else val)
        return _lift(q, masks[-1]) if q else masks[-1]

    def _quotient(self, val: Mapping[str, int]) -> Optional[tuple]:
        """``(blocks, evaluator, valuation)`` of the quotient to run on under
        ``val``, or None; the last valuation's is kept.  The blocks are the
        coarsest partition respecting ``val`` and stable under ``leq``, its
        converse ``geq`` and each ``R`` (``refine``).  Implication and the
        interior are boxes over ``leq``, the group box a diamond over ``R``
        then that interior, a diamond one over ``R`` plus one over ``geq``
        or the interior, so each truth set is the union of the blocks the
        clauses give on the quotient, where block b's row holds the blocks
        its rows meet (Blackburn, de Rijke and Venema, *Modal Logic*, 2.2)."""
        if not self._full >> (CLASS_PASS_MIN_STATES - 1):
            return None
        key, q = self._last_quotient  # one read: other threads may replace it
        if key == val:
            return q
        self._last_quotient = key = (dict(val), None)  # until it pays
        classes = [self._leq.row_classes()] + [r.row_classes() for r in self._rels]
        direct = sum(map(len, classes)) / len(classes) \
            * (1 + self._full.bit_length() / 2048)  # per relation and pass
        # geq's pre-images are leq's images: no transpose is needed
        relations = classes + [self._own_classes()["up"]]
        blocks = [self._full]
        for m in val.values():
            blocks = [x for b in blocks for x in (b & m, b & ~m) if x]
        # refining only splits blocks: skip it if the valuation's do not pay
        stable = None if len(blocks) * QUOTIENT_MIN_GAIN > direct else refine(
            blocks, relations, QUOTIENT_MAX_PASSES * sum(map(len, relations)))
        if stable is None or len(stable[0]) * QUOTIENT_MIN_GAIN > direct:
            return None
        (blocks, images), k = stable, len(stable[0])
        leq, *rels = (Rel(k, tuple(rows)) for rows in images[:-1])
        structure = MonoStructure(k, leq, *rels) if self._mono \
            else Frame(self._agents, k, leq, tuple(rels))
        q = (blocks, Evaluator(structure, self.variant),
             {name: sum(1 << b for b, x in enumerate(blocks) if x & m)
              for name, m in val.items()})
        self._last_quotient = (key[0], q)
        return q

    def _own_classes(self) -> dict:
        """The classes the clauses test: ``"leq"`` the preorder's row
        classes, ``"up"`` the same swapped to ``(states, row)``, the pairs of
        the converse's pre-images (a preorder's up-closure), and each group's
        relation's (None for a mono structure's) once a clause reads it."""
        classes = self._classes
        if classes is None:
            leq = self._leq.row_classes()
            classes = self._classes = {
                "leq": leq, "up": tuple((s, r) for r, s in leq)}
        return classes

    def _run(self, program: Program, val: Mapping[str, int],
             rep: int = 1, spread: Optional[dict] = None) -> list[int]:
        """The masks of ``program``'s nodes, on this structure itself.  With
        a lane-repeat constant ``rep`` (bit 0 of each lane, see
        ``falsify_on_frame``), each value of ``val`` and each mask holds one
        truth set per lane, and only the "which classes meet x" test differs:
        a carry into each lane's guard bit replaces the branch.  Lanes read
        the class tables ``spread`` (``falsified_blocks``), which give each
        lane its relations and every group the program reads; without them
        (``rep`` 1) the structure's own classes serve (``_own_classes``)."""
        ops, left, right, consts = \
            program.ops, program.left, program.right, program.consts
        full, mono = self._full * rep, self._mono
        box, dia, variant = self._box, self._dia, self.variant
        if rep == 1:
            meets = _meets
        else:
            n, guards = self._full.bit_length(), (self._full + 1) * rep

            def meets(classes: tuple, x: int) -> int:
                out = 0
                for row, states in classes:
                    # lane by lane, (x & row) + full carries into the guard
                    # bit exactly when x meets the row there
                    out |= ((((x & row) + full) & guards) >> n) * states
                return out
        if spread is None:
            spread = self._own_classes()
        leq_classes = spread["leq"]
        masks: list[int] = []
        for i in range(len(ops)):
            op = ops[i]
            bad = None  # set by the clauses that end in the preorder interior
            if op == _AND:
                out = masks[left[i]] & masks[right[i]]
            elif op == _OR:
                out = masks[left[i]] | masks[right[i]]
            elif op == _IMPLIES:
                bad = masks[left[i]] & ~masks[right[i]]
            elif op == _ATOM:
                out = val.get(consts[left[i]], 0)
            elif op == box or op == dia:
                body = masks[left[i]]
                group = None if mono else consts[right[i]]
                classes = spread.get(group)
                if classes is None:
                    classes = spread[group] = self._rels[
                        0 if mono else self._agents.mask(group) - 1
                    ].row_classes()
                if op == box:  # image inside the body: it misses ~body
                    bad = meets(classes, ~body)
                    if mono:  # the mono box reads r directly, no interior
                        out, bad = full & ~bad, None
                else:  # image meets the body
                    out = meets(classes, body)
                    if variant == "prenosil":  # up-closure of the witnesses
                        out = meets(spread["up"], out)
                    elif variant == "wijesekera":
                        bad = full & ~out
            elif op == _TOP:
                out = full
            elif op == _BOT:
                out = 0
            else:  # a MonoBox on a frame, a Box or Dia on a mono structure
                raise TypeError(
                    f"not a formula over a {self._kind}: {program._formulas()[i]!r}")
            if bad is not None:  # the classes whose row misses every bad state
                out = full if bad == 0 else full & ~meets(leq_classes, bad)
            masks.append(out)
        return masks


def evaluator(structure: Union[Frame, MonoStructure],
              variant: str = "prenosil") -> Evaluator:
    """The structure's ``Evaluator`` for ``variant``, built on first use and
    kept in the structure's dict, the way ``Rel`` keeps its memos."""
    cache = structure.__dict__.setdefault("_evaluators", {})
    ev = cache.get(variant)
    if ev is None:
        ev = cache[variant] = Evaluator(structure, variant)
    return ev


def satisfies(m: Model, s: int, a: Formula, variant: str = "prenosil") -> bool:
    """The satisfaction relation at state ``s``, on a frame or a mono
    structure; ``variant`` picks the diamond clause, the others do not
    depend on it."""
    if not 0 <= s < m.frame.n:
        raise ValueError(f"state {s} out of range")
    return bool(evaluator(m.frame, variant).truth_mask(a, dict(m.val)) >> s & 1)


def valid_in_frame(f: Frame, a: Formula,
                   cap: int = DEFAULT_ASSIGNMENT_CAP) -> bool:
    """True in every model based on ``f``.

    Only atoms occurring in ``a`` are assigned (others cannot matter); each
    ranges over all closed state sets.
    """
    return falsify_on_frame(f, a, cap) is None


# A lane sweep packs at most this many bits of valuations into one int.  At
# 3 states and 3 atoms (at most 8 up-sets: 512 lanes of 4 bits) a frame's
# whole valuation space is one chunk.
LANE_CHUNK_BITS = 2048


def _repeat(count: int, stride: int) -> int:
    """The lane-repeat constant: bit 0 of each of ``count`` fields of
    ``stride`` bits, so ``x * _repeat(count, stride)`` copies a narrower
    ``x`` into every field."""
    return ((1 << count * stride) - 1) // ((1 << stride) - 1)


def _lanes(leq: Rel, sets: list[int], m: int) -> tuple:
    """How a lane sweep over ``m`` atoms packs valuations by the up-sets
    ``sets`` of ``leq``: ``(bits, sets, inner, rep, masks)``, the bits one
    pass takes, the up-sets, how many of the last atoms are packed, the
    lane-repeat constant, and each packed atom's mask.  Kept with ``leq``,
    like its up-sets."""
    memo = leq.__dict__.setdefault("_lanes", {})
    got = memo.get(m)
    if got is None:
        w, k = leq.n + 1, len(sets)
        inner = m
        while inner and k ** inner * w > LANE_CHUNK_BITS:
            inner -= 1
        lanes = k ** inner
        masks, block = [], lanes
        for _ in range(inner):
            block //= k  # the lanes each up-set of this atom fills in a row
            cycle = sum(u << s * block * w for s, u in enumerate(sets)) \
                * _repeat(block, w)
            masks.append(cycle * _repeat(lanes // (block * k), block * k * w))
        got = memo[m] = (lanes * w, sets, inner, _repeat(lanes, w), masks)
    return got


def _layout(f: Frame, m: int, cap: int) -> tuple:
    """``f``'s lane layout (``_lanes``) for ``m`` atoms, or the BudgetError
    of a valuation space past ``cap``."""
    sets = up_sets(f, cap)
    if m and len(sets) ** m > cap:
        raise BudgetError(f"{len(sets)}^{m} valuation assignments "
                          f"exceed the cap {cap} ({_CAP_HINT})")
    return _lanes(f.leq, sets, m)


def falsify_on_frame(f: Frame, a: Formula,
                     cap: int = DEFAULT_ASSIGNMENT_CAP) -> Optional[tuple[Model, int]]:
    """A model on ``f`` and a state where ``a`` fails, if one exists: the
    first falsifying valuation in ``itertools.product`` order over the
    up-sets, at its lowest falsified state.

    Valuations are checked in lanes (Lamport, "Multiple byte processing with
    full-word instructions", CACM 18(8), 1975; Warren, *Hacker's Delight*,
    2nd ed., ch. 6): lane k of an int holds valuation k's truth set in n
    state bits plus a guard bit, and one ``Evaluator`` pass serves every
    lane.  As many of the fastest-varying atoms as fit ``LANE_CHUNK_BITS``
    are packed, each atom's mask its up-sets repeated across the lanes by
    multiplication; each choice of the other atoms is one pass, in order.
    So the lowest missing bit of the first pass with one is the answer.
    This is ``falsified_blocks`` on one frame."""
    names = sorted(atoms_of(a))
    return falsified_blocks([(f, _layout(f, len(names), cap))], a, names)[0]


def falsified(frames: Iterable[tuple[Frame, object]], a: Formula,
              cap: int = DEFAULT_ASSIGNMENT_CAP) -> Iterator[tuple]:
    """``(answer, tag)`` per ``(frame, tag)``, in order: ``falsify_on_frame``'s
    answer on the frame, or the BudgetError it raised.  A tag read as its
    frame is drawn (a stream's exhaustive flag) stays that frame's, though a
    chunk draws frames ahead.  The first two frames, where most refutations
    fall, run alone, so a refutation there draws no frame ahead.  Then runs
    of frames of one state count whose valuations fit one sweep are checked
    in one pass each (``falsified_blocks``): 4, 8, 16, ... frames of at most
    ``LANE_CHUNK_BITS`` bits, answered once full.  A frame that does not
    fit, or exceeds ``cap``, ends the chunk and runs alone."""
    names = sorted(atoms_of(a))
    m = len(names)
    chunk: list = []  # (frame, layout) drawn and not yet answered
    tags: list = []  # their tags
    size, width, leq, layout = 4, 0, None, None
    for count, (frame, tag) in enumerate(frames):
        # the first two frames keep layout None, so they run alone
        if count >= 2 and frame.leq is not leq:
            leq, layout = frame.leq, None
            try:
                layout = _layout(frame, m, cap)
            except BudgetError:  # the frame runs alone, to give the error
                pass
        alone = layout is None or layout[2] < m
        if chunk and (alone or frame.n != chunk[0][0].n
                      or width + layout[0] > LANE_CHUNK_BITS):
            yield from zip(falsified_blocks(chunk, a, names), tags)
            chunk, tags, width, size = [], [], 0, size * 2
        if alone:
            try:
                answer = falsify_on_frame(frame, a, cap)
            except BudgetError as e:
                answer = e
            yield answer, tag
            continue
        chunk.append((frame, layout))
        tags.append(tag)
        width += layout[0]
        if len(chunk) == size:
            yield from zip(falsified_blocks(chunk, a, names), tags)
            chunk, tags, width, size = [], [], 0, size * 2
    if chunk:
        yield from zip(falsified_blocks(chunk, a, names), tags)


def _spread(rels: list[Rel], blocks: list[int]) -> list:
    """The classes ``_run`` reads for a relation that is ``rels[k]`` in the
    lanes of ``blocks[k]`` (a lane-repeat constant shifted to its block):
    ``(ROW_i, 1 << i)`` per state i, ``ROW_i`` holding each frame's row i
    in every lane of its block.  A lone relation's is kept with it, by lane
    constant: up to 3 states the relations are the process's frame table."""
    memo = rels[0].__dict__.setdefault("_spread", {}) if len(rels) == 1 else {}
    table = memo.get(blocks[0])
    if table is None:
        rows = (sum(map(operator.mul, col, blocks))
                for col in zip(*[r.rows for r in rels]))  # each state's rows
        table = memo[blocks[0]] = [(row, 1 << i) for i, row in enumerate(rows) if row]
    return table


def falsified_blocks(run: list[tuple[Frame, tuple]], a: Formula,
                     names: list[str]) -> list[Optional[tuple[Model, int]]]:
    """``falsify_on_frame``'s answer on each frame of ``run``, in order,
    from one ``_run`` pass over all of them.  ``run`` holds ``(frame,
    layout)`` pairs of one state count and agent set, each layout its
    frame's ``_lanes``; ``names`` are ``a``'s atoms, sorted.

    Block k of each int holds frame k's valuation lanes, laid out as for
    one frame.  Every lane is n+1 bits wide, so the guards span the run;
    only the relations differ per block, and ``_spread`` repeats each
    frame's rows into its own block (Lamport's word-parallel test, see
    ``falsify_on_frame``).  Only a lone frame may leave atoms unpacked:
    each of their choices is one pass.  The lowest missing bit of a block
    names its first falsifying lane and its lowest falsified state there."""
    frames, layouts = zip(*run)
    program, ev = _compiled(a), evaluator(frames[0])
    blocks, offsets, end = [], [0], 0
    for layout in layouts:
        blocks.append(layout[3] << end)
        end += layout[0]
        offsets.append(end)
    leqs = [f.leq for f in frames]
    tables = {"leq": _spread(leqs, blocks)}
    if _DIA in program.ops:  # only a diamond reads the up-closure
        tables["up"] = _spread([r.converse() for r in leqs], blocks)
    for group in program.groups():
        g = frames[0].agents.mask(group) - 1
        tables[group] = _spread([f.rels[g] for f in frames], blocks)
    _, sets, inner, _, _ = layouts[0]
    outer, rep, w, found = len(names) - inner, sum(blocks), frames[0].n + 1, {}
    val = dict(zip(names[outer:], map(sum, zip(
        *[[x << o for x in layout[4]] for layout, o in zip(layouts, offsets)]))))
    for head in itertools.product(sets, repeat=outer):
        val.update(zip(names, [u * rep for u in head]))
        missing = ev._full * rep & ~ev._run(program, val, rep, tables)[-1]
        while missing:  # the lowest missing bit names a block; skip to its end
            low = (missing & -missing).bit_length() - 1
            k = bisect.bisect_right(offsets, low) - 1
            lane, state = divmod(low - offsets[k], w)
            ups = layouts[k][1]
            tail = [ups[lane // len(ups) ** (inner - 1 - p) % len(ups)]
                    for p in range(inner)]
            found[k] = Model.make(
                frames[k], dict(zip(names, head + tuple(tail)))), state
            missing &= -1 << offsets[k + 1]
        if found:
            break
    return [found.get(k) for k in range(len(run))]


# ---------- Mono-modal truth sets ----------

def mono_truth_mask(mono: Model,
                    f: Union[Formula, Program]) -> Union[int, list[int]]:
    """The states of ``mono`` (a model on a ``MonoStructure``) satisfying
    ``f``, or for a ``Program`` the list of each formula's truth mask, from
    one ``Evaluator.run``."""
    ev, val = evaluator(mono.frame), mono.val_map()
    if isinstance(f, Program):
        masks = ev.run(f, val)
        return [masks[i] for i in f.roots]
    # _mask, not truth_mask: perfbench's tracer times the two as separate layers
    return ev._mask(f, val)
