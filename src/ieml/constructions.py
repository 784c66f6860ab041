"""Model transformations with machine-checkable equivalence claims.

Each construction returns a :class:`ConstructionResult` carrying the new
model, display names for its states, and for every source state the list of
output states representing it (its fiber).  The advertised biconditionals
("the source state satisfies B iff every/some fiber state does") can then be
checked exhaustively with :func:`equivalence_mismatches`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce
from math import prod
from operator import and_
from typing import Callable, Iterable, Optional, Sequence

from .errors import BudgetError, PreconditionError
from .frame_classes import FrameClass, has_class, is_iel_structure
from .modelio import default_names
from .semantics import (
    Frame, Model, MonoStructure, Rel, _repeat, _table_of, bits, evaluator,
    mono_truth_mask,
)
from .syntax import AgentSet, Formula, Group, Program, tau

STANDARDIZE_MAX_STATES = 8192
PARTITION_LIFT_MAX_STATES = 4096

# An index function table: one state-set mask per (group, agent) coordinate,
# coordinates ordered by ascending group bitmask, then agent position.
IFunc = tuple

# A choice function table: one successor state per (state, group) coordinate,
# coordinates ordered by ascending state index, then group bitmask.
JFunc = tuple


@dataclass(frozen=True)
class ConstructionResult:
    model: Model
    names: tuple
    fibers: tuple  # source state index -> tuple of output state indices


# ---------- shared coordinate helpers ----------

def _icoords(agents: AgentSet) -> list[tuple[int, int]]:
    k = len(agents)
    return [(gmask, a) for gmask in range(1, 1 << k) for a in range(k)]


def _digit_masks(radices: Sequence[int]) -> Callable[[int, int], int]:
    """``digit(c, v)``: the bitmask of the tables whose coordinate c is v,
    bit i standing for the i-th table in ``itertools.product`` order over
    ``range(r)`` per radix r: runs of ``stride`` bits (the later radices'
    product), one every ``radices[c] * stride``.  Each mask is built once."""
    strides = [prod(radices[c + 1:]) for c in range(len(radices))]
    size = prod(radices)
    masks: dict = {}

    def digit(c: int, v: int) -> int:
        mask = masks.get((c, v))
        if mask is None:
            stride = strides[c]
            period = radices[c] * stride
            run = ((1 << stride) - 1) << (v * stride)
            mask = masks[(c, v)] = run * _repeat(size // period, period)
        return mask
    return digit


def _pi_table(m: Model, variant: str) -> dict:
    """pi[gmask][t][u]: the mismatch set attached to moving from t to u."""
    frame = m.frame
    n = frame.n
    full = (1 << n) - 1
    pi: dict = {}
    for gmask in range(1, 1 << len(frame.agents)):
        r = frame.r_mask(gmask)
        if variant == "partition":
            rows = [[r.rows[t] ^ r.rows[u] for u in range(n)] for t in range(n)]
        else:
            rows = [[0 if r.has(t, u) else full for u in range(n)] for t in range(n)]
        pi[gmask] = rows
    return pi


def _check_size(n_out: int, max_states: int) -> None:
    if n_out > max_states:
        raise BudgetError(f"output would have {n_out} states (cap {max_states}; "
                          "raise max_states, CLI construct --max-states)")


def _names(m: Model, src_names: Optional[Sequence[str]]) -> tuple:
    if src_names is None:
        return default_names(m.frame.n)
    return tuple(src_names)


def _block_lift(m: Model, w: int, tag: str, rel: dict,
                src_names: Optional[Sequence[str]]) -> ConstructionResult:
    """The model over ``rel`` in which source state t becomes the block of
    states t*w ... t*w + w - 1, named ``{src[t]}|{tag}{i}`` and making up its
    fiber; the preorder and the valuation are lifted blockwise."""
    frame = m.frame
    n, block = frame.n, (1 << w) - 1

    def lift(mask: int) -> int:
        acc = 0
        for t in bits(mask):
            acc |= block << (t * w)
        return acc

    heads, t_index = _table_of(map(lift, frame.leq.rows))
    states = [lift(sum(1 << t for t, x in enumerate(t_index) if x == c))
              for c in range(len(heads))]
    leq = Rel._from_table(n * w, heads, [c for c in t_index for _ in range(w)], states)
    out_frame = Frame.make(frame.agents, n * w, leq, rel)
    val = {atom: lift(mask) for atom, mask in m.val}
    src = _names(m, src_names)
    names = tuple(f"{src[t]}|{tag}{i}" for t in range(n) for i in range(w))
    fibers = tuple(tuple(range(t * w, (t + 1) * w)) for t in range(n))
    return ConstructionResult(Model.make(out_frame, val), names, fibers)


# ---------- standardization ----------

def standardize(m: Model, variant: str = "default",
                max_states: int = STANDARDIZE_MAX_STATES,
                src_names: Optional[Sequence[str]] = None) -> ConstructionResult:
    """Blow a prestandard model up into a standard one over index functions.

    The new carrier pairs each state with a table assigning a state set to
    every (group, agent) coordinate.  Two lifted states are related for a
    group exactly when the tables agree on the group's own coordinates and
    their per-group symmetric differences track the source relation.
    """
    if variant not in ("default", "partition"):
        raise ValueError(f"unknown variant {variant!r}")
    frame = m.frame
    if not has_class(frame, FrameClass.PRESTANDARD):
        raise PreconditionError("standardize needs a prestandard frame")
    if variant == "partition" and not has_class(frame, FrameClass.PARTITION):
        raise PreconditionError("the partition variant needs a partition frame")
    n, agents = frame.n, frame.agents
    coords = _icoords(agents)
    cpos = {c: i for i, c in enumerate(coords)}
    nvals = 1 << n
    n_i = nvals ** len(coords)
    n_out = n * n_i
    _check_size(n_out, max_states)

    pi = _pi_table(m, variant)
    k, low = len(agents), nvals - 1
    gmasks = list(range(1, 1 << k))
    digit = _digit_masks([nvals] * len(coords))

    def xor_mask(free: list[int], need: int) -> int:
        # the tables whose digits at ``free`` xor to ``need``, a sum of
        # disjoint masks (more than one free coordinate needs three agents)
        c, *rest = free
        return sum(digit(c, v) & xor_mask(rest, need ^ v)
                   for v in range(nvals)) if rest else digit(c, need)

    rel = {}
    for amask in gmasks:
        # (t,g) relates to (u,h) when no closed group's pi(t,u) is set, h
        # keeps g's digits of agents in amask, and each split group's other
        # (free) digits xor in h to their xor in g moved by pi(t,u).  So a
        # row depends on g through a key: an n-bit field per kept digit and
        # per split group's xor, the xor of g's digits shifted there.
        closed = [pi[gm] for gm in gmasks if not gm & ~amask]
        shift: list = [None] * len(coords)  # None: a loose coordinate
        kept, split = [], []  # (shift, mask by digit); (shift, pi, mask by xor)
        for gm in gmasks:
            for c in [cpos[(gm, a)] for a in range(k) if gm >> a & amask >> a & 1]:
                shift[c] = n * (len(kept) + len(split))
                kept.append((shift[c], [digit(c, v) for v in range(nvals)]))
            free = [cpos[(gm, a)] for a in range(k) if gm >> a & ~amask >> a & 1]
            if free:
                s = n * (len(kept) + len(split))
                for c in free:
                    shift[c] = s
                split.append((s, pi[gm], [xor_mask(free, v) for v in range(nvals)]))
        keys = [0]  # the key of each table, in table order
        for s in shift:
            keys = [x for x in keys for _ in range(nvals)] if s is None \
                else [x ^ v << s for x in keys for v in range(nvals)]
        blocks = {}  # distinct key -> (the h its kept digits allow, its tables)
        for key in dict.fromkeys(keys):
            block = reduce(and_, [ms[key >> s & low] for s, ms in kept], (1 << n_i) - 1)
            tables = reduce(and_, [ms[key >> s & low] for s, _, ms in split], block)
            blocks[key] = block, tables

        heads: dict = {}  # distinct row -> position
        index, states = [], {}  # states: position -> the states with that row
        for t in range(n):
            moves = [(u * n_i, [(s, p[t][u], ms) for s, p, ms in split])
                     for u in range(n) if not any(p[t][u] for p in closed)]
            pos = {}  # key -> position of its row
            for key, (block, tables) in blocks.items():
                # the targets' blocks are disjoint: their sum is their OR
                row = sum(reduce(and_, [ms[(key >> s & low) ^ mv] for s, mv, ms in needs],
                                 block) << base for base, needs in moves)
                c = pos[key] = heads.setdefault(row, len(heads))
                states[c] = states.get(c, 0) | tables << (t * n_i)
            index += map(pos.__getitem__, keys)
        rel[agents.group_of_mask(amask)] = Rel._from_table(
            n_out, list(heads), index, list(states.values()))

    return _block_lift(m, n_i, "g", rel, src_names)


def witness_h(m: Model, alpha: Group, t: int, u: int, g: IFunc,
              variant: str = "default") -> IFunc:
    """The table h with (t,g) related to (u,h) in the standardized model.

    ``pick`` selects, for each group not inside ``alpha``, its least member
    outside ``alpha`` in the canonical agent order; that coordinate absorbs
    the per-group correction."""
    frame = m.frame
    if not has_class(frame, FrameClass.PRESTANDARD):
        raise PreconditionError("witness_h needs a prestandard frame")
    if not frame.r(alpha).has(t, u):
        raise PreconditionError("witness_h needs t related to u for the group")
    agents = frame.agents
    k = len(agents)
    amask = agents.mask(alpha)
    coords = _icoords(agents)
    cpos = {c: i for i, c in enumerate(coords)}
    pi = _pi_table(m, variant)
    h = []
    for gm, a in coords:
        in_group = bool(gm >> a & 1)
        in_alpha = bool(amask >> a & 1)
        if not in_group:
            h.append(0)
        elif in_alpha:
            h.append(g[cpos[(gm, a)]])
        else:
            rest = gm & ~amask
            picked = (rest & -rest).bit_length() - 1
            if a != picked:
                h.append(0)
            else:
                acc = pi[gm][t][u]
                for b in bits(rest):
                    acc ^= g[cpos[(gm, b)]]
                h.append(acc)
    return tuple(h)


# ---------- transitive lift ----------

def transitive_lift(m: Model,
                    src_names: Optional[Sequence[str]] = None) -> ConstructionResult:
    """Duplicate every state into a 0-layer and a 1-layer; accessibility only
    crosses from layer 0 to layer 1, so no two steps compose."""
    frame = m.frame
    n_out = 2 * frame.n
    rel = {}
    for group in frame.agents.groups():
        rows = [0] * n_out
        for t, u in frame.r(group).pairs():
            rows[2 * t] |= 1 << (2 * u + 1)
        rel[group] = Rel(n_out, tuple(rows))
    return _block_lift(m, 2, "", rel, src_names)


# ---------- collapse to a reflexive symmetric frame ----------

def rs_collapse(m: Model,
                src_names: Optional[Sequence[str]] = None) -> ConstructionResult:
    """Close accessibility under order detours in both directions."""
    frame = m.frame
    if not has_class(frame, FrameClass.UD):
        raise PreconditionError(
            "rs_collapse needs an up and down reflexive and symmetric frame")
    out_frame = Frame(frame.agents, frame.n, frame.leq, tuple(
        up & down for up, down in map(frame.ud_pair, frame.rels)))
    out = Model(out_frame, m.val)
    names = _names(m, src_names)
    fibers = tuple((t,) for t in range(frame.n))
    return ConstructionResult(out, names, fibers)


# ---------- partition lift ----------

def _jcoords(n: int, n_groups: int) -> list[tuple[int, int]]:
    return [(t, gm) for t in range(n) for gm in range(1, n_groups + 1)]


def partition_lift(m: Model, variant: str = "plain",
                   max_states: int = PARTITION_LIFT_MAX_STATES,
                   src_names: Optional[Sequence[str]] = None) -> ConstructionResult:
    """Pair states with choice functions into accessibility successors; two
    pairs are related when the chosen two-element sets coincide."""
    if variant not in ("plain", "prestandard"):
        raise ValueError(f"unknown variant {variant!r}")
    frame = m.frame
    if not has_class(frame, FrameClass.RS):
        raise PreconditionError("partition_lift needs a reflexive symmetric frame")
    n, agents = frame.n, frame.agents
    n_groups = (1 << len(agents)) - 1
    coords = _jcoords(n, n_groups)
    cpos = {c: i for i, c in enumerate(coords)}
    succ_lists = [sorted(bits(frame.r_mask(gm).rows[t])) for t, gm in coords]
    radices = [len(lst) for lst in succ_lists]
    n_j = prod(radices)
    n_out = n * n_j
    _check_size(n_out, max_states)
    tables = list(itertools.product(*succ_lists))
    digit = _digit_masks(radices)

    def allowed_mask(t: int, u: int, gm: int, gv: int) -> int:
        # positions of x in the (u, gm) successor list with {t, gv} == {u, x}
        want = {t, gv}
        lst = succ_lists[cpos[(u, gm)]]
        out = 0
        for pos, x in enumerate(lst):
            if {u, x} == want:
                out |= digit(cpos[(u, gm)], pos)
        return out

    full_j = (1 << n_j) - 1
    rel = {}
    for gm in range(1, n_groups + 1):
        sub = [g for g in range(1, n_groups + 1) if g | gm == gm] \
            if variant == "prestandard" else [gm]
        # one row per (t, choices on sub), kept as a row table
        classes: dict = {}  # key -> position of its row among the heads
        heads: dict = {}  # distinct row -> position
        index = []
        for t in range(n):
            r_succ = list(bits(frame.r_mask(gm).rows[t]))
            for g in tables:
                key = (t, tuple(g[cpos[(t, sm)]] for sm in sub))
                c = classes.get(key)
                if c is None:
                    row = 0
                    for u in r_succ:
                        h_mask = full_j
                        for sm in sub:
                            h_mask &= allowed_mask(t, u, sm, g[cpos[(t, sm)]])
                            if not h_mask:
                                break
                        row |= h_mask << (u * n_j)
                    c = classes[key] = heads.setdefault(row, len(heads))
                index.append(c)
        rel[agents.group_of_mask(gm)] = Rel._from_table(n_out, list(heads), index)

    return _block_lift(m, n_j, "j", rel, src_names)


def partition_lift_witnesses(m: Model, alpha: Group,
                             u: int, v: int) -> tuple[JFunc, JFunc]:
    """Choice tables h, i putting (u,h) and (v,i) in the lifted relation.

    h sends u to v at the chosen group and fixes everything else; i sends v
    back to u.  Requires u related to v (so both tables are valid choices on
    a reflexive symmetric frame)."""
    frame = m.frame
    if not has_class(frame, FrameClass.RS):
        raise PreconditionError("witnesses need a reflexive symmetric frame")
    if not frame.r(alpha).has(u, v):
        raise PreconditionError("witnesses need u related to v for the group")
    amask = frame.agents.mask(alpha)
    coords = _jcoords(frame.n, (1 << len(frame.agents)) - 1)
    h = tuple(v if (w == u and gm == amask) else w for w, gm in coords)
    i = tuple(u if (w == v and gm == amask) else w for w, gm in coords)
    return h, i


# ---------- conversions between mono structures and frames ----------

def expand_mono(m: Model, agents: AgentSet, kind: str = "minus",
                src_names: Optional[Sequence[str]] = None) -> ConstructionResult:
    """Read a model on a single-relation structure as one on a frame where
    every group shares the one relation; the result is standard, and
    doxastic or epistemic according to the structure kind."""
    st = m.frame
    if not is_iel_structure(st, kind):
        raise PreconditionError(f"input is not a {kind} structure")
    rel = {g: st.r for g in agents.groups()}
    frame = Frame.make(agents, st.n, st.leq, rel)
    out = Model(frame, m.val)
    names = _names(m, src_names)
    fibers = tuple((t,) for t in range(st.n))
    return ConstructionResult(out, names, fibers)


def collapse_mono(m: Model, alpha: Group, kind: str = "minus",
                  src_names: Optional[Sequence[str]] = None) -> ConstructionResult:
    """Forget all groups but ``alpha``, absorbing the preorder into the
    accessibility relation."""
    frame = m.frame
    need = FrameClass.EPISTEMIC if kind == "full" else FrameClass.DOXASTIC
    if kind not in ("minus", "full"):
        raise ValueError(f"kind must be 'minus' or 'full', got {kind!r}")
    if not has_class(frame, need):
        raise PreconditionError(f"collapse_mono({kind}) needs a {need.value} frame")
    r = frame.leq.compose(frame.r(alpha))
    out = Model(MonoStructure(frame.n, frame.leq, r), m.val)
    names = _names(m, src_names)
    fibers = tuple((t,) for t in range(frame.n))
    return ConstructionResult(out, names, fibers)


# ---------- claim verification ----------

def _program(formulas: Iterable[Formula]) -> Program:
    return formulas if isinstance(formulas, Program) else Program(formulas)


def equivalence_mismatches(src: Model, result: ConstructionResult,
                           formulas: Iterable[Formula]) -> list[dict]:
    """Check `source state satisfies B iff each of its fiber states does`.

    ``formulas`` may be a ``Program``, which is then not compiled again.
    Returns one record per failing formula with the offending states."""
    out = result.model
    program = _program(formulas)
    src_masks = evaluator(src.frame).run(program, src.val_map())
    out_masks = evaluator(out.frame).run(program, out.val_map())
    fiber_bits = []
    covered = 0
    for fiber in result.fibers:
        mask = 0
        for x in fiber:
            mask |= 1 << x
        fiber_bits.append(mask)
        covered |= mask
    expected: dict = {}  # source mask -> the output mask it asks for
    mismatches = []
    for f, i in zip(program, program.roots):
        ms = src_masks[i]
        expect = expected.get(ms)
        if expect is None:
            expect = 0
            for t in bits(ms):
                expect |= fiber_bits[t]
            expected[ms] = expect
        bad = (out_masks[i] & covered) ^ expect
        if bad:
            mismatches.append({
                "formula": str(f),
                "source_mask": ms,
                "output_disagreement": sorted(bits(bad)),
            })
    return mismatches


def mono_equivalence_mismatches(multi: Model, mono: Model,
                                formulas: Iterable[Formula]) -> list[dict]:
    """Check `multi-agent satisfaction of B equals mono satisfaction of
    tau(B)` statewise; both models share one carrier.  ``formulas`` may be a
    ``Program``, which is then not compiled again."""
    program = _program(formulas)
    lefts = evaluator(multi.frame).run(program, multi.val_map())
    # the images share the node array, so they are neither built nor compiled
    rights = mono_truth_mask(mono, tau(program))
    return [{"formula": str(f), "multi_mask": lefts[i], "mono_mask": right}
            for f, i, right in zip(program, program.roots, rights)
            if lefts[i] != right]
