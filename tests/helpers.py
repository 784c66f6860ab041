"""Independent oracles and generators shared across the test suite.

The naive evaluators here work on explicit pair sets with literal
transliterations of the satisfaction clauses, deliberately sharing no code
with the bitmask engine they are used to check.
"""
from __future__ import annotations

import itertools
import random

from ieml import (
    AgentSet, And, Atom, BOT, Bot, Box, Dia, Formula, Implies, Model,
    MonoBox, Or, TOP, Top,
)
from ieml.semantics import Frame, Rel, bits

# Pieces of formula text, well-formed or not, for fuzzing the parser.
FORMULA_TOKENS = ["p", "q", "a", "b", "T", "F", "->", "<->", "\\/", "/\\", "~",
                  "[", "]", "<", ">", ",", "(", ")", " ", "[a]", "<a,b>", "[]",
                  "1", "@"]


def program_arrays(p) -> tuple:
    """What a ``Program`` holds: its node array, constants and roots."""
    return bytes(p.ops), p.left, p.right, p.consts, p.roots


def rel_pairs(r: Rel) -> set:
    return set(r.pairs())


def model_tables(m: Model):
    frame = m.frame
    leq = rel_pairs(frame.leq)
    rel = {g: rel_pairs(frame.r(g)) for g in frame.agents.groups()}
    val = {atom: set(bits(mask)) for atom, mask in m.val}
    return frame.n, leq, rel, val


def naive_satisfies(m: Model, s: int, f: Formula, variant: str = "prenosil") -> bool:
    n, leq, rel, val = model_tables(m)

    def sat(w: int, g: Formula) -> bool:
        if isinstance(g, Atom):
            return w in val.get(g.name, set())
        if isinstance(g, Top):
            return True
        if isinstance(g, Bot):
            return False
        if isinstance(g, And):
            return sat(w, g.left) and sat(w, g.right)
        if isinstance(g, Or):
            return sat(w, g.left) or sat(w, g.right)
        if isinstance(g, Implies):
            return all(not sat(t, g.left) or sat(t, g.right)
                       for t in range(n) if (w, t) in leq)
        if isinstance(g, Box):
            return all(sat(t, g.body)
                       for v in range(n) if (w, v) in leq
                       for t in range(n) if (v, t) in rel[g.group])
        if isinstance(g, Dia):
            if variant == "fischer_servi":
                return any(sat(t, g.body)
                           for t in range(n) if (w, t) in rel[g.group])
            if variant == "wijesekera":
                return all(
                    any(sat(u, g.body)
                        for u in range(n) if (t, u) in rel[g.group])
                    for t in range(n) if (w, t) in leq)
            return any(sat(t, g.body)
                       for v in range(n) if (v, w) in leq
                       for t in range(n) if (v, t) in rel[g.group])
        raise TypeError(g)

    return sat(s, f)


def naive_mono_satisfies(mm: Model, s: int, f: Formula) -> bool:
    st = mm.frame
    leq = rel_pairs(st.leq)
    r = rel_pairs(st.r)
    val = {atom: set(bits(mask)) for atom, mask in mm.val}

    def sat(w: int, g: Formula) -> bool:
        if isinstance(g, Atom):
            return w in val.get(g.name, set())
        if isinstance(g, Top):
            return True
        if isinstance(g, Bot):
            return False
        if isinstance(g, And):
            return sat(w, g.left) and sat(w, g.right)
        if isinstance(g, Or):
            return sat(w, g.left) or sat(w, g.right)
        if isinstance(g, Implies):
            return all(not sat(t, g.left) or sat(t, g.right)
                       for t in range(st.n) if (w, t) in leq)
        if isinstance(g, MonoBox):
            return all(sat(t, g.body) for t in range(st.n) if (w, t) in r)
        raise TypeError(g)

    return sat(s, f)


def naive_atoms(f: Formula) -> set:
    """The atom names in f, collected here rather than by ieml's compiler."""
    if isinstance(f, Atom):
        return {f.name}
    if isinstance(f, (Implies, Or, And)):
        return naive_atoms(f.left) | naive_atoms(f.right)
    if isinstance(f, (Box, Dia, MonoBox)):
        return naive_atoms(f.body)
    return set()


def naive_falsify(frame: Frame, f: Formula):
    """The first valuation of the atoms of f, in product order over the
    closed sets taken as ascending bitmasks, under which f fails at some
    state: ``(atom -> mask, lowest failing state)``, or None.  Every subset
    is tested against the preorder's pairs, one valuation at a time."""
    names = sorted(naive_atoms(f))
    n = frame.n
    leq = rel_pairs(frame.leq)
    closed = [m for m in range(1 << n)
              if all(m >> t & 1 for s, t in leq if m >> s & 1)]
    for choice in itertools.product(closed, repeat=len(names)):
        val = dict(zip(names, choice))
        model = Model.make(frame, val)
        for s in range(n):
            if not naive_satisfies(model, s, f):
                return val, s
    return None


def naive_valid_in_frame(frame: Frame, f: Formula) -> bool:
    return naive_falsify(frame, f) is None


def naive_compose(p: Rel, q: Rel) -> set:
    return {(i, k) for i, j1 in p.pairs() for j2, k in q.pairs() if j1 == j2}


def naive_set_bits(mask: int) -> list:
    """The positions of the 1 digits of ``mask``, read off its binary text
    one digit at a time."""
    return [j for j, digit in enumerate(reversed(format(mask, "b"))) if digit == "1"]


def _row_digits(r: Rel) -> list:
    """``naive_set_bits`` of each row, read once per distinct row, so wide
    relations with few distinct rows stay quick."""
    digits = {row: set(naive_set_bits(row)) for row in set(r.rows)}
    return [digits[row] for row in r.rows]


def naive_converse(r: Rel) -> set:
    return {(j, i) for i, row in enumerate(_row_digits(r)) for j in row}


def naive_is_closed(leq: Rel, mask: int) -> bool:
    """Every state of the set has all its ``leq`` successors in the set."""
    inside, rows = set(naive_set_bits(mask)), _row_digits(leq)
    return all(rows[s] <= inside for s in inside)


def naive_classes(frame: Frame) -> set:
    """Names of the frame classes ``frame`` belongs to, each decided from its
    definition on successor sets read off ``rel_pairs``; no converse,
    composition or inclusion test of the engine is used."""
    n = frame.n

    def succ(pairs: set) -> list:
        out = [set() for _ in range(n)]
        for s, t in pairs:
            out[s].add(t)
        return out

    def then(p: list, q: list) -> list:  # s (p;q) u iff s p t and t q u
        return [set().union(*(q[t] for t in p[s])) for s in range(n)]

    leq = succ(rel_pairs(frame.leq))
    geq = succ({(t, s) for s, t in rel_pairs(frame.leq)})
    groups = frame.agents.groups()
    rel = {g: succ(rel_pairs(frame.r(g))) for g in groups}
    rels = list(rel.values())
    up = [then(then(leq, r), leq) for r in rels]
    down = [then(then(geq, r), geq) for r in rels]
    edges = [[(s, t) for s in range(n) for t in r[s]] for r in rels]
    out = {"all"}
    if all(r[s] <= leq[s] for r in rels for s in range(n)):
        out.add("doxastic")
        if all(all(then(leq, r)) for r in rels):
            out.add("epistemic")
    reflexive = all(s in r[s] for r in rels for s in range(n))
    symmetric = all(s in r[t] for r, es in zip(rels, edges) for s, t in es)
    transitive = all(a <= b for r in rels for a, b in zip(then(r, r), r))
    ud_reflexive = all(s in u[s] and s in d[s]
                       for u, d in zip(up, down) for s in range(n))
    ud_symmetric = all(s in u[t] and s in d[t]
                       for u, d, es in zip(up, down, edges) for s, t in es)
    flags = {"reflexive": reflexive, "symmetric": symmetric,
             "transitive": transitive, "rs": reflexive and symmetric,
             "partition": reflexive and symmetric and transitive,
             "ud_reflexive": ud_reflexive, "ud_symmetric": ud_symmetric,
             "ud": ud_reflexive and ud_symmetric}
    out |= {name for name, holds in flags.items() if holds}
    rows = [(rel[g1 | g2][s], rel[g1][s] & rel[g2][s])
            for g1 in groups for g2 in groups for s in range(n)]
    if all(union <= meet for union, meet in rows):
        out.add("prestandard")
    if all(union == meet for union, meet in rows):
        out.add("standard")
    if all(a <= b for r in rels for a, b in zip(then(geq, r), then(r, geq))):
        out.add("forward_confluent")
    return out


def blow_up(frame: Frame, sizes) -> Frame:
    """Replace state s by ``sizes[s]`` identical copies: every copy relates
    exactly as its original does, so the rows repeat in blocks."""
    origin = [s for s, k in enumerate(sizes) for _ in range(k)]
    n = len(origin)

    def lift(r: Rel) -> Rel:
        pairs = rel_pairs(r)
        return Rel.from_pairs(n, [(x, y) for x in range(n) for y in range(n)
                                  if (origin[x], origin[y]) in pairs])

    return Frame(frame.agents, n, lift(frame.leq), tuple(lift(r) for r in frame.rels))


def bisimilar_blow_up(rng: random.Random, leq: Rel, rels, sizes,
                      tabled: bool = False):
    """Replace state s by ``sizes[s]`` copies that behave like it without
    sharing its rows: the preorder relates copies exactly as it relates
    their originals, and each copy's row in an accessibility relation holds
    a random nonempty part of the copies of every successor.  Copy x
    satisfies what its origin ``origin[x]`` does.  Returns ``(origin, leq,
    rels)``; with ``tabled`` every relation keeps a row table, the way
    construction outputs and loaded row tables do."""
    origin = [s for s, k in enumerate(sizes) for _ in range(k)]
    n = len(origin)
    copies = [0] * len(sizes)
    for x, s in enumerate(origin):
        copies[s] |= 1 << x

    def part(mask: int) -> int:
        while True:
            sub = rng.getrandbits(n) & mask
            if sub:
                return sub

    def make(rows: list) -> Rel:
        if not tabled:
            return Rel(n, tuple(rows))
        heads = list(dict.fromkeys(rows))
        at = {r: c for c, r in enumerate(heads)}
        return Rel._from_table(n, heads, [at[r] for r in rows])

    big_leq = make([sum(copies[t] for t in bits(leq.rows[s])) for s in origin])
    big_rels = tuple(make([sum(part(copies[t]) for t in bits(r.rows[s]))
                           for s in origin]) for r in rels)
    return origin, big_leq, big_rels


def random_ast(rng: random.Random, atoms=("p", "q", "r"),
               agents=("a", "b"), depth: int = 4) -> Formula:
    """Formula generator independent of the search module's one."""
    if depth == 0:
        roll = rng.random()
        if roll < 0.7:
            return Atom(rng.choice(atoms))
        return TOP if roll < 0.85 else BOT
    kind = rng.randrange(8)
    if kind == 0:
        return random_ast(rng, atoms, agents, 0)
    if kind in (1, 2):
        return Implies(random_ast(rng, atoms, agents, depth - 1),
                       random_ast(rng, atoms, agents, depth - 1))
    if kind == 3:
        return Or(random_ast(rng, atoms, agents, depth - 1),
                  random_ast(rng, atoms, agents, depth - 1))
    if kind == 4:
        return And(random_ast(rng, atoms, agents, depth - 1),
                   random_ast(rng, atoms, agents, depth - 1))
    group = frozenset(rng.sample(agents, rng.randrange(1, len(agents) + 1)))
    node = Box if kind in (5, 6) else Dia
    return node(group, random_ast(rng, atoms, agents, depth - 1))


def two_chain_frame(agents: AgentSet, rel=None) -> Frame:
    """Two states with 0 below 1; accessibility empty unless given."""
    leq = Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])
    rel = rel or {}
    full = {g: rel.get(g, Rel.empty(2)) for g in agents.groups()}
    return Frame.make(agents, 2, leq, full)


def naive_group_bindings(slot, target, bound: dict, names) -> list:
    """Every way to extend ``bound`` so the groups of the metavariables in
    ``slot`` have union ``target``: each metavariable, in name order, ranges
    over all nonempty groups of ``names`` by bitmask, and must keep a group
    it is already bound to."""
    groups = [frozenset(nm for i, nm in enumerate(names) if m >> i & 1)
              for m in range(1, 1 << len(names))]
    out = []
    for choice in itertools.product(groups, repeat=len(slot)):
        binding = dict(zip(sorted(slot), choice))
        if all(bound.get(v, g) == g for v, g in binding.items()) and \
                frozenset().union(*choice) == target:
            out.append({**bound, **binding})
    return out
