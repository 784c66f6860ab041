"""The benchmark's own input generators and reference answers.

Nothing here imports ieml.  Formulas are tuples, frames are explicit pair
sets, and the satisfaction clauses and frame-class conditions are
transliterated from the README, so a wrong verdict from ieml cannot hide
behind a shared helper.  Everything sent to ieml is rendered to its surface
syntax or to its JSON document format.
"""
from __future__ import annotations

import itertools
import random
import time

# Formula tuples: ("atom", name), ("T",), ("F",), ("imp"|"or"|"and", A, B),
# ("box"|"dia", group, A) with group a tuple of agent names in agent order.

_INFIX = {"imp": "->", "or": "\\/", "and": "/\\"}


def render(f) -> str:
    """ieml surface syntax, binary connectives fully parenthesized."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind in ("T", "F"):
        return kind
    if kind in _INFIX:
        return f"({render(f[1])} {_INFIX[kind]} {render(f[2])})"
    opening, closing = ("[", "]") if kind == "box" else ("<", ">")
    return f"{opening}{','.join(f[1])}{closing}{render(f[2])}"


def atoms(f) -> set:
    if f[0] == "atom":
        return {f[1]}
    if f[0] in _INFIX:
        return atoms(f[1]) | atoms(f[2])
    if f[0] in ("box", "dia"):
        return atoms(f[2])
    return set()


def agents_in(f) -> set:
    if f[0] in _INFIX:
        return agents_in(f[1]) | agents_in(f[2])
    if f[0] in ("box", "dia"):
        return set(f[1]) | agents_in(f[2])
    return set()


def groups_of(agents) -> list:
    """Nonempty groups in ascending bitmask order, as ieml orders them."""
    return [tuple(a for i, a in enumerate(agents) if m >> i & 1)
            for m in range(1, 1 << len(agents))]


def random_formula(rng: random.Random, atom_names, groups, depth: int):
    if depth == 0 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.75:
            return ("atom", rng.choice(atom_names))
        return ("T",) if roll < 0.875 else ("F",)
    kind = rng.choice(("imp", "imp", "or", "and", "box", "dia") if groups
                      else ("imp", "imp", "or", "and"))
    if kind in ("box", "dia"):
        return (kind, rng.choice(groups),
                random_formula(rng, atom_names, groups, depth - 1))
    return (kind, random_formula(rng, atom_names, groups, depth - 1),
            random_formula(rng, atom_names, groups, depth - 1))


def tautology(rng: random.Random, atom_names, groups, depth: int, shape=None):
    """A formula valid on every frame: an intuitionistic tautology or an
    instance of A1-A5 with random subformulas, the first over the first atom
    and the second over the last.  ``shape`` picks the template (random when
    None)."""
    x = random_formula(rng, atom_names[:1], groups, depth)
    y = random_formula(rng, atom_names[-1:], groups, depth)
    g = rng.choice(groups)
    shapes = (
        ("imp", x, x),
        ("imp", ("and", x, y), y),
        ("imp", x, ("imp", y, x)),
        ("imp", ("F",), x),
        ("imp", ("and", ("box", g, x), ("box", g, y)), ("box", g, ("and", x, y))),
        ("imp", ("dia", g, ("or", x, y)), ("or", ("dia", g, x), ("dia", g, y))),
        ("box", g, ("T",)),
        ("imp", ("dia", g, ("F",)), ("F",)),
    )
    return shapes[shape % len(shapes)] if shape is not None else rng.choice(shapes)


# ---------- frames as pair sets ----------

def compose(p: set, q: set) -> set:
    succ: dict = {}
    for b, c in q:
        succ.setdefault(b, set()).add(c)
    return {(a, c) for a, b in p for c in succ.get(b, ())}


def converse(p: set) -> set:
    return {(b, a) for a, b in p}


class PairFrame:
    """A frame as explicit pair sets: ``rel`` maps each group tuple to its
    accessibility pairs."""

    def __init__(self, n: int, agents: tuple, leq: set, rel: dict):
        self.n, self.agents, self.leq, self.rel = n, agents, leq, rel

    def doc(self, valuation=None) -> dict:
        """ieml's JSON document for this frame (or model)."""
        def pairs(rel):
            return [[f"w{a}", f"w{b}"] for a, b in sorted(rel)]
        out = {"agents": list(self.agents),
               "worlds": [f"w{i}" for i in range(self.n)],
               "leq": pairs(self.leq),
               "rel": {",".join(g): pairs(r) for g, r in self.rel.items()}}
        if valuation is not None:
            out["valuation"] = {a: [f"w{s}" for s in sorted(states)]
                                for a, states in valuation.items()}
        return out

    def up_sets(self) -> list:
        return [set(u) for k in range(self.n + 1)
                for u in itertools.combinations(range(self.n), k)
                if all(t in u for s, t in self.leq if s in u)]

    def satisfies(self, val: dict, s: int, f) -> bool:
        """Truth at ``s`` with the default (prenosil) diamond clause."""
        kind = f[0]
        if kind == "atom":
            return s in val.get(f[1], ())
        if kind == "T":
            return True
        if kind == "F":
            return False
        if kind == "and":
            return self.satisfies(val, s, f[1]) and self.satisfies(val, s, f[2])
        if kind == "or":
            return self.satisfies(val, s, f[1]) or self.satisfies(val, s, f[2])
        if kind == "imp":
            return all(not self.satisfies(val, t, f[1]) or self.satisfies(val, t, f[2])
                       for u, t in self.leq if u == s)
        r = self.rel[f[1]]
        if kind == "box":
            return all(self.satisfies(val, t, f[2])
                       for u, v in self.leq if u == s
                       for w, t in r if w == v)
        return any(self.satisfies(val, t, f[2])
                   for v, u in self.leq if u == s
                   for w, t in r if w == v)

    def valid(self, f) -> bool:
        names = sorted(atoms(f))
        ups = self.up_sets()
        for choice in itertools.product(ups, repeat=len(names)):
            val = dict(zip(names, choice))
            if not all(self.satisfies(val, s, f) for s in range(self.n)):
                return False
        return True

    def classes(self) -> list:
        """Class tags in ieml's declaration order."""
        n, leq, rels = self.n, self.leq, list(self.rel.values())
        geq = converse(leq)
        diag = {(i, i) for i in range(n)}
        dox = all(r <= leq for r in rels)
        refl = all(diag <= r for r in rels)
        sym = all(converse(r) <= r for r in rels)
        trans = all(compose(r, r) <= r for r in rels)
        serial = all({s for s, _ in compose(leq, r)} == set(range(n)) for r in rels)
        up = [compose(compose(leq, r), leq) for r in rels]
        down = [compose(compose(geq, r), geq) for r in rels]
        ud_refl = all(diag <= u and diag <= d for u, d in zip(up, down))
        ud_sym = all((t, s) in u and (t, s) in d
                     for r, u, d in zip(rels, up, down) for s, t in r)
        groups = list(self.rel)
        pre = std = True
        for g1 in groups:
            for g2 in groups:
                union = self.rel[tuple(a for a in self.agents if a in g1 or a in g2)]
                meet = self.rel[g1] & self.rel[g2]
                pre = pre and union <= meet
                std = std and union == meet
        confluent = all(compose(geq, r) <= compose(r, geq) for r in rels)
        tags = (("all", True), ("doxastic", dox), ("epistemic", dox and serial),
                ("reflexive", refl), ("symmetric", sym), ("transitive", trans),
                ("rs", refl and sym), ("partition", refl and sym and trans),
                ("ud_reflexive", ud_refl), ("ud_symmetric", ud_sym),
                ("ud", ud_refl and ud_sym), ("prestandard", pre),
                ("standard", std), ("forward_confluent", confluent))
        return [name for name, holds in tags if holds]


def random_preorder(rng: random.Random, n: int) -> set:
    rel = {(i, i) for i in range(n)}
    rel |= {(i, j) for i in range(n) for j in range(n) if rng.random() < 0.3}
    while True:
        closed = rel | compose(rel, rel)
        if closed == rel:
            return rel
        rel = closed


def random_frame(rng: random.Random, n: int, agents: tuple) -> PairFrame:
    leq = random_preorder(rng, n)
    density = rng.choice((0.25, 0.5, 0.75))
    rel = {g: {(i, j) for i in range(n) for j in range(n) if rng.random() < density}
           for g in groups_of(agents)}
    return PairFrame(n, agents, leq, rel)


# ---------- countermodel search space ----------

PREORDER_COUNTS = (1, 1, 4, 29, 355)  # preorders on 0..4 labeled states


def search_is_exhaustive(max_states: int, n_agents: int, max_candidates: int) -> bool:
    """Whether ieml's frame stream can list every candidate frame up to
    ``max_states`` within ``max_candidates``: the space at each state count
    is every preorder times every relation per group."""
    n_groups = (1 << n_agents) - 1
    remaining = max_candidates
    for n in range(1, max_states + 1):
        raw = PREORDER_COUNTS[n] * (1 << (n * n)) ** n_groups
        if raw > remaining:
            return False
        remaining -= raw
    return max_states > 0 and max_candidates > 0


class SpeedProbe:
    """A fixed piece of pure-Python work, run between operations to read how
    fast the machine is going at that moment.

    On a shared host the same code can run at very different speeds from
    one minute to the next, and not every kind of code slows alike, so the
    probe comes in the kinds ieml's work is made of: ``small`` walks tuples
    and sets the way formula evaluation on tiny frames does (it runs the
    reference evaluator), ``large`` scans rows of 8192-bit integers the way
    evaluation and classification on large frames do, and ``mixed`` does
    both.  It never touches ieml, so a change to ieml cannot change its
    time.

    ``REFERENCE_S`` is each kind's time on the machine the benchmark was
    written on (2 vCPUs, Python 3.11) when it runs fast; times are reported
    as if the machine ran at that speed."""

    REFERENCE_S = {"small": 0.65e-3, "large": 0.72e-3, "mixed": 1.3e-3}

    def __init__(self, kind: str):
        self.reference_s = self.REFERENCE_S[kind]
        rng = random.Random(12345)
        self.frames = [random_frame(rng, 3, ("a", "b")) for _ in range(2)]
        self.formulas = [random_formula(rng, ["p", "q"], groups_of(("a", "b")), 3)
                         for _ in range(3)]
        distinct = [rng.getrandbits(8192) for _ in range(64)]
        self.rows = [distinct[i % 64] for i in range(2048)]
        self.mask = rng.getrandbits(8192)
        self.measure = {"small": self._small, "large": self._large,
                        "mixed": self._mixed}[kind]

    def _small(self) -> None:
        for frame in self.frames:
            for f in self.formulas:
                frame.valid(f)

    def _mixed(self) -> None:
        self._small()
        self._large()

    def _large(self) -> None:
        out = 0
        for row in self.rows:
            if row & self.mask:
                out |= row

    def __call__(self) -> float:
        start = time.perf_counter()
        self.measure()
        return time.perf_counter() - start
