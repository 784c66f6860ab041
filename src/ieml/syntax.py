r"""Formula syntax: AST, parser, printer, subformulas, translation, schemata.

Concrete grammar (ASCII):

    formula  := disj ('->' formula | '<->' formula)?      right-associative
    disj     := conj ('\/' conj)*                          left-associative
    conj     := unary ('/\' unary)*                        left-associative
    unary    := '~' unary | '[' names ']' unary | '<' names '>' unary | atomic
    atomic   := atom | 'T' | 'F' | '(' formula ')'
    atom     := [a-z][a-z0-9_]*        (same lexical class as agent names)

``~A`` and ``A <-> B`` are surface sugar only; the AST stores ``A -> F``
and ``(A -> B) /\ (B -> A)``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, fields
from typing import Iterator, Mapping, Optional

# A group is a nonempty set of agent names.
Group = frozenset

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# ---------- Agents and groups ----------

@dataclass(frozen=True)
class AgentSet:
    """Ordered universe of agent names; list position is the canonical order."""

    names: tuple[str, ...]

    def __post_init__(self):
        if not self.names:
            raise ValueError("agent set must be nonempty")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate agent names")
        if len(self.names) > 8:
            raise ValueError("at most 8 agents supported")
        for nm in self.names:
            if not _NAME_RE.fullmatch(nm):
                raise ValueError(f"bad agent name {nm!r}")

    @classmethod
    def of(cls, *names: str) -> "AgentSet":
        return cls(tuple(names))

    def __len__(self) -> int:
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown agent {name!r}") from None

    def group(self, *names: str) -> Group:
        g = frozenset(names)
        for nm in g:
            self.index(nm)
        if not g:
            raise ValueError("groups must be nonempty")
        return g

    def mask(self, group: Group) -> int:
        return sum(1 << self.index(nm) for nm in group)

    def group_of_mask(self, mask: int) -> Group:
        if not 0 < mask < (1 << len(self.names)):
            raise ValueError(f"mask {mask} out of range")
        return frozenset(nm for i, nm in enumerate(self.names) if mask >> i & 1)

    def groups(self) -> list[Group]:
        """All nonempty subsets, ascending by bitmask (the canonical order)."""
        return [self.group_of_mask(m) for m in range(1, 1 << len(self.names))]

    def sort(self, group: Group) -> list[str]:
        return sorted(group, key=self.index)

    def key(self, group: Group) -> str:
        return ",".join(self.sort(group))


def group_text(group: Group, agents: Optional[AgentSet] = None) -> str:
    members = agents.sort(group) if agents is not None else sorted(group)
    return ",".join(members)


# ---------- Formula AST ----------

@dataclass(frozen=True)
class Formula:
    def __hash__(self) -> int:
        # Tagged with the node kind (the generated hash would give Box and
        # Dia over one body, or Top and Bot, the same hash) and computed
        # once, on first use, from the children's kept hashes.  Only the
        # declared fields (the dataclass's __match_args__) count: the dict
        # also keeps the tau image.
        fields_ = self.__dict__
        h = fields_.get("_hash")
        if h is None:  # the dataclass is frozen, so write the dict itself
            h = fields_["_hash"] = hash(
                (type(self), *(fields_[k] for k in self.__match_args__)))
        return h

    def __reduce__(self):  # rebuild on unpickling: string hashes vary per process
        return type(self), tuple(getattr(self, f.name) for f in fields(self))

    def __invert__(self) -> "Formula":                # ~A  is  A -> F
        return Implies(self, BOT)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Implies(self, other)

    def __str__(self) -> str:
        return render(self)


def _node(cls: type) -> type:
    """A frozen dataclass formula node that keeps ``Formula``'s hash."""
    cls = dataclass(frozen=True)(cls)
    cls.__hash__ = Formula.__hash__
    return cls


@_node
class Atom(Formula):
    name: str


@_node
class Top(Formula):
    pass


@_node
class Bot(Formula):
    pass


@_node
class Implies(Formula):
    left: Formula
    right: Formula


@_node
class Or(Formula):
    left: Formula
    right: Formula


@_node
class And(Formula):
    left: Formula
    right: Formula


@_node
class Box(Formula):
    group: Group
    body: Formula


@_node
class Dia(Formula):
    group: Group
    body: Formula


@_node
class MonoBox(Formula):
    """The single unary box of group-free formulas (the image of ``tau``)."""

    body: Formula


TOP = Top()
BOT = Bot()


def atoms_of(f: Formula) -> frozenset:
    if isinstance(f, Atom):
        return frozenset({f.name})
    if isinstance(f, (Implies, Or, And)):
        return atoms_of(f.left) | atoms_of(f.right)
    if isinstance(f, (Box, Dia, MonoBox)):
        return atoms_of(f.body)
    return frozenset()


def groups_of(f: Formula) -> frozenset:
    if isinstance(f, (Implies, Or, And)):
        return groups_of(f.left) | groups_of(f.right)
    if isinstance(f, (Box, Dia)):
        return frozenset({f.group}) | groups_of(f.body)
    if isinstance(f, MonoBox):
        return groups_of(f.body)
    return frozenset()


def agents_of(f: Formula) -> frozenset:
    out: frozenset = frozenset()
    for g in groups_of(f):
        out |= g
    return out


def depth_of(f: Formula) -> int:
    if isinstance(f, (Implies, Or, And)):
        return 1 + max(depth_of(f.left), depth_of(f.right))
    if isinstance(f, (Box, Dia, MonoBox)):
        return 1 + depth_of(f.body)
    return 0


# ---------- Parser ----------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<iff><->)|(?P<arrow>->)|(?P<or>\\/)|(?P<and>/\\)"
    r"|(?P<not>~)|(?P<lb>\[)|(?P<rb>\])|(?P<lt><)|(?P<gt>>)"
    r"|(?P<comma>,)|(?P<lp>\()|(?P<rp>\))|(?P<word>[A-Za-z_][A-Za-z0-9_]*))"
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            at = len(text) - len(rest)
            raise ParseError(f"unexpected character {rest[0]!r}", at)
        kind = m.lastgroup
        word = m.group(m.lastgroup)
        at = m.end() - len(word)
        if kind == "word":
            if word == "T":
                kind = "top"
            elif word == "F":
                kind = "bot"
            elif not _NAME_RE.fullmatch(word):
                raise ParseError(f"bad identifier {word!r}", at)
            else:
                kind = "name"
        tokens.append((kind, word, at))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


# How deep a parsed formula may nest.  Its syntax tree may be at most this
# deep, and at most this many parentheses, prefix operators and right-nested
# arrows may be open at once.  The parser spends up to five stack frames on
# each open parenthesis and the recursive walks over the tree one per level,
# so both stay well under the interpreter's default limit of 1000.
MAX_DEPTH = 150


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], agents: Optional[AgentSet]):
        self.tokens = tokens
        self.i = 0
        self.agents = agents
        self.open = 0  # parentheses, prefix operators and arrows now open
        self.depths: dict[int, int] = {}  # id of a built node -> its depth

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    _SHOW = {"rp": "')'", "rb": "']'", "gt": "'>'", "name": "a name"}

    def take(self, kind: str) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        if tok[0] != kind:
            what = tok[1] if tok[1] else "end of input"
            raise ParseError(
                f"expected {self._SHOW.get(kind, kind)}, found {what!r}", tok[2])
        self.i += 1
        return tok

    def match(self, kind: str) -> bool:
        if self.tokens[self.i][0] == kind:
            self.i += 1
            return True
        return False

    def enter(self, at: int) -> None:
        if self.open == MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", at)
        self.open += 1

    def build(self, at: int, node: type, a, b) -> Formula:
        """``node(a, b)``, refused when its tree gets too deep."""
        depths = self.depths
        depth = 1 + max(depths.get(id(a), 0), depths.get(id(b), 0))
        if depth > MAX_DEPTH:
            raise ParseError(f"formula nested deeper than {MAX_DEPTH} levels", at)
        f = node(a, b)
        self.depths[id(f)] = depth  # f lives on in the result: ids stay unique
        return f

    def formula(self) -> Formula:
        left = self.disj()
        if self.match("arrow") or self.match("iff"):
            kind, _, at = self.tokens[self.i - 1]
            self.enter(at)
            right = self.formula()
            self.open -= 1
            if kind == "arrow":
                return self.build(at, Implies, left, right)
            return self.build(at, And, self.build(at, Implies, left, right),
                              self.build(at, Implies, right, left))
        return left

    def disj(self) -> Formula:
        f = self.conj()
        while self.match("or"):
            at = self.tokens[self.i - 1][2]
            f = self.build(at, Or, f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.match("and"):
            at = self.tokens[self.i - 1][2]
            f = self.build(at, And, f, self.unary())
        return f

    def group(self, closing: str) -> Group:
        names = [self.take("name")[1]]
        while self.match("comma"):
            names.append(self.take("name")[1])
        tok = self.take(closing)
        if self.agents is not None:
            for nm in names:
                if nm not in self.agents.names:
                    raise ParseError(f"unknown agent name {nm!r}", tok[2])
        return frozenset(names)

    def unary(self) -> Formula:
        kind, _, at = self.peek()
        if kind not in ("not", "lb", "lt"):
            return self.atomic()
        self.i += 1
        self.enter(at)
        g = None if kind == "not" else self.group("rb" if kind == "lb" else "gt")
        body = self.unary()
        self.open -= 1
        if kind == "not":
            return self.build(at, Implies, body, BOT)
        return self.build(at, Box if kind == "lb" else Dia, g, body)

    def atomic(self) -> Formula:
        kind, word, at = self.peek()
        if kind == "name":
            self.i += 1
            return Atom(word)
        if kind == "top":
            self.i += 1
            return TOP
        if kind == "bot":
            self.i += 1
            return BOT
        if kind == "lp":
            self.i += 1
            self.enter(at)
            f = self.formula()
            self.open -= 1
            self.take("rp")
            return f
        raise ParseError(f"expected a formula, found {word or 'end of input'!r}", at)


def parse(text: str, agents: Optional[AgentSet] = None) -> Formula:
    """Parse concrete syntax into a sugar-free AST.

    When ``agents`` is given, group members must belong to it; otherwise any
    lowercase identifier is accepted as an agent name.
    """
    p = _Parser(_tokenize(text), agents)
    f = p.formula()
    kind, word, at = p.peek()
    if kind != "end":
        raise ParseError(f"unexpected {word!r} after formula", at)
    return f


# ---------- Printer ----------

_IMP, _OR, _AND, _UNARY = 1, 2, 3, 4


def _level(f: Formula) -> int:
    if isinstance(f, Implies):
        return _IMP
    if isinstance(f, Or):
        return _OR
    if isinstance(f, And):
        return _AND
    return _UNARY


def _render(f: Formula, need: int, agents: Optional[AgentSet]) -> str:
    if isinstance(f, Atom):
        s = f.name
    elif isinstance(f, Top):
        s = "T"
    elif isinstance(f, Bot):
        s = "F"
    elif isinstance(f, Implies):
        s = f"{_render(f.left, _OR, agents)} -> {_render(f.right, _IMP, agents)}"
    elif isinstance(f, Or):
        s = f"{_render(f.left, _OR, agents)} \\/ {_render(f.right, _AND, agents)}"
    elif isinstance(f, And):
        s = f"{_render(f.left, _AND, agents)} /\\ {_render(f.right, _UNARY, agents)}"
    elif isinstance(f, Box):
        s = f"[{group_text(f.group, agents)}]{_render(f.body, _UNARY, agents)}"
    elif isinstance(f, Dia):
        s = f"<{group_text(f.group, agents)}>{_render(f.body, _UNARY, agents)}"
    elif isinstance(f, MonoBox):
        s = f"[]{_render(f.body, _UNARY, agents)}"
    else:
        raise TypeError(f"not a formula: {f!r}")
    if _level(f) < need:
        return f"({s})"
    return s


def render(f: Formula, agents: Optional[AgentSet] = None) -> str:
    """Canonical text for ``f``; ``parse(render(f)) == f``."""
    return _render(f, _IMP, agents)


# ---------- Diamond-free fragment, sf and tau ----------

_LEAVES = (Atom, Top, Bot)


def _translate(f: Formula) -> Optional[tuple]:
    """``(tau image, box group or None)`` of a diamond-free node, or None.

    Kept in the node's ``__dict__`` like its hash, so each node is walked
    once and shared subterms share one image.  The walk keeps its own
    stack, so formula depth meets no recursion limit."""
    if isinstance(f, _LEAVES):
        return f, None
    if "_tau" in f.__dict__:
        return f.__dict__["_tau"]
    stack = [f]
    while stack:
        g = stack[-1]
        kept = g.__dict__
        if "_tau" in kept:  # pushed twice before it was walked
            stack.pop()
            continue
        out = None  # for a diamond, a MonoBox or two box groups
        if isinstance(g, Box):
            body = g.body
            image = (body, None) if isinstance(body, _LEAVES) \
                else body.__dict__.get("_tau", stack)  # stack: not walked yet
            if image is stack:
                stack.append(body)
                continue
            if image is not None and image[1] in (None, g.group):
                out = MonoBox(image[0]), g.group
        elif isinstance(g, (Implies, Or, And)):
            a, b = g.left, g.right
            left = (a, None) if isinstance(a, _LEAVES) else a.__dict__.get("_tau", stack)
            right = (b, None) if isinstance(b, _LEAVES) else b.__dict__.get("_tau", stack)
            if left is stack or right is stack:
                if right is stack:
                    stack.append(b)
                if left is stack:
                    stack.append(a)
                continue
            if left is not None and right is not None and (
                    left[1] is None or right[1] is None or left[1] == right[1]):
                out = (type(g)(left[0], right[0]),
                       right[1] if left[1] is None else left[1])
        kept["_tau"] = out
        stack.pop()
    return f.__dict__["_tau"]


def is_diamond_free(f: Formula) -> bool:
    """No diamond occurs and all boxes carry one and the same group."""
    return _translate(f) is not None


def _require_diamond_free(f: Formula, op: str) -> tuple:
    """``_translate(f)``, or ``ValueError`` naming ``op`` when it is None."""
    image = _translate(f)
    if image is None:
        raise ValueError(f"{op} is defined on diamond-free formulas only: {render(f)}")
    return image


def sf(f: Formula) -> frozenset:
    """Subformula closure of a diamond-free formula."""
    _require_diamond_free(f, "sf")

    def go(g: Formula) -> frozenset:
        if isinstance(g, (Implies, Or, And)):
            return frozenset({g}) | go(g.left) | go(g.right)
        if isinstance(g, Box):
            return frozenset({g}) | go(g.body)
        return frozenset({g})

    return go(f)


def tau(f: Formula) -> Formula:
    """Forget the group label: homomorphic map into single-box formulas."""
    return _require_diamond_free(f, "tau")[0]


# ---------- Substitution ----------

def substitute(f: Formula, sigma: Mapping[str, Formula]) -> Formula:
    """Simultaneous replacement of atoms; atoms outside ``sigma`` are fixed."""
    if isinstance(f, Atom):
        return sigma.get(f.name, f)
    if isinstance(f, Implies):
        return Implies(substitute(f.left, sigma), substitute(f.right, sigma))
    if isinstance(f, Or):
        return Or(substitute(f.left, sigma), substitute(f.right, sigma))
    if isinstance(f, And):
        return And(substitute(f.left, sigma), substitute(f.right, sigma))
    if isinstance(f, Box):
        return Box(f.group, substitute(f.body, sigma))
    if isinstance(f, Dia):
        return Dia(f.group, substitute(f.body, sigma))
    if isinstance(f, MonoBox):
        return MonoBox(substitute(f.body, sigma))
    return f


# ---------- Schemata and matching ----------

@dataclass(frozen=True)
class Schema:
    """A formula template.

    Every atom is a metavariable (whatever its name), and every member of a
    group slot is a group metavariable.  A slot with two members, as in
    ``[alpha,beta]p``, stands for the union of the two bound groups.
    """

    sid: str
    formula: Formula

    def __str__(self) -> str:
        return f"{self.sid}: {render(self.formula)}"


@dataclass(frozen=True)
class Match:
    atoms: tuple
    groups: tuple

    def atom_map(self) -> dict:
        return dict(self.atoms)

    def group_map(self) -> dict:
        return dict(self.groups)


def _subset_masks(mask: int) -> Iterator[int]:
    # nonempty submasks of mask, ascending
    for m in range(1, mask + 1):
        if m | mask == mask:
            yield m


def _match(sf_: Formula, f: Formula, at: dict, gr: dict,
           agents: AgentSet) -> Iterator[tuple[dict, dict]]:
    if isinstance(sf_, Atom):
        bound = at.get(sf_.name)
        if bound is None:
            yield {**at, sf_.name: f}, gr
        elif bound == f:
            yield at, gr
        return
    if isinstance(sf_, Top):
        if isinstance(f, Top):
            yield at, gr
        return
    if isinstance(sf_, Bot):
        if isinstance(f, Bot):
            yield at, gr
        return
    if isinstance(sf_, (Implies, Or, And)):
        if type(f) is not type(sf_):
            return
        for at1, gr1 in _match(sf_.left, f.left, at, gr, agents):
            yield from _match(sf_.right, f.right, at1, gr1, agents)
        return
    if isinstance(sf_, (Box, Dia)):
        if type(f) is not type(sf_):
            return
        for gr1 in _bind_groups(sf_.group, f.group, gr, agents):
            yield from _match(sf_.body, f.body, at, gr1, agents)
        return
    raise TypeError(f"not a schema node: {sf_!r}")


def _bind_groups(slot: Group, target: Group, gr: dict,
                 agents: AgentSet) -> Iterator[dict]:
    gvars = sorted(slot)
    if len(gvars) == 1:
        v = gvars[0]
        bound = gr.get(v)
        if bound is None:
            yield {**gr, v: target}
        elif bound == target:
            yield gr
        return
    if len(gvars) != 2:
        raise ValueError(f"group slots may hold at most two metavariables: {sorted(slot)}")
    v1, v2 = gvars
    tmask = agents.mask(target)
    b1, b2 = gr.get(v1), gr.get(v2)
    if b1 is not None and b2 is not None:
        if b1 | b2 == target:
            yield gr
        return
    if b1 is not None or b2 is not None:
        fixed_var, free_var = (v1, v2) if b1 is not None else (v2, v1)
        fmask = agents.mask(gr[fixed_var])
        if fmask | tmask != tmask:
            return
        for m in _subset_masks(tmask):
            if fmask | m == tmask:
                yield {**gr, free_var: agents.group_of_mask(m)}
        return
    # both unbound: ordered pairs, lexicographic on bitmasks, union == target
    for m1 in _subset_masks(tmask):
        for m2 in _subset_masks(tmask):
            if m1 | m2 == tmask:
                yield {**gr, v1: agents.group_of_mask(m1), v2: agents.group_of_mask(m2)}


def match_instance(schema: Schema, f: Formula,
                   agents: Optional[AgentSet] = None) -> Optional[Match]:
    """First substitution-and-group binding turning ``schema`` into ``f``."""
    if agents is None:
        names = sorted(agents_of(f))
        agents = AgentSet(tuple(names)) if names else AgentSet.of("a")
    for at, gr in _match(schema.formula, f, {}, {}, agents):
        return Match(tuple(sorted(at.items())), tuple(sorted(gr.items())))
    return None


def instantiate(schema: Schema, atom_map: Mapping[str, Formula],
                group_map: Mapping[str, Group]) -> Formula:
    """Plug concrete formulas and groups into a schema."""

    def go(g: Formula) -> Formula:
        if isinstance(g, Atom):
            if g.name not in atom_map:
                raise KeyError(f"no binding for metavariable {g.name!r}")
            return atom_map[g.name]
        if isinstance(g, Implies):
            return Implies(go(g.left), go(g.right))
        if isinstance(g, Or):
            return Or(go(g.left), go(g.right))
        if isinstance(g, And):
            return And(go(g.left), go(g.right))
        if isinstance(g, (Box, Dia)):
            members: frozenset = frozenset()
            for v in g.group:
                if v not in group_map:
                    raise KeyError(f"no binding for group metavariable {v!r}")
                members |= group_map[v]
            node = Box if isinstance(g, Box) else Dia
            return node(frozenset(members), go(g.body))
        return g

    return go(schema.formula)
