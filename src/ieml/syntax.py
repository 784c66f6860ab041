r"""Formula syntax: AST, compiled node arrays, parser, printer, subformulas,
translation, schemata.

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

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Union

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
        """The group's bitmask in the agent order, kept per group: every
        modal clause of a frame check reads one."""
        masks = self.__dict__.setdefault("_masks", {})
        got = masks.get(group)
        if got is None:
            got = masks[group] = sum(1 << self.index(nm) for nm in group)
        return got

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
        # also keeps the hash.  A child without a kept hash sends the whole
        # tree through one pass in node order, children first, so no call
        # recurses.
        kept = self.__dict__
        h = kept.get("_hash")
        if h is None:  # the dataclass is frozen, so write the dict itself
            parts = [kept[k] for k in self.__match_args__]
            for c in parts:
                if type(c) in _OPS and "_hash" not in c.__dict__:
                    # a fresh parse's node array is its Program already
                    last = _last_compiled
                    program = last[1] if last[0] is self else Program((self,))
                    for g in program._formulas()[:-1]:
                        hash(g)
                    break
            h = kept["_hash"] = hash((type(self), *parts))
        return h

    def __eq__(self, other) -> bool:
        # the generated one recurses once per level: walk pairs on a stack
        if other.__class__ is not self.__class__:
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            for k in a.__match_args__:
                x, y = a.__dict__[k], b.__dict__[k]
                if type(x) in _OPS and type(y) is type(x):
                    if x is not y:
                        stack.append((x, y))
                elif x != y:
                    return False
        return True

    def __repr__(self) -> str:
        # the generated text (``Box(group=..., body=...)``), written from a
        # stack of nodes and strings, so no depth recurses
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if type(x) is str:
                out.append(x)
                continue
            out.append(type(x).__name__ + "(")
            stack.append(")")
            for i, k in reversed(list(enumerate(x.__match_args__))):
                v = x.__dict__[k]
                stack += [v if type(v) in _OPS else repr(v), (", " if i else "") + k + "="]
        return "".join(out)

    def __reduce__(self):
        # the node array, rebuilt on unpickling in one pass: no call
        # recurses, and no hash travels (string hashes vary per process)
        p = _compiled(self)
        return _unpickle, (bytes(p.ops), p.left, p.right, p.consts)

    def __str__(self) -> str:
        return render(self)


def _node(cls: type) -> type:
    """A frozen dataclass formula node with ``Formula``'s hash, ``==`` and
    ``repr``."""
    return dataclass(frozen=True, eq=False, repr=False)(cls)


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


# ---------- Compiled formula lists ----------

# Node operations of a ``Program``.
_ATOM, _TOP, _BOT, _AND, _OR, _IMPLIES, _BOX, _DIA, _MONOBOX = range(9)
_KINDS = (Atom, Top, Bot, And, Or, Implies, Box, Dia, MonoBox)  # by op code
_OPS = {kind: op for op, kind in enumerate(_KINDS)}
_BINARY = (_AND, _OR, _IMPLIES)


class Program:
    """A formula list compiled into one node array.

    Nodes are hash-consed by object identity (Filliatre and Conchon,
    *Type-safe modular hash-consing*, 2006): a subformula object that several
    formulas share is one node.  Every node comes after its children, so one
    pass in index order evaluates them all (``Evaluator.run``), and every
    walk over a formula in this module is such a pass.  Node i is stored
    flat: ``ops[i]``, then ``left[i]`` (the first child, or the atom name's
    index in ``consts``) and ``right[i]`` (the second child, or the box or
    diamond group's index in ``consts``).  ``len`` and iteration give the
    compiled formulas in order, and ``roots`` their nodes.
    """

    __slots__ = ("ops", "left", "right", "consts", "roots", "_nodes")

    def __init__(self, formulas: Iterable[Formula] = ()):
        self.ops = bytearray()
        self.left: list[int] = []
        self.right: list[int] = []
        self.roots: list[int] = []
        self._nodes: Optional[list] = []  # node -> formula; keeps ids in index alive
        index: dict = {}  # id(formula) -> node, while compiling
        consts: dict = {}  # atom name or group -> its index, while compiling
        for f in formulas:
            self.roots.append(self._node(f, index, consts))
        self.consts: list = list(consts)  # atom names and groups

    @classmethod
    def _of_nodes(cls, nodes: Iterable[tuple], consts: Iterable,
                  roots: list[int]) -> "Program":
        """The program of the ``(op, left, right)`` node triples, in node
        order, over ``consts``."""
        p = cls()
        ops, left, right = zip(*nodes)
        p.ops, p.left, p.right = bytearray(ops), list(left), list(right)
        p.consts, p.roots, p._nodes = list(consts), roots, None
        return p

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[Formula]:
        return map(self._formulas().__getitem__, self.roots)

    def _formulas(self) -> list:
        """The formula of each node; a program not compiled from formulas
        builds them on first read."""
        if self._nodes is None:
            self._nodes = _build(self.ops, self.left, self.right, self.consts)
        return self._nodes

    def atoms(self) -> frozenset:
        """The atom names occurring in the compiled formulas."""
        return frozenset(c for c in self.consts if isinstance(c, str))

    def groups(self) -> frozenset:
        """The groups of the boxes and diamonds in the compiled formulas."""
        return frozenset(c for c in self.consts if not isinstance(c, str))

    def _node(self, f: Formula, index: dict, consts: dict) -> int:
        """The node of ``f``, compiling the subformulas not yet in ``index``.
        The walk keeps its own stack, so formula depth meets no recursion
        limit."""
        hit = index.get(id(f))
        if hit is not None:
            return hit
        stack = [f]
        while stack:
            g = stack[-1]
            if id(g) in index:  # pushed twice before it was compiled
                stack.pop()
                continue
            op = _OPS.get(type(g))
            if op is None:
                raise TypeError(f"not a formula: {g!r}")
            a = b = 0
            if op == _ATOM:
                a = consts.setdefault(g.name, len(consts))
            elif op in _BINARY:
                a, b = index.get(id(g.left)), index.get(id(g.right))
                if a is None or b is None:
                    if b is None:
                        stack.append(g.right)
                    if a is None:
                        stack.append(g.left)
                    continue
            elif op != _TOP and op != _BOT:
                a = index.get(id(g.body))
                if a is None:
                    stack.append(g.body)
                    continue
                if op != _MONOBOX:
                    b = consts.setdefault(g.group, len(consts))
            stack.pop()
            index[id(g)] = len(self.ops)
            self.ops.append(op)
            self.left.append(a)
            self.right.append(b)
            self._nodes.append(g)
        return index[id(f)]


# The last formula ``_compiled`` was given, and its Program.  The walks in
# this module and ``Evaluator.truth_mask`` read formulas through it, so a
# search that asks one formula under many valuations and frames, or
# evaluates and then prints it, compiles it once.  Only the time of a call
# depends on this slot, never its result.
_last_compiled: tuple = (None, None)


def _compiled(f: Formula) -> Program:
    global _last_compiled
    last = _last_compiled  # one read: other threads may replace it
    if last[0] is not f:
        last = _last_compiled = (f, Program((f,)))
    return last[1]


def atoms_of(f: Formula) -> frozenset:
    return _compiled(f).atoms()


def groups_of(f: Formula) -> frozenset:
    return _compiled(f).groups()


def agents_of(f: Formula) -> frozenset:
    return frozenset().union(*groups_of(f))


def depth_of(f: Formula) -> int:
    p = _compiled(f)
    depth: list[int] = []
    for op, a, b in zip(p.ops, p.left, p.right):
        if op in _BINARY:
            depth.append(1 + max(depth[a], depth[b]))
        else:
            depth.append(0 if op in (_ATOM, _TOP, _BOT) else 1 + depth[a])
    return depth[-1]


# ---------- Parser ----------

# One token per match, at group 1: an operator, a word, or a character that
# starts no token.  No rule of the parser takes such a character, nor a word
# that is neither a name nor ``T`` or ``F``, so a text holding one fails,
# and ``_token_starts`` reports that lexical error in place of the parser's.
_WORD_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN_RE = re.compile(rf"\s*(<->|->|\\/|/\\|[~\[\]<>,()]|{_WORD_RE.pattern}|\S)")


def _token_starts(text: str) -> list[int]:
    """Where each token of ``text`` starts, then where the input ends.
    Raises the ``ParseError`` of the first character or word that is no
    token: a text with one gets that error before any other."""
    starts = []
    for m in _TOKEN_RE.finditer(text):
        tok, at = m.group(1), m.start(1)
        if _WORD_RE.fullmatch(tok):
            if tok not in ("T", "F") and not _NAME_RE.fullmatch(tok):
                raise ParseError(f"bad identifier {tok!r}", at)
        elif len(tok) == 1 and tok not in "~[]<>,()":
            raise ParseError(f"unexpected character {tok!r}", at)
        starts.append(at)
    return starts + [len(text)]


# How deep a parsed formula may nest.  Its syntax tree may be at most this
# deep, and at most this many parentheses, prefix operators and right-nested
# arrows may be open at once.  The parser spends up to five stack frames on
# each open parenthesis, so it stays well under the interpreter's default
# limit of 1000.  Formulas built through the API have no bound: hashing,
# printing, ``repr``, ``==``, pickling, ``tau`` and the walks below do not
# recurse, and matching recurses once per level of the schema only.
MAX_DEPTH = 150


class _Parser:
    """A recursive descent over the tokens of ``text`` that writes the
    formula's node triples.  They are hash-consed by ``(op, left, right)``,
    so equal subformulas are one node, and they come in the order in which
    ``Program`` compiles the formula: children first, left to right."""

    def __init__(self, text: str, agents: Optional[AgentSet]):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [""]  # "" ends the input
        self.i = 0
        self.agents = agents
        self.open = 0  # parentheses, prefix operators and arrows now open
        self.nodes: dict = {}  # (op, left, right) -> node, in node order
        self.depths: list[int] = []  # per node, the depth of its tree
        self.consts: dict = {}  # atom name or group -> its index

    def fail(self, message: str, i: int):
        raise ParseError(message, _token_starts(self.text)[i])

    def found(self) -> str:
        return repr(self.tokens[self.i] or "end of input")

    def take(self, closing: str) -> None:
        if self.tokens[self.i] != closing:
            self.fail(f"expected '{closing}', found {self.found()}", self.i)
        self.i += 1

    def name(self) -> str:
        tok = self.tokens[self.i]
        if not ("a" <= tok < "{" and tok.islower()):  # a word of _NAME_RE
            self.fail(f"expected a name, found {self.found()}", self.i)
        self.i += 1
        return tok

    def enter(self) -> int:
        """Take the token, which opens one more level; its index."""
        at = self.i
        if self.open == MAX_DEPTH:
            self.fail(f"formula nested deeper than {MAX_DEPTH} levels", at)
        self.open += 1
        self.i += 1
        return at

    def node(self, op: int, a: int = 0, b: int = 0, at: Optional[int] = None) -> int:
        """The node ``(op, a, b)``; a new one made by the operator at token
        ``at`` is refused when its tree gets too deep."""
        n = self.nodes.get((op, a, b))
        if n is None:
            depths = self.depths
            depth = 0 if at is None else \
                1 + max(depths[a], depths[b] if op in _BINARY else 0)
            if depth > MAX_DEPTH:
                self.fail(f"formula nested deeper than {MAX_DEPTH} levels", at)
            n = self.nodes[op, a, b] = len(depths)
            depths.append(depth)
        return n

    def formula(self) -> int:
        left = self.disj()
        tok = self.tokens[self.i]
        if tok != "->" and tok != "<->":
            return left
        at = self.enter()
        right = self.formula()
        self.open -= 1
        if tok == "->":
            return self.node(_IMPLIES, left, right, at)
        return self.node(_AND, self.node(_IMPLIES, left, right, at),
                         self.node(_IMPLIES, right, left, at), at)

    def disj(self) -> int:
        f = self.conj()
        while self.tokens[self.i] == "\\/":
            at = self.i
            self.i += 1
            f = self.node(_OR, f, self.conj(), at)
        return f

    def conj(self) -> int:
        f = self.unary()
        while self.tokens[self.i] == "/\\":
            at = self.i
            self.i += 1
            f = self.node(_AND, f, self.unary(), at)
        return f

    def group(self, closing: str) -> Group:
        names = [self.name()]
        while self.tokens[self.i] == ",":
            self.i += 1
            names.append(self.name())
        self.take(closing)
        if self.agents is not None:
            for nm in names:
                if nm not in self.agents.names:
                    self.fail(f"unknown agent name {nm!r}", self.i - 1)
        return frozenset(names)

    def unary(self) -> int:
        tok = self.tokens[self.i]
        if tok != "~" and tok != "[" and tok != "<":
            return self.atomic()
        at = self.enter()
        g = None if tok == "~" else self.group("]" if tok == "[" else ">")
        body = self.unary()
        self.open -= 1
        if tok == "~":
            return self.node(_IMPLIES, body, self.node(_BOT), at)
        c = self.consts.setdefault(g, len(self.consts))
        return self.node(_BOX if tok == "[" else _DIA, body, c, at)

    def atomic(self) -> int:
        tok = self.tokens[self.i]
        if tok == "(":
            self.enter()
            f = self.formula()
            self.open -= 1
            self.take(")")
            return f
        if "a" <= tok < "{" and tok.islower():  # a word of _NAME_RE
            f = self.node(_ATOM, self.consts.setdefault(tok, len(self.consts)))
        elif tok == "T" or tok == "F":
            f = self.node(_TOP if tok == "T" else _BOT)
        else:
            self.fail(f"expected a formula, found {self.found()}", self.i)
        self.i += 1
        return f


def parse(text: str, agents: Optional[AgentSet] = None) -> Formula:
    """Parse concrete syntax into a sugar-free AST.

    When ``agents`` is given, group members must belong to it; otherwise any
    lowercase identifier is accepted as an agent name.  Equal subformulas
    are one object, and the formula's ``Program`` is the parser's node
    array, so evaluating or printing it next compiles nothing.
    """
    global _last_compiled
    p = _Parser(text, agents)
    root = p.formula()
    if p.tokens[p.i]:
        p.fail(f"unexpected {p.tokens[p.i]!r} after formula", p.i)
    program = Program._of_nodes(p.nodes, p.consts, [root])
    f = program._formulas()[root]
    _last_compiled = (f, program)
    return f


# ---------- Printer ----------

# How tightly each node kind binds, and per infix kind its text and the
# binding its left and right operands need to go without parentheses.
_IMP_LEVEL, _OR_LEVEL, _AND_LEVEL, _UNARY_LEVEL = 1, 2, 3, 4
_LEVEL = {_IMPLIES: _IMP_LEVEL, _OR: _OR_LEVEL, _AND: _AND_LEVEL}
_INFIX = {_IMPLIES: (" -> ", _OR_LEVEL, _IMP_LEVEL),
          _OR: (" \\/ ", _OR_LEVEL, _AND_LEVEL),
          _AND: (" /\\ ", _AND_LEVEL, _UNARY_LEVEL)}


def render(f: Formula, agents: Optional[AgentSet] = None) -> str:
    """Canonical text for ``f``; ``parse(render(f)) == f``."""
    p = _compiled(f)
    ops, left, right, consts = p.ops, p.left, p.right, p.consts
    text: list[str] = []

    def operand(j: int, need: int) -> str:
        return text[j] if _LEVEL.get(ops[j], _UNARY_LEVEL) >= need else f"({text[j]})"

    for i, op in enumerate(ops):
        if op in _INFIX:
            sep, need_left, need_right = _INFIX[op]
            text.append(operand(left[i], need_left) + sep + operand(right[i], need_right))
        elif op == _ATOM:
            text.append(consts[left[i]])
        elif op == _TOP or op == _BOT:
            text.append("T" if op == _TOP else "F")
        else:
            group = "" if op == _MONOBOX else group_text(consts[right[i]], agents)
            text.append(("<%s>" if op == _DIA else "[%s]") % group
                        + operand(left[i], _UNARY_LEVEL))
    return text[-1]


# ---------- Diamond-free fragment, sf and tau ----------

_CONFLICT = -1  # no group index: a diamond, a MonoBox or two box groups


def _box_groups(p: Program) -> list:
    """Per node, the ``consts`` index of the one group its boxes carry, None
    when it has no box, or ``_CONFLICT``."""
    out: list = []
    for op, a, b in zip(p.ops, p.left, p.right):
        if op in _BINARY:
            x, y = out[a], out[b]
            g = y if x is None else x if y is None or y == x else _CONFLICT
        elif op == _BOX:
            g = b if out[a] is None or out[a] == b else _CONFLICT
        else:
            g = _CONFLICT if op == _DIA or op == _MONOBOX else None
        out.append(g)
    return out


def is_diamond_free(f: Formula) -> bool:
    """No diamond occurs and all boxes carry one and the same group."""
    return _box_groups(_compiled(f))[-1] != _CONFLICT


def _require_diamond_free(p: Program, op: str) -> None:
    """``ValueError`` naming ``op`` unless every formula of ``p`` is
    diamond-free."""
    groups = _box_groups(p)
    for i in p.roots:
        if groups[i] == _CONFLICT:
            raise ValueError(f"{op} is defined on diamond-free formulas only: "
                             f"{render(p._formulas()[i])}")


def sf(f: Formula) -> frozenset:
    """Subformula closure of a diamond-free formula."""
    p = _compiled(f)
    _require_diamond_free(p, "sf")
    return frozenset(p._formulas())


_TAU_OPS = bytes(_MONOBOX if op == _BOX else op for op in range(256))


def tau(f: Union[Formula, Program]) -> Union[Formula, Program]:
    """Forget the group label: homomorphic map into single-box formulas.  On
    a ``Program``, the program of each formula's image: the same node array
    with ``MonoBox`` for ``Box``, whose formulas are built only when read."""
    p = f if isinstance(f, Program) else _compiled(f)
    _require_diamond_free(p, "tau")
    image = Program()
    image.ops, image._nodes = p.ops.translate(_TAU_OPS), None
    image.left, image.right, image.consts, image.roots = \
        p.left, p.right, p.consts, p.roots
    return image if p is f else image._formulas()[-1]


# ---------- Substitution ----------

def _build(ops, left, right, consts, atom=Atom, group=None) -> list:
    """The formula of each node of a node array, in node order, with
    ``atom(name)`` for each atom and ``group(G)`` for each box or diamond
    group ``G`` (``G`` itself when ``group`` is None).  Each node is built
    once, so a shared subformula stays shared, and no call recurses."""
    out: list[Formula] = []
    for op, a, b in zip(ops, left, right):
        if op in _BINARY:
            g = _KINDS[op](out[a], out[b])
        elif op == _ATOM:
            g = atom(consts[a])
        elif op == _MONOBOX:
            g = MonoBox(out[a])
        elif op == _BOX or op == _DIA:
            g = _KINDS[op](consts[b] if group is None else group(consts[b]), out[a])
        else:
            g = TOP if op == _TOP else BOT
        out.append(g)
    return out


def _unpickle(*arrays) -> Formula:  # the node array of Formula.__reduce__
    return _build(*arrays)[-1]


def _rebuild(f: Formula, atom, group) -> Formula:
    """``f`` rebuilt through ``_build``."""
    p = _compiled(f)
    return _build(p.ops, p.left, p.right, p.consts, atom, group)[-1]


def substitute(f: Formula, sigma: Mapping[str, Formula]) -> Formula:
    """Simultaneous replacement of atoms; atoms outside ``sigma`` are fixed."""
    return _rebuild(f, lambda name: sigma[name] if name in sigma else Atom(name), None)


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


def _match(schema: Formula, f: Formula,
           agents: AgentSet) -> Iterator[tuple[dict, dict]]:
    """Every (atom, group) binding making ``schema`` into ``f``, depth first:
    a stack of states still to try, each the (schema node, formula) pairs
    left as a linked list ``(pair, rest)`` and the bindings so far."""
    stack: list = [(((schema, f), None), {}, {})]
    while stack:
        todo, at, gr = stack.pop()
        if todo is None:
            yield at, gr
            continue
        (node, g), rest = todo
        if isinstance(node, Atom):
            bound = at.get(node.name)
            if bound is None:
                stack.append((rest, {**at, node.name: g}, gr))
            elif bound == g:
                stack.append((rest, at, gr))
        elif isinstance(node, (Top, Bot)):
            if isinstance(g, type(node)):
                stack.append((rest, at, gr))
        elif isinstance(node, (Implies, Or, And)):
            if type(g) is type(node):
                pairs = ((node.left, g.left), ((node.right, g.right), rest))
                stack.append((pairs, at, gr))
        elif isinstance(node, (Box, Dia)):
            if type(g) is type(node):
                todo = ((node.body, g.body), rest)
                options = list(_bind_groups(node.group, g.group, gr, agents))
                stack.extend((todo, at, gr1) for gr1 in reversed(options))
        else:
            raise TypeError(f"not a schema node: {node!r}")


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
    # a bound metavariable offers its one group, an unbound one every
    # subgroup of the target; ordered pairs, lexicographic on bitmasks
    options = [[agents.mask(gr[v])] if v in gr else _subset_masks(tmask)
               for v in gvars]
    for m1, m2 in itertools.product(*options):
        if m1 | m2 == tmask:
            yield {**gr, v1: agents.group_of_mask(m1), v2: agents.group_of_mask(m2)}


def match_instance(schema: Schema, f: Formula,
                   agents: Optional[AgentSet] = None) -> Optional[Match]:
    """First substitution-and-group binding turning ``schema`` into ``f``."""
    if agents is None:
        names = sorted(agents_of(f))
        agents = AgentSet(tuple(names)) if names else AgentSet.of("a")
    for at, gr in _match(schema.formula, f, agents):
        return Match(tuple(sorted(at.items())), tuple(sorted(gr.items())))
    return None


def instantiate(schema: Schema, atom_map: Mapping[str, Formula],
                group_map: Mapping[str, Group]) -> Formula:
    """Plug concrete formulas and groups into a schema."""

    def atom(name: str) -> Formula:
        if name not in atom_map:
            raise KeyError(f"no binding for metavariable {name!r}")
        return atom_map[name]

    def group(slot: Group) -> Group:
        members: frozenset = frozenset()
        for v in slot:
            if v not in group_map:
                raise KeyError(f"no binding for group metavariable {v!r}")
            members |= group_map[v]
        return members

    return _rebuild(schema.formula, atom, group)
