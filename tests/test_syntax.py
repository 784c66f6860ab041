import itertools
import os
import pickle
import random
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ieml import (
    AgentSet, And, Atom, BOT, Box, Dia, Implies, Or, ParseError, Program,
    Schema, TOP, agents_of, atoms_of, depth_of, groups_of, instantiate,
    is_diamond_free, match_instance, parse, render, sf, substitute, tau,
)
from ieml.proofs import schema_catalog
from ieml.semantics import Evaluator, Model, MonoStructure, Rel, mono_truth_mask
from ieml import syntax
from ieml.syntax import MAX_DEPTH, MonoBox

from helpers import (
    FORMULA_TOKENS, naive_group_bindings, program_arrays, random_ast,
    two_chain_frame,
)

A = frozenset({"a"})
B = frozenset({"b"})
AB = frozenset({"a", "b"})


# ---------- parsing ----------

def test_parse_reproduces_a5_shape():
    f = parse("[a](p \\/ q) -> ((<a>p -> [a]q) -> [a]q)")
    want = Implies(
        Box(A, Or(Atom("p"), Atom("q"))),
        Implies(Implies(Dia(A, Atom("p")), Box(A, Atom("q"))), Box(A, Atom("q"))))
    assert f == want


def test_parse_constants_and_sugar():
    assert parse("T") == TOP
    assert parse("F") == BOT
    assert parse("~p") == Implies(Atom("p"), BOT)
    assert parse("p <-> q") == And(Implies(Atom("p"), Atom("q")),
                                   Implies(Atom("q"), Atom("p")))


def test_parse_precedence():
    assert parse("p -> q -> r") == Implies(Atom("p"), Implies(Atom("q"), Atom("r")))
    assert parse("p \\/ q /\\ r") == Or(Atom("p"), And(Atom("q"), Atom("r")))
    assert parse("p /\\ q \\/ r") == Or(And(Atom("p"), Atom("q")), Atom("r"))
    assert parse("[a]p \\/ q") == Or(Box(A, Atom("p")), Atom("q"))
    assert parse("~p /\\ q") == And(Implies(Atom("p"), BOT), Atom("q"))
    assert parse("[a,b]p") == Box(AB, Atom("p"))
    assert parse("<b,a>p") == Dia(AB, Atom("p"))


# One input per place the parser raises: its message and position.
PARSE_ERRORS = {
    "p @ q": ("unexpected character '@'", 2),
    "p é": ("unexpected character 'é'", 2),
    ") $": ("unexpected character '$'", 2),  # before any grammar error
    "p -> Q": ("bad identifier 'Q'", 5),
    "p -> _x": ("bad identifier '_x'", 5),
    "(p": ("expected ')', found 'end of input'", 2),
    "(p /\\ q r": ("expected ')', found 'r'", 8),
    "[a p": ("expected ']', found 'p'", 3),
    "[a,b p": ("expected ']', found 'p'", 5),
    "<a p": ("expected '>', found 'p'", 3),
    "[]p": ("expected a name, found ']'", 1),
    "[T]p": ("expected a name, found 'T'", 1),
    "<a,>p": ("expected a name, found '>'", 3),
    "": ("expected a formula, found 'end of input'", 0),
    "p ->": ("expected a formula, found 'end of input'", 4),
    "~": ("expected a formula, found 'end of input'", 1),
    "p \\/ -> q": ("expected a formula, found '->'", 5),
    "p q": ("unexpected 'q' after formula", 2),
    "p )": ("unexpected ')' after formula", 2),
    "[a](p -> q) r": ("unexpected 'r' after formula", 12),
}
# The same, parsed against the agents a and b.
AGENT_ERRORS = {
    "[c]p": ("unknown agent name 'c'", 2),
    "<a,c>p": ("unknown agent name 'c'", 4),
    "[a, zz ] q": ("unknown agent name 'zz'", 7),
}


@pytest.mark.parametrize("text,with_agents", [(t, False) for t in PARSE_ERRORS]
                         + [(t, True) for t in AGENT_ERRORS])
def test_parse_errors(text, with_agents):
    message, position = (AGENT_ERRORS if with_agents else PARSE_ERRORS)[text]
    with pytest.raises(ParseError) as e:
        parse(text, AgentSet.of("a", "b") if with_agents else None)
    assert (str(e.value), e.value.position) == \
        (f"{message} (at position {position})", position)


# A text of each shape nested k deep, and where parsing it k > MAX_DEPTH
# deep is refused: at the operator that opens level MAX_DEPTH + 1.
DEEP = {
    "unary": (lambda k: "~" * k + "p", MAX_DEPTH),
    "boxes": (lambda k: "[a]" * k + "p", 3 * MAX_DEPTH),
    "parentheses": (lambda k: "(" * k + "p" + ")" * k, MAX_DEPTH),
    "arrows": (lambda k: "p -> " * k + "p", 5 * MAX_DEPTH + 2),
    "conjunctions": (lambda k: "p /\\ " * k + "p", 5 * MAX_DEPTH + 2),
}


@pytest.mark.parametrize("shape", sorted(DEEP))
def test_parse_nesting_bound(shape):
    text, refused_at = DEEP[shape]
    for k in (MAX_DEPTH + 1, 3000):
        with pytest.raises(ParseError, match=f"nested deeper than {MAX_DEPTH}") as e:
            parse(text(k))
        assert e.value.position == refused_at
    f = parse(text(MAX_DEPTH))
    assert depth_of(f) == (0 if shape == "parentheses" else MAX_DEPTH)
    assert parse(render(f)) == f
    frame = two_chain_frame(AgentSet.of("a"))
    Evaluator(frame).truth_mask(f, {"p": 0b10})
    g = tau(f)
    mono = Model.make(MonoStructure(2, frame.leq, Rel.total(2)), {"p": {1}})
    mono_truth_mask(mono, g)


def test_formula_hashes_tell_node_kinds_apart():
    from ieml.search import all_formulas
    battery = all_formulas(("p",), AgentSet.of("a", "b").groups(), 2)
    assert len(battery) == 7203
    assert max(Counter(hash(f) for f in battery).values()) <= 2
    assert hash(TOP) != hash(BOT)
    assert hash(Box(A, TOP)) != hash(Dia(A, TOP))
    f = parse("[a](p -> q) /\\ <b>T \\/ F")
    assert hash(f) == hash(parse(render(f)))
    # a formula hashed and pickled in a process with other string hashes is
    # rebuilt, not restored with that process's hash
    code = ("import pickle, sys; from ieml import parse; "
            f"f = parse({render(f)!r}); hash(f); "
            "sys.stdout.buffer.write(pickle.dumps(f))")
    env = {**os.environ, "PYTHONHASHSEED": "1",
           "PYTHONPATH": os.pathsep.join(sys.path)}
    data = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True).stdout
    copy = pickle.loads(data)
    assert copy == f and hash(copy) == hash(f) and copy in {f}


def test_parse_unknown_agent_with_universe():
    ag = AgentSet.of("a", "b")
    assert parse("[a]p", ag) == Box(A, Atom("p"))
    with pytest.raises(ParseError, match="unknown agent"):
        parse("[c]p", ag)


def test_render_examples():
    assert render(TOP) == "T"
    assert render(Box(AB, Atom("p"))) == "[a,b]p"
    assert render(parse("~p")) == "p -> F"
    # canonical agent order comes from the agent set when given
    ag = AgentSet.of("b", "a")
    assert render(Box(AB, Atom("p")), ag) == "[b,a]p"


def test_render_rejects_a_non_formula():
    with pytest.raises(TypeError, match="not a formula: 'q'"):
        render(Implies(Atom("p"), "q"))


def test_roundtrip_seeded():
    rng = random.Random(42)
    for _ in range(1000):
        f = random_ast(rng)
        assert parse(render(f)) == f


FORMULAS = st.recursive(
    st.one_of(st.builds(Atom, st.sampled_from(["p", "q", "r"])),
              st.just(TOP), st.just(BOT)),
    lambda sub: st.one_of(
        st.builds(Implies, sub, sub), st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
        st.builds(Box, st.sampled_from([A, B, AB]), sub),
        st.builds(Dia, st.sampled_from([A, B, AB]), sub)),
    max_leaves=20)


@given(FORMULAS)
def test_roundtrip_property(f):
    assert parse(render(f)) == f


def test_parse_arrives_compiled(monkeypatch):
    """A parsed formula comes with the node array ``Program`` compiles it
    to, so printing and evaluating it next compile nothing, and its pickle
    is the one a compiled copy gives."""
    built = []
    init = Program.__init__

    def counted(self, formulas=()):
        built.append(self)
        init(self, formulas)

    monkeypatch.setattr(Program, "__init__", counted)
    evaluator = Evaluator(two_chain_frame(AgentSet.of("a", "b")))
    for text in ("[a](<b>(p -> F) -> <a,b>p)", "p <-> p", "~~<a>p /\\ T",
                 "((p \\/ q) /\\ ~[a,b]q) <-> <b>T", "[a][b]p -> [b][a]p"):
        f = parse(text)
        count = len(built)
        evaluator.truth_mask(f, {"p": 0b10, "q": 0b11})
        render(f)
        assert len(built) == count
        assert program_arrays(syntax._compiled(f)) == program_arrays(Program((f,)))
        pickled = pickle.dumps(f)
        monkeypatch.setattr(syntax, "_last_compiled", (None, None))
        assert pickle.dumps(f) == pickled


def test_parse_shares_equal_subformulas():
    f = parse("(p -> q) /\\ (p -> q)")
    assert f.left is f.right and f.left.left is not f.left.right
    g = parse("p <-> p")
    assert g.left is g.right and g.left.left is g.left.right
    h = parse("[a,b]~p \\/ <b,a>~p")
    assert h.left.body is h.right.body and h.left.group is h.right.group


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(FORMULA_TOKENS), max_size=12).map("".join))
def test_parse_fuzzed_token_strings(text):
    try:
        f = parse(text)
    except ParseError as e:
        assert 0 <= e.position <= len(text)
    else:
        g = parse(render(f))
        assert g == f
        assert program_arrays(syntax._compiled(g)) == program_arrays(Program((g,)))


def test_render_parse_idempotent_on_corpus():
    corpus = [
        "[a](p \\/ q) -> ((<a>p -> [a]q) -> [a]q)",
        "T", "~p", "p <-> q", "p -> q -> r", "((p -> q)) -> r",
        "[a,b]p /\\ <a>q", "~~<a>p", "[a][b]p", "<a>(p \\/ q) -> <a>p \\/ <a>q",
    ]
    for text in corpus:
        once = render(parse(text))
        assert render(parse(once)) == once


# ---------- diamond-free fragment ----------

def test_is_diamond_free():
    assert is_diamond_free(parse("[a]p"))
    assert not is_diamond_free(parse("[a][b]p"))
    assert not is_diamond_free(parse("<a>p"))
    assert is_diamond_free(parse("[a]p -> [a][a]q"))
    assert is_diamond_free(parse("p -> q"))


def test_sf_clauses():
    p, q = Atom("p"), Atom("q")
    assert sf(p) == frozenset({p})
    assert sf(Box(A, p)) == frozenset({Box(A, p), p})
    assert sf(Implies(p, q)) == frozenset({Implies(p, q), p, q})
    assert sf(TOP) == frozenset({TOP})
    assert sf(BOT) == frozenset({BOT})


def test_sf_closure_property():
    rng = random.Random(5)
    for _ in range(80):
        f = random_ast(rng, agents=("a",), depth=3)
        if not is_diamond_free(f):
            continue
        closure = sf(f)
        assert f in closure and len(closure) >= 1
        for g in closure:
            for child in _children(g):
                assert child in closure


def _children(g):
    if isinstance(g, (Implies, Or, And)):
        return [g.left, g.right]
    if isinstance(g, Box):
        return [g.body]
    return []


def test_sf_rejects_diamonds():
    with pytest.raises(ValueError):
        sf(parse("<a>p"))
    with pytest.raises(ValueError):
        tau(parse("[a][b]p"))


def test_tau_clauses():
    assert tau(parse("[a](p /\\ q)")) == MonoBox(And(Atom("p"), Atom("q")))
    assert tau(parse("p")) == Atom("p")
    assert tau(parse("[a][a]p")) == MonoBox(MonoBox(Atom("p")))
    assert tau(TOP) == TOP


def test_tau_injective_on_enumeration():
    from ieml.search import diamond_free_formulas
    space = diamond_free_formulas(("p",), A, 2)
    images = {}
    for f in space:
        img = tau(f)
        assert img not in images, (f, images[img])
        images[img] = f
    # sampled deeper formulas
    rng = random.Random(9)
    for _ in range(3000):
        f = random_ast(rng, agents=("a",), depth=4)
        if not is_diamond_free(f):
            continue
        img = tau(f)
        assert images.setdefault(img, f) == f


def test_tau_keeps_hashes_and_shares_images():
    text = "[a](p -> q) /\\ [a](p -> q) \\/ r"
    before = hash(parse(text))
    translated_first = parse(text)
    tau(translated_first)
    hashed_first = parse(text)
    hash(hashed_first)
    tau(hashed_first)
    assert hash(translated_first) == hash(hashed_first) == before
    assert translated_first in {parse(text)}
    # images are equal across calls, and a shared subterm stays shared
    shared = Box(A, Implies(Atom("p"), Atom("q")))
    left, right = And(shared, Atom("r")), Or(Atom("p"), shared)
    assert tau(left).left == tau(right).right == tau(shared)
    assert tau(left) == tau(left)
    both = tau(And(shared, Or(Atom("p"), shared)))
    assert both.left is both.right.right
    # the image of a program shares its source's node array
    program = Program([left, right, shared])
    image = tau(program)
    assert image.left is program.left and image.right is program.right
    assert image.consts is program.consts and image.roots is program.roots
    assert list(image) == [tau(left), tau(right), tau(shared)]
    # a failed translation is refused on every call
    mixed = And(shared, Box(B, Atom("p")))
    for _ in range(2):
        assert is_diamond_free(shared) and not is_diamond_free(mixed)
        with pytest.raises(ValueError, match="tau is defined on diamond-free"):
            tau(mixed)
    with pytest.raises(ValueError, match=r"diamond-free formulas only: \[a\]"):
        tau(Program([shared, mixed]))


# ---------- substitution ----------

def test_substitute_examples():
    f = parse("p -> p")
    assert substitute(f, {"p": BOT}) == parse("F -> F")
    assert substitute(f, {}) == f
    a1 = parse("[a]T /\\ [a]F -> [a](T /\\ F)")
    body = parse("[a]p /\\ [a]q -> [a](p /\\ q)")
    assert substitute(body, {"p": TOP, "q": BOT}) == a1


@given(FORMULAS)
def test_substitute_identity(f):
    sigma = {name: Atom(name) for name in atoms_of(f)}
    assert substitute(f, sigma) == f


# ---------- schema matching ----------

def _schema(src):
    return Schema("S", parse(src))


def test_match_a3():
    s = _schema("[alpha]T")
    m = match_instance(s, parse("[a,b]T"))
    assert m is not None and m.group_map() == {"alpha": AB}
    assert match_instance(s, parse("[a]p")) is None


def test_match_a12_splits():
    s = _schema("[alpha]p \\/ [beta]p -> [alpha,beta]p")
    m = match_instance(s, parse("[a]p \\/ [b]p -> [a,b]p"))
    assert m.group_map() == {"alpha": A, "beta": B}
    assert m.atom_map() == {"p": Atom("p")}
    # composite encountered first: all splits tried, first consistent wins
    s13 = _schema("<alpha,beta>p -> <alpha>p /\\ <beta>p")
    m13 = match_instance(s13, parse("<a,b>p -> <a>p /\\ <b>p"))
    assert m13.group_map() == {"alpha": A, "beta": B}
    # overlap is a legal split
    m_over = match_instance(s, parse("[a]p \\/ [a,b]p -> [a,b]p"))
    assert m_over.group_map() == {"alpha": A, "beta": AB}
    assert match_instance(s, parse("[a]p \\/ [b]q -> [a,b]p")) is None


def test_match_composite_alone_is_deterministic():
    s = _schema("[alpha,beta]p")
    m = match_instance(s, parse("[a,b]p"), AgentSet.of("a", "b"))
    # lexicographic on bitmasks: alpha={a} first, then beta must cover b
    assert m.group_map()["alpha"] == A
    assert m.group_map()["beta"] in (B, AB)


def test_bind_groups_equals_the_brute_force_bindings():
    # every slot of one or two metavariables, target group and binding
    # (each metavariable unbound or bound to any group) over three agents
    ag = AgentSet.of("a", "b", "c")
    groups = ag.groups()
    cases = 0
    for slot in (("alpha",), ("alpha", "beta")):
        for target in groups:
            for binds in itertools.product([None, *groups], repeat=len(slot)):
                bound = {v: g for v, g in zip(slot, binds) if g is not None}
                got = list(syntax._bind_groups(frozenset(slot), target, bound, ag))
                assert got == naive_group_bindings(slot, target, bound, ag.names), \
                    (slot, target, bound)
                cases += 1
    assert cases == 504


def test_match_binds_the_free_half_of_a_group_slot():
    s = _schema("[alpha]p -> [alpha,beta]p")
    assert match_instance(s, parse("[a]p -> [a,b]p")).group_map() == \
        {"alpha": A, "beta": B}
    assert match_instance(s, parse("[a]p -> [a]p")).group_map() == \
        {"alpha": A, "beta": A}
    assert match_instance(s, parse("[a,b]p -> [a]p")) is None


def test_match_consistency():
    s = _schema("[alpha]p -> [alpha]p")
    assert match_instance(s, parse("[a]q -> [a]q")) is not None
    assert match_instance(s, parse("[a]q -> [b]q")) is None
    assert match_instance(s, parse("[a]q -> [a]r")) is None


def test_match_treats_all_schema_atoms_as_metavariables():
    s = _schema("p -> q")
    m = match_instance(s, parse("[a]r -> T"))
    assert m.atom_map() == {"p": Box(A, Atom("r")), "q": TOP}


def test_match_then_instantiate_reproduces():
    rng = random.Random(12)
    from ieml.proofs import schema_catalog
    cat = schema_catalog()
    ag = AgentSet.of("a", "b")
    for sid in ("A1", "A5", "A6", "A12", "A13", "IPL2", "A16"):
        schema = cat[sid]
        for _ in range(20):
            atom_map = {v: random_ast(rng, depth=2) for v in ("p", "q", "r")}
            group_map = {"alpha": rng.choice([A, B, AB]),
                         "beta": rng.choice([A, B, AB])}
            inst = instantiate(schema, atom_map, group_map)
            m = match_instance(schema, inst, ag)
            assert m is not None
            assert instantiate(schema, m.atom_map(), m.group_map()) == inst


def test_depth_and_atoms_helpers():
    f = parse("[a](p -> <b>q)")
    assert depth_of(f) == 3
    assert atoms_of(f) == frozenset({"p", "q"})


# Each node kind chained 3000 deep with the constructors, which no depth
# bound guards, and the chain's text.
CHAINS = {
    "Implies": (lambda f: Implies(Atom("q"), f), "q -> " * 3000 + "p"),
    "And": (lambda f: And(f, Atom("q")), "p" + " /\\ q" * 3000),
    "Box": (lambda f: Box(A, f), "[a]" * 3000 + "p"),
    "Dia": (lambda f: Dia(B, f), "<b>" * 3000 + "p"),
    "MonoBox": (MonoBox, "[]" * 3000 + "p"),
}


def _chain(step, leaf=Atom("p")):
    f = leaf
    for _ in range(3000):
        f = step(f)
    return f


@pytest.mark.parametrize("kind", sorted(CHAINS))
def test_syntax_walks_take_api_built_formulas_of_any_depth(kind):
    step, text = CHAINS[kind]
    f = _chain(step)
    # == and repr before and after the chains keep their hashes
    other, leaf = _chain(step), _chain(step, Atom("r"))
    assert f == other and not f != other and f != leaf and f != step(f)
    assert repr(f) == repr(other) != repr(leaf)
    assert repr(f).count(f"{kind}(") == 3000 and "Atom(name='p')" in repr(f)
    one = step(Atom("p"))  # the dataclass text, which evaluates back
    names = {"Atom": Atom, "And": And, "Implies": Implies, "Box": Box,
             "Dia": Dia, "MonoBox": MonoBox}
    assert eval(repr(one), names) == one
    assert hash(f) == hash(_chain(step)) != hash(step(f))
    assert f == other and f != leaf and (f == Atom("p")) is False
    assert pickle.loads(pickle.dumps(f)) == f
    # matching recurses along the schema only; bound atoms compare by ==
    catalog = schema_catalog()
    ipl1 = match_instance(catalog["IPL1"], Implies(f, Implies(leaf, other)))
    assert ipl1.atom_map() == {"p": f, "q": leaf}
    a8 = match_instance(catalog["A8"], Implies(Box(AB, f), other))
    assert a8.atom_map() == {"p": f} and a8.group_map() == {"alpha": AB}
    assert match_instance(catalog["A8"], Implies(Box(AB, f), leaf)) is None
    # a schema as deep as the formula: matching walks it with a stack
    if kind == "MonoBox":
        with pytest.raises(TypeError, match="not a schema node"):
            match_instance(Schema("S", f), f)
    else:
        itself = match_instance(Schema("S", f), f)
        assert itself.atom_map() == {a: Atom(a) for a in atoms_of(f)}
        assert itself.group_map() == {
            a: frozenset({a}) for g in groups_of(f) for a in g}
        assert match_instance(Schema("S", step(f)), f) is None
    assert render(f) == str(f) == text
    assert atoms_of(f) == ({"p", "q"} if "q" in text else {"p"})
    groups = {"Box": {A}, "Dia": {B}}.get(kind, set())
    assert groups_of(f) == groups
    assert agents_of(f) == set().union(*groups)
    assert depth_of(f) == 3000
    assert render(substitute(f, {"p": Atom("r")})) == text.replace("p", "r")
    plugged = instantiate(Schema("S", f), {"p": BOT, "q": TOP},
                          {"a": AB, "b": AB})
    assert render(plugged) == text.replace("p", "F").replace("q", "T") \
        .replace("[a]", "[a,b]").replace("<b>", "<a,b>")
    if is_diamond_free(f):
        assert len(sf(f)) == 3000 + len(atoms_of(f))
    else:
        for walk in (sf, tau):
            with pytest.raises(ValueError, match="diamond-free formulas only"):
                walk(f)


def test_shared_subformulas_stay_shared():
    f = Atom("p")
    for _ in range(30):
        f = And(f, f)
        g = substitute(f, {"p": Atom("q")})
        assert g.left is g.right
    for _ in range(30):
        assert g.left is g.right
        g = g.left
    assert g == Atom("q")
    # 2**30 paths, 31 nodes: each walk visits a node once
    assert atoms_of(f) == {"p"} and depth_of(f) == 30
