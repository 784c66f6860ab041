import hashlib
import itertools
import json

import pytest

from ieml import (
    AgentSet, And, Atom, BOT, Box, Dia, FrameClass, Implies, Or, Program, Rel,
    TOP, check_frame, classify, has_class, parse, satisfies,
)
from ieml import search
from ieml.errors import BudgetError
from ieml.syntax import _BOX, _DIA
from ieml.search import (
    SizeBudget, all_formulas, budget_from_env, countermodel,
    diamond_free_formulas, enumerate_frames, preorders, proposition_suite,
    random_model, sample_formulas,
)

from helpers import naive_classes, naive_satisfies, program_arrays

AG = AgentSet.of("a")


def _digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------- budgets ----------

def test_budget_from_env(monkeypatch):
    monkeypatch.setenv("IEML_BUDGET_MAX_STATES", "4")
    monkeypatch.setenv("IEML_BUDGET_SEED", "9")
    b = budget_from_env()
    assert b.max_states == 4 and b.seed == 9
    b2 = budget_from_env(max_states=2)
    assert b2.max_states == 2


def test_budget_from_env_names_a_bad_variable(monkeypatch):
    monkeypatch.setenv("IEML_BUDGET_MAX_AGENTS", "x")
    with pytest.raises(ValueError) as info:
        budget_from_env()
    assert str(info.value) == \
        "IEML_BUDGET_MAX_AGENTS (max_agents) must be an integer, got 'x'"


def test_budget_validation():
    with pytest.raises(ValueError):
        SizeBudget(max_agents=0)
    with pytest.raises(ValueError):
        SizeBudget(max_states=-1)


# ---------- enumeration ----------

def test_preorder_counts():
    assert [len(preorders(n)) for n in (1, 2, 3)] == [1, 4, 29]
    with pytest.raises(BudgetError) as info:
        preorders(5)
    assert str(info.value) == ("preorder enumeration supports at most 4 states, "
                               "not 5 (lower max_states, IEML_BUDGET_MAX_STATES)")


def test_enumerate_one_point_one_agent():
    budget = SizeBudget(max_states=1, max_agents=1, max_candidates=100, seed=0)
    frames = list(enumerate_frames(budget, FrameClass.ALL))
    assert len(frames) == 2
    assert all(has_class(f, FrameClass.DOXASTIC) for f in frames)


def test_enumerate_partitions_two_states():
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=200, seed=0)
    frames = list(enumerate_frames(budget, FrameClass.PARTITION))
    # the one-point frame, then per two-state preorder the identity and the
    # total equivalence
    assert len(frames) == 9
    assert sum(1 for f in frames if f.n == 2) == 8
    assert all(has_class(f, FrameClass.PARTITION) for f in frames)


def test_enumerate_nonempty_with_tiny_budget():
    budget = SizeBudget(max_states=1, max_agents=1, max_candidates=3, seed=0)
    assert list(enumerate_frames(budget, FrameClass.ALL))


def test_enumerate_emits_only_class_members():
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=600, seed=1)
    for cls in (FrameClass.EPISTEMIC, FrameClass.STANDARD, FrameClass.PARTITION):
        frames = list(enumerate_frames(budget, cls))
        assert frames, cls
        for f in frames:
            assert check_frame(f).ok
            assert has_class(f, cls)


def test_enumerate_deterministic_and_distinct():
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=500, seed=5)
    a = list(enumerate_frames(budget, FrameClass.ALL))
    b = list(enumerate_frames(budget, FrameClass.ALL))
    assert a == b
    assert len(set(a)) == len(a)


def test_enumerate_stats_exhaustive_flag():
    stats = {}
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=100, seed=0)
    list(enumerate_frames(budget, FrameClass.ALL, stats=stats))
    assert stats["exhaustive"] and stats["candidates"] == 66
    stats2 = {}
    small = SizeBudget(max_states=3, max_agents=2, max_candidates=50, seed=0)
    list(enumerate_frames(small, FrameClass.ALL, stats=stats2))
    assert not stats2["exhaustive"]


def test_enumerate_sampled_stream_golden():
    """The frames and stats of sampled streams (3 states, 300 candidates)
    over several classes, seeds and agent counts, pinned by digest: sharing
    relations across a stream must not change a frame or its order."""
    doc = []
    for cls in (FrameClass.ALL, FrameClass.EPISTEMIC, FrameClass.UD,
                FrameClass.PRESTANDARD, FrameClass.PARTITION):
        for seed in (0, 7):
            for k in (1, 2):
                stats = {}
                budget = SizeBudget(max_states=3, max_agents=k,
                                    max_candidates=300, seed=seed)
                frames = [[f.n, list(f.leq.rows), [list(r.rows) for r in f.rels]]
                          for f in enumerate_frames(budget, cls, stats=stats)]
                assert not stats["exhaustive"]
                doc.append([cls.value, seed, k, frames, stats])
    assert _digest(doc) == \
        "8f9009e94b6cdac9cb32b91d0e19e475704340b35facae38951c3bfe685fd93f"
    # every class, one two-class request, and the exhaustive streams of two
    # states and one agent, which take the other branch
    doc = []
    requests = [(c,) for c in FrameClass] + [(FrameClass.UD, FrameClass.STANDARD)]
    for classes in requests:
        for budget in [SizeBudget(max_states=3, max_agents=k, max_candidates=300,
                                  seed=seed) for seed in (0, 7) for k in (1, 2)] \
                + [SizeBudget(max_states=2, max_agents=1, max_candidates=300)]:
            stats = {}
            frames = [[f.n, list(f.leq.rows), [list(r.rows) for r in f.rels]]
                      for f in enumerate_frames(budget, classes, stats=stats)]
            doc.append([[c.value for c in classes], budget.seed,
                        budget.max_agents, budget.max_states, frames, stats])
    assert doc[-1][-1]["exhaustive"]
    assert _digest(doc) == \
        "58b367d1fc6951d91c66a6d13d82bfb9bf79353bc5833fbeb9d2c568ac7f9626"


@pytest.mark.parametrize("states, agents", [(2, 1), (1, 2)])
def test_exhaustive_streams_match_the_naive_classes(states, agents):
    """Over a complete candidate space, each class's stream emits exactly
    the frames the independent oracle puts in the class, in order: what the
    stream rejects is checked too, not only what it emits."""
    budget = SizeBudget(max_states=states, max_agents=agents, max_candidates=100)
    space = list(enumerate_frames(budget, FrameClass.ALL))
    names = [naive_classes(f) for f in space]
    for c in FrameClass:
        stats = {}
        got = list(enumerate_frames(budget, c, stats=stats))
        assert stats["exhaustive"] and stats["candidates"] == len(space)
        assert got == [f for f, tags in zip(space, names) if c.value in tags], c


# searches whose streams sample (3 states, two agents) or run exhaustively
# (3 states, one agent), over classes whose tests compose and close relations
_SEARCHES = [
    ("[a]p -> [a]p", FrameClass.UD,
     SizeBudget(max_states=3, max_agents=2, max_candidates=300, seed=1)),
    ("[a,b]p -> [a]p", FrameClass.FORWARD_CONFLUENT,
     SizeBudget(max_states=3, max_agents=2, max_candidates=300, seed=2)),
    ("<a>p -> [a]<a>p", FrameClass.PARTITION,
     SizeBudget(max_states=3, max_agents=1, max_candidates=16000)),
    ("[a]p -> p", FrameClass.TRANSITIVE,
     SizeBudget(max_states=3, max_agents=1, max_candidates=16000)),
]


def test_searches_in_one_process_match_a_fresh_frame_table(monkeypatch):
    """The frame table outlives each search: run with the same arguments and
    with different ones after each other, every search gives the result it
    gives on a fresh table."""
    fresh = []
    for formula, cls, budget in _SEARCHES:
        monkeypatch.setattr(search, "_frame_tables", {})
        fresh.append(countermodel(parse(formula), cls, budget).to_json())
    monkeypatch.setattr(search, "_frame_tables", {})
    shared = [countermodel(parse(formula), cls, budget).to_json()
              for _ in range(2) for formula, cls, budget in _SEARCHES]
    assert shared == fresh + fresh
    assert any(r["found"] for r in fresh) and not all(r["found"] for r in fresh)


def test_a_repeated_search_composes_and_closes_nothing(monkeypatch):
    monkeypatch.setattr(search, "_frame_tables", {})
    calls = []
    for name in ("compose", "rt_closure"):
        def counted(*args, _real=getattr(Rel, name), _name=name):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(Rel, name, counted)
    for formula, cls, budget in _SEARCHES:
        countermodel(parse(formula), cls, budget)
    assert {"compose", "rt_closure"} <= set(calls)
    calls.clear()
    for formula, cls, budget in _SEARCHES:
        countermodel(parse(formula), cls, budget)
    assert calls == []


def test_a_four_state_stream_leaves_the_frame_table_unchanged(monkeypatch):
    monkeypatch.setattr(search, "_frame_tables", {})
    budget = SizeBudget(max_states=4, max_agents=1, max_candidates=400, seed=3)
    frames = list(enumerate_frames(budget, FrameClass.UD))
    assert any(f.n == 4 for f in frames)
    table = search._frame_tables

    def contents():
        return {n: list(memo.items()) for n, memo in table.items()}
    before = contents()
    assert sorted(before) == [1, 2, 3]
    for n, memo in table.items():
        assert all(r.n == n for r in memo.values() if isinstance(r, Rel))
    assert list(enumerate_frames(budget, FrameClass.UD)) == frames
    after = contents()
    assert after.keys() == before.keys()
    for n in before:
        assert len(after[n]) == len(before[n])
        assert all(k1 == k2 and v1 is v2
                   for (k1, v1), (k2, v2) in zip(after[n], before[n]))


# ---------- models and formulas ----------

def test_random_model_closed_and_deterministic():
    budget = SizeBudget(seed=3)
    frames = list(enumerate_frames(SizeBudget(max_states=2, max_agents=1,
                                              max_candidates=70, seed=0),
                                   FrameClass.ALL))
    frame = frames[-1]
    m1 = random_model(budget, frame, ("p",))
    m2 = random_model(budget, frame, ("p",))
    assert m1 == m2
    one = random_model(budget, frames[0], ("p",))
    assert one.v("p") in (0, 1)


def test_formula_spaces():
    groups = AG.groups()
    depth1 = all_formulas(("p",), groups, 1)
    assert parse("p") in depth1 and parse("[a]p") in depth1
    assert len(depth1) == len(set(depth1)) == 36
    df = diamond_free_formulas(("p",), frozenset({"a"}), 2)
    from ieml import is_diamond_free
    assert all(is_diamond_free(f) for f in df)
    import random as _r
    sampled = sample_formulas(_r.Random(0), ("p", "q"), groups, 3, 50)
    assert len(sampled) == 50 and len(set(sampled)) == 50


def _formula_set_levels(atoms, depth, modal):
    """The batteries built from formulas through a set, as a reference."""
    level = [Atom(a) for a in atoms] + [TOP, BOT]
    for _ in range(depth):
        fresh = modal(level) + [op(a, b) for a in level for b in level
                                for op in (Implies, Or, And)]
        seen = set(level)
        level += [f for f in dict.fromkeys(fresh) if f not in seen]
    return level


def test_formula_batteries_are_born_compiled():
    groups = AgentSet.of("a", "b").groups()
    for depth in (0, 1, 2):
        battery = all_formulas(("p",), groups, depth)
        assert battery == _formula_set_levels(("p",), depth, lambda level: [
            op(g, f) for g in groups for f in level for op in (Box, Dia)])
        program = search._levels(("p",), depth, groups, (_BOX, _DIA))
        assert list(program) == battery
        assert program_arrays(program) == program_arrays(Program(battery))
        for g in groups:
            battery = diamond_free_formulas(("p",), g, depth)
            assert battery == _formula_set_levels(
                ("p",), depth, lambda level: [Box(g, f) for f in level])
            assert program_arrays(search._levels(("p",), depth, (g,), (_BOX,))) == \
                program_arrays(Program(battery))


# ---------- countermodels ----------

def test_countermodel_excluded_middle():
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=100, seed=0)
    r = countermodel(parse("p \\/ ~p"), FrameClass.ALL, budget)
    assert r.found
    assert not satisfies(r.model, r.state, parse("p \\/ ~p"))
    assert not naive_satisfies(r.model, r.state, parse("p \\/ ~p"))
    # the first witness in search order: the two-chain with p above
    assert r.model.frame.leq == Rel.from_pairs(2, [(0, 0), (0, 1), (1, 1)])
    assert r.model.v("p") == 0b10 and r.state == 0


def test_countermodel_reflection_on_doxastic():
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=100, seed=0)
    r = countermodel(parse("[a]p -> p"), FrameClass.DOXASTIC, budget)
    assert r.found
    assert r.model.frame.r(frozenset({"a"})) == Rel.empty(r.model.frame.n)
    assert r.model.v("p") == 0


def test_countermodel_none_on_partitions():
    budget = SizeBudget(max_states=3, max_agents=1, max_candidates=16000, seed=0)
    r = countermodel(parse("[a]p -> p"), FrameClass.PARTITION, budget)
    assert not r.found
    assert r.exhausted
    assert r.frames_checked > 100


def test_countermodel_skipped_frames_are_not_exhaustive():
    # at cap 2 the frames with more than two valuations are skipped, so a
    # miss proves nothing; the default cap sweeps every frame
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=1000, seed=0)
    r = countermodel(parse("p -> p"), FrameClass.ALL, budget, cap=2)
    assert not r.found and not r.exhausted
    full = countermodel(parse("p -> p"), FrameClass.ALL, budget)
    assert not full.found and full.exhausted
    assert full.frames_checked == r.frames_checked


def test_countermodel_json():
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=100, seed=0)
    r = countermodel(parse("p \\/ ~p"), FrameClass.ALL, budget)
    doc = r.to_json()
    assert doc["found"] and doc["state"] == "w0"


# ---------- the proposition battery ----------

def test_suite_empty_budget():
    assert proposition_suite(SizeBudget(max_candidates=0)).entries == ()
    assert proposition_suite(SizeBudget(max_states=0)).entries == ()


def test_suite_small_budget_passes_and_is_deterministic():
    budget = SizeBudget(max_states=2, max_agents=2, max_formula_depth=2,
                        max_candidates=800, seed=23)
    rep1 = proposition_suite(budget, frames_per_check=12)
    rep2 = proposition_suite(budget, frames_per_check=12)
    assert rep1.to_json() == rep2.to_json()
    assert rep1.ok, [e.name for e in rep1.entries if e.status != "pass"]
    names = {e.name for e in rep1.entries}
    assert "heredity" in names and "A5_on_all" in names
    assert "claim_partition_lift" in names
    assert json.dumps(rep1.to_json(), sort_keys=True)
    assert _digest(rep1.to_json()) == \
        "d0f1017aee0c01e0b82769c7629c672bca548d2e65a50070b397eb8d80b565ff"


def test_suite_swapped_class_produces_witness(monkeypatch):
    budget = SizeBudget(max_states=2, max_agents=1, max_formula_depth=2,
                        max_candidates=400, seed=24)
    monkeypatch.setattr(search, "AXIOM_CLASSES", tuple(
        (sid, FrameClass.ALL if sid == "A7" else cls)
        for sid, cls in search.AXIOM_CLASSES))
    rep = proposition_suite(budget, frames_per_check=25)
    entry = rep.entry("A7_on_all")
    assert entry.status == "fail"
    assert entry.witnesses
    assert _digest(rep.to_json()) == \
        "c71fbfcbac90fe4c67f1970af55502f8466b3d1f80dc09ea601c2470626b5415"


def test_suite_rule_entries_report_vacuity():
    budget = SizeBudget(max_states=2, max_agents=1, max_formula_depth=2,
                        max_candidates=500, seed=25)
    rep = proposition_suite(budget, frames_per_check=20)
    for rule in ("R1", "R2", "R3"):
        entry = rep.entry(f"{rule}_preserves_validity")
        extra = dict(entry.extra)
        assert entry.status == "pass"
        assert extra["vacuous"] < entry.checked  # vacuity below 100%


def test_suite_wider_budget_golden():
    # 2-state inputs on every claim, an 8192-state standardization checked
    # on the full depth-2 battery, and the random-sampling branch of the mono
    # inputs
    budget = SizeBudget(max_states=3, max_agents=2, max_candidates=1500, seed=5)
    rep = proposition_suite(budget, frames_per_check=9)
    assert _digest(rep.to_json()) == \
        "42a67c75d05f1fa1fb69104b1a7da5b3d48054b756433d62364819e074181ee7"


def test_suite_over_budget_construction(monkeypatch):
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=200, seed=0)
    calls = {"plain": 0, "prestandard": 0}

    def over_budget(model, variant="plain"):
        calls[variant] += 1
        raise BudgetError("output over budget")

    monkeypatch.setattr(search, "partition_lift", over_budget)
    rep = proposition_suite(budget, frames_per_check=6)
    for name, variant in (("claim_partition_lift", "plain"),
                          ("claim_partition_lift_prestandard", "prestandard")):
        entry = rep.entry(name)
        assert calls[variant] > 0
        assert entry.checked == 0 and entry.status == "pass"
        assert dict(entry.extra)["skipped_over_budget"] == calls[variant]

    # every claim skips and counts an over-budget input, standardize too
    tries = []

    def raises(model, variant="default"):
        tries.append(variant)
        raise BudgetError("output over budget")

    monkeypatch.setattr(search, "standardize", raises)
    rep = proposition_suite(budget, frames_per_check=6)
    for name, variant in (("claim_standardize", "default"),
                          ("claim_standardize_partition", "partition")):
        entry = rep.entry(name)
        assert entry.checked == 0 and entry.status == "pass"
        assert dict(entry.extra)["skipped_over_budget"] == tries.count(variant) > 0


def test_suite_heredity_and_rule_witnesses_fire(monkeypatch):
    # no truth set is an up-set, and validity answers alternate, so each
    # rule's premise is found valid and its conclusion falsified
    answers = itertools.cycle((True, False))
    monkeypatch.setattr(search, "is_closed", lambda leq, mask: False)
    monkeypatch.setattr(search, "valid_in_frame", lambda frame, f: next(answers))
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=200, seed=0)
    rep = proposition_suite(budget, frames_per_check=6)
    heredity = rep.entry("heredity")
    assert heredity.status == "fail" and len(heredity.witnesses) == 3
    assert all({"formula", "model"} == set(w) for w in heredity.witnesses)
    for rule in ("R1", "R2", "R3"):
        entry = rep.entry(f"{rule}_preserves_validity")
        assert entry.status == "fail" and 0 < len(entry.witnesses) <= 3
        assert all(w["note"] == "conclusion falsified" for w in entry.witnesses)


def test_suite_claim_witnesses_golden(monkeypatch):
    # every construction's output loses its accessibility relations, so each
    # claim reports mismatches (their masks follow the random draws) and
    # class failures, truncated to three of each
    import ieml.constructions as constructions
    import ieml.search as search
    from ieml.semantics import Frame, Model, MonoStructure, Rel

    def emptied(build):
        def run(*args, **kwargs):
            result = build(*args, **kwargs)
            m = result.model
            if isinstance(m.frame, MonoStructure):
                st = m.frame
                m = Model(MonoStructure(st.n, st.leq, Rel.empty(st.n)), m.val)
            else:
                f = m.frame
                m = Model(Frame(f.agents, f.n, f.leq,
                                tuple(Rel.empty(f.n) for _ in f.rels)), m.val)
            return type(result)(m, result.names, result.fibers)
        return run

    for name in ("standardize", "transitive_lift", "rs_collapse",
                 "partition_lift", "expand_mono", "collapse_mono"):
        monkeypatch.setattr(search, name, emptied(getattr(constructions, name)))
    budget = SizeBudget(max_states=2, max_agents=2, max_candidates=200, seed=2)
    rep = proposition_suite(budget, frames_per_check=6)
    claims = [e for e in rep.entries if e.name.startswith("claim_")]
    assert len(claims) == 10 and all(e.status == "fail" for e in claims)
    notes = {w["note"] for e in claims for w in e.witnesses if "note" in w}
    assert "claim_rs_collapse: output not rs" in notes
    assert "claim_collapse_mono_epi: output fails the full conditions" in notes
    assert "claim_standardize_partition preserving rs: output not rs" in notes
    assert _digest(rep.to_json()) == \
        "4a0a315dd4ab2d63be7e3a98d452051eefada87fee5c16cc8bde0be46a20c76d"


# ---------- mono structures and the claim batteries ----------

def test_mono_structures_kinds_equal_the_brute_force_filter():
    from ieml import MonoStructure, is_iel_structure
    from ieml.search import mono_structures
    for n in (1, 2, 3):
        for kind in ("minus", "full"):
            brute = [(leq.rows, mask) for leq in preorders(n)
                     for mask in range(1 << (n * n))
                     if is_iel_structure(
                         MonoStructure(n, leq, Rel.from_mask(n, mask)), kind)]
            fast = [(ms.leq.rows, ms.r.mask()) for ms in mono_structures(n, kind)]
            assert fast == brute, (n, kind)
    assert sum(1 for _ in mono_structures(2)) == 4 * 16


def test_suite_batteries_support_len_and_iteration(monkeypatch):
    # a tracer counts the checked formulas with len(); the checks iterate
    import ieml.search as search
    seen = []

    def counting(check):
        def run(*args):
            formulas = args[-1]
            seen.append((len(formulas), len(list(formulas)), len(list(formulas))))
            return check(*args)
        return run

    for name in ("equivalence_mismatches", "mono_equivalence_mismatches"):
        monkeypatch.setattr(search, name, counting(getattr(search, name)))
    budget = SizeBudget(max_states=2, max_agents=2, max_candidates=200, seed=3)
    assert proposition_suite(budget, frames_per_check=4).ok
    assert seen and all(a == b == c > 0 for a, b, c in seen)
