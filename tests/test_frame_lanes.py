"""Frame lanes: ``countermodel`` and ``soundness_probe`` check runs of frames
in one evaluator pass.  Each search here must give what a frame-by-frame
loop of the naive oracle gives on the same stream: the same first witness
and state, frame count, exhaustive flag and probe witnesses."""
import random

from ieml import AgentSet, FrameClass, Model, parse, render
from ieml import semantics
from ieml.errors import BudgetError
from ieml.modelio import model_to_doc
from ieml.proofs import LOGIC_CLASSES, LogicId, ProbeReport, soundness_probe
from ieml.search import (
    SizeBudget, agents_for_formula, countermodel, enumerate_frames,
    random_formula,
)

from helpers import naive_atoms, naive_falsify, naive_is_closed

CAP = semantics.DEFAULT_ASSIGNMENT_CAP


def naive_stream(f, classes, budget, cap=CAP):
    """Per frame of the search's stream: the frame, ``naive_falsify`` on it
    (or "skip" when its valuations exceed ``cap``) and the stream's
    exhaustive flag as the frame was drawn; last ``(None, None, flag)``."""
    stats: dict = {}
    m = len(naive_atoms(f))
    for frame in enumerate_frames(budget, classes, agents=agents_for_formula(f),
                                  stats=stats):
        flag = stats["exhaustive"]
        closed = sum(naive_is_closed(frame.leq, u) for u in range(1 << frame.n))
        if 1 << frame.n > cap or (m and closed ** m > cap):
            yield frame, "skip", flag
        else:
            yield frame, naive_falsify(frame, f), flag
    yield None, None, stats["exhaustive"]


def expected_countermodel(f, classes, budget, cap=CAP) -> tuple:
    checked, skipped = 0, False
    for frame, hit, flag in naive_stream(f, classes, budget, cap):
        if frame is None:
            return False, None, None, checked, flag and not skipped
        checked += 1
        if hit == "skip":
            skipped = True
        elif hit is not None:
            val, state = hit
            return True, (frame.leq, frame.rels, val), state, checked, False


def got_countermodel(f, classes, budget, cap=CAP) -> tuple:
    r = countermodel(f, classes, budget, cap)
    model = r.model and (r.model.frame.leq, r.model.frame.rels, r.model.val_map())
    return r.found, model, r.state, r.frames_checked, r.exhausted


def expected_probe(f, logic, budget, cap=CAP, max_witnesses=3):
    """The report, or the BudgetError type when a frame exceeds ``cap``."""
    checked, witnesses = 0, []
    for frame, hit, flag in naive_stream(f, LOGIC_CLASSES[logic], budget, cap):
        if frame is not None:
            checked += 1
            if hit == "skip":
                return BudgetError
            if hit is None:
                continue
            val, state = hit
            witnesses.append({"model": model_to_doc(Model.make(frame, val)),
                              "state": f"w{state}"})
            if len(witnesses) < max_witnesses:
                continue
        return ProbeReport(logic, render(f), checked, tuple(witnesses), flag).to_json()


def got_probe(f, logic, budget, cap=CAP, max_witnesses=3):
    try:
        return soundness_probe(f, logic, budget, cap, max_witnesses).to_json()
    except BudgetError:
        return BudgetError


def _random_cases(rng, keys, expected, wanted):
    """Per key and agent count, a random formula, budget and cap, with the
    naive expectation; drawn again (a few times) unless ``wanted(expected,
    agents)``, so that most cases reach the chunks: the first two frames of
    a stream run alone."""
    for key in keys:
        for agents in (1, 2):
            groups = AgentSet(("a", "b")[:agents]).groups()
            for _ in range(40):
                f = random_formula(rng, ("p", "q")[:rng.randint(1, 2)], groups,
                                   rng.randint(1, 3))
                budget = SizeBudget(max_states=rng.randint(1, 3), max_agents=agents,
                                    max_candidates=rng.choice((40, 80, 120)),
                                    seed=rng.randrange(100))
                cap, most = rng.choice((CAP, CAP, 9)), rng.choice((1, 3, 8))
                want = expected(f, key, budget, cap, most)
                if wanted(want, agents):
                    break
            yield f, key, budget, cap, most, want


def test_countermodel_matches_a_frame_by_frame_search():
    rng, reached, found = random.Random(23), 0, 0
    for f, cls, budget, cap, _, want in _random_cases(
            rng, FrameClass, lambda f, cls, budget, cap, _: expected_countermodel(
                f, cls, budget, cap),
            # one agent: a witness past the first two frames; two: a long search
            lambda want, agents: want[3] > 2 and (agents == 2 or want[0])):
        assert got_countermodel(f, cls, budget, cap) == want, \
            (render(f), cls, budget, cap)
        reached += want[3] > 2
        found += want[0] and want[3] > 2
    assert reached >= 20 and found >= 8


def test_soundness_probe_matches_a_frame_by_frame_search():
    rng, reached = random.Random(29), 0
    for f, logic, budget, cap, most, want in _random_cases(
            rng, LogicId, lambda f, logic, budget, cap, most: _probe_key(
                expected_probe(f, logic, budget, cap, most)),
            lambda want, agents: want is BudgetError or want[3] > 2):
        assert _probe_key(got_probe(f, logic, budget, cap, most)) == want, \
            (render(f), logic, budget, cap, most)
        reached += want is BudgetError or want[3] > 2
    assert reached >= 12


def _probe_key(report):
    """A report as a tuple whose [3] is the frame count, like a search's."""
    if report is BudgetError:
        return report
    return (report["logic"], report["formula"], report["countermodels"],
            report["frames_checked"], report["exhausted"])


def _spied(monkeypatch) -> list:
    """Record each chunk pass ("chunk", frame count) and each frame checked
    alone ("alone", state count, how it ended) of the searches that follow.
    A frame checked alone is a one-frame pass too, which is not recorded."""
    events, inside = [], []

    def chunk(run, a, names, _real=semantics.falsified_blocks):
        if not inside:
            events.append(("chunk", len(run)))
        return _real(run, a, names)

    def alone(frame, a, cap, _real=semantics.falsify_on_frame):
        inside.append(frame)
        try:
            hit = _real(frame, a, cap)
        except BudgetError:
            events.append(("alone", frame.n, "skip"))
            raise
        finally:
            inside.pop()
        events.append(("alone", frame.n, "hit" if hit else "valid"))
        return hit

    monkeypatch.setattr(semantics, "falsified_blocks", chunk)
    monkeypatch.setattr(semantics, "falsify_on_frame", alone)
    return events


def test_a_chunk_ends_at_a_change_of_state_count(monkeypatch):
    # two agents: eight one-state frames, on all of which the formula holds,
    # then the sampled two-state frames; the second chunk is cut at the
    # eighth frame, so the first two-state frame is drawn before it is answered
    f = parse("[a]p -> [b][a]p")
    budget = SizeBudget(max_states=2, max_agents=2, max_candidates=100, seed=4)
    events = _spied(monkeypatch)
    got = got_countermodel(f, FrameClass.ALL, budget)
    assert got == expected_countermodel(f, FrameClass.ALL, budget)
    assert got[0] and got[3] > 8
    assert events[:4] == [("alone", 1, "valid"), ("alone", 1, "valid"),
                          ("chunk", 4), ("chunk", 2)]
    assert events[4] == ("chunk", 16)  # each chunk, full or cut, doubles the next


def test_a_frame_past_the_cap_ends_a_chunk_and_is_skipped(monkeypatch):
    # at cap 30 the sampled three-state frames with six or more up-sets
    # (36+ valuations of two atoms) are skipped between the others' chunks
    f = parse("[a](p -> q) -> ([a]p -> [a]q)")
    budget = SizeBudget(max_states=3, max_agents=1, max_candidates=300, seed=5)
    events = _spied(monkeypatch)
    got = got_countermodel(f, FrameClass.ALL, budget, cap=30)
    assert got == expected_countermodel(f, FrameClass.ALL, budget, cap=30)
    assert got[:3] == (False, None, None) and not got[4]
    skips = [i for i, e in enumerate(events) if e == ("alone", 3, "skip")]
    assert any(events[i - 1][0] == "chunk" for i in skips)
    assert any(e[0] == "chunk" for e in events[skips[0]:])
    assert got_probe(f, LogicId.L_all, budget, cap=30) \
        == expected_probe(f, LogicId.L_all, budget, cap=30) == BudgetError


def test_a_formula_too_wide_for_one_sweep_runs_frame_by_frame(monkeypatch):
    # four atoms: a three-state frame with five or more up-sets has 625+
    # valuations, over LANE_CHUNK_BITS in lanes of four bits, and is
    # checked alone; the two-state frames still share chunks
    f = parse("p /\\ q -> r \\/ s \\/ p")
    budget = SizeBudget(max_states=3, max_agents=1, max_candidates=74, seed=6)
    events = _spied(monkeypatch)
    got = got_countermodel(f, FrameClass.ALL, budget)
    assert got == expected_countermodel(f, FrameClass.ALL, budget)
    assert got[:3] == (False, None, None) and got[3] > 66
    first = events.index(("alone", 3, "valid"))
    assert any(e[0] == "chunk" for e in events[:first])


def test_a_chunk_ends_before_it_outgrows_one_pass(monkeypatch):
    # four atoms at two states: a frame of the identity order has 256
    # valuations in lanes of three bits (768 bits), so its chunks are cut
    # at two frames, before a third would pass LANE_CHUNK_BITS
    widths = []

    def chunk(run, a, names, _real=semantics.falsified_blocks):
        widths.append(sum(layout[0] for _, layout in run))
        return _real(run, a, names)

    monkeypatch.setattr(semantics, "falsified_blocks", chunk)
    f = parse("p /\\ q /\\ r -> s \\/ p")
    budget = SizeBudget(max_states=2, max_agents=1, max_candidates=100, seed=8)
    got = got_countermodel(f, FrameClass.ALL, budget)
    assert got == expected_countermodel(f, FrameClass.ALL, budget)
    assert got[:3] == (False, None, None) and got[4]
    assert widths.count(2 * 768) >= 3
    assert max(widths) <= semantics.LANE_CHUNK_BITS


def test_a_probe_stopped_before_the_sampled_states_is_exhaustive():
    # one agent, at most two states: 66 frames, all of them checked (the
    # three-state frames are sampled).  [a]F fails on 61 of them, the
    # last at frame 66; the 58th witness is frame 63, in the chunk of
    # frames 63-66, which draws the first sampled frame before it answers
    f = parse("[a]F")
    budget = SizeBudget(max_states=3, max_agents=1, max_candidates=80, seed=7)
    got = got_probe(f, LogicId.L_all, budget, max_witnesses=58)
    assert got == expected_probe(f, LogicId.L_all, budget, max_witnesses=58)
    assert got["frames_checked"] == 63 and got["exhausted"]
    full = soundness_probe(f, LogicId.L_all, budget, max_witnesses=1000)
    assert full.frames_checked > 66 and not full.exhausted


def test_one_pass_names_each_falsified_frame_and_its_witness(monkeypatch):
    # runs of frames in one pass each: each falsified block gives the
    # valuation and state the naive search finds first on its frame alone
    hits = []  # per pass over more than one frame, the frames falsified

    def chunk(run, a, names, _real=semantics.falsified_blocks):
        got = _real(run, a, names)
        if len(run) > 1:
            hits.append(len(run) - got.count(None))
        return got

    monkeypatch.setattr(semantics, "falsified_blocks", chunk)
    rng = random.Random(31)
    for agents in (1, 2):
        groups = AgentSet(("a", "b")[:agents]).groups()
        for _ in range(30):
            f = random_formula(rng, ("p", "q", "r")[:rng.randint(1, 3)], groups,
                               rng.randint(1, 3))
            budget = SizeBudget(max_states=rng.randint(1, 3), max_agents=agents,
                                max_candidates=60, seed=rng.randrange(100))
            frames = [frame for frame in enumerate_frames(
                budget, FrameClass.ALL, agents=agents_for_formula(f), stats={})
                if frame.n == budget.max_states][:40]
            got = list(semantics.falsified(
                ((frame, k) for k, frame in enumerate(frames)), f))
            assert [k for _, k in got] == list(range(len(frames)))
            assert [hit and (hit[0].val_map(), hit[1]) for hit, _ in got] == \
                [naive_falsify(frame, f) for frame in frames], render(f)
            assert all(hit[0].frame is frames[k] for hit, k in got if hit)
    assert sum(n > 1 for n in hits) >= 50


def test_a_frame_too_wide_for_one_pass_is_swept_in_order():
    # four atoms over the eight up-sets of a three-state antichain: 4096
    # valuations, the last three atoms packed, one pass per up-set of p;
    # the first witness is in the second pass
    f = parse("p /\\ q /\\ r -> s \\/ <a>p")
    frame = semantics.Frame(AgentSet(("a",)), 3, semantics.Rel.identity(3),
                            (semantics.Rel.empty(3),))
    assert semantics._lanes(frame.leq, semantics.up_sets(frame), 4)[2] == 3
    model, state = semantics.falsify_on_frame(frame, f)
    assert (model.val_map(), state) == naive_falsify(frame, f)
    assert model.val_map()["p"] == 1
