"""The three workloads.  Each is a closed loop in one thread: a pass sends
its requests one after another, each after the previous answer.

suite      ``ieml suite --json`` at a reduced budget, plus the
           complementary-class countermodels that show the battery's class
           restrictions matter (acceptance criterion 2).
queries    a few hundred small, independent CLI verdict requests:
           countermodel, valid, classify and prove, with a soundness probe
           on each accepted derivation.
construct  8192-state standardizations and a 972-state partition lift,
           driven through the Python API, with a model-file round trip for
           the lift.

Inputs come from the benchmark's seeded generators in ``oracle`` and reach
ieml as text or JSON documents.  Every answer is checked against a value
the benchmark pins or computes itself; a wrong or failed answer is counted,
never raised.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
from pathlib import Path

import oracle
from oracle import PairFrame, groups_of, random_formula, render

A, B, AB = ("a",), ("b",), ("a", "b")


def _imp(x, y): return ("imp", x, y)
def _or(x, y): return ("or", x, y)
def _and(x, y): return ("and", x, y)
def _box(g, x): return ("box", g, x)
def _dia(g, x): return ("dia", g, x)


T, F = ("T",), ("F",)

# Axiom schemas A1-A13 instantiated at groups a, b and a,b, with the frame
# class each is valid on; x and y stand for any formulas.
AXIOMS = (
    ("A1", "all", lambda x, y: _imp(_and(_box(A, x), _box(A, y)), _box(A, _and(x, y)))),
    ("A2", "all", lambda x, y: _imp(_dia(A, _or(x, y)), _or(_dia(A, x), _dia(A, y)))),
    ("A3", "all", lambda x, y: _box(A, T)),
    ("A4", "all", lambda x, y: _imp(_dia(A, F), F)),
    ("A5", "all", lambda x, y: _imp(_box(A, _or(x, y)),
                                    _imp(_imp(_dia(A, x), _box(A, y)), _box(A, y)))),
    ("A6", "doxastic", lambda x, y: _imp(x, _box(A, x))),
    ("A7", "epistemic", lambda x, y: _imp(_box(A, x), _imp(_imp(_dia(A, x), F), F))),
    ("A8", "ud", lambda x, y: _imp(_box(A, x), x)),
    ("A9", "ud", lambda x, y: _imp(x, _dia(A, x))),
    ("A10", "ud", lambda x, y: _imp(x, _box(A, _dia(A, x)))),
    ("A11", "ud", lambda x, y: _imp(_dia(A, _box(A, x)), x)),
    ("A12", "prestandard", lambda x, y: _imp(_or(_box(A, x), _box(B, x)), _box(AB, x))),
    ("A13", "prestandard", lambda x, y: _imp(_dia(AB, x), _and(_dia(A, x), _dia(B, x)))),
)
P, Q = ("atom", "p"), ("atom", "q")
# Acceptance criterion 2 in miniature: each axiom over its own class, where
# no countermodel exists, and each of A6-A13 over all frames, where one
# exists among the frames of at most two states and must be found.
AXIOM_BATTERY = tuple(
    [(f"{sid} on {cls}", schema(P, Q), cls, False) for sid, cls, schema in AXIOMS]
    + [(f"{sid} on all", schema(P, Q), "all", True)
       for sid, cls, schema in AXIOMS if cls != "all"])

CLASSES = ("all", "doxastic", "epistemic", "reflexive", "symmetric", "transitive",
           "rs", "partition", "ud", "prestandard", "standard", "forward_confluent")
PRESERVED = ("doxastic", "epistemic", "ud", "rs", "partition")

SUITE_BUDGET = ("--max-agents", "2", "--max-states", "3", "--max-candidates", "100")
# Checks per suite entry at SUITE_BUDGET; the budget, not the seed, fixes them.
SUITE_CHECKED = {
    "heredity": 40, "A1_on_all": 6, "A2_on_all": 6, "A3_on_all": 6, "A4_on_all": 6,
    "A5_on_all": 6, "A6_on_doxastic": 6, "A7_on_epistemic": 6, "A8_on_ud": 6,
    "A9_on_ud": 6, "A10_on_ud": 6, "A11_on_ud": 6, "A12_on_prestandard": 18,
    "A13_on_prestandard": 18, "R1_preserves_validity": 12,
    "R2_preserves_validity": 12, "R3_preserves_validity": 8,
    "claim_standardize": 2, "claim_standardize_partition": 2,
    "claim_transitive_lift": 2, "claim_rs_collapse": 2, "claim_partition_lift": 2,
    "claim_partition_lift_prestandard": 2, "claim_expand_mono": 2,
    "claim_expand_mono_full": 2, "claim_collapse_mono": 4,
    "claim_collapse_mono_epi": 4,
}

LOGICS = {"l_all_d": "L_all_D", "l_dox_d": "L_dox_D", "l_epi_d": "L_epi_D",
          "l_par_d": "L_par_D", "l_all": "L_all", "l_dox": "L_dox",
          "l_epi": "L_epi", "l_par": "L_par"}


def logic_of(path: Path) -> str:
    for prefix, logic in LOGICS.items():  # longer prefixes first
        if path.name.startswith(prefix + "_"):
            return logic
    raise ValueError(f"no logic for {path.name}")


def pairframe_from_doc(doc: dict):
    """(PairFrame, valuation) read back from an ieml model document."""
    index = {name: i for i, name in enumerate(doc["worlds"])}
    agents = tuple(doc["agents"])

    def pairs(lst):
        return {(index[a], index[b]) for a, b in lst}

    rel = {tuple(k.split(",")): pairs(v) for k, v in doc["rel"].items()}
    val = {atom: {index[s] for s in states}
           for atom, states in doc.get("valuation", {}).items()}
    return PairFrame(len(index), agents, pairs(doc["leq"]), rel), val


class Ieml:
    """The ieml modules, imported once the benchmark has timed the import.
    Calls go through module attributes so a traced run sees them."""

    def __init__(self):
        import ieml
        from ieml import (cli, constructions, frame_classes, modelio, proofs,
                          search, semantics, syntax)
        self.package = ieml
        self.cli, self.constructions, self.frame_classes = cli, constructions, frame_classes
        self.modelio, self.proofs, self.search = modelio, proofs, search
        self.semantics, self.syntax = semantics, syntax


class Op:
    __slots__ = ("kind", "ms", "ok", "what")

    def __init__(self, kind, ms, ok, what):
        self.kind, self.ms, self.ok, self.what = kind, ms, ok, what


class Pass:
    """Records one pass: each operation's verdict kind, latency and check
    result, and a digest of everything ieml answered.  After each operation
    the speed probe runs; ``marks`` holds, per operation, the time since the
    previous probe ended and the probe's own time."""

    def __init__(self, probe, tracer=None, flip=False):
        self.ops: list = []
        self.marks: list = []
        self.digest = hashlib.sha256()
        self.probe = probe
        self.tracer = tracer
        self.flip = flip  # self-test: invert the first operation's expected verdict
        self.last = time.perf_counter()

    def _mark(self) -> None:
        segment = time.perf_counter() - self.last
        self.marks.append((segment, self.probe()))
        self.last = time.perf_counter()

    def finish(self) -> None:
        """Close the pass: the time after the last probe joins the last mark."""
        segment, probe_s = self.marks.pop() if self.marks else (0.0, self.probe())
        self.marks.append((segment + time.perf_counter() - self.last, probe_s))

    def timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, (time.perf_counter() - start) * 1000.0

    @contextlib.contextmanager
    def checking(self):
        """Run the benchmark's own checks untraced."""
        if self.tracer is None:
            yield
            return
        self.tracer.paused = True
        try:
            yield
        finally:
            self.tracer.paused = False

    def record(self, kind, ms, ok, what):
        if self.flip:
            ok, self.flip = not ok, False
        self.ops.append(Op(kind, ms, bool(ok), what))
        self._mark()

    def fail(self, what, err):
        self.ops.append(Op(None, 0.0, False, f"{what}: {type(err).__name__}: {err}"))
        self._mark()

    def note(self, value) -> None:
        self.digest.update(json.dumps(value, sort_keys=True, default=str).encode())
        self.digest.update(b"\n")


def cli_call(ie: Ieml, argv: list, ps: Pass):
    """``ieml.cli.run`` in-process with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ie.cli.run(argv)
    ms = (time.perf_counter() - start) * 1000.0
    # file arguments are absolute paths; only their names belong in the digest
    ps.note([[Path(a).name if os.path.isabs(a) else a for a in argv], rc, out.getvalue()])
    return rc, out.getvalue(), ms


def witness_ok(ie: Ieml, doc: dict, state: str, f, classes) -> bool:
    """A countermodel must falsify the formula at its state and lie in every
    requested class, by ieml's own checks and by the reference ones."""
    loaded = ie.modelio.load_model(doc)
    s = loaded.state(state)
    if ie.semantics.satisfies(loaded.model, s, ie.syntax.parse(render(f))):
        return False
    if not all(ie.frame_classes.has_class(loaded.frame, c) for c in classes):
        return False
    frame, val = pairframe_from_doc(doc)
    return not frame.satisfies(val, s, f) and set(classes) <= set(frame.classes())


def countermodel_op(ie: Ieml, ps: Pass, what: str, f, cls: str, states: int,
                    candidates: int, seed: int, expect_found=None) -> None:
    """One ``countermodel`` request: a found witness is re-verified, and a
    miss must carry the exhausted flag the budget implies.  ``expect_found``
    pins the verdict when the benchmark knows it."""
    argv = ["countermodel", "--json", "--class", cls, "--max-states", str(states),
            "--max-candidates", str(candidates), "--seed", str(seed), render(f)]
    rc, out, ms = cli_call(ie, argv, ps)
    with ps.checking():
        doc = json.loads(out)
        if doc["found"]:
            ok = rc == 1 and expect_found is not False and witness_ok(
                ie, doc["model"], doc["state"], f, (cls,))
        else:
            n_agents = max(1, len(oracle.agents_in(f)))
            ok = rc == 0 and expect_found is not True and doc["exhausted"] == \
                oracle.search_is_exhaustive(states, n_agents, candidates)
    ps.record("refute" if doc["found"] else "confirm", ms, ok, what)


# ---------- suite ----------

class Suite:
    """Passes cycle through the suite at seeds 1, 2 and 3; the suite's time
    is the pass's ``wall_s``.  At this budget the suite's seed decides which
    2-state frame is standardized to 8192 states, which moved a pass by a
    third, so every run times the same three suites and the run's seed
    varies the requests around them.  Those are the axiom battery's
    countermodel requests, the same in every pass of a run, which give the
    refute and confirm latencies, each the fastest of its sends."""

    name = "suite"
    SETS = 3
    PROBE = "mixed"
    # The probe slows about twice as much as the suite's long call: scaling
    # by its full ratio spread wall_s by 25% over ten runs, by its square
    # root by 6%, and not at all by 22%.
    PROBE_EXPONENT = 0.5

    def __init__(self, ie: Ieml, seed: int, tmp: Path):
        self.ie, self.seed = ie, seed
        rng = random.Random(f"{seed}:suite")
        self.battery = [(what, f, cls, found, rng.randrange(1000))
                        for what, f, cls, found in AXIOM_BATTERY]

    def inputs(self, index: int) -> dict:
        return {"seed": index + 1, "battery": self.battery}

    def run(self, inp: dict, ps: Pass) -> None:
        # The countermodels go twice before the suite and twice after it, so
        # their fastest sends come from several moments of the run.
        for _ in range(2):
            self._battery(inp["battery"], ps)
        what = f"suite seed {inp['seed']}"
        try:
            self._suite(ps, what, inp["seed"])
        except Exception as e:  # a crash is a failed operation, not a failed run
            ps.fail(what, e)
        for _ in range(2):
            self._battery(inp["battery"], ps)

    def _suite(self, ps: Pass, what: str, seed: int) -> None:
        argv = ["suite", "--json", *SUITE_BUDGET, "--seed", str(seed)]
        rc, out, ms = cli_call(self.ie, argv, ps)
        with ps.checking():
            entries = json.loads(out)["entries"]
            ok = rc == 0 and set(entries) == set(SUITE_CHECKED)
            for name, e in entries.items():
                checked = e["checked"] + e.get("skipped_over_budget", 0)
                ok = ok and e["status"] == "pass" and checked == SUITE_CHECKED.get(name)
        ps.record(None, ms, ok, what)

    def _battery(self, requests, ps: Pass) -> None:
        for what, f, cls, found, seed in requests:
            try:
                countermodel_op(self.ie, ps, what, f, cls, 2, 100, seed,
                                expect_found=found)
            except Exception as e:
                ps.fail(what, e)


# ---------- queries ----------

def _frame_style(rng: random.Random, n: int, agents: tuple) -> PairFrame:
    """Random frames, some shaped toward the classes the requests name."""
    frame = oracle.random_frame(rng, n, agents)
    style = rng.choice(("free", "free", "dox", "rs", "std"))
    diag = {(i, i) for i in range(n)}
    for g, r in frame.rel.items():
        if style == "dox":
            frame.rel[g] = r & frame.leq
        elif style == "rs":
            frame.rel[g] = r | oracle.converse(r) | diag
    if style == "std":
        for g in frame.rel:
            if len(g) > 1:
                frame.rel[g] = set.intersection(*(frame.rel[(a,)] for a in g))
    return frame


class Queries:
    """Passes cycle through SETS request lists, so each request is sent
    several times in a run, at moments seconds apart; its latency is the
    fastest of those sends."""

    name = "queries"
    SETS = 2
    PROBE = "small"
    PROBE_EXPONENT = 1.0

    def __init__(self, ie: Ieml, seed: int, tmp: Path):
        self.ie, self.seed, self.tmp = ie, seed, tmp
        self.made: dict = {}
        data = Path(ie.package.__file__).parent / "data" / "derivations"
        self.derivations = [(p, logic_of(p), json.loads(p.read_text()))
                            for p in sorted(data.glob("*.json"))]

    def inputs(self, index: int) -> list:
        if index not in self.made:
            self.made[index] = self._make(index)
        return self.made[index]

    def _make(self, index: int) -> list:
        rng = random.Random(f"{self.seed}:queries:{index}")
        reqs = []
        atoms = ["p", "q"]
        # Random formulas with a known answer, in fixed numbers, so every
        # set has the same mix: a formula falsified on some frame of the
        # class with at most two states must be refuted by the complete
        # one-agent search of that size; a tautology never is.
        for k in range(24):
            cls = rng.choice(CLASSES)
            while True:
                frame = _frame_style(rng, rng.randint(1, 2), A)
                f = random_formula(rng, atoms, groups_of(A), rng.choice((2, 3)))
                if cls in frame.classes() and not frame.valid(f):
                    break
            reqs.append(("cm", f"falsifiable {k}", f, cls, 2, 100,
                         rng.randrange(1000), True))
        for k in range(16):
            agents = (A, AB)[k % 2]
            reqs.append(("cm", f"tautology {k}",
                         oracle.tautology(rng, atoms, groups_of(agents), 1, shape=k),
                         CLASSES[k % len(CLASSES)], *((2, 100), (3, 300))[k // 2 % 2],
                         rng.randrange(1000), False))
        for sid, cls, schema in AXIOMS:
            agents = AB if sid in ("A12", "A13") else A
            for states, candidates in ((2, 100), (3, 300)):
                # x over p and y over q, so each instance has a fixed atom set
                x = random_formula(rng, ["p"], groups_of(agents), 1)
                y = random_formula(rng, ["q"], groups_of(agents), 1)
                reqs.append(("cm", f"{sid} on {cls}", schema(x, y), cls,
                             states, candidates, rng.randrange(1000), False))
        for k in range(20):
            frame = _frame_style(rng, rng.randint(1, 3), rng.choice((A, AB)))
            want_valid = k % 2 == 0
            for _ in range(200):
                maker = oracle.tautology if want_valid and rng.random() < 0.7 \
                    else random_formula
                f = maker(rng, atoms, groups_of(frame.agents), 2)
                if frame.valid(f) == want_valid:
                    break
            else:
                raise RuntimeError("no formula with the wanted verdict")
            path = self.tmp / f"q{index}-valid{k}.json"
            path.write_text(json.dumps(frame.doc()))
            reqs.append(("valid", f"valid {k}", f, str(path), frame, want_valid))
        for k in range(10):
            frame = _frame_style(rng, rng.randint(1, 3), rng.choice((A, AB)))
            path = self.tmp / f"q{index}-classify{k}.json"
            path.write_text(json.dumps(frame.doc()))
            reqs.append(("classify", f"classify {k}", str(path), frame.classes()))
        for path, logic, lines in self.derivations:
            reqs.append(("prove", f"prove {path.name}", str(path), logic,
                         lines[-1]["formula"], rng.randrange(1000)))
            for m in range(2):
                mutated, line = _mutate(rng, lines)
                mpath = self.tmp / f"q{index}-{path.stem}-m{m}.json"
                mpath.write_text(json.dumps(mutated))
                reqs.append(("reject", f"mutant {path.name} line {line}", str(mpath),
                             logic, line))
        rng.shuffle(reqs)
        # a request's name identifies it across the passes that repeat it
        return [(kind, f"{index}.{pos} {what}", *rest)
                for pos, (kind, what, *rest) in enumerate(reqs)]

    def run(self, reqs: list, ps: Pass) -> None:
        for req in reqs:
            try:
                getattr(self, "_" + req[0])(ps, *req[1:])
            except Exception as e:  # a crash is a failed operation, not a failed run
                ps.fail(req[1], e)

    def _cm(self, ps, what, f, cls, states, candidates, seed, expect_found):
        countermodel_op(self.ie, ps, what, f, cls, states, candidates, seed,
                        expect_found)

    def _valid(self, ps, what, f, path, frame, want_valid):
        rc, out, ms = cli_call(self.ie, ["valid", "--json", "--frame", path,
                                         render(f)], ps)
        with ps.checking():
            doc = json.loads(out)
            if want_valid:
                ok = rc == 0 and doc["verdict"] == "valid"
            else:
                w = doc.get("witness", {})
                wframe, val = pairframe_from_doc(w["model"]) if w else (None, None)
                ok = (rc == 1 and wframe is not None and wframe.leq == frame.leq
                      and wframe.rel == frame.rel
                      and witness_ok(self.ie, w["model"], w["state"], f, ()))
        ps.record("confirm" if rc == 0 else "refute", ms, ok, what)

    def _classify(self, ps, what, path, expected):
        rc, out, ms = cli_call(self.ie, ["classify", "--json", "--frame", path], ps)
        ps.record(None, ms, rc == 0 and json.loads(out)["classes"] == expected, what)

    def _prove(self, ps, what, path, logic, theorem, seed):
        ie = self.ie
        rc, out, ms = cli_call(ie, ["prove", "--json", "--logic", logic,
                                    "--derivation", path], ps)
        accepted = rc == 0 and json.loads(out)["accepted"]
        budget = ie.search.SizeBudget(max_states=3, max_agents=2,
                                      max_candidates=200, seed=seed)
        probe, probe_ms = ps.timed(ie.proofs.soundness_probe,
                                   ie.syntax.parse(theorem), logic, budget)
        ps.note(probe.to_json())
        ps.record("confirm" if accepted else "refute", ms + probe_ms,
                  accepted and probe.ok and probe.frames_checked > 0, what)

    def _reject(self, ps, what, path, logic, line):
        rc, out, ms = cli_call(self.ie, ["prove", "--json", "--logic", logic,
                                         "--derivation", path], ps)
        doc = json.loads(out)
        ps.record("confirm" if rc == 0 else "refute", ms,
                  rc == 1 and not doc["accepted"] and doc["line"] == line, what)


def _mutate(rng: random.Random, lines: list):
    """A derivation broken at one line, and that line's number: the line's
    formula gains a conjunct, its schema id becomes unknown, or its premise
    index points at itself.  Earlier lines are untouched, so a correct
    checker rejects exactly there."""
    lines = json.loads(json.dumps(lines))
    k = rng.randrange(len(lines))
    entry = lines[k]
    just = entry["just"]
    how = rng.choice(("formula", "justification"))
    if how == "formula":
        entry["formula"] = f"({entry['formula']}) /\\ T"
    elif just["kind"] == "axiom":
        just["id"] = "A99"
    else:
        just["i"] = k + 1
    return lines, k + 1


# ---------- construct ----------

def _curated() -> list:
    """Two-agent, two-state prestandard frames: the total frame, and a chain
    w0 <= w1 with a reflexive-upward a, total b and a,b into w1."""
    total = {(i, j) for i in range(2) for j in range(2)}
    chain = PairFrame(2, AB, {(0, 0), (0, 1), (1, 1)},
                      {A: {(0, 0), (0, 1), (1, 1)}, B: set(total), AB: {(0, 1), (1, 1)}})
    return [("total", PairFrame(2, AB, set(total), {g: set(total) for g in groups_of(AB)})),
            ("chain", chain)]


# The lifted source: three states under the identity order, with a = the
# identity, b = a path w0 - w1 - w2 closed under reflexivity and symmetry,
# and a,b total.  Its partition lift has 3 * (2*3*2) * 3**3 = 972 states.
# Seeds relabel the states and pick the valuation, which leaves the size and
# shape of the work unchanged.
LIFT_RELATIONS = {A: {(0, 0), (1, 1), (2, 2)},
                  B: {(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2), (2, 1)},
                  AB: {(i, j) for i in range(3) for j in range(3)}}


def _lift_source(rng: random.Random) -> PairFrame:
    perm = list(range(3))
    rng.shuffle(perm)
    rel = {g: {(perm[i], perm[j]) for i, j in r} for g, r in LIFT_RELATIONS.items()}
    return PairFrame(3, AB, {(i, i) for i in range(3)}, rel)


def _eval_formula(rng: random.Random):
    """A modality over an implication between two modalities on p or ~p, so
    every point evaluation does about the same work."""
    def leaf():
        return ("atom", "p") if rng.random() < 0.5 else _imp(("atom", "p"), F)

    def modal(x):
        return (rng.choice(("box", "dia")), rng.choice(groups_of(AB)), x)

    return modal(_imp(modal(leaf()), modal(leaf())))


def battery(ie: Ieml) -> list:
    """Every formula over p and the three groups up to depth 2, built with
    shared subterms the way a caller of the API builds a battery."""
    sx = ie.syntax
    groups = [frozenset(g) for g in groups_of(AB)]
    level = [sx.Atom("p"), sx.TOP, sx.BOT]
    seen = set(level)
    for _ in range(2):
        fresh = []
        for g in groups:
            for f in level:
                fresh.extend((sx.Box(g, f), sx.Dia(g, f)))
        for x in level:
            for y in level:
                fresh.extend((sx.Implies(x, y), sx.Or(x, y), sx.And(x, y)))
        for f in fresh:
            if f not in seen:
                seen.add(f)
                level.append(f)
    return level


class Construct:
    name = "construct"
    SETS = 0
    PROBE = "large"
    PROBE_EXPONENT = 1.0
    EVALS = 150  # point evaluations per output model

    def __init__(self, ie: Ieml, seed: int, tmp: Path):
        self.ie, self.seed, self.tmp = ie, seed, tmp
        self.battery = battery(ie)
        if len(self.battery) != 7203:
            raise RuntimeError(f"depth-2 battery has {len(self.battery)} formulas")

    def inputs(self, index: int) -> list:
        rng = random.Random(f"{self.seed}:construct:{index}")
        jobs = []
        for name, frame in _curated():
            val = {"p": rng.choice(frame.up_sets())}
            jobs.append(("standardize", name, frame, val, self._evals(rng, frame, val)))
        frame = _lift_source(rng)
        val = {"p": rng.choice(frame.up_sets())}
        jobs.append(("partition_lift", "lift", frame, val, self._evals(rng, frame, val)))
        return jobs

    def _evals(self, rng, frame, val) -> list:
        """Point evaluations, half of them true at their source state."""
        out = []
        for k in range(self.EVALS):
            for _ in range(1000):
                f = _eval_formula(rng)
                s = rng.randrange(frame.n)
                if frame.satisfies(val, s, f) == (k % 2 == 0):
                    break
            else:
                raise RuntimeError("no evaluation with the wanted verdict")
            out.append((render(f), s, rng.random(), k % 2 == 0))
        rng.shuffle(out)
        return out

    def run(self, jobs: list, ps: Pass) -> None:
        for job in jobs:
            try:
                self._job(ps, *job)
            except Exception as e:
                ps.fail(f"{job[0]} {job[1]}", e)

    def _job(self, ps, kind, name, frame, val, evals):
        """Build, check and query one large model.  Every point evaluation
        is sent three times, once between each pair of phases, so its
        fastest send comes from one of three moments of the job."""
        ie = self.ie
        batches = [evals, evals[::-1], evals]
        start = time.perf_counter()
        src = ie.modelio.load_model(frame.doc(val))
        if kind == "standardize":
            result = ie.constructions.standardize(src.model, src_names=src.names)
            size, must, round_trip = 8192, {"standard"}, True
        else:
            result = ie.constructions.partition_lift(src.model, src_names=src.names)
            path = self.tmp / "lift.json"
            ie.modelio.save_model(result.model, str(path), result.names)
            loaded = ie.modelio.load_model(str(path))
            with ps.checking():
                ps.note(hashlib.sha256(path.read_bytes()).hexdigest())
                path.unlink()
                round_trip = loaded.model == result.model and loaded.names == result.names
            result = ie.constructions.ConstructionResult(loaded.model, loaded.names,
                                                         result.fibers)
            size, must = 972, {"partition"}
        out = result.model
        busy = time.perf_counter() - start
        self._evaluate(ps, name, result, batches[0])
        start = time.perf_counter()
        report = ie.semantics.check_frame(out.frame)
        classes = [c.value for c in ie.frame_classes.classify(out.frame)]
        busy += time.perf_counter() - start
        self._evaluate(ps, name, result, batches[1])
        start = time.perf_counter()
        mismatches = ie.constructions.equivalence_mismatches(src.model, result,
                                                             self.battery)
        busy += time.perf_counter() - start
        ps.note([kind, name, classes, len(mismatches)])
        with ps.checking():
            if kind == "standardize":
                must |= set(PRESERVED) & set(frame.classes())
            ok = (out.frame.n == size and report.ok and must <= set(classes)
                  and not mismatches and round_trip)
        ps.record(None, busy * 1000.0, ok, f"{kind} {name}")
        self._evaluate(ps, name, result, batches[2])

    def _evaluate(self, ps, name, result, evals) -> None:
        """Truth of a formula at one state of a fiber, which must equal its
        truth at the fiber's source state."""
        ie = self.ie
        for text, s, pick, expected in evals:
            fiber = result.fibers[s]
            state = fiber[int(pick * len(fiber))]

            def point():
                return ie.semantics.satisfies(result.model, state, ie.syntax.parse(text))

            verdict, ms = ps.timed(point)
            ps.note(verdict)
            ps.record("confirm" if verdict else "refute", ms, verdict == expected,
                      f"eval {name} {state} {text}")


WORKLOADS = {w.name: w for w in (Suite, Queries, Construct)}
