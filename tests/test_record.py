"""``bench/record.py`` against a stub runner: no benchmark runs here."""
import importlib.util
import json
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("record", ROOT / "bench" / "record.py")
record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(record)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _stub(calls):
    """A latency of seed - 90 ms on the parent and half that on the change,
    except at seed 104, where the change loses; equal wall times.  A traced
    pass reads 0.1 s of evaluation on the parent, half that on the change."""
    def runner(tree, workload, seed, seconds, trace):
        calls.append((tree.name, workload, seed, seconds, trace))
        half = tree.name == "change" and seed != 104
        ms = (seed - 90) * (0.5 if half else 1.0)
        metrics = {"wall_s": {"value": 1.0, "unit": "s"},
                   "refute_p50_ms": {"value": ms, "unit": "ms"}}
        if trace:
            metrics = {"semantics.eval.truth_mask_s": {"value": 0.05 if half else 0.1,
                                                       "unit": "s"},
                       "semantics.eval.truth_mask_calls": {"value": 7, "unit": "count"}}
        return {"correct": True, "attempted": 5, "failed": 0, "metrics": metrics}
    return runner


def test_record_alternates_pairs_and_summarizes(tmp_path):
    calls = []
    parent, change = tmp_path / "parent", tmp_path / "change"
    out = record.record(parent, change, [101, 102, 103, 104], SPEC, runner=_stub(calls))
    assert list(out) == ["suite", "queries", "construct"]
    plain = [(c[0], c[2]) for c in calls if c[1] == "construct" and c[4] == 0]
    assert plain == [("parent", 101), ("change", 101), ("change", 102), ("parent", 102),
                     ("parent", 103), ("change", 103), ("change", 104), ("parent", 104)]
    assert [(c[0], c[2]) for c in calls if c[1] == "construct" and c[4] == 1] \
        == [("parent", record.TRACE_SEED), ("change", record.TRACE_SEED)]
    assert all(c[3] == (SPEC["run_seconds"] if c[4] == 0 else record.TRACE_SECONDS)
               for c in calls)
    res = out["construct"]
    refute = res["metrics"]["refute_p50_ms"]
    assert refute["parent"]["values"] == [11, 12, 13, 14]
    assert refute["change"]["values"] == [5.5, 6, 6.5, 14]
    assert refute["parent"]["median"] == 12.5 and refute["change"]["median"] == 6.25
    assert (refute["parent"]["q1"], refute["parent"]["q3"]) == (11.75, 13.25)
    assert refute["ratio"] == 0.5 and refute["change_wins"] == 3 and refute["pairs"] == 4
    assert refute["median_gain_exceeds_parent_iqr"]
    assert refute["bound"] == 0.25 and not refute["worse_beyond_bound"]
    wall = res["metrics"]["wall_s"]
    assert wall["ratio"] == 1.0 and wall["change_wins"] == 0
    assert not wall["median_gain_exceeds_parent_iqr"]
    # metrics a workload does not report are left out
    assert set(res["metrics"]) == {"wall_s", "refute_p50_ms"}
    assert res["runs"]["change"][1] == {
        "seed": 102, "first": True, "correct": True, "attempted": 5, "failed": 0,
        "metrics": {"wall_s": 1.0, "refute_p50_ms": 6.0}}
    assert res["traced"]["change"]["self_s"] == {"semantics.eval.truth_mask_s": 0.05}
    assert res["traced"]["change"]["counts"] == {"semantics.eval.truth_mask_calls": 7}


def test_record_byte_compiles_both_trees_first(tmp_path):
    """A tree's modules are compiled before its first measured run, so its
    set-up does not pay for it, even where Python writes no bytecode."""
    trees = [tmp_path / side for side in ("parent", "change")]
    for tree in trees:
        (tree / "src" / "pkg").mkdir(parents=True)
        (tree / "src" / "pkg" / "mod.py").write_text("X = 1\n")
    seen = []

    def runner(tree, workload, seed, seconds, trace):
        seen.append(sorted(p.name for p in (tree / "src" / "pkg" / "__pycache__").iterdir()))
        return _stub([])(tree, workload, seed, seconds, trace)

    record.record(*trees, [101, 102], SPEC, runner=runner)
    assert seen and all(len(names) == 1 and names[0].startswith("mod.")
                        and names[0].endswith(".pyc") for names in seen)


def test_compare_flags_a_metric_worse_beyond_its_bound():
    m = record.compare([1.0, 1.0, 1.0], [1.4, 1.3, 1.3], "lower", 0.25)
    assert m["worse_beyond_bound"] and m["change_wins"] == 0
    m = record.compare([2.0, 2.0], [1.0, 1.0], "higher", 0.25)
    assert m["ratio"] == 0.5 and m["worse_beyond_bound"] and m["change_wins"] == 0


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_export_tree_unpacks_a_revision(tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()

    def git(*argv):
        return subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                               *argv], cwd=repo, check=True, capture_output=True,
                              text=True).stdout.strip()

    git("init", "-q")
    (repo / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "one")
    first = git("rev-parse", "HEAD")
    (repo / "a.txt").write_text("two\n")
    git("commit", "-q", "-am", "two")
    dest = tmp_path / "out"
    dest.mkdir()
    assert record.export_tree("HEAD~1", dest, repo) == first
    assert (dest / "tree" / "a.txt").read_text() == "one\n"
    assert sorted(p.name for p in dest.iterdir()) == ["tree"]
