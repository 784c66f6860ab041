"""Per-layer tracing from outside the program.

Each traced name is replaced by a wrapper in every ieml module that holds
it, so a call gets one span whichever module makes it.  Methods are patched
on their class.  A recursive function (``has_class``, ``mono_truth_mask``,
``substitute``) is left alone in the module that defines it, so its own
recursion does not open a span per level and each outside call gets one.

Spans are not stored one by one: the hot leaves run millions of times per
suite.  A stack of open spans instead accumulates, per name, the call
count, total time and self time (total minus the time of traced children).
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# (layer name, object path, recursive).  The object path names the
# function by the module that defines it, or a method by its class.
TARGETS = (
    ("cli.run", "ieml.cli.run", False),
    ("syntax.parse", "ieml.syntax.parse", False),
    ("syntax.render", "ieml.syntax.render", False),
    ("syntax.match", "ieml.syntax.match_instance", False),
    ("syntax.substitute", "ieml.syntax.substitute", True),
    ("syntax.tau", "ieml.syntax.tau", False),
    ("modelio.load", "ieml.modelio.load_model", False),
    ("modelio.load", "ieml.modelio.load_mono", False),
    ("modelio.save", "ieml.modelio.save_model", False),
    ("modelio.save", "ieml.modelio.model_to_doc", False),
    ("semantics.rel.converse", "ieml.semantics.Rel.converse", False),
    ("semantics.rel.compose", "ieml.semantics.Rel.compose", False),
    ("semantics.rel.closure", "ieml.semantics.Rel.rt_closure", False),
    ("semantics.eval.truth_mask", "ieml.semantics.Evaluator.truth_mask", False),
    ("semantics.eval.mono", "ieml.semantics.mono_truth_mask", True),
    ("semantics.eval.falsify", "ieml.semantics.falsify_on_frame", False),
    ("frame_classes.classify", "ieml.frame_classes.classify", False),
    ("frame_classes.has_class", "ieml.frame_classes.has_class", True),
    ("search.enumerate", "ieml.search.enumerate_frames", False),
    ("search.formula_gen", "ieml.search.all_formulas", False),
    ("search.formula_gen", "ieml.search.diamond_free_formulas", False),
    ("search.formula_gen", "ieml.search.sample_formulas", False),
    ("search.self", "ieml.search.proposition_suite", False),
    ("search.self", "ieml.search.countermodel", False),
    ("constructions.standardize", "ieml.constructions.standardize", False),
    ("constructions.transitive_lift", "ieml.constructions.transitive_lift", False),
    ("constructions.rs_collapse", "ieml.constructions.rs_collapse", False),
    ("constructions.partition_lift", "ieml.constructions.partition_lift", False),
    ("constructions.expand_mono", "ieml.constructions.expand_mono", False),
    ("constructions.collapse_mono", "ieml.constructions.collapse_mono", False),
    ("constructions.equivalence", "ieml.constructions.equivalence_mismatches", False),
    ("constructions.equivalence", "ieml.constructions.mono_equivalence_mismatches", False),
    ("proofs.check", "ieml.proofs.check_derivation", False),
    ("proofs.load", "ieml.proofs.load_derivation", False),
    ("proofs.load", "ieml.proofs.parse_derivation", False),
    ("proofs.probe", "ieml.proofs.soundness_probe", False),
)

CONSTRUCTIONS = ("standardize", "transitive_lift", "rs_collapse", "partition_lift",
                 "expand_mono", "collapse_mono")

# Spans each workload must open; a traced run fails when one never fires.
REQUIRED = {
    "suite": ("cli.run", "syntax.tau", "semantics.eval.truth_mask",
              "semantics.eval.mono", "semantics.eval.falsify",
              "semantics.rel.converse", "semantics.rel.compose",
              "semantics.rel.closure", "frame_classes.has_class",
              "search.enumerate", "search.formula_gen", "search.self",
              "constructions.equivalence", "modelio.save")
             + tuple(f"constructions.{k}" for k in CONSTRUCTIONS),
    "queries": ("cli.run", "syntax.parse", "syntax.render", "syntax.match",
                "syntax.substitute", "modelio.load", "modelio.save",
                "semantics.eval.truth_mask", "semantics.eval.falsify",
                "frame_classes.classify", "frame_classes.has_class",
                "search.enumerate", "search.self", "proofs.check",
                "proofs.load", "proofs.probe"),
    "construct": ("syntax.parse", "modelio.load", "modelio.save",
                  "semantics.rel.converse", "semantics.rel.compose",
                  "semantics.eval.truth_mask", "frame_classes.classify",
                  "constructions.standardize", "constructions.partition_lift",
                  "constructions.equivalence"),
}


def _resolve(path: str):
    """(owner, attribute, defining module name) for a dotted object path."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = sys.modules.get(".".join(parts[:cut]))
        if module is not None:
            owner = module
            for name in parts[cut:-1]:
                owner = getattr(owner, name)
            return owner, parts[-1], module.__name__
    raise LookupError(path)


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.paused = False
        self.rebound: list = []  # (module or class name, attribute, layer)
        self._stack: list = []  # open spans: [layer, child time]
        self._undo: list = []

    # ----- installation -----

    def install(self) -> None:
        notes = self._notes()
        for layer, path, recursive in TARGETS:
            owner, attr, home = _resolve(path)
            original = getattr(owner, attr)
            wrapper = self._wrap(layer, original, notes.get(layer))
            if isinstance(owner, type):
                self._rebind(owner, attr, wrapper, owner.__name__, layer)
                continue
            for name, module in sorted(sys.modules.items()):
                if not (name == "ieml" or name.startswith("ieml.")):
                    continue
                if recursive and name == home:
                    continue
                if getattr(module, attr, None) is original:
                    self._rebind(module, attr, wrapper, name, layer)
        self._audit()

    def _rebind(self, owner, attr, wrapper, where, layer) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)
        self.rebound.append((where, attr, layer))

    def _audit(self) -> None:
        """Every ieml module that imported a traced function must now hold
        the wrapper, except the home of a recursive one."""
        originals = {id(orig) for _, _, orig in self._undo}
        for name, module in sys.modules.items():
            if not (name == "ieml" or name.startswith("ieml.")):
                continue
            for attr, value in vars(module).items():
                if id(value) not in originals:
                    continue
                home = getattr(value, "__module__", None)
                recursive = any(p.endswith("." + attr) and r for _, p, r in TARGETS)
                if not (recursive and home == name):
                    raise RuntimeError(f"{name}.{attr} still holds the untraced function")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----- spans -----

    def _open(self, layer: str):
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame, time.perf_counter()

    def _close(self, frame, start: float) -> None:
        elapsed = time.perf_counter() - start
        self._stack.pop()
        layer = frame[0]
        self.calls[layer] += 1
        self.self_time[layer] += elapsed - frame[1]
        if self._stack:
            self._stack[-1][1] += elapsed

    def _wrap(self, layer: str, fn, note):
        if layer == "search.enumerate":
            return self._wrap_stream(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            if layer == "semantics.eval.truth_mask" and self._stack \
                    and self._stack[-1][0] == "semantics.eval.falsify":
                self.counts["semantics.eval.valuations"] += 1
            frame, start = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as e:
                self.counts[f"{layer}.raised.{type(e).__name__}"] += 1
                raise
            finally:
                self._close(frame, start)
            if note is not None:
                note(args, kwargs, result)
            return result

        return traced

    def _wrap_stream(self, fn):
        """enumerate_frames is a generator: time each step of it, and read
        its candidate and emitted counts from the stats dict it fills."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kwargs.get("stats") is None:
                kwargs["stats"] = {}
            stats = kwargs["stats"]
            stream = fn(*args, **kwargs)
            seen = {"candidates": 0, "emitted": 0}  # stats key -> value last read
            while True:
                paused = self.paused
                if not paused:
                    frame, start = self._open("search.enumerate")
                try:
                    item = next(stream)
                except StopIteration:
                    return
                finally:
                    if not paused:
                        self._close(frame, start)
                        for key, counter in (("candidates", "search.candidates"),
                                             ("emitted", "search.frames_emitted")):
                            now = stats.get(key, 0)
                            self.counts[counter] += now - seen[key]
                            seen[key] = now
                yield item

        return traced

    # ----- per-layer counters read from arguments and results -----

    def _note_load(self, args, kwargs, result):
        if isinstance(args[0], (str, os.PathLike)):
            self.counts["modelio.doc_bytes"] += os.path.getsize(args[0])

    def _note_save(self, args, kwargs, result):
        if len(args) > 1 and isinstance(args[1], (str, os.PathLike)):
            self.counts["modelio.doc_bytes"] += os.path.getsize(args[1])

    def _note_classify(self, args, kwargs, result):
        self.counts["frame_classes.states_classified"] += args[0].n

    def _note_construction(self, args, kwargs, result):
        model = result.model
        self.counts["constructions.output_states"] += (
            model.frame.n if hasattr(model, "frame") else model.structure.n)

    def _note_equivalence(self, args, kwargs, result):
        formulas = args[2] if len(args) > 2 else kwargs["formulas"]
        self.counts["constructions.formulas_checked"] += len(formulas)

    def _note_check(self, args, kwargs, result):
        self.counts["proofs.lines"] += len(args[0].lines)

    def _note_probe(self, args, kwargs, result):
        self.counts["proofs.probe_frames"] += result.frames_checked

    def _notes(self) -> dict:
        notes = {f"constructions.{kind}": self._note_construction
                 for kind in CONSTRUCTIONS}
        notes.update({
            "modelio.load": self._note_load,
            "modelio.save": self._note_save,
            "frame_classes.classify": self._note_classify,
            "constructions.equivalence": self._note_equivalence,
            "proofs.check": self._note_check,
            "proofs.probe": self._note_probe,
        })
        return notes

    # ----- report -----

    def fired(self) -> set:
        return {layer for layer, calls in self.calls.items() if calls}

    def layer_metrics(self) -> dict:
        """Per-layer figures named as in BENCHMARK.json (values only)."""
        s, c, k = self.self_time, self.calls, self.counts
        out = {
            "cli.self_s": s["cli.run"], "cli.calls": c["cli.run"],
            "syntax.parse_s": s["syntax.parse"], "syntax.parse_calls": c["syntax.parse"],
            "syntax.render_s": s["syntax.render"], "syntax.match_s": s["syntax.match"],
            "syntax.substitute_s": s["syntax.substitute"],
            "syntax.tau_s": s["syntax.tau"], "syntax.tau_calls": c["syntax.tau"],
            "modelio.load_s": s["modelio.load"], "modelio.save_s": s["modelio.save"],
            "modelio.doc_bytes": k["modelio.doc_bytes"],
        }
        for op in ("converse", "compose"):
            out[f"semantics.rel.{op}_s"] = s[f"semantics.rel.{op}"]
            out[f"semantics.rel.{op}_calls"] = c[f"semantics.rel.{op}"]
        out["semantics.rel.closure_s"] = s["semantics.rel.closure"]
        for op in ("truth_mask", "mono", "falsify"):
            out[f"semantics.eval.{op}_s"] = s[f"semantics.eval.{op}"]
            out[f"semantics.eval.{op}_calls"] = c[f"semantics.eval.{op}"]
        out["semantics.eval.valuations"] = k["semantics.eval.valuations"]
        out.update({
            "frame_classes.classify_s": s["frame_classes.classify"],
            "frame_classes.states_classified": k["frame_classes.states_classified"],
            "frame_classes.has_class_s": s["frame_classes.has_class"],
            "frame_classes.has_class_calls": c["frame_classes.has_class"],
            "search.enumerate_s": s["search.enumerate"],
            "search.candidates": k["search.candidates"],
            "search.frames_emitted": k["search.frames_emitted"],
            "search.accept_ratio": (k["search.frames_emitted"] / k["search.candidates"]
                                    if k["search.candidates"] else 0.0),
            "search.formula_gen_s": s["search.formula_gen"],
            "search.self_s": s["search.self"],
        })
        for kind in CONSTRUCTIONS:
            out[f"constructions.{kind}_s"] = s[f"constructions.{kind}"]
        out.update({
            "constructions.output_states": k["constructions.output_states"],
            "constructions.over_budget": sum(
                k[f"constructions.{kind}.raised.BudgetError"] for kind in CONSTRUCTIONS),
            "constructions.equivalence_s": s["constructions.equivalence"],
            "constructions.formulas_checked": k["constructions.formulas_checked"],
            "proofs.check_s": s["proofs.check"], "proofs.lines": k["proofs.lines"],
            "proofs.load_s": s["proofs.load"],
            "proofs.probe_s": s["proofs.probe"],
            "proofs.probe_frames": k["proofs.probe_frames"],
        })
        return out

    def self_time_sum(self) -> float:
        return sum(self.self_time.values())
