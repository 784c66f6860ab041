"""Command-line surface.

Exit codes: 0 when a command computed a positive or neutral verdict, 1 for a
negative logical verdict (formula invalid, derivation rejected, countermodel
found, suite failure), 2 for usage, format, or budget errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .errors import BudgetError, PreconditionError
from .frame_classes import FrameClass, classify
from .modelio import (
    ModelFormatError, load_model, load_mono, model_to_doc, save_model,
)
from .proofs import LogicId, check_derivation, load_derivation
from .search import budget_from_env, countermodel, proposition_suite
from .semantics import falsify_on_frame, satisfies
from .syntax import AgentSet, ParseError, parse, render
from . import constructions

OK, NEGATIVE, ERROR = 0, 1, 2


def _emit(args, human: str, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        print(human)


def _budget(args):
    return budget_from_env(
        max_states=getattr(args, "max_states", None),
        max_agents=getattr(args, "max_agents", None),
        max_formula_depth=getattr(args, "depth", None),
        max_candidates=getattr(args, "max_candidates", None),
        seed=getattr(args, "seed", None),
    )


def cmd_parse(args) -> int:
    f = parse(args.formula)
    _emit(args, render(f), {"formula": render(f)})
    return OK


def cmd_eval(args) -> int:
    doc = load_model(args.model, close_leq=args.close_leq,
                     complete_by_intersection=args.complete_by_intersection)
    f = parse(args.formula, doc.frame.agents)
    verdict = satisfies(doc.model, doc.state(args.state), f, args.variant)
    _emit(args, "true" if verdict else "false",
          {"formula": render(f), "state": args.state, "verdict": verdict})
    return OK


def cmd_valid(args) -> int:
    doc = load_model(args.frame, close_leq=args.close_leq,
                     complete_by_intersection=args.complete_by_intersection)
    f = parse(args.formula, doc.frame.agents)
    hit = falsify_on_frame(doc.frame, f, args.max_assignments)
    if hit is None:
        _emit(args, "valid", {"formula": render(f), "verdict": "valid"})
        return OK
    model, state = hit
    _emit(args, f"invalid (falsified at {doc.names[state]})",
          {"formula": render(f), "verdict": "invalid",
           "witness": {"model": model_to_doc(model, doc.names),
                       "state": doc.names[state]}})
    return NEGATIVE


def cmd_classify(args) -> int:
    doc = load_model(args.frame, close_leq=args.close_leq,
                     complete_by_intersection=args.complete_by_intersection)
    tags = [c.value for c in classify(doc.frame)]
    _emit(args, " ".join(tags), {"classes": tags})
    return OK


def cmd_construct(args) -> int:
    kind = args.kind
    if kind == "expandmono":
        doc = load_mono(args.infile, close_leq=args.close_leq)
        if not args.agents:
            raise ModelFormatError("expandmono needs --agents")
        agents = AgentSet(tuple(args.agents.split(",")))
        result = constructions.expand_mono(doc.model, agents, args.mono_kind,
                                           src_names=doc.names)
    else:
        doc = load_model(args.infile, close_leq=args.close_leq,
                         complete_by_intersection=args.complete_by_intersection)
        model, names = doc.model, doc.names
        # a cap left out is the construction's default; 0 is a cap
        caps = {} if args.max_states is None else {"max_states": args.max_states}
        if kind == "standardize":
            result = constructions.standardize(
                model, args.variant or "default", src_names=names, **caps)
        elif kind == "translift":
            result = constructions.transitive_lift(model, src_names=names)
        elif kind == "rscollapse":
            result = constructions.rs_collapse(model, src_names=names)
        elif kind == "partlift":
            result = constructions.partition_lift(
                model, args.variant or "plain", src_names=names, **caps)
        else:  # collapsemono; argparse bounds --kind
            if args.group is None:
                raise ModelFormatError("collapsemono needs --group")
            try:
                alpha = doc.frame.agents.group(*args.group.split(","))
            except KeyError as e:
                raise ModelFormatError(
                    f"bad group {args.group!r}: {e.args[0]}") from None
            result = constructions.collapse_mono(model, alpha, args.mono_kind,
                                                 src_names=names)
    save_model(result.model, args.outfile, result.names)
    n = result.model.frame.n
    _emit(args, f"wrote {args.outfile} ({n} states)",
          {"states": n, "out": args.outfile})
    return OK


def cmd_prove(args) -> int:
    derivation = load_derivation(args.derivation)
    result = check_derivation(derivation, LogicId(args.logic))
    if result.accepted:
        human = f"accepted ({len(result.evidence)} lines)"
    else:
        line, reason = result.failure
        human = f"rejected at line {line}: {reason}"
    _emit(args, human, result.to_json())
    return OK if result.accepted else NEGATIVE


def cmd_countermodel(args) -> int:
    f = parse(args.formula)
    result = countermodel(f, FrameClass(args.cls), _budget(args))
    if result.found:
        doc = result.to_json()
        human = (f"countermodel at state {doc['state']} "
                 f"after {result.frames_checked} frames:\n"
                 + json.dumps(doc["model"], indent=2, sort_keys=True))
        _emit(args, human, doc)
        return NEGATIVE
    note = ("none (space exhausted up to the size bound)"
            if result.exhausted else "none within budget")
    _emit(args, note, result.to_json())
    return OK


def cmd_suite(args) -> int:
    report = proposition_suite(_budget(args))
    lines = [f"{e.name}: {e.status} ({e.checked} checks)" for e in report.entries]
    _emit(args, "\n".join(lines) or "empty budget: nothing to check",
          report.to_json())
    return OK if report.ok else NEGATIVE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process:
    building it costs several times parsing one command line."""
    top = argparse.ArgumentParser(prog="ieml", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def loader_flags(p):
        p.add_argument("--close-leq", action="store_true",
                       help="take the reflexive transitive closure of leq")
        p.add_argument("--complete-by-intersection", action="store_true",
                       help="derive non-singleton group relations as intersections")

    p = sub.add_parser("parse", help="echo the canonical form of a formula")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula at a state of a model")
    p.add_argument("formula")
    p.add_argument("--model", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--variant", default="prenosil",
                   choices=["prenosil", "fischer_servi", "wijesekera"])
    p.add_argument("--json", action="store_true")
    loader_flags(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("valid", help="decide frame validity by enumerating valuations")
    p.add_argument("formula")
    p.add_argument("--frame", required=True)
    p.add_argument("--max-assignments", type=int, default=1 << 20)
    p.add_argument("--json", action="store_true")
    loader_flags(p)
    p.set_defaults(fn=cmd_valid)

    p = sub.add_parser("classify", help="list the frame classes of a frame")
    p.add_argument("--frame", required=True)
    p.add_argument("--json", action="store_true")
    loader_flags(p)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("construct", help="apply a model transformation")
    p.add_argument("--kind", required=True,
                   choices=["standardize", "translift", "rscollapse",
                            "partlift", "expandmono", "collapsemono"])
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", dest="outfile", required=True)
    p.add_argument("--variant")
    p.add_argument("--group", help="group for collapsemono, e.g. a,b")
    p.add_argument("--agents", help="agent list for expandmono, e.g. a,b")
    p.add_argument("--mono-kind", default="minus", choices=["minus", "full"])
    p.add_argument("--max-states", type=int)
    p.add_argument("--json", action="store_true")
    loader_flags(p)
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("prove", help="check a Hilbert-style derivation")
    p.add_argument("--logic", required=True,
                   choices=[l.value for l in LogicId])
    p.add_argument("--derivation", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_prove)

    p = sub.add_parser("countermodel", help="search a frame class for a falsifying model")
    p.add_argument("formula")
    p.add_argument("--class", dest="cls", default="all",
                   choices=[c.value for c in FrameClass])
    p.add_argument("--max-states", type=int)
    p.add_argument("--max-candidates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_countermodel)

    p = sub.add_parser("suite", help="run the proposition test battery")
    p.add_argument("--max-states", type=int)
    p.add_argument("--max-agents", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--max-candidates", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_suite)
    return top


def run(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        return ERROR if e.code else OK
    try:
        return args.fn(args)
    except (ParseError, ModelFormatError, PreconditionError, BudgetError,
            ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return ERROR


def main() -> None:  # console entry point
    sys.exit(run())


if __name__ == "__main__":
    main()
