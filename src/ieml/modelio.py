"""JSON documents for frames, models and mono structures.

Model document::

    {"agents": ["a", "b"],
     "worlds": ["w0", "w1"],
     "leq": [["w0", "w0"], ["w0", "w1"], ["w1", "w1"]],
     "rel": {"a": [["w0", "w1"]], "b": [], "a,b": []},
     "valuation": {"p": ["w1"]}}

Group keys are comma-joined agent names in canonical order.  ``valuation``
is optional (frame documents omit it).  Mono documents replace ``agents``
and ``rel`` with a single pair list ``"r"``.
"""
from __future__ import annotations

import gc
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from .semantics import (
    Frame, Model, MonoModel, MonoStructure, Rel, bits, check_frame,
)
from .syntax import AgentSet, Group

Source = Union[str, Path, dict]


class ModelFormatError(ValueError):
    pass


def default_names(n: int) -> tuple[str, ...]:
    return tuple(f"w{i}" for i in range(n))


@dataclass(frozen=True)
class ModelDoc:
    model: Model
    names: tuple[str, ...]

    @property
    def frame(self) -> Frame:
        return self.model.frame

    def state(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ModelFormatError(f"unknown state name {name!r}") from None


def _read(source: Source) -> dict:
    if isinstance(source, dict):
        return source
    with open(source) as fh:
        text = fh.read()
    # a pair list parses into one young list per pair, and the cyclic
    # collector's passes over millions of them cost several times the parse;
    # they hold no cycles, so the collector is paused for the parse
    enabled = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(text)
    finally:
        if enabled:
            gc.enable()
    if not isinstance(doc, dict):
        raise ModelFormatError("expected a JSON object")
    return doc


# containers accepted for pair lists and valuation state lists; a document
# read from JSON has lists, Python callers may pass the others
_COLLECTIONS = (list, tuple, set, frozenset)


def _known(name, index: dict) -> bool:
    try:
        return name in index
    except TypeError:  # unhashable, e.g. a JSON array or object
        return False


def _worlds(doc: dict) -> tuple:
    """The state names, each name's position and each name's bit."""
    names = doc["worlds"]
    try:
        ok = isinstance(names, (list, tuple)) and 0 < len(set(names)) == len(names)
    except TypeError:  # an unhashable name
        ok = False
    if not ok:
        raise ModelFormatError("worlds must be a nonempty list of distinct names")
    index = {nm: i for i, nm in enumerate(names)}
    return tuple(names), index, {nm: 1 << i for i, nm in enumerate(names)}


def _pairs_to_rel(n: int, pairs, index: dict, bit: dict, what: str) -> Rel:
    """The relation of a pair list, read in one pass: ``index`` maps each
    state name to its position and ``bit`` to ``1 << position``."""
    if not isinstance(pairs, _COLLECTIONS):
        raise ModelFormatError(f"{what}: expected a list of [from, to] pairs")
    rows = [0] * n
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ModelFormatError(f"{what}: expected [from, to] pairs")
        a, b = pair
        try:
            rows[index[a]] |= bit[b]
        except (KeyError, TypeError):  # unknown, or unhashable like a JSON array
            raise ModelFormatError(f"{what}: unknown state in pair {pair!r}") from None
    return Rel(n, tuple(rows))


def _valuation(doc: dict, index: dict) -> dict:
    val_doc = doc.get("valuation", {})
    if not isinstance(val_doc, dict):
        raise ModelFormatError("valuation: expected an object from atoms to state lists")
    val = {}
    for atom, states in val_doc.items():
        if not isinstance(states, _COLLECTIONS):
            raise ModelFormatError(f"valuation of {atom!r}: expected a list of states")
        for s in states:
            if not _known(s, index):
                raise ModelFormatError(f"valuation of {atom!r}: unknown state {s!r}")
        val[atom] = {index[s] for s in states}
    return val


def load_model(source: Source, close_leq: bool = False,
               complete_by_intersection: bool = False) -> ModelDoc:
    """Load a frame or model document.

    ``close_leq`` replaces the given order with its reflexive-transitive
    closure.  ``complete_by_intersection`` derives every non-singleton group
    relation as the intersection of its members' singleton relations (the
    result is a standard frame); the document must then list singleton keys
    only.  Valuations that are not closed under the preorder are rejected.
    """
    doc = _read(source)
    for key in ("agents", "worlds", "leq", "rel"):
        if key not in doc:
            raise ModelFormatError(f"missing key {key!r}")
    try:
        agents = AgentSet(tuple(doc["agents"]))
    except (TypeError, ValueError) as e:  # not a list, or a name not a string
        raise ModelFormatError(f"bad agents: {e}") from None
    names, index, bit = _worlds(doc)
    n = len(names)

    leq = _pairs_to_rel(n, doc["leq"], index, bit, "leq")
    if close_leq:
        leq = leq.rt_closure()

    rel_doc = doc["rel"]
    if not isinstance(rel_doc, dict):
        raise ModelFormatError("rel: expected an object from group keys to pair lists")
    seen: dict[Group, Rel] = {}
    for key, pairs in rel_doc.items():
        members = key.split(",")
        try:
            group = agents.group(*members)
        except (KeyError, ValueError) as e:
            raise ModelFormatError(f"bad group key {key!r}: {e}") from None
        if group in seen:
            raise ModelFormatError(f"duplicate group key {key!r}")
        seen[group] = _pairs_to_rel(n, pairs, index, bit, f"rel[{key}]")

    if complete_by_intersection:
        for g in seen:
            if len(g) > 1:
                raise ModelFormatError(
                    "complete_by_intersection expects singleton group keys only")
        rel = {}
        for g in agents.groups():
            parts = []
            for a in sorted(g):
                single = frozenset({a})
                if single not in seen:
                    raise ModelFormatError(f"missing singleton relation for agent {a!r}")
                parts.append(seen[single])
            acc = parts[0]
            for p in parts[1:]:
                acc = acc & p
            rel[g] = acc
    else:
        rel = seen
        for g in agents.groups():
            if g not in rel:
                raise ModelFormatError(
                    f"missing relation for group {{{agents.key(g)}}}")

    frame = Frame.make(agents, n, leq, rel)
    report = check_frame(frame)
    if not report.ok:
        raise ModelFormatError("; ".join(report.problems))

    val = _valuation(doc, index)
    try:
        model = Model.make(frame, val)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None
    return ModelDoc(model, names)


# ---------- writing ----------
#
# One layout per document kind: ``_model_parts``/``_mono_parts`` give the
# document with each relation still a ``Rel``.  ``*_to_doc`` turns the
# relations into pair lists; ``save_*`` writes the same text as
# ``json.dump(doc, indent=2, sort_keys=True)`` plus a newline, one state's
# pairs at a time, so memory follows one state's text, not the document.

def _val_names(val: tuple, names) -> dict:
    return {atom: [names[i] for i in bits(mask)] for atom, mask in val}


def _model_parts(model: Model, names: Optional[tuple]) -> dict:
    frame = model.frame
    if names is None:
        names = default_names(frame.n)
    return {
        "agents": list(frame.agents.names),
        "worlds": list(names),
        "leq": frame.leq,
        "rel": {frame.agents.key(g): frame.r(g) for g in frame.agents.groups()},
        "valuation": _val_names(model.val, names),
    }


def _mono_parts(mm: MonoModel, names: Optional[tuple]) -> dict:
    st = mm.structure
    if names is None:
        names = default_names(st.n)
    return {
        "worlds": list(names),
        "leq": st.leq,
        "r": st.r,
        "valuation": _val_names(mm.val, names),
    }


def _plain(value, names: list):
    """``value`` with every ``Rel`` replaced by its pair list."""
    if isinstance(value, Rel):
        return [[names[i], names[j]] for i, j in value.pairs()]
    if isinstance(value, dict):
        return {k: _plain(v, names) for k, v in value.items()}
    return value


def _write_json(fh, value, names: list, depth: int, cache: dict) -> None:
    """Write ``value`` at nesting ``depth`` as ``json.dump`` with
    ``indent=2, sort_keys=True`` would write ``_plain(value, names)``."""
    pad = "\n" + "  " * depth
    if isinstance(value, Rel):
        _write_pairs(fh, value, names, depth, cache)
    elif isinstance(value, dict) and any(isinstance(v, Rel) for v in value.values()):
        fh.write("{")
        for k, key in enumerate(sorted(value)):
            fh.write(f"{',' if k else ''}{pad}  {json.dumps(key)}: ")
            _write_json(fh, value[key], names, depth + 1, cache)
        fh.write(pad + "}")
    else:
        fh.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", pad))


def _write_pairs(fh, rel: Rel, names: list, depth: int, cache: dict) -> None:
    """A relation's pair list: each state name is encoded once per depth,
    each distinct row's list of closing texts built once, and each state's
    pairs written with one join."""
    texts = cache.get(depth)
    if texts is None:
        outer, inner = "\n" + "  " * (depth + 1), "\n" + "  " * (depth + 2)
        encoded = [json.dumps(nm, indent=2, sort_keys=True).replace("\n", inner)
                   for nm in names]
        texts = cache[depth] = ([f"{outer}[{inner}{e},{inner}" for e in encoded],
                                [f"{e}{outer}]" for e in encoded])
    opens, closes = texts
    heads, index = rel._row_table()
    ends: list = [None] * len(heads)
    fh.write("[")
    sep = ""
    for i, c in enumerate(index):
        if not heads[c]:
            continue
        if ends[c] is None:
            ends[c] = [closes[j] for j in bits(heads[c])]
        fh.write(sep + opens[i] + ("," + opens[i]).join(ends[c]))
        sep = ","
    fh.write("\n" + "  " * depth + "]" if sep else "]")


def _save(parts: dict, path: Union[str, Path]) -> None:
    with open(path, "w") as fh:
        _write_json(fh, parts, parts["worlds"], 0, {})
        fh.write("\n")


def model_to_doc(model: Model, names: Optional[tuple[str, ...]] = None) -> dict:
    parts = _model_parts(model, names)
    return _plain(parts, parts["worlds"])


def save_model(model: Model, path: Union[str, Path],
               names: Optional[tuple[str, ...]] = None) -> None:
    _save(_model_parts(model, names), path)


def load_mono(source: Source, close_leq: bool = False) -> tuple[MonoModel, tuple[str, ...]]:
    doc = _read(source)
    for key in ("worlds", "leq", "r"):
        if key not in doc:
            raise ModelFormatError(f"missing key {key!r}")
    names, index, bit = _worlds(doc)
    n = len(names)
    leq = _pairs_to_rel(n, doc["leq"], index, bit, "leq")
    if close_leq:
        leq = leq.rt_closure()
    if not (leq.is_reflexive() and leq.is_transitive()):
        raise ModelFormatError("leq is not a preorder")
    r = _pairs_to_rel(n, doc["r"], index, bit, "r")
    val = _valuation(doc, index)
    try:
        mm = MonoModel.make(MonoStructure(n, leq, r), val)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None
    return mm, names


def mono_to_doc(mm: MonoModel, names: Optional[tuple[str, ...]] = None) -> dict:
    parts = _mono_parts(mm, names)
    return _plain(parts, parts["worlds"])


def save_mono(mm: MonoModel, path: Union[str, Path],
              names: Optional[tuple[str, ...]] = None) -> None:
    _save(_mono_parts(mm, names), path)
