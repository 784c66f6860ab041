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
        doc = json.load(fh)
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


def _world_names(doc: dict) -> tuple:
    names = doc["worlds"]
    try:
        ok = isinstance(names, (list, tuple)) and 0 < len(set(names)) == len(names)
    except TypeError:  # an unhashable name
        ok = False
    if not ok:
        raise ModelFormatError("worlds must be a nonempty list of distinct names")
    return tuple(names)


def _pairs_to_rel(n: int, pairs, index: dict, what: str) -> Rel:
    if not isinstance(pairs, _COLLECTIONS):
        raise ModelFormatError(f"{what}: expected a list of [from, to] pairs")
    out = []
    for pair in pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ModelFormatError(f"{what}: expected [from, to] pairs")
        a, b = pair
        if not (_known(a, index) and _known(b, index)):
            raise ModelFormatError(f"{what}: unknown state in pair {pair!r}")
        out.append((index[a], index[b]))
    return Rel.from_pairs(n, out)


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
    names = _world_names(doc)
    n = len(names)
    index = {nm: i for i, nm in enumerate(names)}

    leq = _pairs_to_rel(n, doc["leq"], index, "leq")
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
        seen[group] = _pairs_to_rel(n, pairs, index, f"rel[{key}]")

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


def _rel_pairs(rel: Rel, names: tuple[str, ...]) -> list:
    return [[names[i], names[j]] for i, j in rel.pairs()]


def model_to_doc(model: Model, names: Optional[tuple[str, ...]] = None) -> dict:
    frame = model.frame
    if names is None:
        names = default_names(frame.n)
    rel = {frame.agents.key(g): _rel_pairs(frame.r(g), names)
           for g in frame.agents.groups()}
    doc = {
        "agents": list(frame.agents.names),
        "worlds": list(names),
        "leq": _rel_pairs(frame.leq, names),
        "rel": rel,
        "valuation": {atom: [names[i] for i in bits(mask)]
                      for atom, mask in model.val},
    }
    return doc


def save_model(model: Model, path: Union[str, Path],
               names: Optional[tuple[str, ...]] = None) -> None:
    with open(path, "w") as fh:
        json.dump(model_to_doc(model, names), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_mono(source: Source, close_leq: bool = False) -> tuple[MonoModel, tuple[str, ...]]:
    doc = _read(source)
    for key in ("worlds", "leq", "r"):
        if key not in doc:
            raise ModelFormatError(f"missing key {key!r}")
    names = _world_names(doc)
    n = len(names)
    index = {nm: i for i, nm in enumerate(names)}
    leq = _pairs_to_rel(n, doc["leq"], index, "leq")
    if close_leq:
        leq = leq.rt_closure()
    if not (leq.is_reflexive() and leq.is_transitive()):
        raise ModelFormatError("leq is not a preorder")
    r = _pairs_to_rel(n, doc["r"], index, "r")
    val = _valuation(doc, index)
    try:
        mm = MonoModel.make(MonoStructure(n, leq, r), val)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None
    return mm, names


def mono_to_doc(mm: MonoModel, names: Optional[tuple[str, ...]] = None) -> dict:
    st = mm.structure
    if names is None:
        names = default_names(st.n)
    return {
        "worlds": list(names),
        "leq": _rel_pairs(st.leq, names),
        "r": _rel_pairs(st.r, names),
        "valuation": {atom: [names[i] for i in bits(mask)]
                      for atom, mask in mm.val},
    }


def save_mono(mm: MonoModel, path: Union[str, Path],
              names: Optional[tuple[str, ...]] = None) -> None:
    with open(path, "w") as fh:
        json.dump(mono_to_doc(mm, names), fh, indent=2, sort_keys=True)
        fh.write("\n")
