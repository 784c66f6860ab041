"""JSON documents for frames, models and mono structures.

Model document::

    {"agents": ["a", "b"],
     "worlds": ["w0", "w1"],
     "leq": [["w0", "w0"], ["w0", "w1"], ["w1", "w1"]],
     "rel": {"a": [["w0", "w1"]], "b": [], "a,b": []},
     "valuation": {"p": ["w1"]}}

Group keys are comma-joined agent names in canonical order.  ``valuation``
is optional (frame documents omit it).  Mono documents replace ``agents``
and ``rel`` with a single relation ``"r"``.

A relation is a pair list, or a row table ``{"index": [k_0, ...], "rows":
["<hex>", ...]}``: state i has row ``int(rows[index[i]], 16)``, whose bit j
stands for ``worlds[j]``.  The rows are distinct, in order of first
occurrence, in lowercase hex without leading zeros.  The loaders accept
either form for each relation; the writers pick one per document, row
tables when its relations hold more than ``ROW_TABLE_MIN_PAIRS`` pairs in
all, so a constructed model of thousands of states but few distinct rows
stays small.
"""
from __future__ import annotations

import gc
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from .semantics import (
    Frame, Model, MonoStructure, Rel, _table_of, bits, check_frame,
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
    def frame(self) -> Union[Frame, MonoStructure]:
        return self.model.frame

    def state(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ModelFormatError(f"unknown state name {name!r}") from None


def read_json(path: Union[str, Path]):
    """The JSON value in the file at ``path``.  A document nested too deep
    for the parser is a ModelFormatError, like any other bad document."""
    with open(path) as fh:
        text = fh.read()
    # a pair list parses into one young list per pair, and the cyclic
    # collector's passes over millions of them cost several times the
    # parse; they hold no cycles, so the collector is paused for the parse
    enabled = gc.isenabled()
    gc.disable()
    try:
        return json.loads(text)
    except RecursionError:
        raise ModelFormatError("JSON document nested too deeply") from None
    finally:
        if enabled:
            gc.enable()


def _read(source: Source, keys: tuple[str, ...]) -> dict:
    """The document, which must be an object holding each of ``keys``."""
    if isinstance(source, dict):
        doc = source
    else:
        doc = read_json(source)
        if not isinstance(doc, dict):
            raise ModelFormatError("expected a JSON object")
    for key in keys:
        if key not in doc:
            raise ModelFormatError(f"missing key {key!r}")
    return doc


def excerpt(value, show: Callable = repr, limit: int = 80) -> str:
    """``show(value)``, cut to ``limit`` characters for an error line."""
    text = show(value)
    return text if len(text) <= limit else f"{text[:limit]}... ({len(text)} characters)"


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
            raise ModelFormatError(f"{what}: unknown state in pair {excerpt(pair)}") from None
    return Rel(n, tuple(rows))


# canonical lowercase hex; ``int(s, 16)`` alone also takes "0x1f", "1_f", " 1f"
_HEX = re.compile("0|[1-9a-f][0-9a-f]*")


def _table_to_rel(n: int, table: dict, what: str) -> Rel:
    """The relation of a row table, which must be the one the writers give:
    distinct canonical rows with no bit at or past ``n``, and an index of one
    row position per state that takes the rows in order of first occurrence."""
    index, rows = table.get("index"), table.get("rows")
    if len(table) != 2 or not isinstance(index, list) or not isinstance(rows, list):
        raise ModelFormatError(
            f'{what}: expected a row table {{"index": [...], "rows": [...]}}')
    if len(index) != n:
        raise ModelFormatError(f"{what}: index has {len(index)} entries for {n} states")
    heads = []
    for j, h in enumerate(rows):
        if not (isinstance(h, str) and _HEX.fullmatch(h)):
            raise ModelFormatError(
                f"{what}: rows[{j}] is not lowercase hex without leading zeros")
        heads.append(int(h, 16))
        if heads[-1] >> n:
            raise ModelFormatError(f"{what}: rows[{j}] has a bit for no state")
    if len(set(rows)) != len(rows):
        raise ModelFormatError(f"{what}: rows repeat")
    used = 0
    for k in index:
        if type(k) is not int or not 0 <= k < len(rows):  # bool is no index
            raise ModelFormatError(f"{what}: index entry {excerpt(k)} names no row")
        if k == used:
            used += 1
        elif k > used:
            raise ModelFormatError(
                f"{what}: index does not take the rows in order of first occurrence")
    if used != len(rows):
        raise ModelFormatError(f"{what}: rows[{used}] is never used")
    return Rel._from_table(n, heads, list(index))


def _rel(n: int, value, index: dict, bit: dict, what: str) -> Rel:
    """A relation written either way: an object with ``index`` or ``rows``
    is a row table, anything else must be a pair list."""
    if isinstance(value, dict) and ("index" in value or "rows" in value):
        return _table_to_rel(n, value, what)
    return _pairs_to_rel(n, value, index, bit, what)


def _valuation(doc: dict, index: dict) -> dict:
    val_doc = doc.get("valuation", {})
    if not isinstance(val_doc, dict):
        raise ModelFormatError("valuation: expected an object from atoms to state lists")
    val = {}
    for atom, states in val_doc.items():
        if not isinstance(states, _COLLECTIONS):
            raise ModelFormatError(f"valuation of {excerpt(atom)}: expected a list of states")
        for s in states:
            if not _known(s, index):
                raise ModelFormatError(
                    f"valuation of {excerpt(atom)}: unknown state {excerpt(s)}")
        val[atom] = {index[s] for s in states}
    return val


def _carrier(doc: dict, close_leq: bool) -> tuple:
    """The state names, each name's position and bit, and the preorder."""
    names, index, bit = _worlds(doc)
    leq = _rel(len(names), doc["leq"], index, bit, "leq")
    return names, index, bit, leq.rt_closure() if close_leq else leq


def _model_doc(structure: Union[Frame, MonoStructure], doc: dict,
               names: tuple, index: dict) -> ModelDoc:
    """The loaded document: ``structure`` under the document's valuation."""
    val = _valuation(doc, index)
    try:
        model = Model.make(structure, val)
    except ValueError as e:
        raise ModelFormatError(str(e)) from None
    return ModelDoc(model, names)


def load_model(source: Source, close_leq: bool = False,
               complete_by_intersection: bool = False) -> ModelDoc:
    """Load a frame or model document.

    ``close_leq`` replaces the given order with its reflexive-transitive
    closure.  ``complete_by_intersection`` derives every non-singleton group
    relation as the intersection of its members' singleton relations (the
    result is a standard frame); the document must then list singleton keys
    only.  Valuations that are not closed under the preorder are rejected.
    """
    doc = _read(source, ("agents", "worlds", "leq", "rel"))
    try:
        agents = AgentSet(tuple(doc["agents"]))
    except (TypeError, ValueError) as e:  # not a list, or a name not a string
        raise ModelFormatError(f"bad agents: {excerpt(e, str)}") from None
    names, index, bit, leq = _carrier(doc, close_leq)
    n = len(names)

    rel_doc = doc["rel"]
    if not isinstance(rel_doc, dict):
        raise ModelFormatError("rel: expected an object from group keys to relations")
    seen: dict[Group, Rel] = {}
    for key, value in rel_doc.items():
        members = key.split(",")
        try:
            group = agents.group(*members)
        except (KeyError, ValueError) as e:
            raise ModelFormatError(f"bad group key {excerpt(key)}: {excerpt(e, str)}") from None
        if group in seen:
            raise ModelFormatError(f"duplicate group key {excerpt(key)}")
        seen[group] = _rel(n, value, index, bit, f"rel[{key}]")

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
    return _model_doc(frame, doc, names, index)


def load_mono(source: Source, close_leq: bool = False) -> ModelDoc:
    """Load a mono document: ``"r"`` in place of ``"agents"`` and ``"rel"``."""
    doc = _read(source, ("worlds", "leq", "r"))
    names, index, bit, leq = _carrier(doc, close_leq)
    if not (leq.is_reflexive() and leq.is_transitive()):
        raise ModelFormatError("leq is not a preorder")
    r = _rel(len(names), doc["r"], index, bit, "r")
    return _model_doc(MonoStructure(len(names), leq, r), doc, names, index)


# ---------- writing ----------

# A document whose relations hold more pairs than this in all writes each
# relation as a row table; smaller ones keep their pair lists.  Every
# document the tests pin and every witness stays below it (the 64-state
# standardization has 4,864 pairs); the constructions' large outputs, such
# as the 972-state partition lift with about 1.0 M pairs, go above.
ROW_TABLE_MIN_PAIRS = 1 << 16


def _val_names(val: tuple, names) -> dict:
    return {atom: [names[i] for i in bits(mask)] for atom, mask in val}


def _encoder(rels: list, names) -> Callable[[Rel], object]:
    """How one document writes its relations, chosen from the pairs they
    hold in all."""
    if sum(r.bit_count() for rel in rels for r in rel.rows) > ROW_TABLE_MIN_PAIRS:
        return _row_table_doc
    return lambda rel: [[names[i], names[j]] for i, j in rel.pairs()]


def _row_table_doc(rel: Rel) -> dict:
    """The row table of ``rel``: its distinct rows in order of first
    occurrence, and each state's position among them."""
    heads, index = _table_of(rel.rows)
    return {"index": index, "rows": [format(h, "x") for h in heads]}


def model_to_doc(model: Model, names: Optional[tuple[str, ...]] = None) -> dict:
    """The model's document; a model on a ``MonoStructure`` writes ``"r"``
    in place of ``"agents"`` and ``"rel"``."""
    frame = model.frame
    if names is None:
        names = default_names(frame.n)
    mono = isinstance(frame, MonoStructure)
    enc = _encoder([frame.leq, *((frame.r,) if mono else frame.rels)], names)
    doc = {"worlds": list(names), "leq": enc(frame.leq),
           "valuation": _val_names(model.val, names)}
    if mono:
        doc["r"] = enc(frame.r)
    else:
        doc["agents"] = list(frame.agents.names)
        doc["rel"] = {frame.agents.key(g): enc(frame.r(g))
                      for g in frame.agents.groups()}
    return doc


def save_model(model: Model, path: Union[str, Path],
               names: Optional[tuple[str, ...]] = None) -> None:
    doc = model_to_doc(model, names)
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
