import gc
import hashlib
import json

import pytest

from ieml import (
    AgentSet, Frame, FrameClass, Model, ModelFormatError, MonoStructure, Rel,
    collapse_mono, has_class, load_model, load_mono, model_to_doc, parse,
    satisfies, save_model,
)
from ieml.cli import run
from ieml.modelio import ROW_TABLE_MIN_PAIRS, default_names


def base_doc():
    return {
        "agents": ["a", "b"],
        "worlds": ["w0", "w1"],
        "leq": [["w0", "w0"], ["w1", "w1"], ["w0", "w1"]],
        "rel": {"a": [["w1", "w1"]], "b": [], "a,b": []},
        "valuation": {"p": ["w1"]},
    }


def test_load_model_happy_path():
    doc = load_model(base_doc())
    assert doc.frame.n == 2
    assert doc.state("w1") == 1
    assert satisfies(doc.model, 1, parse("p"))
    assert doc.frame.r(frozenset({"a"})).has(1, 1)


def test_close_leq_option():
    raw = base_doc()
    raw["leq"] = [["w0", "w1"]]
    with pytest.raises(ModelFormatError, match="reflexive"):
        load_model(raw)
    doc = load_model(raw, close_leq=True)
    assert doc.frame.leq == Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)])


def test_complete_by_intersection():
    raw = base_doc()
    raw["rel"] = {"a": [["w0", "w1"], ["w1", "w1"]], "b": [["w1", "w1"]]}
    doc = load_model(raw, complete_by_intersection=True)
    assert doc.frame.r(frozenset({"a", "b"})) == Rel.from_pairs(2, [(1, 1)])
    assert has_class(doc.frame, FrameClass.STANDARD)


def test_complete_by_intersection_rejects_pair_keys():
    raw = base_doc()
    with pytest.raises(ModelFormatError, match="singleton"):
        load_model(raw, complete_by_intersection=True)


def test_loader_rejections():
    raw = base_doc()
    raw["valuation"] = {"p": ["w0"]}  # not an up-set
    with pytest.raises(ModelFormatError, match="closed"):
        load_model(raw)

    raw = base_doc()
    del raw["rel"]["a,b"]
    with pytest.raises(ModelFormatError, match="missing relation"):
        load_model(raw)

    raw = base_doc()
    raw["rel"]["b,a"] = []
    with pytest.raises(ModelFormatError, match="duplicate"):
        load_model(raw)

    raw = base_doc()
    raw["leq"].append(["w0", "w9"])
    with pytest.raises(ModelFormatError, match="unknown state"):
        load_model(raw)

    raw = base_doc()
    raw["rel"]["c"] = []
    with pytest.raises(ModelFormatError, match="bad group key"):
        load_model(raw)

    raw = base_doc()
    raw["worlds"] = []
    with pytest.raises(ModelFormatError):
        load_model(raw)


def test_document_must_be_an_object(tmp_path):
    path = tmp_path / "number.json"
    path.write_text("5")
    with pytest.raises(ModelFormatError, match="JSON object"):
        load_model(path)
    with pytest.raises(ModelFormatError, match="JSON object"):
        load_mono(path)


@pytest.mark.parametrize("enabled", [True, False])
def test_loading_a_file_leaves_the_collector_as_found(tmp_path, monkeypatch, enabled):
    model, mono, bad = tmp_path / "m.json", tmp_path / "mono.json", tmp_path / "bad.json"
    model.write_text(json.dumps(base_doc()))
    mono.write_text(json.dumps({"worlds": ["s"], "leq": [["s", "s"]], "r": []}))
    bad.write_text('{"agents": [')
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert load_model(model).frame.n == 2 and gc.isenabled() == enabled
        assert load_mono(mono).frame.n == 1 and gc.isenabled() == enabled
        for load in (load_model, load_mono):
            with pytest.raises(ValueError):
                load(bad)
            assert gc.isenabled() == enabled
        assert run(["classify", "--frame", str(bad)]) == 2
        assert gc.isenabled() == enabled
    finally:
        (gc.enable if was else gc.disable)()
    # a document passed as a dict never reaches the collector
    touched = []
    monkeypatch.setattr(gc, "disable", lambda: touched.append("disable"))
    monkeypatch.setattr(gc, "enable", lambda: touched.append("enable"))
    load_model(base_doc())
    load_mono({"worlds": ["s"], "leq": [["s", "s"]], "r": []})
    assert touched == []
    load_model(model)
    assert "disable" in touched


def test_group_keys_normalized_on_load():
    raw = base_doc()
    raw["rel"] = {"a": [], "b": [], "b,a": [["w0", "w1"]]}
    doc = load_model(raw)
    assert doc.frame.r(frozenset({"a", "b"})).has(0, 1)


def test_roundtrip_save_load(tmp_path):
    doc = load_model(base_doc())
    path = tmp_path / "m.json"
    save_model(doc.model, path, doc.names)
    again = load_model(path)
    assert again.model == doc.model and again.names == doc.names
    # canonical group keys on write
    written = json.loads(path.read_text())
    assert set(written["rel"]) == {"a", "b", "a,b"}


def test_frame_document_without_valuation():
    raw = base_doc()
    del raw["valuation"]
    doc = load_model(raw)
    assert doc.model.val == ()


def test_mono_roundtrip(tmp_path):
    st = MonoStructure(2, Rel.from_pairs(2, [(0, 0), (1, 1), (0, 1)]),
                       Rel.from_pairs(2, [(0, 1), (1, 1)]))
    mm = Model.make(st, {"p": {1}})
    doc = model_to_doc(mm, ("s", "t"))
    assert doc["r"] == [["s", "t"], ["t", "t"]]
    assert "agents" not in doc and "rel" not in doc
    back = load_mono(doc)
    assert back.model == mm and back.names == ("s", "t")
    assert back.frame is back.model.frame


def test_mono_loader_rejects_non_preorder():
    doc = {"worlds": ["s", "t"], "leq": [["s", "t"]], "r": []}
    with pytest.raises(ModelFormatError, match="preorder"):
        load_mono(doc)
    assert load_mono(doc, close_leq=True).frame.leq.is_reflexive()


def test_default_names():
    assert default_names(3) == ("w0", "w1", "w2")


# ---------- the saved text ----------

def _canonical(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# world names a JSON document may hold besides plain strings
ODD_WORLDS = [0, 2.5, None, "é", "q\"\\\n\t ", -7, "w0"]


def _odd_doc():
    w = ODD_WORLDS
    chain = [[w[0], w[1]], [w[1], w[2]], [w[0], w[2]]]
    return {
        "agents": ["a", "b"],
        "worlds": w,
        "leq": [[x, x] for x in w] + chain,
        "rel": {"a": [[w[3], w[4]], [w[6], w[0]], [w[4], w[4]]],
                "b": [[x, y] for x in w for y in w[2:5]],
                "a,b": []},
        "valuation": {"p": [w[2]], "é\"": [w[1], w[2], w[5]]},
    }


def _saved_models():
    """(model, names) pairs covering the writer's cases."""
    yield Model.make(Frame.make(AgentSet.of("a"), 2, Rel.identity(2),
                                {frozenset({"a"}): Rel.empty(2)}), {}), None
    chain = Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    one = Frame.make(AgentSet.of("a"), 3, chain,
                     {frozenset({"a"}): Rel.from_pairs(3, [(0, 2), (2, 2), (1, 0)])})
    yield Model.make(one, {"p": {2}, "q": {1, 2}}), ("x", "y", "z")
    ag3 = AgentSet.of("a", "b", "c")
    rels = {g: Rel.from_mask(3, 0x1f3 ^ (7 * i)) for i, g in enumerate(ag3.groups())}
    yield Model.make(Frame.make(ag3, 3, chain, rels), {"p": {2}}), None
    doc = load_model(_odd_doc())
    yield doc.model, doc.names
    # Python callers may pass names JSON writes as nested arrays
    yield doc.model, tuple((i, str(nm)) for i, nm in enumerate(doc.names))


@pytest.mark.parametrize("case", range(5))
def test_save_model_writes_canonical_json(tmp_path, case):
    model, names = list(_saved_models())[case]
    path = tmp_path / "m.json"
    save_model(model, path, names)
    assert path.read_text() == _canonical(model_to_doc(model, names))


def test_saved_odd_names_round_trip(tmp_path):
    doc = load_model(_odd_doc())
    path = tmp_path / "m.json"
    save_model(doc.model, path, doc.names)
    again = load_model(path)
    assert again.model == doc.model and again.names == tuple(ODD_WORLDS)


def test_save_mono_writes_canonical_json(tmp_path):
    st = MonoStructure(2, Rel.identity(2), Rel.empty(2))
    w = ODD_WORLDS
    odd = {"worlds": w, "leq": [[x, x] for x in w] + [[w[0], w[1]]],
           "r": [[w[3], w[4]], [w[6], w[0]], [None, 2.5]],
           "valuation": {"p": [w[1]], "é\"": []}}
    odd_doc = load_mono(odd)
    cases = [(Model.make(st, {}), None),
             (odd_doc.model, tuple((i,) for i in range(len(w)))),
             (odd_doc.model, odd_doc.names)]
    for mm, names in cases:
        path = tmp_path / "mono.json"
        save_model(mm, path, names)
        assert path.read_text() == _canonical(model_to_doc(mm, names))
    assert load_mono(path) == odd_doc
    assert odd_doc.names == tuple(w)


def test_saved_mono_document_is_pinned(tmp_path):
    # collapse_mono's output of a fixed doxastic model, written with names;
    # the text is the one the mono writer gave before it was merged into
    # save_model
    chain = Rel.from_pairs(3, [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)])
    ag = AgentSet.of("a", "b")
    frame = Frame.make(ag, 3, chain, {
        frozenset("a"): Rel.from_pairs(3, [(0, 1), (1, 2), (2, 2)]),
        frozenset("b"): Rel.from_pairs(3, [(1, 1), (0, 2)]),
        frozenset("ab"): Rel.empty(3)})
    model = Model.make(frame, {"p": {2}, "q": {1, 2}})
    result = collapse_mono(model, frozenset("a"), "minus", src_names=("x", "y", "z"))
    path = tmp_path / "mono.json"
    save_model(result.model, path, result.names)
    text = path.read_text()
    assert json.loads(text) == {
        "worlds": ["x", "y", "z"],
        "leq": [["x", "x"], ["x", "y"], ["x", "z"], ["y", "y"], ["y", "z"],
                ["z", "z"]],
        "r": [["x", "y"], ["x", "z"], ["y", "z"], ["z", "z"]],
        "valuation": {"p": ["z"], "q": ["y", "z"]}}
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "d58ddc8ad9f6da45ab942ce772e79d2117b8714ecad28e2a65c17ee1c04b430f"


# ---------- loader error messages ----------

BAD_PAIR_LISTS = [
    (["ab"], "expected [from, to] pairs"),  # a 2-character string is no pair
    (["w0", "w0"], "expected [from, to] pairs"),
    ([["w0", "w0", "w0"]], "expected [from, to] pairs"),
    ([[["w0"], "w0"]], "unknown state in pair [['w0'], 'w0']"),
    ([["w0", "w9"]], "unknown state in pair ['w0', 'w9']"),
    ({"w0": "w0"}, "expected a list of [from, to] pairs"),
    (5, "expected a list of [from, to] pairs"),
    ("ab", "expected a list of [from, to] pairs"),
]


@pytest.mark.parametrize("pairs,message", BAD_PAIR_LISTS)
def test_pair_list_errors(pairs, message):
    def fails(load, doc, what):
        with pytest.raises(ModelFormatError) as info:
            load(doc)
        assert str(info.value) == f"{what}: {message}"

    raw = {"agents": ["a"], "worlds": ["w0", "w1"], "leq": pairs, "rel": {"a": []}}
    fails(load_model, raw, "leq")
    raw = {"agents": ["a"], "worlds": ["w0", "w1"],
           "leq": [["w0", "w0"], ["w1", "w1"]], "rel": {"a": pairs}}
    fails(load_model, raw, "rel[a]")
    raw = {"worlds": ["w0", "w1"], "leq": [["w0", "w0"], ["w1", "w1"]], "r": pairs}
    fails(load_mono, raw, "r")


# ---------- row tables ----------

def _table_docs(table):
    """A model document and a mono document on three states whose ``rel.a``
    and ``r`` are ``table``."""
    worlds = ["w0", "w1", "w2"]
    leq = [[w, w] for w in worlds]
    return ({"agents": ["a"], "worlds": worlds, "leq": leq, "rel": {"a": table}},
            {"worlds": worlds, "leq": leq, "r": table})


NOT_HEX = "rows[0] is not lowercase hex without leading zeros"
NOT_TABLE = 'expected a row table {"index": [...], "rows": [...]}'
BAD_ROW_TABLES = [
    ({"index": [0, 0, 0], "rows": ["g"]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": ["0x1"]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": ["+1"]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": ["1_0"]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": [" 1"]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": ["1\n"]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": ["A"]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": ["01"]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": [""]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": [7]}, NOT_HEX),
    ({"index": [0, 0, 0], "rows": ["8"]}, "rows[0] has a bit for no state"),
    ({"index": [0, 0], "rows": ["1"]}, "index has 2 entries for 3 states"),
    ({"index": [0, 0, 0, 0], "rows": ["1"]}, "index has 4 entries for 3 states"),
    ({"index": [0, 1, 0], "rows": ["1"]}, "index entry 1 names no row"),
    ({"index": [0, -1, 0], "rows": ["1"]}, "index entry -1 names no row"),
    ({"index": [0, True, 0], "rows": ["1", "2"]}, "index entry True names no row"),
    ({"index": [0, 1.0, 0], "rows": ["1", "2"]}, "index entry 1.0 names no row"),
    ({"index": [0, "1", 0], "rows": ["1", "2"]}, "index entry '1' names no row"),
    ({"index": [1, 0, 0], "rows": ["1", "2"]},
     "index does not take the rows in order of first occurrence"),
    ({"index": [0, 0, 0], "rows": ["1", "2"]}, "rows[1] is never used"),
    ({"index": [0, 1, 1], "rows": ["1", "1"]}, "rows repeat"),
    ({"index": "000", "rows": ["1"]}, NOT_TABLE),
    ({"index": [0, 0, 0], "rows": "1"}, NOT_TABLE),
    ({"index": [0, 0, 0], "rows": {"0": "1"}}, NOT_TABLE),
    ({"index": [0, 0, 0]}, NOT_TABLE),
    ({"index": [0, 0, 0], "rows": ["1"], "n": 3}, NOT_TABLE),
]


@pytest.mark.parametrize("table,message", BAD_ROW_TABLES)
def test_row_table_errors(tmp_path, capsys, table, message):
    model_doc, mono_doc = _table_docs(table)
    for load, doc, what in ((load_model, model_doc, "rel[a]"), (load_mono, mono_doc, "r")):
        with pytest.raises(ModelFormatError) as info:
            load(doc)
        assert str(info.value) == f"{what}: {message}"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(model_doc))
    assert run(["classify", "--frame", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: rel[a]: ") and "Traceback" not in err


def test_row_table_reads_bit_j_as_worlds_j():
    model_doc, mono_doc = _table_docs({"index": [0, 1, 1], "rows": ["6", "0"]})
    want = Rel.from_pairs(3, [(0, 1), (0, 2)])
    assert load_model(model_doc).frame.r(frozenset({"a"})) == want
    assert load_mono(mono_doc).frame.r == want


def _sized(pairs: int):
    """A one-agent model and a mono model on 300 states whose relations
    hold ``pairs`` pairs in all: the identity order, and a relation of full
    rows, one partial row and empty rows."""
    n = 300
    full, rest = divmod(pairs - n, n)
    rows = tuple((1 << n) - 1 if i < full else (1 << rest) - 1 if i == full else 0
                 for i in range(n))
    leq, r = Rel.identity(n), Rel(n, rows)
    frame = Frame.make(AgentSet.of("a"), n, leq, {frozenset({"a"}): r})
    return Model.make(frame, {"p": {0, 7}}), Model.make(MonoStructure(n, leq, r), {"p": {5}})


@pytest.mark.parametrize("pairs", [ROW_TABLE_MIN_PAIRS, ROW_TABLE_MIN_PAIRS + 1])
def test_round_trip_on_both_sides_of_the_threshold(tmp_path, pairs):
    model, mono = _sized(pairs)
    path = tmp_path / "m.json"
    save_model(model, path)
    written = json.loads(path.read_text())
    doc = load_model(path)
    assert doc.model == model and doc.names == default_names(300)
    save_model(mono, path)
    mono_doc = load_mono(path)
    assert mono_doc.model == mono and mono_doc.names == default_names(300)
    mono_written = json.loads(path.read_text())
    if pairs <= ROW_TABLE_MIN_PAIRS:
        assert isinstance(written["leq"], list) and isinstance(mono_written["r"], list)
        return
    full, rest = divmod(pairs - 300, 300)
    table = {"index": [0] * full + [1] + [2] * (299 - full),
             "rows": [format((1 << 300) - 1, "x"), format((1 << rest) - 1, "x"), "0"]}
    assert written["rel"]["a"] == mono_written["r"] == table
    assert written["leq"] == {"index": list(range(300)),
                              "rows": [format(1 << i, "x") for i in range(300)]}
    # loaded relations keep their row tables, for the class passes
    assert all("_table" in r.__dict__ for r in (doc.frame.leq, *doc.frame.rels))


def test_row_tables_and_pair_lists_load_equal():
    model, mono = _sized(ROW_TABLE_MIN_PAIRS + 1)
    rows_doc = model_to_doc(model)
    names = rows_doc["worlds"]

    def pairs(rel):
        return [[names[i], names[j]] for i, j in rel.pairs()]

    pair_doc = dict(rows_doc, leq=pairs(model.frame.leq),
                    rel={"a": pairs(model.frame.rels[0])})
    mixed = dict(rows_doc, leq=pair_doc["leq"])
    assert isinstance(rows_doc["rel"]["a"], dict)
    assert load_model(pair_doc) == load_model(rows_doc) == load_model(mixed)
    mono_rows = model_to_doc(mono)
    mono_mixed = dict(mono_rows, r=pairs(mono.frame.r))
    mono_doc = load_mono(mono_rows)
    assert load_mono(mono_mixed) == mono_doc
    assert mono_doc.model == mono and mono_doc.names == tuple(names)
