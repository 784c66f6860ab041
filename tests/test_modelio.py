import json

import pytest

from ieml import (
    AgentSet, Frame, FrameClass, Model, ModelFormatError, Rel, has_class,
    load_model, load_mono, model_to_doc, mono_to_doc, parse, satisfies,
    save_model,
)
from ieml.modelio import default_names
from ieml.semantics import MonoModel, MonoStructure


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
    mm = MonoModel.make(st, {"p": {1}})
    doc = mono_to_doc(mm, ("s", "t"))
    assert doc["r"] == [["s", "t"], ["t", "t"]]
    back, names = load_mono(doc)
    assert back == mm and names == ("s", "t")


def test_mono_loader_rejects_non_preorder():
    doc = {"worlds": ["s", "t"], "leq": [["s", "t"]], "r": []}
    with pytest.raises(ModelFormatError, match="preorder"):
        load_mono(doc)
    back, _ = load_mono(doc, close_leq=True)
    assert back.structure.leq.is_reflexive()


def test_default_names():
    assert default_names(3) == ("w0", "w1", "w2")
