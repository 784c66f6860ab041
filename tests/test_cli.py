import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ieml import constructions, load_model, save_model
from ieml.cli import build_parser, run
from ieml.proofs import LogicId

from helpers import FORMULA_TOKENS

DATA = Path(__file__).resolve().parent.parent / "src" / "ieml" / "data" / "derivations"


@pytest.fixture
def model_file(tmp_path):
    doc = {
        "agents": ["a", "b"],
        "worlds": ["w0", "w1"],
        "leq": [["w0", "w0"], ["w1", "w1"], ["w0", "w1"]],
        "rel": {"a": [["w1", "w1"]], "b": [], "a,b": []},
        "valuation": {"p": ["w1"]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def mono_file(tmp_path):
    doc = {
        "worlds": ["s", "t"],
        "leq": [["s", "s"], ["t", "t"], ["s", "t"]],
        "r": [["s", "t"], ["t", "t"]],
        "valuation": {"p": ["t"]},
    }
    path = tmp_path / "mono.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_parse_command(capsys):
    assert run(["parse", "[a]T"]) == 0
    assert capsys.readouterr().out.strip() == "[a]T"
    assert run(["parse", "~p", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"formula": "p -> F"}


def test_parse_error_exit_2(capsys):
    assert run(["parse", "p ->"]) == 2
    assert "error" in capsys.readouterr().err


def test_eval_command(capsys, model_file):
    assert run(["eval", "--model", model_file, "--state", "w1", "p"]) == 0
    assert capsys.readouterr().out.strip() == "true"
    assert run(["eval", "--model", model_file, "--state", "w0", "p"]) == 0
    assert capsys.readouterr().out.strip() == "false"
    assert run(["eval", "--model", model_file, "--state", "w0", "[c]p"]) == 2
    capsys.readouterr()
    assert run(["eval", "--model", model_file, "--state", "w9", "p"]) == 2
    assert capsys.readouterr().err == "error: unknown state name 'w9'\n"


DEEP_INPUTS = {"unary": "~" * 3000 + "p",
               "parentheses": "(" * 3000 + "p" + ")" * 3000,
               "arrows": "p -> " * 3000 + "p"}


@pytest.mark.parametrize("command", ["parse", "eval"])
@pytest.mark.parametrize("shape", sorted(DEEP_INPUTS))
def test_deeply_nested_formula_exit_2(capsys, model_file, command, shape):
    argv = [command, DEEP_INPUTS[shape]]
    if command == "eval":
        argv += ["--model", model_file, "--state", "w0"]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "nested deeper" in captured.err and "Traceback" not in captured.err


def test_valid_command_exit_codes(capsys, model_file):
    assert run(["valid", "--frame", model_file, "T"]) == 0
    assert run(["valid", "--frame", model_file, "p \\/ ~p"]) == 1
    out = capsys.readouterr().out
    assert "invalid" in out


def test_classify_command(capsys, model_file):
    assert run(["classify", "--frame", model_file]) == 0
    tags = capsys.readouterr().out.split()
    assert "all" in tags and "doxastic" in tags
    assert run(["classify", "--frame", model_file, "--json"]) == 0
    assert "classes" in json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("field, value", [
    ("rel", []),
    ("valuation", {"p": 5}),
    ("leq", [[["w0"], "w0"]]),  # a list used as a state name
    ("worlds", [["w0"]]),
    ("agents", 5),
])
def test_classify_malformed_document_exit_2(capsys, tmp_path, field, value):
    doc = {"agents": ["a"], "worlds": ["w0"], "leq": [["w0", "w0"]],
           "rel": {"a": []}, field: value}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["classify", "--frame", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_construct_roundtrip(capsys, tmp_path, model_file, mono_file):
    out = str(tmp_path / "lifted.json")
    assert run(["construct", "--kind", "translift",
                "--in", model_file, "--out", out]) == 0
    lifted = json.loads(Path(out).read_text())
    assert lifted["worlds"] == ["w0|0", "w0|1", "w1|0", "w1|1"]

    out2 = str(tmp_path / "expanded.json")
    assert run(["construct", "--kind", "expandmono", "--in", mono_file,
                "--out", out2, "--agents", "a,b"]) == 0
    expanded = json.loads(Path(out2).read_text())
    assert set(expanded["rel"]) == {"a", "b", "a,b"}

    out3 = str(tmp_path / "mono_back.json")
    assert run(["construct", "--kind", "collapsemono", "--in", out2,
                "--out", out3, "--group", "a,b"]) == 0
    back = json.loads(Path(out3).read_text())
    assert back["worlds"] == ["s", "t"]

    # rs frames round through the partition lift
    rs_doc = {
        "agents": ["a"], "worlds": ["w0"],
        "leq": [["w0", "w0"]], "rel": {"a": [["w0", "w0"]]},
    }
    rs_file = str(tmp_path / "rs.json")
    Path(rs_file).write_text(json.dumps(rs_doc))
    out4 = str(tmp_path / "part.json")
    assert run(["construct", "--kind", "partlift",
                "--in", rs_file, "--out", out4]) == 0

    out5 = str(tmp_path / "std.json")
    assert run(["construct", "--kind", "standardize",
                "--in", rs_file, "--out", out5]) == 0
    std = json.loads(Path(out5).read_text())
    assert std["worlds"] == ["w0|g0", "w0|g1"]


@pytest.mark.parametrize("argv", [
    ["classify", "--frame"], ["eval", "p", "--state", "w0", "--model"],
    ["prove", "--logic", "L_all", "--derivation"]], ids=lambda a: a[0])
def test_deeply_nested_json_document_exit_2(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert run([*argv, str(path)]) == 2
    assert capsys.readouterr().err == "error: JSON document nested too deeply\n"


_IPL1 = {"formula": "p -> (q -> p)", "just": {"kind": "axiom", "id": "IPL1"}}


@pytest.mark.parametrize("lines, message", [
    ([{"formula": "p -> (q -> p)", "just": {"kind": "axiom", "id": []}}],
     "line 1: 'id' must be a string, got []"),
    ([_IPL1, {"formula": "[a](p -> (q -> p))",
              "just": {"kind": "r1", "i": 1, "group": [1]}}],
     "line 2: 'group' must be a nonempty list of agent names, got [1]"),
    ([_IPL1, {"formula": "q -> (q -> q)",
              "just": {"kind": "sub", "i": 1, "map": ["p", "q"]}}],
     "line 2: 'map' must be an object from atom names to formulas, "
     "got [\"p\", \"q\"]"),
    ([_IPL1, {"formula": "q -> (q -> q)",
              "just": {"kind": "sub", "i": True, "map": {"p": "q"}}}],
     "line 2: 'i' must be a line number, got true"),
    ([_IPL1, {"formula": "p", "just": {"kind": "mp", "i": 1, "j": "1"}}],
     "line 2: 'j' must be a line number, got \"1\""),
    ([{"formula": "p", "just": {"kind": ["axiom"], "id": "IPL1"}}],
     "line 1: 'kind' must be a string, got [\"axiom\"]"),
    ([_IPL1, {"formula": "p -> (q ->", "just": {"kind": "axiom", "id": "IPL1"}}],
     "line 2: expected a formula, found 'end of input' (at position 10)"),
    ([_IPL1, {"formula": "q -> (q -> q)",
              "just": {"kind": "sub", "i": 1, "map": {"p": "q @"}}}],
     "line 2: unexpected character '@' (at position 2)"),
])
def test_prove_malformed_derivation_exit_2(capsys, tmp_path, lines, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(lines))
    assert run(["prove", "--logic", "L_par_D", "--derivation", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, doc, code, head", [
    (["prove", "--logic", "L_par_D", "--derivation"],
     [{"formula": "p", "just": {"kind": "axiom", "id": list(range(100_000))}}], 2,
     "error: line 1: 'id' must be a string, got [0, 1, 2,"),
    (["prove", "--logic", "L_par_D", "--derivation"],
     [{"formula": "p", "just": {"kind": "k" * 100_000, "id": "IPL1"}}], 2,
     "error: line 1: unknown justification kind 'kkk"),
    (["prove", "--logic", "L_par_D", "--derivation"],
     [{"formula": "p", "just": {"kind": "axiom", "id": "x" * 100_000}}], 1,
     "rejected at line 1: unknown schema id 'xxx"),
    (["classify", "--frame"],
     {"agents": ["a"], "worlds": ["w0"], "leq": [["w0", "w0"]], "rel": {"a": []},
      "valuation": {"p": [list(range(50_000))]}}, 2,
     "error: valuation of 'p': unknown state [0, 1, 2,"),
    (["classify", "--frame"],
     {"agents": ["a"], "worlds": ["w0"], "rel": {"a": []},
      "leq": [["w0", "w0"], ["w0", "w" * 50_000]]}, 2,
     "error: leq: unknown state in pair ['w0', 'www"),
    (["classify", "--frame"],
     {"agents": ["a"], "worlds": ["w0"], "leq": [["w0", "w0"]],
      "rel": {"a": {"index": [list(range(50_000))], "rows": ["1"]}}}, 2,
     "error: rel[a]: index entry [0, 1, 2,"),
    (["classify", "--frame"],
     {"agents": ["a" * 50_000 + "!"], "worlds": ["w0"], "leq": [], "rel": {}}, 2,
     "error: bad agents: bad agent name 'aaa"),
    (["classify", "--frame"],
     {"agents": ["a"], "worlds": ["w0"], "leq": [], "rel": {"b" * 50_000: []}}, 2,
     "error: bad group key 'bbb"),
], ids=["derivation id", "justification kind", "schema id", "valuation state", "pair",
        "index entry", "agent name", "group key"])
def test_a_huge_document_value_is_quoted_short(capsys, tmp_path, argv, doc, code, head):
    # the message quotes an excerpt of the value, marked with its length
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert run([*argv, str(path)]) == code
    text = "".join(capsys.readouterr())
    assert text.startswith(head) and text.count("\n") == 1 and len(text) < 250
    assert " characters)" in text


# Premises that miss their modal rule's shape, each an axiom instance so
# that only the shape fails: (premise, its schema, the rule applied).
_BAD_PREMISES = [
    ("[a]T", "A3", "r1"),  # not an implication
    ("[a]T", "A3", "r2"),
    ("<a>p -> (q -> <a>p)", "IPL1", "r3"),  # the right side is not an Or
    ("<a>p -> <a>p \\/ q", "IPL6", "r3"),  # ... whose right is not a box
    ("<a>p -> <a>p \\/ [b](p -> q)", "IPL6", "r3"),  # a box of another group
    ("<a>p -> <a>p \\/ [a]q", "IPL6", "r3"),  # a box body that is no implication
]


@pytest.mark.parametrize("premise,sid,kind", _BAD_PREMISES)
def test_prove_rejects_rule_premise_shapes(capsys, tmp_path, premise, sid, kind):
    path = tmp_path / "rule.json"
    path.write_text(json.dumps([
        {"formula": premise, "just": {"kind": "axiom", "id": sid}},
        {"formula": "<a>p -> q", "just": {"kind": kind, "i": 1, "group": ["a"]}}]))
    for logic in LogicId:  # every logic has R1, R2 and R3
        assert run(["prove", "--logic", logic.value, "--derivation", str(path)]) == 1
        assert capsys.readouterr().out == \
            f"rejected at line 2: line 1 does not have the {kind.upper()} premise shape\n"


def test_construct_missing_flag_is_usage_error(capsys, tmp_path, mono_file,
                                               model_file):
    out = tmp_path / "out.json"
    assert run(["construct", "--kind", "expandmono", "--in", mono_file,
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: expandmono needs --agents\n"
    assert run(["construct", "--kind", "collapsemono", "--in", model_file,
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: collapsemono needs --group\n"
    assert not out.exists()


def test_construct_rscollapse_writes_the_api_result(capsys, tmp_path, model_file):
    # up and down reflexive and symmetric; the collapse makes R total
    doc = {"agents": ["a"], "worlds": ["w0", "w1"],
           "leq": [["w0", "w0"], ["w0", "w1"], ["w1", "w1"]],
           "rel": {"a": [["w0", "w1"], ["w1", "w0"]]}, "valuation": {"p": ["w1"]}}
    src, out, api = (tmp_path / name for name in ("ud.json", "out.json", "api.json"))
    src.write_text(json.dumps(doc))
    assert run(["construct", "--kind", "rscollapse", "--in", str(src),
                "--out", str(out)]) == 0
    loaded = load_model(str(src))
    result = constructions.rs_collapse(loaded.model, src_names=loaded.names)
    save_model(result.model, str(api), result.names)
    assert out.read_text() == api.read_text()
    assert len(json.loads(out.read_text())["rel"]["a"]) == 4
    capsys.readouterr()
    # the fixture's R misses w0 after order detours: not up reflexive
    assert run(["construct", "--kind", "rscollapse", "--in", model_file,
                "--out", str(tmp_path / "no.json")]) == 2
    assert capsys.readouterr().err == "error: rs_collapse needs an up and down " \
        "reflexive and symmetric frame\n"
    assert not (tmp_path / "no.json").exists()


@pytest.mark.parametrize("group, agent", [("z", "z"), ("", ""), ("a,,b", "")])
def test_collapsemono_unknown_group_exit_2(capsys, tmp_path, model_file, group,
                                           agent):
    out = tmp_path / "out.json"
    assert run(["construct", "--kind", "collapsemono", "--group", group,
                "--in", model_file, "--out", str(out)]) == 2
    assert capsys.readouterr().err == \
        f"error: bad group {group!r}: unknown agent {agent!r}\n"
    assert not out.exists()


def test_prove_command(capsys):
    path = str(DATA / "l_all_d_distributed_box_t.json")
    assert run(["prove", "--logic", "L_all_D", "--derivation", path]) == 0
    assert "accepted" in capsys.readouterr().out
    assert run(["prove", "--logic", "L_all", "--derivation", path]) == 1
    assert "rejected at line 4" in capsys.readouterr().out
    assert run(["prove", "--logic", "L_all", "--derivation", path,
                "--json"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["accepted"] is False


def test_countermodel_command(capsys):
    args = ["countermodel", "--class", "all", "--max-states", "2",
            "--max-candidates", "100", "--seed", "0", "p \\/ ~p"]
    assert run(args) == 1
    assert "countermodel" in capsys.readouterr().out
    args2 = ["countermodel", "--class", "partition", "--max-states", "2",
             "--max-candidates", "300", "--seed", "0", "[a]p -> p"]
    assert run(args2) == 0
    assert "none" in capsys.readouterr().out


def test_countermodel_json_deterministic(capsys):
    args = ["countermodel", "--class", "all", "--max-states", "2",
            "--max-candidates", "100", "--seed", "0", "--json", "p \\/ ~p"]
    assert run(args) == 1
    one = capsys.readouterr().out
    assert run(args) == 1
    assert capsys.readouterr().out == one
    doc = json.loads(one)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "e416a05fdfb1901889173e254d35ae6f8b0dc4c3a81b4d357ce90c49bcd54ff5"


def test_suite_command(capsys, monkeypatch):
    monkeypatch.setenv("IEML_BUDGET_MAX_STATES", "2")
    monkeypatch.setenv("IEML_BUDGET_MAX_AGENTS", "1")
    monkeypatch.setenv("IEML_BUDGET_MAX_CANDIDATES", "300")
    assert run(["suite", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert all(e["status"] == "pass" for e in doc["entries"].values())


# The benchmark's suite budget.  Every entry passes here, so the output holds
# only entry names, statuses and counts: a change keeps these digests unless
# it changes a verdict, a count or a report field.
SUITE_DIGESTS = {
    1: "a75606c8ff19dfafee655e99a3ed9536da7a03c9f00a78a2046e3aaa1652c5d1",
    2: "c24cef37900ea59d9b42465ccc49bb581ed4e05866edeca5df2f8239aaf7c54b",
    3: "336708269d45b35fe92efe1ce51ea404e5ed91bd776ed68b88383e9ddb50be65",
}


@pytest.mark.parametrize("seed", sorted(SUITE_DIGESTS))
def test_suite_json_at_the_benchmark_budget_is_pinned(capsys, seed):
    assert run(["suite", "--json", "--max-agents", "2", "--max-states", "3",
                "--max-candidates", "100", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SUITE_DIGESTS[seed]


@pytest.mark.parametrize("agents", ["3", "4"])
def test_suite_above_two_agents_skips_over_budget_standardizations(capsys, agents):
    # above two agents every standardize output outgrows the state cap
    assert run(["suite", "--json", "--max-agents", agents, "--max-states", "2",
                "--max-candidates", "100", "--seed", "1"]) == 0
    entries = json.loads(capsys.readouterr().out)["entries"]
    assert all(e["status"] == "pass" for e in entries.values())
    for name in ("claim_standardize", "claim_standardize_partition"):
        assert entries[name]["skipped_over_budget"] > 0


def test_usage_error(capsys):
    assert run(["nonsense"]) == 2
    assert run([]) == 2


_CM = ["countermodel", "--class", "all", "--max-states", "2", "--max-candidates", "100"]
_FRAME = {"agents": ["a"], "worlds": ["w0", "w1"],
          "leq": [["w0", "w0"], ["w1", "w1"], ["w0", "w1"]],
          "rel": {"a": [["w0", "w1"]]}, "valuation": {}}


# Usage errors, help texts and human outputs as one top-level argparse pass
# printed them, before a known command went straight to its own parser:
# (argv, exit code, the stream written, its sha256, its last line).  Help
# is wrapped to the terminal width, so the test fixes COLUMNS.
@pytest.mark.parametrize("argv, code, stream, digest, last", [
    ([], 2, "err",
     "98074988ac64715fcf06621c97e96889d28b9070043a1e5ec345d70055dc748f",
     "ieml: error: the following arguments are required: command"),
    (["nonsense"], 2, "err",
     "d032770d47fecef654de05f7650e06691bbd39183d1ae168b182c14d3ca1e30e",
     "ieml: error: argument command: invalid choice: 'nonsense' (choose from "
     "'parse', 'eval', 'valid', 'classify', 'construct', 'prove', "
     "'countermodel', 'suite')"),
    (["countermodel", "--bogus", "p"], 2, "err",
     "70760b975d4c28d08f85c44d97588d71a1ddd5dc0ade1ed6f8181d3001b12132",
     "ieml: error: unrecognized arguments: --bogus"),
    (["countermodel", "--class", "bogus", "p"], 2, "err",
     "9b97adc4be3b2c126ee1441b6425eb8d23876c447a3424fdf5c5f999b8e0ff1c",
     "ieml countermodel: error: argument --class: invalid choice: 'bogus' "
     "(choose from 'all', 'doxastic', 'epistemic', 'reflexive', 'symmetric', "
     "'transitive', 'rs', 'partition', 'ud_reflexive', 'ud_symmetric', 'ud', "
     "'prestandard', 'standard', 'forward_confluent')"),
    (["classify"], 2, "err",
     "7044ff3aad61c062fecced1bc65eb885f3ac9fa6f0209d3b6b2aeb3b63317d81",
     "ieml classify: error: the following arguments are required: --frame"),
    (["countermodel", "--max-states", "x", "p"], 2, "err",
     "4505b3c0d9e4dffea210eea36c1b847d514cecb79b45e9a3dd6677ff1c428533",
     "ieml countermodel: error: argument --max-states: invalid int value: 'x'"),
    (["-h"], 0, "out",
     "b5c0424928584ec9640e08d8c0886bb4accdc724c9cd47c7f6e0e439f14b2c5f",
     "  -h, --help            show this help message and exit"),
    (["countermodel", "-h"], 0, "out",
     "c56dc8ee077e69754e3675ed043dbd075ccb522c68dce530b4c5762ffddef396",
     "  --json"),
    (_CM + ["[a]p -> p"], 1, "out",
     "9ae65518736f0c4ce35ca119a2d12f5a05b8cad8c4996642c71bee1627632706", "}"),
    (_CM + ["[a]p -> [a]p"], 0, "out",
     "7a8e9dcf69f038c6068ff1a93f21428f45846ccba8f16548b23351e4178c53ba",
     "none (space exhausted up to the size bound)"),
    (["valid", "--frame", "FRAME", "[a]p -> p"], 1, "out",
     "ced1774e24a7e94cb6db886c9efe0da88658d4487e89e93dbe93546a56b2bf1e",
     "invalid (falsified at w0)"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
def test_usage_help_and_human_outputs_are_pinned(capsys, monkeypatch, tmp_path,
                                                 argv, code, stream, digest, last):
    monkeypatch.setenv("COLUMNS", "80")
    frame = tmp_path / "frame.json"
    frame.write_text(json.dumps(_FRAME))
    assert run([str(frame) if a == "FRAME" else a for a in argv]) == code
    out, err = capsys.readouterr()
    text, other = (err, out) if stream == "err" else (out, err)
    assert other == ""
    assert text.splitlines()[-1] == last
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_one_parser_serves_every_call(capsys, monkeypatch, model_file):
    # the parser is built once per process; after a usage error, later
    # calls print and return what calls on a freshly built parser do
    monkeypatch.setenv("IEML_BUDGET_MAX_STATES", "2")
    monkeypatch.setenv("IEML_BUDGET_MAX_AGENTS", "1")
    monkeypatch.setenv("IEML_BUDGET_MAX_CANDIDATES", "100")
    calls = [["countermodel", "--bogus", "p"],
             ["countermodel", "--max-states", "2", "--max-candidates", "100",
              "--seed", "0", "--json", "p \\/ ~p"],
             ["classify", "--frame", model_file, "--json"],
             ["suite", "--json"]]

    def outcomes(fresh):
        out = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            out.append((run(argv), capsys.readouterr().out))
        return out

    reused = outcomes(fresh=False)
    assert build_parser() is build_parser()
    assert reused == outcomes(fresh=True)
    assert [code for code, _ in reused] == [2, 1, 0, 0]


@pytest.mark.parametrize("kind,doc,states,digest", [
    ("standardize",
     {"agents": ["a", "b"], "worlds": ["w0"], "leq": [["w0", "w0"]],
      "rel": {"a": [["w0", "w0"]], "b": [["w0", "w0"]], "a,b": [["w0", "w0"]]},
      "valuation": {"p": ["w0"]}},
     64, "24be4f505d432dc77f47e42e837646b69f2cc09e992c59bd68d79d69fb64b46d"),
    ("partlift",
     {"agents": ["a", "b"], "worlds": ["s", "t"],
      "leq": [["s", "s"], ["t", "t"]],
      "rel": {"a": [["s", "s"], ["t", "t"]],
              "b": [[x, y] for x in "st" for y in "st"],
              "a,b": [[x, y] for x in "st" for y in "st"]},
      "valuation": {"p": ["t"]}},
     32, "7c1dd8ed2873119dc4d068cb306048d84564a35322094321cdb7481dbdb9e68e"),
    # a mono document: the text of test_modelio's pinned one
    ("collapsemono --group a",
     {"agents": ["a", "b"], "worlds": ["x", "y", "z"],
      "leq": [["x", "x"], ["y", "y"], ["z", "z"], ["x", "y"], ["y", "z"],
              ["x", "z"]],
      "rel": {"a": [["x", "y"], ["y", "z"], ["z", "z"]],
              "b": [["y", "y"], ["x", "z"]], "a,b": []},
      "valuation": {"p": ["z"], "q": ["y", "z"]}},
     3, "d58ddc8ad9f6da45ab942ce772e79d2117b8714ecad28e2a65c17ee1c04b430f"),
])
def test_construct_output_pinned(capsys, tmp_path, kind, doc, states, digest):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert run(["construct", "--kind", *kind.split(), "--in", str(src),
                "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["worlds"]) == states
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


_ONE_STATE_THREE_AGENTS = {
    "agents": ["a", "b", "c"], "worlds": ["w0"], "leq": [["w0", "w0"]],
    "rel": {g: [["w0", "w0"]] for g in ("a", "b", "c", "a,b", "a,c", "b,c", "a,b,c")}}
_TWO_STATE_RS = {
    "agents": ["a"], "worlds": ["s", "t"], "leq": [["s", "s"], ["t", "t"]],
    "rel": {"a": [[x, y] for x in "st" for y in "st"]}}


@pytest.mark.parametrize("argv,doc,message", [
    # at three agents even one state standardizes past the default cap
    pytest.param(["standardize"], _ONE_STATE_THREE_AGENTS,
                 "output would have 2097152 states (cap 8192; raise max_states, "
                 "CLI construct --max-states)", id="standardize"),
    pytest.param(["partlift", "--max-states", "7"], _TWO_STATE_RS,
                 "output would have 8 states (cap 7; raise max_states, "
                 "CLI construct --max-states)", id="partlift"),
    # a cap of 0 is a cap, not the default
    pytest.param(["standardize", "--max-states", "0"], _TWO_STATE_RS,
                 "output would have 8 states (cap 0; raise max_states, "
                 "CLI construct --max-states)", id="standardize-cap-0"),
])
def test_construct_over_the_cap_names_the_budget(capsys, tmp_path, argv, doc,
                                                  message):
    src = tmp_path / "in.json"
    src.write_text(json.dumps(doc))
    assert run(["construct", "--kind", *argv, "--in", str(src),
                "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("cap,formula,message", [
    # the chain w0 <= w1 has 2^2 candidate sets, of which 3 are up-sets
    pytest.param("2", "p", "2^2 candidate sets exceed the cap 2", id="up_sets"),
    pytest.param("8", "p \\/ q", "3^2 valuation assignments exceed the cap 8",
                 id="assignments"),
])
def test_valid_over_the_cap_names_the_budget(capsys, model_file, cap, formula,
                                              message):
    assert run(["valid", "--frame", model_file, "--max-assignments", cap,
                formula]) == 2
    assert capsys.readouterr().err == (
        f"error: {message} (raise cap, default DEFAULT_ASSIGNMENT_CAP; "
        "CLI valid --max-assignments)\n")


@pytest.mark.parametrize("module", ["ieml", "ieml.cli"])
def test_python_dash_m_runs_the_cli(module, capsys):
    import os
    import subprocess
    import sys
    assert run(["parse", "p -> q"]) == 0
    want = capsys.readouterr().out
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}

    def python_m(*argv):
        return subprocess.run([sys.executable, "-m", module, *argv], env=env,
                              capture_output=True, text=True)

    done = python_m("parse", "p -> q")
    assert (done.returncode, done.stdout) == (0, want)
    bad = python_m("parse", "p ->")
    assert bad.returncode == 2 and bad.stdout == ""
    assert bad.stderr.startswith("error: ") and "Traceback" not in bad.stderr


# ---------- fuzzing: every input exits 0, 1 or 2, never with a traceback ----------

def _run_quietly(argv) -> tuple[int, str]:
    """``run(argv)`` with stdout and stderr captured: (exit code, output)."""
    import contextlib
    import io
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = run(argv)
    return code, buf.getvalue()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 9) | st.text("pqa[]<>,->T F", max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["formula", "just", "kind", "id", "i", "j",
                                       "group", "map", "p"]), inner, max_size=3),
    max_leaves=6)
_DERIVATIONS = sorted(DATA.glob("*.json"))


@st.composite
def _mutated_derivation(draw):
    """A shipped derivation with one place replaced by any JSON value or
    deleted: the whole document, a line, a line's field or a field of its
    justification."""
    doc = json.loads(draw(st.sampled_from(_DERIVATIONS)).read_text())
    value = draw(_JSON)
    k = draw(st.integers(0, len(doc) - 1))
    where = draw(st.sampled_from(["doc", "line", "formula", "just"] + ["field"] * 4))
    if where == "doc":
        return value
    if where == "line":
        doc[k] = value
        return doc
    target, key = (doc[k], where) if where != "field" else \
        (doc[k]["just"], draw(st.sampled_from(sorted(doc[k]["just"]) + ["map"])))
    if draw(st.booleans()):
        target.pop(key, None)
    else:
        target[key] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(_mutated_derivation(), st.sampled_from([logic.value for logic in LogicId]))
def test_prove_fuzzed_derivations_exit_cleanly(doc, logic):
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "derivation.json"
        path.write_text(json.dumps(doc))
        code, out = _run_quietly(["prove", "--logic", logic, "--derivation", str(path)])
    assert code in (0, 1, 2) and "Traceback" not in out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(FORMULA_TOKENS), max_size=12).map("".join)
       | st.text(max_size=12),
       st.sampled_from([["parse"], ["parse", "--json"],
                        ["countermodel", "--max-states", "1",
                         "--max-candidates", "4"]]))
def test_fuzzed_formula_strings_exit_cleanly(text, command):
    code, out = _run_quietly([*command, "--", text])
    assert code in (0, 1, 2) and "Traceback" not in out


def _docs(structures) -> list:
    """The ``model_to_doc`` documents of ``structures``, each with one
    up-set for ``p``."""
    from ieml.modelio import model_to_doc
    from ieml.semantics import Model, up_sets
    docs = []
    for k, structure in enumerate(structures):
        closed = up_sets(structure)
        docs.append(model_to_doc(Model.make(structure, {"p": closed[k % len(closed)]})))
    return docs


def _small_structures():
    from itertools import islice

    from ieml.search import SizeBudget, enumerate_frames, mono_structures
    frames = islice(enumerate_frames(SizeBudget(max_states=2, max_candidates=60,
                                                seed=5)), 0, None, 9)
    return list(frames), [*mono_structures(1, "minus"), *mono_structures(2, "minus")]


_FRAMES, _MONOS = _small_structures()
_MODEL_DOCS, _MONO_DOCS = _docs(_FRAMES), _docs(_MONOS)
_MODEL_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4)
    | st.sampled_from(["w0", "w1", "w2", "a", "b", "a,b", "p", "", "1f", "x"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["worlds", "leq", "r", "rel", "agents",
                                       "valuation", "index", "rows", "a", "p"]),
                      inner, max_size=3),
    max_leaves=6)


def _places(value, path=()):
    """The path of every value in a JSON document, the document's own first."""
    yield path
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield from _places(child, path + (key,))


@st.composite
def _mutated(draw, docs):
    """One of ``docs`` with one place replaced by any JSON value or deleted."""
    doc = json.loads(json.dumps(draw(st.sampled_from(docs))))
    path = draw(st.sampled_from(list(_places(doc))))
    value = draw(_MODEL_JSON)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run_on_document(doc, command) -> tuple[int, str]:
    """``command`` with ``{in}`` naming a file that holds ``doc`` and
    ``{out}`` a file beside it: (exit code, output)."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.json", Path(tmp) / "out.json"
        src.write_text(json.dumps(doc))
        return _run_quietly([arg.format(**{"in": src, "out": out}) for arg in command])


@settings(max_examples=150, deadline=None)
@given(_mutated(_MODEL_DOCS), st.sampled_from([
    ["classify", "--frame", "{in}"],
    ["eval", "--model", "{in}", "--state", "w0", "[a]p -> p"],
    ["valid", "--frame", "{in}", "p \\/ ~p"],
    ["construct", "--kind", "collapsemono", "--group", "a", "--in", "{in}",
     "--out", "{out}"]]))
def test_fuzzed_model_documents_exit_cleanly(doc, command):
    code, out = _run_on_document(doc, command)
    assert code in (0, 1, 2) and "Traceback" not in out


@settings(max_examples=150, deadline=None)
@given(_mutated(_MONO_DOCS), st.sampled_from(["minus", "full"]))
def test_fuzzed_mono_documents_exit_cleanly(doc, kind):
    code, out = _run_on_document(doc, [
        "construct", "--kind", "expandmono", "--agents", "a,b", "--mono-kind",
        kind, "--in", "{in}", "--out", "{out}"])
    assert code in (0, 1, 2) and "Traceback" not in out
