import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from coarselab import cli
from coarselab.backends import PartitionCoarseBackend
from coarselab.cli import json_text, main
from coarselab.documents import LINE_INTEGER_TOP, SchemaError, load_document
from coarselab.setcore import CapExceeded, Universe

from test_golden_cli import cli_runs

ROOT = Path(__file__).resolve().parent.parent
THREE_POINT = ROOT / "instances" / "three-point.json"
NAT_LINE = ROOT / "instances" / "nat-line.json"
CLI_RUNS = list(cli_runs())


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


# text with quotes, backslashes, control characters, non-ASCII and lone
# surrogates, beside whatever else hypothesis draws
TEXT = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'),
        st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
        st.characters(exclude_categories=()),
    )
)
LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**100), 2**100),
    st.floats(),
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
    TEXT,
)
TREES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=30,
)


def dumps(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2)


class TestJsonText:
    @seed(20261019)
    @settings(max_examples=100, deadline=None)
    @given(TREES)
    def test_matches_json_dumps(self, value):
        assert json_text(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [{}, [], (), [[], {}, ()], {"a": {"b": []}}, {"z": 1, "a": (2, [3])}],
        ids=["dict", "list", "tuple", "nested", "deep", "unsorted"],
    )
    def test_empty_and_nested_containers(self, value):
        assert json_text(value) == dumps(value)

    @pytest.mark.parametrize(
        "value", [{1, 2}, np.int64(3), [np.int64(3)], {"k": {1}}], ids=["set", "int64", "in-list", "in-dict"]
    )
    def test_unserializable_values_raise_type_error(self, value):
        with pytest.raises(TypeError):
            dumps(value)
        with pytest.raises(TypeError):
            json_text(value)

    @pytest.mark.parametrize(
        "value",
        [{1: "a", 10: "b", 9: "c"}, {2.5: 0, -1.0: 1}, {True: 0, None: 1}, {"b": 0, 3: 1}, {(1,): 0}],
        ids=["ints", "floats", "bool-none", "mixed", "tuple"],
    )
    def test_non_text_keys_as_json_dumps_or_type_error(self, value):
        try:
            want = dumps(value)
        except TypeError:
            with pytest.raises(TypeError):
                json_text(value)
        else:
            assert json_text(value) == want

    @pytest.mark.parametrize("label, args", CLI_RUNS, ids=[label for label, _ in CLI_RUNS])
    def test_golden_invocations_render_as_json_dumps(self, monkeypatch, label, args):
        # each run renders its report once, or not at all on a schema error
        values = []

        def spy(value):
            values.append(value)
            return json_text(value)

        monkeypatch.setattr(cli, "json_text", spy)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main(args)
        assert len(values) <= 1
        for value in values:
            assert json_text(value) == dumps(value), label


class TestSchema:
    def test_version_required(self):
        with pytest.raises(SchemaError):
            load_document(json.dumps({"space": {"kind": "nat-line"}}))

    def test_floats_rejected(self):
        doc = {"version": 1, "space": {"kind": "nat-line"}, "budgets": {"scale": 1.5}}
        with pytest.raises(SchemaError):
            load_document(json.dumps(doc))

    def test_bad_space_rejected(self):
        with pytest.raises(SchemaError):
            load_document(json.dumps({"version": 1, "space": {"kind": "plane"}}))

    def test_schema_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["check", str(bad)]) == 2

    def test_internal_key_error_is_not_a_schema_error(self, monkeypatch):
        def broken(doc, desc):
            raise KeyError("internal")

        monkeypatch.setattr(cli, "build_backend", broken)
        with pytest.raises(KeyError):
            main(["check", str(THREE_POINT)])

    @pytest.mark.parametrize("command", ["check", "asdim"])
    def test_repeated_element_exits_two_without_traceback(self, tmp_path, command):
        doc = json.loads(THREE_POINT.read_text())
        doc["space"]["elements"] = ["a", "b", "a"]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", command, str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr == "schema error: finite space elements must be distinct\n"


class TestCheck:
    def test_three_point_document(self, capsys):
        code, out = run_cli(["check", str(THREE_POINT)], capsys)
        assert code == 0
        assert "LS-regular: false" in out
        assert "all-pass" in out

    def test_mutated_document_fails_with_witness(self, tmp_path, capsys):
        doc = json.loads(THREE_POINT.read_text())
        doc["structures"][0]["generators"].append([["a"], ["b"]])
        path = tmp_path / "mutated.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["check", str(path)], capsys)
        assert code == 1
        assert "union-product: FAIL" in out

    def test_line_document_sampled_suite(self, capsys):
        code, out = run_cli(["check", str(NAT_LINE)], capsys)
        assert code == 0
        assert "sampled line axioms" not in out  # names come from structures
        assert "singletons: pass" in out

    def test_reports_are_deterministic(self, capsys):
        _, out1 = run_cli(["check", str(THREE_POINT), "--json"], capsys)
        _, out2 = run_cli(["check", str(THREE_POINT), "--json"], capsys)
        assert out1 == out2


class TestAsdim:
    def test_topo_line_certification(self, capsys):
        code, out = run_cli(["asdim", str(NAT_LINE)], capsys)
        assert code == 0
        assert "asdim = 1 certified at windows {16, 32, 64, 128, 256, 512}" in out

    def test_explicit_value(self, capsys):
        code, out = run_cli(["asdim", str(THREE_POINT)], capsys)
        assert code == 0
        assert "asdim = 0" in out


class TestNear:
    def test_queries(self, capsys):
        code, out = run_cli(["near", str(NAT_LINE)], capsys)
        assert code == 0
        assert "query 0: yes" in out
        assert "query 1: no" in out


class TestBunch:
    def test_certificate_emitted(self, capsys):
        code, out = run_cli(["bunch", str(NAT_LINE), "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        cert = payload["details"][0]["certificate"]
        assert cert["scale_budget"] == 32
        from coarselab.nearness_lab import BunchObstruction

        assert BunchObstruction.from_json(cert).revalidate()

    def test_rejection_exits_one(self, tmp_path, capsys):
        doc = json.loads(NAT_LINE.read_text())
        doc["queries"]["bunch"] = [
            {"sets": [{"kind": "periodic", "progressions": [[0, 2]]},
                      {"kind": "periodic", "progressions": [[0, 2]]}]}
        ]
        path = tmp_path / "reject.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["bunch", str(path)], capsys)
        assert code == 1
        assert "rejected" in out

    @staticmethod
    def run_bunch(path, *flags):
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", "bunch", str(path), "--json", *flags],
            capture_output=True, text=True,
        )
        assert "Traceback" not in proc.stderr
        return proc.returncode, json.loads(proc.stdout)

    def test_short_pivot_window_exits_four_without_traceback(self, tmp_path):
        doc = json.loads(NAT_LINE.read_text())
        doc["budgets"]["window"] = 5
        doc["queries"]["bunch"] = [
            {"sets": [{"kind": "periodic", "progressions": [[0, 40]]},
                      {"kind": "periodic", "progressions": [[1, 40]]}]}
        ]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, payload = self.run_bunch(path)
        assert code == 4
        assert payload["details"] == [
            {"query": 0, "unknown": "window too small for the pivot member"}
        ]

    def test_window_too_small_for_a_scale_check_exits_four(self):
        code, payload = self.run_bunch(NAT_LINE, "--window", "40")
        assert code == 4
        assert payload["details"] == [
            {
                "query": 0,
                "unknown": "scale check failed: side 0 holds a candidate within 9 "
                "of every member point up to the window",
            }
        ]

    @pytest.mark.parametrize("where", ["flag", "document"])
    def test_window_over_the_cap_exits_three_without_traceback(self, tmp_path, where):
        doc = json.loads(NAT_LINE.read_text())
        flags = ["--window", str(10**12)] if where == "flag" else []
        if where == "document":
            doc["budgets"]["window"] = 10**12
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", "bunch", str(path), "--json", *flags],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("cap exceeded: window 1000000000000 exceeds the cap")

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["queries"]["bunch"][0]["sets"][0].update(progressions=[[0, 0]]),
            lambda doc: doc["queries"]["bunch"][0]["sets"][1].update(kind="bogus"),
            lambda doc: doc["budgets"].update(scale="x"),
            lambda doc: doc["queries"]["bunch"][0]["sets"].append("x"),
            lambda doc: doc.update(queries=[doc["queries"]]),
            lambda doc: doc["budgets"].update(window=-5),
            lambda doc: doc["budgets"].update(scale=-1),
        ],
        ids=[
            "zero-step-progression",
            "unknown-kind",
            "non-integer-scale",
            "set-not-an-object",
            "queries-not-an-object",
            "negative-window",
            "negative-scale",
        ],
    )
    def test_malformed_document_exits_two_without_traceback(self, tmp_path, edit):
        doc = json.loads(NAT_LINE.read_text())
        edit(doc)
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", "bunch", str(path), "--json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("schema error: ")


def _set(path, value):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return edit


def _delete(path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]

    return edit


# the first line set of the first near query: the periodic evens
NEAR_SET = ["queries", "near", 0, "sets", 0]

# (command, edit of the line document, the schema error it gives): each
# edit once ended in a traceback, in the bare text of a KeyError or in
# Python's own text, or (a numeric string) was read as an integer
LINE_DOCUMENT_EDITS = {
    "bunch-queries-string": (
        "bunch", _set(["queries", "bunch"], "zz"), "queries.bunch must be a list, not 'zz'"
    ),
    "bunch-query-string": (
        "bunch", _set(["queries", "bunch", 0], "zz"), "queries.bunch[0] must be an object, not 'zz'"
    ),
    "maps-string": ("map", _set(["maps"], "zz"), "maps must be a list, not 'zz'"),
    "map-string": ("map", _set(["maps", 0], "zz"), "maps[0] must be an object, not 'zz'"),
    "map-a-string": ("map", _set(["maps", 0, "a"], "zz"), "affine map: 'a' must be an integer, not 'zz'"),
    "map-a-list": ("map", _set(["maps", 0, "a"], []), "affine map: 'a' must be an integer, not []"),
    "map-a-negative": (
        "map", _set(["maps", 0, "a"], -1), "affine map: affine maps keep the naturals nonnegative"
    ),
    "inverse-list": ("map", _set(["maps", 0, "inverse"], []), "maps[0].inverse must be an object, not []"),
    "inverse-d-zero": (
        "map", _set(["maps", 0, "inverse", "d"], 0), "floor-div map: divisor must be positive"
    ),
    "cover-rule-unknown": ("asdim", _set(["covers", 0, "rule"], "zz"), "unknown cover rule 'zz'"),
    "cover-rule-list": ("asdim", _set(["covers", 0, "rule"], []), "unknown cover rule []"),
    "no-map-rule": (
        "map",
        _delete(["maps", 0, "rule"]),
        "a map needs a rule, or a domain, codomain and table; it has no 'domain'",
    ),
    "no-inverse-d": ("map", _delete(["maps", 0, "inverse", "d"]), "floor-div map: no 'd'"),
    "no-map-a": ("map", _delete(["maps", 0, "a"]), "affine map: no 'a'"),
    "no-bunch-sets": ("bunch", _delete(["queries", "bunch", 0, "sets"]), "bunch query 0 has no 'sets'"),
    "no-finite-elements": (
        "near",
        _delete(["queries", "near", 1, "sets", 0, "elements"]),
        "set 0: finite set has no 'elements'",
    ),
    "cover-number": ("asdim", _set(["covers", 0], 5), "covers[0] must be an object, not 5"),
    "near-query-number": ("near", _set(["queries", "near", 0], 5), "queries.near[0] must be an object, not 5"),
    "cover-line-members-number": ("asdim", _set(["covers", 0], {"line_members": 5}), "line sets must be a list, not 5"),
    "asdim-windows-number": (
        "asdim", _set(["budgets", "asdim_windows"], 5), "budgets.asdim_windows must be a list, not 5"
    ),
    "near-sets-number": ("near", _set(["queries", "near", 0, "sets"], 5), "line sets must be a list, not 5"),
    **{
        f"progression-{name}": (
            "near",
            _set(NEAR_SET + ["progressions", 0], value),
            f"set 0: progressions[0] must be a pair of integers, not {value!r}",
        )
        for name, value in (
            ("number", 5), ("empty", []), ("triple", [1, 2, 3]), ("string", [1, "2"]), ("bool", [1, True])
        )
    },
    "progressions-number": (
        "near", _set(NEAR_SET + ["progressions"], 5), "set 0: progressions must be a list, not 5"
    ),
    "finite-part-string": (
        "near", _set(NEAR_SET + ["finite"], ["3"]), "set 0: finite[0] must be an integer, not '3'"
    ),
    "removals-bool": (
        "near", _set(NEAR_SET + ["removals"], [True]), "set 0: removals[0] must be an integer, not True"
    ),
    "elements-string": (
        "near",
        _set(["queries", "near", 1, "sets", 0, "elements"], ["1"]),
        "set 0: elements[0] must be an integer, not '1'",
    ),
    "second-set-progression-string": (
        "near",
        _set(["queries", "near", 0, "sets", 1, "progressions", 0], [1, "2"]),
        "set 1: progressions[0] must be a pair of integers, not [1, '2']",
    ),
    "geometric-m-string": (
        "near",
        _set(NEAR_SET, {"kind": "geometric", "m": "2", "b": 2, "k0": 0}),
        "set 0: m must be an integer, not '2'",
    ),
    "blocks-rule-list": (
        "near", _set(NEAR_SET, {"kind": "blocks", "rule": [], "ints": [1]}), "set 0: rule must be a string, not []"
    ),
    "blocks-gaps-empty": (
        "near",
        _set(NEAR_SET, {"kind": "blocks", "rule": "doubling-blocks", "ints": [1], "gaps": []}),
        "set 0: gaps must not be empty",
    ),
    "blocks-set-number": (
        "near",
        _set(NEAR_SET, {"kind": "blocks", "rule": "sparsify-half", "ints": [0], "sets": [5]}),
        "set 0: sets[0] must be an object, not 5",
    ),
    "blocks-nested-progression-string": (
        "near",
        _set(
            NEAR_SET,
            {"kind": "blocks", "rule": "sparsify-half", "ints": [0], "sets": [
                {"kind": "periodic", "progressions": [[0, "2"]]}
            ]},
        ),
        "set 0: sets[0].progressions[0] must be a pair of integers, not [0, '2']",
    ),
    "bunch-sets-number": ("bunch", _set(["queries", "bunch", 0, "sets"], 5), "line sets must be a list, not 5"),
    # integers past the top of the line layer's int64 windows
    "elements-huge": (
        "near",
        _set(["queries", "near", 1, "sets", 0, "elements"], [10**30]),
        f"set 0: elements[0] must be at most {LINE_INTEGER_TOP}, not {10**30}",
    ),
    "bunch-period-huge": (
        "bunch",
        _set(["queries", "bunch", 0, "sets", 0, "progressions", 0], [0, 2**70]),
        f"set 0: progressions[0][1] must be at most {LINE_INTEGER_TOP}, not {2**70}",
    ),
    "geometric-m-huge": (
        "near",
        _set(NEAR_SET, {"kind": "geometric", "m": 2**62, "b": 2, "k0": 0}),
        f"set 0: m must be at most {LINE_INTEGER_TOP}, not {2**62}",
    ),
}


class TestLineDocumentFields:
    @pytest.mark.parametrize("kind", sorted(LINE_DOCUMENT_EDITS))
    def test_malformed_field_exits_two_naming_it(self, tmp_path, capsys, kind):
        # an exception escaping main would be a traceback at the command line
        command, edit, message = LINE_DOCUMENT_EDITS[kind]
        doc = json.loads(NAT_LINE.read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--window", "2000"]) == 2
        assert capsys.readouterr().err == f"schema error: {message}\n"

    @pytest.mark.parametrize(
        "command, field, value, code",
        [
            ("near", ["queries", "near", 1, "sets", 0, "elements"], [LINE_INTEGER_TOP], 0),
            ("near", NEAR_SET + ["progressions", 0], [LINE_INTEGER_TOP, 2], 0),
            ("near", NEAR_SET + ["progressions", 0], [0, LINE_INTEGER_TOP], 0),
            ("bunch", ["queries", "bunch", 0, "sets", 0, "progressions", 0], [LINE_INTEGER_TOP, 2], 1),
            ("bunch", ["queries", "bunch", 0, "sets", 0, "progressions", 0], [0, LINE_INTEGER_TOP], 1),
        ],
        ids=["near-element", "near-start", "near-period", "bunch-start", "bunch-period"],
    )
    def test_integer_at_the_top_is_answered(self, tmp_path, capsys, command, field, value, code):
        doc = json.loads(NAT_LINE.read_text())
        _set(field, value)(doc)
        path = tmp_path / "top.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path), "--window", "2000"]) == code
        assert capsys.readouterr().err == ""

    def test_map_parameters_read_as_integers(self, tmp_path, capsys):
        # int() reads a parameter, so a numeric string still gives the map
        doc = json.loads(NAT_LINE.read_text())
        doc["maps"][0]["a"] = "2"
        path = tmp_path / "string-a.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["map", str(path)], capsys)
        assert code == 0
        assert "equivalence with inverse: yes" in out


# edits of the three-point document's structure that put a string, or
# another non-list, where a list of labels is expected
LABEL_LIST_EDITS = {
    "generators-string": {"generators": "ab"},
    "member-string": {"generators": [["ab"]]},
    "blocks-string": {"type": "partition", "blocks": "abc"},
    "block-string": {"type": "partition", "blocks": ["abc"]},
    "coarse-generator-string": {"type": "coarse", "generators": ["ab"]},
    "coarse-pair-string": {"type": "coarse", "generators": [["ab"]]},
    "closure-list": {"type": "nearness-explicit", "closure": [0, 1], "near": []},
}


class TestLabelLists:
    @pytest.mark.parametrize("kind", sorted(LABEL_LIST_EDITS))
    def test_string_for_a_label_list_exits_two(self, tmp_path, kind):
        doc = json.loads(THREE_POINT.read_text())
        doc["structures"][0].update(LABEL_LIST_EDITS[kind])
        path = tmp_path / "labels.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", "check", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stdout
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("schema error: ") and "must be" in proc.stderr

    @pytest.mark.parametrize("family", ["ab", ["ab"]], ids=["family-string", "member-string"])
    def test_near_family_string_exits_two(self, tmp_path, capsys, family):
        doc = json.loads(THREE_POINT.read_text())
        doc["queries"] = {"near": [{"structure": "c", "family": family}]}
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        assert main(["near", str(path)]) == 2
        assert "must be a list" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "query, key",
        [({"family": [["a"], ["a", "b"]]}, "structure"), ({"structure": "c"}, "family")],
        ids=["no-structure", "no-family"],
    )
    def test_near_query_missing_a_key_exits_two(self, tmp_path, capsys, query, key):
        doc = json.loads(THREE_POINT.read_text())
        doc["queries"] = {"near": [query]}
        path = tmp_path / "near.json"
        path.write_text(json.dumps(doc))
        assert main(["near", str(path)]) == 2
        assert capsys.readouterr().err == f"schema error: near query 0 has no '{key}'\n"


def _closure(**entries):
    closure = {str(s): [] for s in range(8)}
    closure.update(entries)
    return {"name": "n", "type": "nearness-explicit", "closure": closure, "near": []}


# (command, the three-point document's structure list, covers or maps, and
# the schema error it gives): each once gave only a bare KeyError's text,
# or a traceback
MISSING_FIELD_EDITS = {
    "partition-no-blocks": (
        "check", {"structures": [{"name": "p", "type": "partition"}]}, "partition structure has no 'blocks'"
    ),
    "from-asr-no-blocks": (
        "check", {"structures": [{"name": "r", "type": "from-asr"}]}, "from-asr structure has no 'blocks'"
    ),
    "nearness-no-near": (
        "check",
        {"structures": [{"name": "n", "type": "nearness-explicit"}]},
        "nearness-explicit structure has no 'near'",
    ),
    "proximity-no-pairs": (
        "check",
        {"structures": [{"name": "x", "type": "proximity"}]},
        "proximity structure has no 'pairs' and no \"discrete\" rule",
    ),
    "map-table-no-label": (
        "map",
        {"maps": [{"domain": "c", "codomain": "c", "table": {"a": "a", "c": "c"}}]},
        "map table has no label 'b'",
    ),
    "map-value-not-an-element": (
        "map",
        {"maps": [{"domain": "c", "codomain": "c", "table": {"a": "a", "b": "zz", "c": "c"}}]},
        "label 'zz' is not an element of {a,b,c}",
    ),
    "label-not-an-element": (
        "check",
        {"structures": [{"name": "c", "type": "lsr-explicit", "generators": [[["a", "zz"]]]}]},
        "label 'zz' is not an element of {a,b,c}",
    ),
    "from-asr-block-misses": (
        "check",
        {"structures": [{"name": "r", "type": "from-asr", "blocks": [[[], ["a"]]]}]},
        "from-asr: blocks must cover every subset",
    ),
    "from-asr-block-number": (
        "check", {"structures": [{"name": "r", "type": "from-asr", "blocks": [5]}]}, "a from-asr block must be a list, not 5"
    ),
    "generators-number": (
        "check", {"structures": [{"name": "c", "type": "lsr-explicit", "generators": 5}]}, "generators must be a list, not 5"
    ),
    "closure-not-extensive": (
        "check", {"structures": [_closure()]}, "nearness-explicit: closure must contain its argument: 1"
    ),
    "closure-missing-subset": (
        "check", {"structures": [{**_closure(), "closure": {"0": []}}]}, "closure object has no '1'"
    ),
    "proximity-pairs-number": (
        "check", {"structures": [{"name": "x", "type": "proximity", "pairs": 5}]}, "proximity pairs must be a list, not 5"
    ),
    "proximity-pair-of-three": (
        "check",
        {"structures": [{"name": "x", "type": "proximity", "pairs": [[["a"], ["b"], ["c"]]]}]},
        "a proximity pair must be a list of two, not [['a'], ['b'], ['c']]",
    ),
    "cover-members-number": ("asdim", {"covers": [{"members": 5}]}, "cover members must be a list, not 5"),
}


class TestMissingStructureFields:
    @pytest.mark.parametrize("kind", sorted(MISSING_FIELD_EDITS))
    def test_missing_field_exits_two_naming_it(self, tmp_path, capsys, kind):
        command, edit, message = MISSING_FIELD_EDITS[kind]
        doc = json.loads(THREE_POINT.read_text())
        doc.update(edit)
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(doc))
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err == f"schema error: {message}\n"


def _node_paths(node, path=()):
    """Paths of every node below the root, parents before children."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield path + (key,)
        yield from _node_paths(child, path + (key,))


def _command_reading(path) -> str:
    if path[0] == "queries" and len(path) > 1:
        return path[1]
    return {"maps": "map", "budgets": "asdim", "covers": "asdim", "queries": "near"}.get(path[0], "check")


_DELETE = object()


class TestDocumentMutations:
    @pytest.mark.parametrize("document", [THREE_POINT, NAT_LINE], ids=lambda p: p.name)
    @pytest.mark.parametrize("value", [5, "zz", [], {}, None, _DELETE], ids=["5", "zz", "list", "object", "null", "delete"])
    def test_every_node_replaced_or_deleted_exits_without_traceback(self, tmp_path, capsys, document, value):
        # each node of the document in turn, through the command that reads
        # it; an exception escaping main would be a traceback
        text = document.read_text()
        path = tmp_path / "mutated.json"
        for node in _node_paths(json.loads(text)):
            doc = json.loads(text)
            (_delete(node) if value is _DELETE else _set(node, value))(doc)
            path.write_text(json.dumps(doc))
            code = main([_command_reading(node), str(path), "--window", "2000", "--scale", "4"])
            err = capsys.readouterr().err
            assert code in (0, 1, 2, 3, 4), node
            if code == 2:
                # a named message, not the bare text of a KeyError
                assert err.startswith("schema error: ") and err[14] not in "'\"", (node, err)


class TestPartitionDocuments:
    @pytest.mark.parametrize("blocks", [[["a"]], [["a", "b"], ["b", "c"]]], ids=["misses", "repeats"])
    def test_blocks_not_partitioning_exit_two_without_traceback(self, tmp_path, blocks):
        doc = {
            "version": 1,
            "space": {"kind": "finite", "elements": ["a", "b", "c"]},
            "structures": [{"name": "p", "type": "partition", "blocks": blocks}],
        }
        path = tmp_path / "partition.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", "check", str(path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr == "schema error: partition: blocks must partition the universe\n"


class TestMap:
    def test_equivalence_verified(self, capsys):
        code, out = run_cli(["map", str(NAT_LINE)], capsys)
        assert code == 0
        assert "equivalence with inverse: yes" in out

    def test_line_witnesses_are_the_slope_and_the_displacement_bounds(self, capsys):
        code, out = run_cli(["map", str(NAT_LINE), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["details"] == [
            {"map": 0, "structure_map": {"outcome": "yes", "witness": {"slope": "2/1"}}},
            {"map": 0, "equivalence": {"outcome": "yes", "witness": {"displacement_domain": 0, "displacement_codomain": 1}}},
        ]

    @pytest.mark.parametrize(
        "edit",
        [
            {"rule": "floor-div", "d": 10**9, "inverse": {"rule": "affine", "a": 10**9}},
            {"rule": "floor-div", "d": 10**30, "inverse": {"rule": "affine", "a": 10**30}},
            {"rule": "affine", "a": 1, "b": 10**12, "inverse": {"rule": "affine", "a": 1}},
        ],
        ids=["d-1e9", "d-1e30", "b-1e12"],
    )
    def test_displacement_scan_past_the_cap_exits_three(self, tmp_path, capsys, edit):
        doc = json.loads(NAT_LINE.read_text())
        doc["maps"][0] = {"name": "m", **edit}
        path = tmp_path / "cap.json"
        path.write_text(json.dumps(doc))
        assert main(["map", str(path)]) == 3
        assert capsys.readouterr().err.startswith("cap exceeded: displacement scan to ")

    def test_displacement_scan_below_the_cap_is_exact(self, tmp_path, capsys):
        doc = json.loads(NAT_LINE.read_text())
        doc["maps"][0] = {"name": "m", "rule": "floor-div", "d": 10**6, "inverse": {"rule": "affine", "a": 10**6}}
        path = tmp_path / "d.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["map", str(path), "--json"], capsys)
        assert code == 0
        assert json.loads(out)["details"][1]["equivalence"] == {
            "outcome": "yes", "witness": {"displacement_domain": 999_999, "displacement_codomain": 0}
        }

    def test_diverging_roundtrip_exits_one_with_its_witness(self, tmp_path, capsys):
        doc = json.loads(NAT_LINE.read_text())
        doc["maps"][0]["a"] = 3
        path = tmp_path / "slope.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["map", str(path)], capsys)
        assert code == 1
        assert "equivalence with inverse: no" in out


class TestExitCodes:
    def test_unknown_dominated_query_exits_four(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "space": {"kind": "nat-line"},
            "structures": [{"name": "d", "type": "metric-line"}],
            "queries": {
                "near": [
                    {
                        "sets": [
                            {"kind": "geometric", "m": 1, "b": 2, "k0": 1},
                            {"kind": "geometric", "m": 3, "b": 2, "k0": 1},
                        ]
                    }
                ]
            },
            "budgets": {"scale": 8, "window": 10000},
        }
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(doc))
        code, out = run_cli(["near", str(path)], capsys)
        assert code == 4
        assert "unknown" in out

    def test_five_point_partition_exits_three(self, tmp_path, capsys):
        # the constructor must refuse first: a 5-point member table would
        # need 2^32 entries, so the CLI half must never run without it
        with pytest.raises(CapExceeded):
            PartitionCoarseBackend(Universe.of(*"abcde"), [0b11111])
        doc = {
            "version": 1,
            "space": {"kind": "finite", "elements": list("abcde")},
            "structures": [{"name": "p", "type": "partition", "blocks": [list("abcde")]}],
        }
        path = tmp_path / "five.json"
        path.write_text(json.dumps(doc))
        assert main(["check", str(path)]) == 3
        assert "cap exceeded" in capsys.readouterr().err

    def test_cover_reporting_in_asdim(self, capsys):
        code, out = run_cli(["asdim", str(NAT_LINE)], capsys)
        assert code == 0
        assert "adjacent on d: uniformly bounded: yes" in out
        assert "stretch on d: uniformly bounded: no" in out


class TestMine:
    def test_non_ls_regular_within_three(self, capsys):
        code, out = run_cli(["mine", "--target", "non-ls-regular", "--max-size", "3"], capsys)
        assert code == 0
        assert "collection on 2 points" in out

    def test_product_failures(self, capsys):
        code, out = run_cli(
            ["mine", "--target", "nearness-product-failure", "--max-size", "4", "--json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["details"]) == 3

    def test_miner_deterministic(self, capsys):
        args = ["mine", "--target", "non-ls-regular", "--max-size", "3", "--seed", "5", "--json"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "coarselab.cli", "check", str(THREE_POINT)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "all-pass" in proc.stdout
