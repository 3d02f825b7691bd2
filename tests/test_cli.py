import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oscext
from oscext import cli
from oscext.cli import main

from conftest import FIXTURES


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _loads(code, module="scipy.spatial"):
    """Whether running ``code`` in a fresh interpreter imports ``module``.

    Raises ``CalledProcessError`` if ``code`` fails.
    """
    env = dict(os.environ, PYTHONPATH=str(Path(oscext.__file__).resolve().parents[1]))
    check = f"import sys, oscext.cli\n{code}\nprint({module!r} in sys.modules)"
    run = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True, text=True, check=True)
    return run.stdout.splitlines()[-1] == "True"


def test_import_loads_no_kd_tree():
    # scipy.spatial is imported where a kd-tree is built, so starting the
    # command line does not pay for it.
    assert not _loads("")


def test_small_euclidean_document_loads_no_kd_tree():
    # The coincident-point check of a small document reads dense blocks.
    instance = str(FIXTURES / "ordinal_k1.json")
    assert not _loads(f"assert oscext.cli.main(['validate', '--instance', {instance!r}]) == 0")


def test_line_of_any_size_loads_no_kd_tree():
    # On the line the nearest points come from sort neighbours, at any size.
    assert not _loads("assert oscext.cli.main(['validate', '--generate', 'random:7:20000:1']) == 0")


def test_prefix_metric_commands_load_no_masked_arrays():
    # np.unique imports numpy.ma (about 0.9 MB); the prefix-metric kernels
    # take their distinct cylinder lengths without it.
    run = """
for argv in (['ex1', '--depths', '6,8'], ['index', '--generate', 'cantor:8'],
             ['extend', '--generate', 'cantor:8', '--method', 'scattered']):
    assert oscext.cli.main(argv) == 0
"""
    assert not _loads(run, "numpy.ma")


@pytest.mark.parametrize("spec", ["ordinal:3", "cantor:8"])
def test_scattered_loads_no_sparse_graphs(spec):
    # On the clopen families the visibility components are chains of ball
    # runs, so scipy.sparse (and the kd-tree module, which imports it) stays out.
    run = f"assert oscext.cli.main(['extend', '--generate', {spec!r}, '--method', 'scattered']) == 0"
    assert not _loads(run, "scipy.sparse")


class Label(str):
    pass


class Count(int):
    pass


# Scalars the encoders treat alike, plus subclasses and numpy scalars, and
# strings that hold, unescaped, the separators the fast path rewrites.
TRICKY = ["],\n    [", "}, {", '"],\n    ["', "},\n    {", "\x00\x1f\u2028\u00e9\U0001f600", "\\", ""]
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(min_value=-2**80, max_value=2**80), st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 2**70, *TRICKY]), st.text(max_size=6),
    st.builds(np.float64, st.floats()), st.builds(Label, st.text(max_size=3)), st.builds(Count, st.integers()),
)
KEYS = st.one_of(st.text(max_size=4), st.sampled_from(TRICKY))


def json_values(leaves):
    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
        st.dictionaries(st.integers(-3, 3), inner, max_size=3),  # non-str keys
        st.tuples(inner, inner),
        st.lists(st.lists(leaves, min_size=1, max_size=3), max_size=4),  # rows of one kind
        st.lists(st.dictionaries(KEYS, leaves, min_size=1, max_size=3), max_size=4),
    ), max_leaves=25)


class TestJsonEmission:
    """``_emit_json`` writes the bytes of ``json.dumps(obj, sort_keys=True, indent=2)``."""

    @staticmethod
    def assert_same_text(obj):
        assert cli._indented(obj, "") == json.dumps(obj, sort_keys=True, indent=2)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(obj=json_values(SCALARS))
    def test_matches_stdlib(self, obj):
        self.assert_same_text(obj)

    @pytest.mark.parametrize("obj", [
        [], {}, [[]], [{}], {"a": []}, [[], [1]], [[1], []], [{}, {"a": 1}], [[1, 2], {"a": 1}],
        [1, [2], {"b": 3, "a": [4, [5]]}], [[[1]]], [[[1], [2]], [[3]]], (1, 2), [(1, 2), (3,)],
        {2: "b", 1: ["a"]}, {"k": {1: 2}}, [np.float64(0.1), 2.0], [[np.float64(-0.0)]],
        {"z": Label("x"), "a": Count(3)}, [[True, None, -0.0, float("nan"), 2**70]],
        [{"},\n    {": "],\n    [", "a": '"],\n    ["'}, {"b": "}, {"}], "\u00e9\n\t\x7f",
    ], ids=repr)
    def test_edge_cases(self, obj):
        self.assert_same_text(obj)

    def test_stdlib_errors_stay(self):
        for obj in ([np.int64(1)], {"a": [1, {1: 2, "b": 3}]}, [[object()]]):
            with pytest.raises(TypeError):
                json.dumps(obj, sort_keys=True, indent=2)
            with pytest.raises(TypeError):
                cli._indented(obj, "")

    def test_ladder_report(self, capsys):
        code, out, _err = run(capsys, "extend", "--generate", "ordinal:2", "--method", "layered")
        assert code == 0 and out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


class TestValidate:
    def test_valid_fixture(self, capsys):
        code, out, _err = run(capsys, "validate", "--instance", str(FIXTURES / "sequence_space.json"))
        assert code == 0
        summary = json.loads(out)
        assert summary["points"] == 11

    def test_broken_triangle_exits_one(self, capsys):
        code, _out, err = run(capsys, "validate", "--instance", str(FIXTURES / "broken_triangle.json"))
        assert code == 1
        assert "(0,1,2)" in err

    def test_generator_spec(self, capsys):
        code, out, _err = run(capsys, "validate", "--generate", "cantor:5")
        assert code == 0
        assert json.loads(out)["points"] == 64

    @pytest.mark.parametrize("source, check", [
        (["--generate", "cantor:5"], "by_construction"),
        (["--instance", str(FIXTURES / "sequence_space.json")], "by_construction"),
    ])
    def test_triangle_check_reported(self, capsys, source, check):
        code, out, _err = run(capsys, "validate", *source)
        assert code == 0
        assert json.loads(out)["triangle_check"] == check

    @pytest.mark.parametrize("n, check", [(3, "exhaustive"), (500, "exhaustive"), (501, "sampled")])
    def test_triangle_check_by_matrix_size(self, capsys, tmp_path, n, check):
        # the discrete metric: every distinct pair at distance 1
        data = np.ones((n, n)) - np.eye(n)
        path = tmp_path / "discrete.json"
        path.write_text(json.dumps(matrix_doc(points=[{"id": i} for i in range(n)],
                                              metric={"type": "matrix", "data": data.tolist()},
                                              fields={})))
        code, out, _err = run(capsys, "validate", "--instance", str(path))
        assert code == 0
        assert json.loads(out)["triangle_check"] == check

    def test_requires_one_source(self, capsys):
        code, _out, err = run(capsys, "validate")
        assert code == 1
        assert "exactly one" in err


class TestIndex:
    def test_constant_field_all_ones(self, capsys, tmp_path):
        # constant field via a matrix document written on the fly
        doc = {
            "name": "const",
            "resolution": 0.5,
            "points": [{"id": i} for i in range(3)],
            "metric": {"type": "matrix", "data": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
            "fields": {"f": {"domain": [0, 1, 2], "values": [2.0, 2.0, 2.0]}},
        }
        path = tmp_path / "const.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "index", "--instance", str(path),
                           "--format", "csv", "--epsilon-grid", "0.5,0.25")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "epsilon,index,level_sizes"
        assert all(line.split(",")[1] == "1" for line in lines[1:])

    def test_ordinal_parity_index(self, capsys):
        code, out, _ = run(capsys, "index", "--generate", "ordinal:1",
                           "--policy", "adaptive:3", "--epsilon-grid", "0.5",
                           "--format", "csv")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[1] == "2"

    def test_missing_field(self, capsys):
        code, _out, err = run(capsys, "index", "--generate", "ordinal:1", "--field", "nope")
        assert code == 1
        assert "nope" in err


class TestExtend:
    def test_limsup_report(self, capsys, tmp_path):
        out_path = tmp_path / "report.json"
        code, _out, err = run(capsys, "extend", "--generate", "sequence",
                              "--method", "limsup", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["report"]["restriction_error"] == 0.0
        assert "F_limsup" in payload["instance"]["fields"]
        assert "patch_magnitude" in err

    def test_layered_on_cantor(self, capsys, tmp_path):
        out_path = tmp_path / "layered.json"
        code, _out, _err = run(capsys, "extend", "--generate", "cantor:6",
                               "--method", "layered", "--out", str(out_path))
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["report"]["assertion_log"] == []

    def test_glue_saturated_exits_two(self, capsys):
        code, _out, err = run(capsys, "extend", "--generate", "sequence",
                              "--method", "glue", "--policy", "adaptive:3",
                              "--epsilon", "0.5")
        assert code == 2
        assert "saturated" in err

    def test_unknown_method(self, capsys):
        code, _out, err = run(capsys, "extend", "--generate", "sequence", "--method", "wat")
        assert code == 1
        assert "unknown method" in err

    def test_scattered_on_ordinal_fixture(self, capsys):
        # the document's family key admits the fixture to the scattered construction
        code, out, _err = run(capsys, "extend", "--instance", str(FIXTURES / "ordinal_k1.json"),
                              "--method", "scattered")
        assert code == 0
        from_fixture = json.loads(out)["instance"]
        code, out, _err = run(capsys, "extend", "--generate", "ordinal:1", "--method", "scattered")
        assert code == 0
        assert from_fixture["family"] == "ordinal"
        assert from_fixture["fields"]["F_scattered"] == json.loads(out)["instance"]["fields"]["F_scattered"]


class TestCompare:
    def test_rows_and_determinism(self, capsys, tmp_path):
        args = ["compare", "--generate", "ordinal:2:6", "--field", "pos",
                "--methods", "scattered,limsup", "--format", "csv"]
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        code1, _o, _e = run(capsys, *args, "--out", str(p1))
        code2, _o, _e = run(capsys, *args, "--out", str(p2))
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()
        rows = [l.split(",") for l in p1.read_text().strip().splitlines()[1:]]
        scattered = [r for r in rows if r[0] == "scattered"]
        assert scattered and all(r[2] != "SATURATED" and int(r[2]) <= 2 for r in scattered)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_timings_add_a_last_column(self, capsys, fmt):
        args = ["compare", "--generate", "ordinal:1", "--methods", "scattered,limsup", "--format", fmt]
        code, plain, _err = run(capsys, *args)
        assert code == 0
        code, timed, _err = run(capsys, *args, "--timings")
        assert code == 0
        if fmt == "csv":
            plain_rows = [line.split(",") for line in plain.splitlines()]
            timed_rows = [line.split(",") for line in timed.splitlines()]
            assert timed_rows[0] == plain_rows[0] + ["wall_ms"]
            assert [row[:-1] for row in timed_rows[1:]] == plain_rows[1:]
            walls = [row[-1] for row in timed_rows[1:]]
        else:
            timed_rows = json.loads(timed)
            walls = [row.pop("wall_ms") for row in timed_rows]
            assert timed_rows == json.loads(plain)
        assert walls and all(float(w) >= 0 for w in walls)

    def test_needs_two_methods(self, capsys):
        code, _out, err = run(capsys, "compare", "--generate", "sequence", "--methods", "limsup")
        assert code == 1

    def test_unknown_method_is_refused_before_any_construction(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(cli, "_run_method", lambda method, *args: ran.append(method))
        code, out, err = run(capsys, "compare", "--generate", "ordinal:3", "--methods", "layered,scattered,bogus")
        assert code == 1 and out == ""
        assert "unknown method 'bogus'" in err
        assert ran == []


class TestEx1:
    def test_small_depth_sweep(self, capsys, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["ex1", "--depths", "2,4"]
        code1, _o, _e = run(capsys, *args, "--out", str(p1))
        code2, _o, _e = run(capsys, *args, "--out", str(p2))
        assert code1 == code2 == 0
        assert p1.read_bytes() == p2.read_bytes()
        payload = json.loads(p1.read_text())
        assert set(payload) == {"2", "4"}
        for block in payload.values():
            assert set(block) == {"layered", "limsup"}

    def test_csv_format(self, capsys):
        code, out, _e = run(capsys, "ex1", "--depths", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "depth,method,epsilon,index"

    def test_non_integer_depth_exits_one(self, capsys):
        code, out, err = run(capsys, "ex1", "--depths", "6,x")
        assert code == 1
        assert out == ""
        assert "bad depth list '6,x'" in err


class TestCantorDepthCap:
    """Depths above 20 are rejected before the 2^(depth+1) points are enumerated."""

    @pytest.mark.parametrize("argv", [
        ["validate", "--generate", "cantor:40"],
        ["extend", "--generate", "cantor:21", "--method", "layered"],
        ["ex1", "--depths", "6,40"],
    ])
    def test_exits_one_at_once(self, capsys, argv):
        started = time.monotonic()
        code, out, err = run(capsys, *argv)
        assert time.monotonic() - started < 1.0
        assert code == 1
        assert out == ""
        assert "depth must be at most 20 (2^21 points)" in err


class TestOrdinalSizeCap:
    """Ladders above 2^14 points are rejected before any point is built."""

    @pytest.mark.parametrize("spec, ladder, count", [
        ("ordinal:5", "ordinal:5:10", 111111),
        ("ordinal:40", "ordinal:40:10", (10**41 - 1) // 9),
        ("ordinal:2:100000", "ordinal:2:100000", 10000100001),
    ])
    def test_exits_one_at_once(self, capsys, spec, ladder, count):
        started = time.monotonic()
        code, out, err = run(capsys, "validate", "--generate", spec)
        assert time.monotonic() - started < 1.0
        assert code == 1
        assert out == ""
        assert f"{ladder} has {count} points, more than 16384 (2^14)" in err

    def test_largest_default_ladder_is_kept(self):
        from oscext.instances import ordinal_instance

        assert ordinal_instance(4).n == 11111


class TestRoundsCap:
    def test_above_1074_exits_one_at_once(self, capsys):
        started = time.monotonic()
        code, out, err = run(capsys, "extend", "--generate", "ordinal:3", "--method", "iterated",
                             "--rounds", "1075")
        assert time.monotonic() - started < 1.0
        assert code == 1
        assert out == ""
        assert "rounds must be at most 1074" in err


class TestNonFiniteParameters:
    @pytest.mark.parametrize("argv", [
        ["index", "--generate", "cantor:4", "--policy", "adaptive:nan"],
        ["index", "--generate", "cantor:4", "--policy", "fixed:inf"],
        ["index", "--generate", "cantor:4", "--epsilon-grid", "nan"],
        ["extend", "--generate", "sequence", "--method", "glue", "--epsilon", "nan"],
    ])
    def test_exits_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert "finite" in err

    def test_non_numeric_grid_exits_one(self, capsys):
        code, _out, err = run(capsys, "index", "--generate", "cantor:4", "--epsilon-grid", "0.5,abc")
        assert code == 1
        assert "bad epsilon grid" in err

    @pytest.mark.parametrize("grid, message", [(",", "nonempty"), ("0.25,0.5", "strictly decreasing"),
                                               ("0.5,0.5", "strictly decreasing"), ("0.5,-0.1", "positive")])
    def test_grid_rule_is_index_profiles(self, capsys, grid, message):
        """The command line refuses a bad grid by index_profile's rule and message."""
        code, out, err = run(capsys, "index", "--generate", "cantor:4", "--epsilon-grid", grid)
        assert (code, out) == (1, "")
        assert message in err


class TestUsage:
    def test_emit_plot_data_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--generate", "cantor:5", "--emit-plot-data"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --emit-plot-data" in capsys.readouterr().err

    # Each subcommand with a valid argument list, and the shared flags it does not read.
    BASE = {"validate": ["--generate", "cantor:5"], "index": ["--generate", "cantor:5"],
            "extend": ["--generate", "cantor:5", "--method", "limsup"], "ex1": ["--depths", "6"]}
    UNREAD = {"validate": ["--field", "--subset", "--epsilon-grid", "--policy", "--epsilon", "--max-layers",
                           "--rounds", "--format"],
              "index": ["--epsilon", "--max-layers", "--rounds"],
              "extend": ["--epsilon-grid", "--format"],
              "ex1": ["--instance", "--generate", "--field", "--subset", "--policy", "--epsilon", "--rounds"]}
    VALUE = {"--instance": str(FIXTURES / "cantor_depth_6.json"), "--generate": "cantor:5", "--field": "f",
             "--subset": "Y", "--epsilon-grid": "0.5", "--policy": "fixed:0.01", "--epsilon": "0.5",
             "--max-layers": "3", "--rounds": "3", "--format": "csv"}

    @pytest.mark.parametrize("command, flag", [(c, f) for c, flags in UNREAD.items() for f in flags])
    def test_unread_flag_is_a_usage_error(self, capsys, command, flag):
        with pytest.raises(SystemExit) as exc:
            main([command, *self.BASE[command], flag, self.VALUE[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {self.VALUE[flag]}" in capsys.readouterr().err


class TestFileErrors:
    def test_missing_instance_file(self, capsys):
        code, _out, err = run(capsys, "validate", "--instance", "/nonexistent/x.json")
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("target", ["missing_dir/x.json", "."], ids=["missing_directory", "directory"])
    def test_unwritable_output_path_exits_one(self, capsys, tmp_path, target):
        code, out, err = run(capsys, "validate", "--generate", "ordinal:1", "--out", str(tmp_path / target))
        assert code == 1 and out == ""
        assert "cannot write output file" in err

    def test_non_json_instance_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _out, err = run(capsys, "validate", "--instance", str(bad))
        assert code == 1
        assert "not valid JSON" in err


def two_point_doc(coords):
    return {
        "name": "twins",
        "resolution": 0.5,
        "points": [{"id": 0}, {"id": 1}],
        "metric": {"type": "euclidean", "coords": coords},
        "fields": {"f": {"domain": [0, 1], "values": [0.0, 1.0]}},
        "subsets": {"Y": [0, 1]},
    }


def cantor_doc(depth):
    return {"name": "deep", "resolution": 0.5, "points": [{"id": 0}],
            "metric": {"type": "cantor", "depth": depth}}


def cantor6_doc(edit):
    """The depth-6 fixture with its point list passed through ``edit``."""
    doc = json.loads((FIXTURES / "cantor_depth_6.json").read_text())
    edit(doc["points"])
    return doc


def swap_labels(points):
    points[0]["label"], points[1]["label"] = points[1]["label"], points[0]["label"]


def repeat_label(points):
    points[5]["label"] = points[4]["label"]


def matrix_doc(**changes):
    doc = {
        "name": "doc",
        "resolution": 0.5,
        "points": [{"id": i} for i in range(3)],
        "metric": {"type": "matrix", "data": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
        "fields": {"f": {"domain": [0, 1, 2], "values": [0.0, 1.0, 2.0]}},
    }
    doc.update(changes)
    return doc


class TestMalformedDocuments:
    """Each document used to end in a traceback, or (equal coordinates,
    non-integer or repeated ids) to pass validation; each must exit 1 with a
    message."""

    @pytest.mark.parametrize("doc, message", [
        (matrix_doc(points=[{"id": 0}, {"label": "no id"}, {"id": 2}]), "integer id"),
        (matrix_doc(resolution="0.5"), "resolution must be a number"),
        (matrix_doc(fields={"f": {"domain": [0, 1, 2], "values": ["a", "b", "c"]}}),
         "field 'f' values is malformed"),
        (matrix_doc(metric={"type": "matrix", "data": [[0, 1, 1], [1, 0], [1, 1, 0]]}),
         "metric matrix is malformed"),
        (matrix_doc(fields={"f": {"domain": 3, "values": [0.0, 1.0, 2.0]}}),
         "field 'f' domain and values must be lists"),
        (matrix_doc(subsets=[[0, 1]]), "subsets must be an object"),
        (matrix_doc(fields=[{"domain": [0], "values": [0.0]}]), "fields must be an object"),
        (two_point_doc([[0.5, 0.0], [0.5, 0.0]]), "points 0 and 1 have equal coordinates"),
        (two_point_doc([[0.5, 0.0], [0.5, -0.0]]), "points 0 and 1 have equal coordinates"),
        (two_point_doc([0.25, 0.25]), "points 0 and 1 have equal coordinates"),
        (matrix_doc(subsets={"Y": [0.7, 1.9]}), "subset 'Y' must be a list of integer point ids"),
        (matrix_doc(subsets={"Z": 2}), "subset 'Z' must be a list of integer point ids"),
        (matrix_doc(subsets={"Y": [True, False]}), "subset 'Y' must be a list of integer point ids"),
        (matrix_doc(fields={"f": {"domain": [0.5, 1, 2], "values": [0.0, 1.0, 2.0]}}),
         "field 'f' domain must be a list of integer point ids"),
        (matrix_doc(fields={"f": {"domain": [0, 0, 1], "values": [5.0, 1.0, 2.0]}}),
         "domain repeats point id 0"),
        (matrix_doc(fields={"f": {"domain": [0, 1, 5], "values": [0.0, 1.0, 2.0]}}),
         "unknown point id 5"),
        (matrix_doc(subsets={"Y": [2**70]}), "subset 'Y' is malformed"),
        (cantor_doc(64), "depth must be at most 20 (2^21 points), got 64"),
        (cantor_doc(21), "depth must be at most 20 (2^21 points), got 21"),
        ({**cantor_doc(2), "points": [{"id": i, "label": "zz"} for i in range(8)]},
         "cantor point label 'zz' does not end in +0 or +1"),
        (cantor6_doc(swap_labels), "point 0 has label '1+0'; the cantor space of depth 6 has '+0' there"),
        (cantor6_doc(repeat_label), "point 5 has label '001+0'; the cantor space of depth 6 has '011+0' there"),
        (matrix_doc(family="ordinal"), "family 'ordinal' does not fit metric type 'matrix'"),
        ({**two_point_doc([0.0, 1.0]), "family": "cantor"}, "family 'cantor' does not fit metric type 'euclidean'"),
        (matrix_doc(resolution=10**400), "resolution is too large to be a float"),
        (matrix_doc(resolution=5e-324), "resolution must lie in [2^-1022, 2^1022]"),
        (matrix_doc(resolution=1e308), "resolution must lie in [2^-1022, 2^1022]"),
        (two_point_doc([0.0, 1e200]), "the diameter inf exceeds 2^1022"),
        (matrix_doc(metric={"type": "matrix", "data": [[0, 1e308, 1e308], [1e308, 0, 1e308], [1e308, 1e308, 0]]}),
         "the diameter 1e+308 exceeds 2^1022"),
        (two_point_doc([[0.0, 0.0], [1e-300, 1e-300]]), "points 0 and 1 are at distance 0.0"),
        (matrix_doc(metric={"type": "matrix", "data": [[0, 5e-324, 1], [5e-324, 0, 1], [1, 1, 0]]}),
         "metric(0,1) must be at least 2^-1022 for distinct points"),
    ], ids=["point_without_id", "string_resolution", "non_numeric_field", "ragged_matrix",
            "numeric_field_domain", "subsets_list", "fields_list", "equal_coordinates",
            "signed_zero_coordinates", "equal_1d_coordinates", "fractional_subset_ids",
            "numeric_subset", "bool_subset_ids", "fractional_domain_ids", "repeated_domain_id",
            "unknown_domain_id", "oversized_subset_id", "cantor_depth_beyond_codes",
            "cantor_depth_beyond_generators", "cantor_label_without_tail", "swapped_cantor_labels",
            "duplicated_cantor_label", "family_of_another_metric", "cantor_family_on_euclidean", "huge_integer_resolution",
            "subnormal_resolution", "huge_resolution", "overflowing_distance", "huge_matrix_distance",
            "underflowing_distance", "subnormal_matrix_distance"])
    def test_exits_one(self, capsys, tmp_path, doc, message):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, _out, err = run(capsys, "validate", "--instance", str(path))
        assert code == 1
        assert err.startswith("validation error:")
        assert message in err

    @pytest.mark.parametrize("argv", [["index"], ["extend", "--method", "limsup"]])
    def test_huge_integer_resolution_exits_one(self, capsys, tmp_path, argv):
        # used to end in a TypeError from np.isfinite on the Python int
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(matrix_doc(resolution=10**400)))
        code, out, err = run(capsys, *argv, "--instance", str(path))
        assert code == 1
        assert out == ""
        assert "resolution is too large to be a float" in err

    @pytest.mark.parametrize("doc, method", [
        (matrix_doc(resolution=5e-324), "limsup"),
        (two_point_doc([0.0, 1.0]) | {"resolution": 5e-324}, "layered"),
        (matrix_doc(resolution=1e308), "limsup"),
        (two_point_doc([0.0, 1e200]), "limsup"),
        (two_point_doc([[0.0, 0.0], [1e-300, 1e-300]]), "glue"),
    ], ids=["subnormal_resolution_limsup", "subnormal_resolution_layered", "huge_resolution_limsup",
            "overflowing_distance_limsup", "underflowing_distance_glue"])
    def test_scale_range_extend_exits_one(self, capsys, tmp_path, doc, method):
        # found by the document fuzzer: OverflowError tracebacks from the radius
        # grids, and exit 3 from a cover radius that underflowed to zero
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "extend", "--instance", str(path), "--method", method)
        assert code == 1
        assert out == ""
        assert err.startswith("validation error:")

    @pytest.mark.parametrize("coords", [[0.0, 1e200], [[1e200, -1e200, 1e200], [-1e200, 1e200, 0.0]]],
                             ids=["line", "space3d"])
    @pytest.mark.parametrize("argv", [["validate"], ["extend", "--method", "limsup"]])
    def test_overflowing_distance_is_silent(self, capsys, tmp_path, coords, argv):
        # A squared difference past the double range is a silent inf: the
        # validation message is all of stderr, and no warning is raised.
        path = tmp_path / "far.json"
        path.write_text(json.dumps(two_point_doc(coords)))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv, "--instance", str(path))
        assert (code, out, [str(w.message) for w in caught]) == (1, "", [])
        assert err == "validation error: the diameter inf exceeds 2^1022\n"

    @pytest.mark.parametrize("fixture, family", [("ordinal_k1.json", "ordinal"),
                                                 ("sequence_space.json", "sequence")])
    def test_line_family_with_two_columns_exits_one(self, capsys, tmp_path, fixture, family):
        # used to pass validation and run the scattered construction, whose
        # argument assumes 1-D distances, on two coordinate columns
        doc = json.loads((FIXTURES / fixture).read_text())
        doc["metric"]["coords"] = [p + [0.25] for p in doc["metric"]["coords"]]
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "extend", "--instance", str(path), "--method", "scattered")
        assert code == 1
        assert out == ""
        assert f"family '{family}' needs one coordinate column, the document has 2" in err

    def test_duplicate_coordinates_glue_exits_one(self, capsys, tmp_path):
        # used to pass validation and then exit 3 from the glue cover
        path = tmp_path / "twins.json"
        path.write_text(json.dumps(two_point_doc([[0.5, 0.0], [0.5, 0.0]])))
        code, out, err = run(capsys, "extend", "--instance", str(path),
                             "--method", "glue", "--epsilon", "0.5")
        assert code == 1
        assert out == ""
        assert "equal coordinates" in err

    def test_cantor_point_count_checked_before_enumeration(self, capsys, tmp_path):
        # enumerating 2^41 points would never finish, and 2^21 points take
        # seconds; the depth bound, then the count check, come first
        for depth, message in [(40, "depth must be at most 20 (2^21 points), got 40"),
                               (20, "cantor depth 20 has 2097152 points, document lists 1")]:
            path = tmp_path / "deep.json"
            path.write_text(json.dumps(cantor_doc(depth)))
            started = time.monotonic()
            code, _out, err = run(capsys, "validate", "--instance", str(path))
            assert time.monotonic() - started < 1.0
            assert code == 1
            assert message in err


class TestLayeredPreconditions:
    """Documents the layered construction cannot serve exit 2 and name the
    cause, from ``extend`` and from ``compare``."""

    DOCS = {
        # Resolution 1000 admits point 1 at 100 from Y; layer 0's anchors lie within 2.
        "far point": ({"name": "far", "resolution": 1000, "points": [{"id": 0}, {"id": 1}],
                       "metric": {"type": "euclidean", "coords": [[0.0], [100.0]]},
                       "fields": {"f": {"domain": [0, 1], "values": [1.0, -1.0]}}, "subsets": {"Y": [0]}},
                      "point 1 is at distance 100.0 >= 2 from Y"),
        "far matrix point": (matrix_doc(resolution=8, points=[{"id": 0}, {"id": 1}],
                                        metric={"type": "matrix", "data": [[0, 5], [5, 0]]},
                                        fields={"f": {"domain": [0, 1], "values": [1.0, -1.0]}},
                                        subsets={"Y": [0]}),
                             "point 1 is at distance 5.0 >= 2 from Y"),
        # Every point stays in layer 0, where F_0 mixes f over Y: a range of 4 breaks the bound 2.
        "wide range": ({"name": "range", "resolution": 1, "points": [{"id": i} for i in range(3)],
                        "metric": {"type": "euclidean", "coords": [[0.0], [0.125], [0.25]]},
                        "fields": {"f": {"domain": [0, 1, 2], "values": [-1.0, 3.0, 0.5]}},
                        "subsets": {"Y": [0, 1, 2]}},
                       "f ranges over 4.0 > 2 on Y, and point 1 of Y stays in layer 0"),
    }

    @pytest.mark.parametrize("name", sorted(DOCS))
    @pytest.mark.parametrize("command", [["extend", "--method", "layered"],
                                         ["compare", "--methods", "limsup,layered"]])
    def test_exits_two(self, capsys, tmp_path, name, command):
        doc, cause = self.DOCS[name]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, *command, "--instance", str(path))
        assert code == 2 and out == ""
        assert cause in err
