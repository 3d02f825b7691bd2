"""A document fuzzer: mutated fixtures through ``cli.main``.

Bad input must end in exit 1 (validation) or 2 (precondition), never in a
traceback, a warning or exit 3, which is kept for implementation bugs.
Each example runs under an alarm, which catches documents that would make a
command run away (the depth-bomb class).
"""

import contextlib
import copy
import io
import json
import signal
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from oscext.cli import main

from conftest import FIXTURES

SEEDS = ("ordinal_k1.json", "sequence_space.json", "cantor_depth_6.json", "adversarial_union.json")
DOCS = {name: json.loads((FIXTURES / name).read_text()) for name in SEEDS}
COMMANDS = (
    ["validate"],
    ["index"],
    *(["extend", "--method", m] for m in ("glue", "iterated", "layered", "limsup", "scattered", "retract")),
)
KINDS = ("drop", "replace", "depth", "family", "label", "resolution", "scale", "column", "values", "prefix")
# The layered construction on its own, where the field and Y mutations bite.
LAYERED_COMMANDS = (["extend", "--method", "layered"], ["compare", "--methods", "limsup,layered"])
LAYERED_KINDS = ("values", "prefix", "scale", "coarse")
# Wrong types, NaN and inf (as JSON tokens and as strings), huge and extreme numbers.
BAD_VALUES = (
    None, True, False, "", "x", "NaN", "inf", "-Infinity", float("nan"), float("inf"), float("-inf"),
    10**400, -(10**400), 2**63, 2**64, -(2**63) - 1, -1, 0, 0.5, -0.0, 5e-324, 1e-300, 1e308, -1e308,
    [], {}, [0, 1], [[0.0]], {"type": "matrix"}, [float("nan")],
)
DEPTHS = (-5, 0, 1, 2, 20, 21, 62, 63, 64, 10**6, 2**63, 10**400)
FAMILIES = ("cantor", "ordinal", "sequence", "euclidean", "matrix", "", "bogus", 3, None, ["ordinal"])
LABELS = ("", "+0", "+1", "0+0", "01+1", "2+0", "x", 5, None, "1" * 70 + "+0", "+0+1")
# Extreme resolutions and coordinate scales: subnormal, and near the top of the double range.
EXTREMES = (5e-324, 2.0**-1022, 1e-300, 1e-160, 1e160, 1e300, 2.0**1022, 1e308)
# Resolutions of 2 and above, where a point of Y may stay in layer 0 of the
# layered construction.
COARSE = (2.0, 8.0, 1e160)
# Field scales: a range above 2, a sign flip, and values near the top of the double range.
VALUE_FACTORS = (3, -5, 1e300)
SECONDS_PER_EXAMPLE = 5


def _paths(obj, prefix=()):
    """Every key or index path inside a document, parents before children."""
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


def _mutate(data, doc, kinds):
    kind = data.draw(st.sampled_from(kinds), label="kind")
    if kind in ("drop", "replace"):
        paths = list(_paths(doc))
        if not paths:
            return
        path = data.draw(st.sampled_from(paths), label="path")
        parent = _parent(doc, path)
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(st.sampled_from(BAD_VALUES), label="value")
    elif kind == "depth":
        metric = doc.get("metric")
        if not isinstance(metric, dict):
            doc["metric"] = metric = {}
        if data.draw(st.booleans(), label="make cantor"):
            metric["type"] = "cantor"
        metric["depth"] = data.draw(st.sampled_from(DEPTHS), label="depth")
    elif kind in ("resolution", "coarse"):
        doc["resolution"] = data.draw(st.sampled_from(EXTREMES if kind == "resolution" else COARSE), label=kind)
    elif kind == "scale":
        metric = doc.get("metric")
        coords = metric.get("coords") if isinstance(metric, dict) else None
        if isinstance(coords, list) and all(isinstance(p, list) for p in coords):
            factor = data.draw(st.sampled_from(EXTREMES), label="factor")
            metric["coords"] = [[c * factor if isinstance(c, float) else c for c in p] for p in coords]
    elif kind == "column":
        # One more coordinate per point: 2-D documents of the 1-D families.
        metric = doc.get("metric")
        coords = metric.get("coords") if isinstance(metric, dict) else None
        if isinstance(coords, list) and all(isinstance(p, list) for p in coords):
            value = data.draw(st.sampled_from((0.0, 0.25, -3.0)), label="column value")
            metric["coords"] = [p + [value] for p in coords]
    elif kind == "values":
        fields = doc.get("fields")
        if isinstance(fields, dict) and fields:
            field = fields[data.draw(st.sampled_from(sorted(fields)), label="field")]
            values = field.get("values") if isinstance(field, dict) else None
            if isinstance(values, list):
                factor = data.draw(st.sampled_from(VALUE_FACTORS), label="value factor")
                field["values"] = [v * factor if isinstance(v, float) else v for v in values]
    elif kind == "prefix":
        subsets = doc.get("subsets")
        Y = subsets.get("Y") if isinstance(subsets, dict) else None
        if isinstance(Y, list):
            subsets["Y"] = Y[:data.draw(st.integers(0, len(Y)), label="prefix")]
    elif kind == "family":
        doc["family"] = data.draw(st.sampled_from(FAMILIES), label="family")
    else:
        points = doc.get("points")
        if isinstance(points, list) and points and isinstance(points[0], dict):
            i = data.draw(st.integers(0, len(points) - 1), label="point")
            if isinstance(points[i], dict):
                points[i]["label"] = data.draw(st.sampled_from(LABELS), label="label")


class _Timeout(Exception):
    pass


@contextlib.contextmanager
def _alarm(seconds):
    def ring(_signum, _frame):
        raise _Timeout(f"example ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.json"


def _run_mutated(doc_path, data, kinds, commands):
    name = data.draw(st.sampled_from(SEEDS), label="seed")
    doc = copy.deepcopy(DOCS[name])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        _mutate(data, doc, kinds)
    doc_path.write_text(json.dumps(doc))
    argv = [*data.draw(st.sampled_from(commands), label="command"), "--instance", str(doc_path)]
    out, err = io.StringIO(), io.StringIO()
    with (_alarm(SECONDS_PER_EXAMPLE), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(argv)
    assert code in (0, 1, 2), err.getvalue()
    assert not caught, [str(w.message) for w in caught]  # numpy warnings would print to stderr


@settings(derandomize=True, database=None, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_documents_exit_cleanly(doc_path, data):
    _run_mutated(doc_path, data, KINDS, COMMANDS)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_layered_on_mutated_documents_exits_cleanly(doc_path, data):
    _run_mutated(doc_path, data, LAYERED_KINDS, LAYERED_COMMANDS)
