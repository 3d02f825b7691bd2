import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from oscext import (
    SpaceInstance,
    cantor_instance,
    indicator_field,
    ordinal_instance,
    random_instance,
    sequence_space,
)
from oscext.space import CantorMetric, MatrixMetric

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def seq10():
    return sequence_space(10)


@pytest.fixture(scope="session")
def seq_indicator(seq10):
    return indicator_field(seq10, [0])


@pytest.fixture(scope="session")
def cantor6():
    return cantor_instance(6)


@pytest.fixture(scope="session")
def cantor8():
    return cantor_instance(8)


@pytest.fixture(scope="session")
def ordinal1():
    return ordinal_instance(1, 10)


@pytest.fixture(scope="session")
def ordinal2():
    return ordinal_instance(2, 6)


@pytest.fixture(scope="session")
def rand60():
    return random_instance(11, 60, 2)


def tiny_matrix_space(data, resolution=0.5, name="tiny"):
    return SpaceInstance(name, MatrixMetric(np.asarray(data, dtype=float)), resolution)


def prefix_codes(metric, c):
    """Each point's first c coordinates, packed: the full code shifted right, 0 at c = 0."""
    return metric.code >> np.uint64(metric.width - c) if c else np.zeros_like(metric.code)


def wide_space(width=53, n=40, seed=5):
    """Random distinct points of the widest prefix metric, plus pairs whose
    code XOR is 2^b - 1 with b up to the width: the longest mantissas a
    float64 exponent must still read exactly."""
    rng = np.random.default_rng(seed)
    rows = {tuple(r) for r in rng.integers(0, 2, size=(n, width))}
    for lead in (0, 3, 9):
        low = [0] * lead + [0] + [1] * (width - lead - 1)
        high = [0] * lead + [1] + [0] * (width - lead - 1)
        rows.update({tuple(low), tuple(high)})
    codes = np.array([int("".join(map(str, r)), 2) for r in sorted(rows)], dtype=np.uint64)
    return SpaceInstance(f"wide_{width}", CantorMetric(codes, width), resolution=2.0**-8, family="cantor")


def identical(a, b):
    """Same dtype, shape and values, NaNs equal; ``None`` equals only ``None``."""
    if a is None or b is None:
        return a is None and b is None
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b, equal_nan=True)


def all_identical(got, want):
    return len(got) == len(want) and all(identical(g, w) for g, w in zip(got, want))


def assert_identical_layers(got, want):
    """Two layer lists bit for bit: carriers, centers, depths, values and level numbers."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.k == w.k
        assert identical(g.carrier.mask, w.carrier.mask)
        for name in ("centers", "depths", "values", "level_numbers", "min_prev_level"):
            assert identical(getattr(g, name), getattr(w, name)), (g.k, name)


def dense_ball_extremes(space, queries, radii, targets, fvals):
    """Max and min of f over the targets strictly inside each query's open ball,
    from ``dist_rows`` blocks of 16 queries; (-inf, inf) for an empty ball."""
    maxv = np.empty(queries.size)
    minv = np.empty(queries.size)
    for lo in range(0, queries.size, 16):
        inside = space.metric.dist_rows(queries[lo:lo + 16], targets) < radii[lo:lo + 16, None]
        maxv[lo:lo + 16] = np.where(inside, fvals, -np.inf).max(axis=1)
        minv[lo:lo + 16] = np.where(inside, fvals, np.inf).min(axis=1)
    return maxv, minv


def assert_report_reads_layers(report, Y, fY, layers):
    """A layered report against the layers of an oracle, bit for bit: each
    point takes the values of the deepest layer that carries it."""
    deepest = np.zeros(Y.space.n, dtype=np.int64)
    for st in layers[1:]:
        deepest[st.carrier.mask] = st.k
    pre = np.array([layers[k].values[x] for x, k in enumerate(deepest)])
    for got, want in ((report.prepatch.values, pre), (report.field.values, np.where(Y.mask, fY.values, pre))):
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True)
    assert report.patch_magnitude == float(np.max(np.abs(pre[Y.mask] - fY.values[Y.mask])))
    assert report.restriction_error == 0.0
    assert report.diagnostics["layers"] == len(layers)
    assert report.diagnostics["layer_sizes"] == [int(st.centers.size) for st in layers]
    assert report.diagnostics["carrier_sizes"] == [st.carrier.size for st in layers]
    assert report.diagnostics["k_star"] == int(deepest[Y.mask].min())
