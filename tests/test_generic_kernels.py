"""The generic backends' row-block kernels against the per-point loops they replaced.

``dist_rows`` must equal the scalar ``dist`` bit for bit on every backend,
every Euclidean kernel path must give ``oracles.o_euclidean``'s two-lane
sums, ``ball`` must select exactly the brute-force open ball, and ``ball_pairs``
must give the pairs of a scalar ``dist`` loop in its order.  The cover,
partition, blend, nearest-point and generic layering kernels are checked
against the per-point loops kept below as references, and ``grid_extremes``
against one ``ball_extremes`` call per radius: the arithmetic and its
summation order are unchanged, so every output must be bit-identical,
dtype and NaNs included.  On the line both extremes kernels are one run
kernel, checked against the brute-force balls and the base class's dense
fold; the generic layered backend's cover of a layer wider than the space
is checked against the pair walk it skips.
"""

import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscext import AdaptiveScale, FixedScale, ScalarField, SpaceInstance, generate_from_spec, iterate, osc_at_point
from oscext.errors import InvariantError, PreconditionError
from oscext import extend
from oscext.extend import (LayerState, _GenericSupports, _layered, layered_extension, limsup_extension,
                           nearest_in_set, scattered_extension, visibility_components)
from oscext import space as space_mod
from oscext.instances import cantor_instance, random_instance
from oscext.space import (_BLOCK_ELEMS, _KD_BALL_MEMBERS, EuclideanMetric, LineMetric, MatrixMetric, SubsetMask,
                          _row_chunks, ball, cb_filtration, dists_among, load_space_file, local_scale, local_scales)
from oscext.unity import BallCover, PartitionOfUnity, blend, cover_for_piece, partition

from conftest import (FIXTURES, all_identical, assert_identical_layers, assert_report_reads_layers, identical,
                      prefix_codes, wide_space)
from oracles import o_ball, o_blend, o_euclidean, o_hat_sums, o_partition, reference_visibility_components


# ---------------------------------------------------------------------------
# References: the per-point loops the kernels replaced
# ---------------------------------------------------------------------------

def dist_row(space, i):
    """Distances from point ``i`` to every point, one row."""
    return space.metric.dist_rows(np.array([i]), np.arange(space.n))[0]


def ball_ids(space, center, radius):
    return ball(space, center, radius, space.full_mask()).ids()


def reference_nearest_in_set(space, target):
    tids = target.ids()
    metric = space.metric
    n = space.n
    out_id = np.empty(n, dtype=np.int64)
    out_d = np.empty(n)
    chunk = max(1, int(2_000_000 // max(tids.size, 1)))
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        block = np.empty((hi - lo, tids.size))
        for r, i in enumerate(range(lo, hi)):
            block[r] = dist_row(space, i)[tids]
        j = np.argmin(block, axis=1)  # first minimum = smallest target id
        out_id[lo:hi] = tids[j]
        out_d[lo:hi] = block[np.arange(hi - lo), j]
    return out_id, out_d


def reference_limsup(space, Y, f):
    """(prepatch values, diagnostics) of the per-point limsup loop."""
    fY = f.restrict(Y)
    diam = max(space.diameter(), space.resolution)
    j_top = -int(math.ceil(math.log2(diam))) - 1
    j_bot = int(math.floor(math.log2(1.0 / space.resolution)))
    if 2.0**-j_bot <= space.resolution:
        j_bot -= 1
    if j_bot < j_top:
        j_bot = j_top
    _nearest, dY = nearest_in_set(space, Y)
    pre = np.empty(space.n)
    radii_used = np.empty(space.n)
    for x in range(space.n):
        j = j_bot
        while j > j_top and not (2.0**-j > dY[x]):
            j -= 1
        r = 2.0**-j
        members = ball(space, x, r, Y)
        vals = fY.values[members.mask]
        pre[x] = float(vals.max())
        radii_used[x] = r
    diagnostics = {
        "radius_grid": [2.0**-j for j in range(j_top, j_bot + 1)],
        "max_radius_used": float(radii_used.max()),
    }
    return pre, diagnostics


def reference_scatter_region(space, region, Y, fY, policy, mult, out, stats):
    """The scattered recursion with its per-point loop over the top points."""
    if region.is_empty():
        return
    comps = visibility_components(space, region, mult)
    if len(comps) > 1:
        for comp in comps:
            reference_scatter_region(space, comp, Y, fY, policy, mult, out, stats)
        return
    comp = comps[0]
    stats["components"] += 1
    members = comp.ids()
    y_comp = Y & comp
    if y_comp.is_empty():
        out[comp.mask] = 0.0
        stats["default_zero_regions"] += 1
        return
    if members.size == 1:
        i = int(members[0])
        out[i] = fY.values[i] if Y.mask[i] else 0.0
        return
    dec = cb_filtration(space, comp, policy)
    if len(dec.filtration) == 1:
        nearest, _d = nearest_in_set(space, y_comp)
        out[members] = fY.values[nearest[members]]
        return
    tops = dec.filtration[-1]
    ls_comp, _nn = local_scales(space, members)
    scale_of = dict(zip((int(i) for i in members), ls_comp))
    nearest_y, dist_y = nearest_in_set(space, y_comp)
    for x in tops.ids():
        x = int(x)
        if Y.mask[x]:
            out[x] = fY.values[x]
        elif dist_y[x] <= mult * scale_of[x]:
            out[x] = fY.values[nearest_y[x]]
        else:
            out[x] = 0.0
        stats["anchored_tops"] += 1
    reference_scatter_region(space, comp - tops, Y, fY, policy, mult, out, stats)


def reference_cover_for_piece(space, Ybeta, Ynext, f, epsilon):
    piece = Ybeta - Ynext
    cap = space.diameter()
    if cap <= 0:
        cap = space.resolution
    next_ids = Ynext.ids()
    beta_ids = Ybeta.ids()
    beta_vals = f.values[beta_ids]
    elements = []
    carrier = np.zeros(space.n, dtype=bool)
    for y in piece.ids():
        row = dist_row(space, int(y))
        d_next = float(row[next_ids].min()) if next_ids.size else cap
        bad = np.abs(beta_vals - f.values[y]) >= epsilon
        d_bad = float(row[beta_ids[bad]].min()) if bad.any() else cap
        r = 0.5 * min(d_next, d_bad)
        if not r > 0:
            raise InvariantError(
                f"point {int(y)} admits no positive cover radius; "
                "it should have been removed by the derivation step"
            )
        b = ball(space, int(y), r, space.full_mask())
        if next_ids.size and np.any(b.mask[next_ids]):
            raise InvariantError(f"cover ball at {int(y)} meets the next level")
        inside = b.mask[beta_ids]
        if inside.any() and np.abs(beta_vals[inside] - f.values[y]).max() >= epsilon:
            raise InvariantError(f"cover ball at {int(y)} breaks the epsilon window")
        elements.append((int(y), r))
        carrier |= b.mask
    return BallCover(space, elements, SubsetMask(space, carrier))


def reference_partition(space, cover):
    support_ids = []
    raws = []
    totals = np.zeros(space.n)
    for center, radius in cover.elements:
        ids = ball_ids(space, center, radius)
        d = dist_row(space, center)[ids]
        raw = radius - d
        support_ids.append(ids)
        raws.append(raw)
        np.add.at(totals, ids, raw)
    if np.any(totals[cover.carrier.mask] <= 0):
        raise InvariantError("carrier point with zero total raw weight")
    weights = [raw / totals[ids] for ids, raw in zip(support_ids, raws)]
    return PartitionOfUnity(space, cover, support_ids, weights, cover.carrier)


def reference_blend(pou, anchor_values):
    anchors = np.asarray(anchor_values, dtype=np.float64)
    n = pou.space.n
    out = np.zeros(n)
    amin = np.full(n, np.inf)
    amax = np.full(n, -np.inf)
    for ids, ws, a in zip(pou.support_ids, pou.weights, anchors):
        np.add.at(out, ids, ws * a)
        np.minimum.at(amin, ids, a)
        np.maximum.at(amax, ids, a)
    mask = pou.carrier.mask
    out[mask] = np.clip(out[mask], amin[mask], amax[mask])
    vals = np.where(mask, out, np.nan)
    return ScalarField(pou.carrier, vals)


def reference_layered_generic(space, Y, fY, max_layers, n_max):
    n = space.n
    osc_res = np.array([osc_at_point(fY, x, Y, space.resolution) for x in range(n)])
    centers = np.arange(n)
    depths = np.zeros(n, dtype=np.int64)
    layers = []
    l_prev = None
    for k in range(max_layers):
        radii = 2.0 ** -depths.astype(float)
        supports = []
        anchors = np.empty(centers.size, dtype=np.int64)
        for pos, s in enumerate(centers):
            ids = ball_ids(space, int(s), radii[pos])
            supports.append(ids)
            wide = ball_ids(space, int(s), 2.0 * radii[pos])
            y_in = Y.mask[wide]
            if not y_in.any():
                raise InvariantError(f"layer {k}: no anchor candidate near {int(s)}")
            cand = wide[y_in]
            cd = dist_row(space, int(s))[cand]
            best = cand[cd == cd.min()]
            anchors[pos] = int(best.min())
        num = np.zeros(n)
        den = np.zeros(n)
        lmax = np.full(n, -1, dtype=np.int64)
        minlp = np.full(n, np.inf)
        covering = np.zeros((n, centers.size), dtype=bool)
        for pos, s in enumerate(centers):
            ids = supports[pos]
            w = radii[pos] - dist_row(space, int(s))[ids]
            num[ids] += w * fY.values[anchors[pos]]
            den[ids] += w
            np.maximum.at(lmax, ids, depths[pos])
            if l_prev is not None:
                np.minimum.at(minlp, ids, l_prev[s])
            covering[ids, pos] = True
        carrier_mask = den > 0
        carrier = SubsetMask(space, carrier_mask)
        values = np.where(carrier_mask, num / np.where(carrier_mask, den, 1.0), np.nan)
        lvl = np.where(carrier_mask, lmax + 1, 0).astype(np.int64)
        layers.append(LayerState(k, centers.copy(), depths.copy(), carrier,
                                 values, lvl, None if l_prev is None else minlp))
        members = np.flatnonzero(carrier_mask)
        cand = members[osc_res[members] < 2.0 ** -lvl[members].astype(float)]
        next_centers = []
        next_depths = []
        for x in cand:
            lx = int(lvl[x])
            cov_x = covering[x]
            found = None
            for nn in range(lx, n_max + 1):
                small = ball_ids(space, x, 2.0**-nn)
                wide = ball_ids(space, x, 2.0 ** (1 - nn))
                y_wide = wide[Y.mask[wide]]
                if y_wide.size == 0:
                    continue
                vals = fY.values[y_wide]
                if vals.max() - vals.min() >= 2.0**-lx:
                    continue
                if not np.all(covering[small][:, cov_x]):
                    continue
                if np.any(covering[wide][:, ~cov_x]):
                    continue
                found = nn
                break
            if found is not None:
                next_centers.append(x)
                next_depths.append(found)
        if not next_centers or k + 1 >= max_layers:
            break
        centers = np.asarray(next_centers, dtype=np.int64)
        nd = np.zeros(n, dtype=np.int64)
        nd[centers] = next_depths
        depths = nd[centers]
        l_prev_full = np.zeros(n, dtype=np.int64)
        l_prev_full[carrier_mask] = lvl[carrier_mask]
        l_prev = l_prev_full
    return layers


def reference_next_depths(sup, covering, cand, ok, chunk_pairs=None):
    """``_GenericSupports.next_depths`` as a per-candidate loop over a
    covering matrix.

    Appends the number of near (candidate, point) pairs of each row chunk
    to ``chunk_pairs`` when given.
    """
    chosen = np.full(cand.size, -1, dtype=np.int64)
    tried = np.arange(1, ok.shape[1] + 1)
    small = 2.0 ** -tried.astype(float)
    wide = 2.0 * small
    live = np.flatnonzero(ok.any(axis=1))
    for lo, hi in _row_chunks(live.size, sup.everything.size):
        block = sup.metric.dist_rows(cand[live[lo:hi]], sup.everything)
        pairs = 0
        for row, i in zip(block, live[lo:hi]):
            near = np.flatnonzero(row < wide[np.argmax(ok[i])])
            pairs += near.size
            cov_x = covering[cand[i]]
            cov = covering[near]
            d_ball = row[near]
            d_out = d_ball[(cov_x & ~cov).any(axis=1)].min(initial=np.inf)
            d_in = d_ball[(cov & ~cov_x).any(axis=1)].min(initial=np.inf)
            good = ok[i] & (small <= d_out) & (wide <= d_in)
            if good.any():
                chosen[i] = tried[np.argmax(good)]
        if chunk_pairs is not None:
            chunk_pairs.append(pairs)
    return chosen


def unpacked(cover, m):
    """A packed generic cover as the bool points x centers matrix of its ``m`` centers."""
    return np.unpackbits(cover, axis=1, count=m, bitorder="little").astype(bool)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

def lattice_coords(side, spacing=1 / 8):
    g = np.arange(side) * spacing
    return np.array([(x, y) for x in g for y in g])


def manhattan_matrix(side):
    """L1 distances on a dyadic lattice: exact, so the triangle check holds."""
    c = lattice_coords(side)
    return np.abs(c[:, None, :] - c[None, :, :]).sum(axis=2)


def with_subset_field(space, seed, keep=0.7):
    rng = np.random.default_rng(seed)
    ids = np.flatnonzero(rng.uniform(size=space.n) < keep)
    ids = np.union1d(ids, [0])
    f = ScalarField.on_ids(space, ids, rng.normal(size=ids.size) / 3.0)
    return space, space.mask_from_ids(ids), f


@functools.lru_cache(maxsize=None)
def case(name):
    """(space, Y, f) for one named input."""
    if name.startswith(("ordinal:", "cantor:")):
        space = generate_from_spec(name)
        return space, space.subsets["Y"], space.fields["f"]
    if name == "random2d":
        return with_subset_field(random_instance(3, 150, 2), 3)
    if name == "random3d":
        return with_subset_field(random_instance(4, 120, 3), 4)
    if name == "lattice":
        # Tie-heavy: many equal distances, and field values with thirds.
        coords = lattice_coords(12)
        space = SpaceInstance("lattice", EuclideanMetric(coords), resolution=1 / 16, family="euclidean")
        ij = np.rint(coords * 8).astype(np.int64)
        ids = np.flatnonzero((ij[:, 0] + ij[:, 1]) % 3 != 1)
        f = ScalarField.on_ids(space, ids, ((ij[ids, 0] * 2 + ij[ids, 1]) % 3) / 3.0)
        return space, space.mask_from_ids(ids), f
    if name == "smooth2d":
        # A slowly varying field gives wide balls: each point is covered by
        # elements from several row chunks, so chunked sums must keep order.
        space = random_instance(5, 700, 2)
        c = space.metric.coords
        return space, space.full_mask(), ScalarField(space.full_mask(), 0.3 * c[:, 0] + c[:, 1] / 7)
    if name == "matrix":
        space = SpaceInstance("manhattan", MatrixMetric(manhattan_matrix(8)), resolution=1 / 16)
        return with_subset_field(space, 8)
    if name == "line":
        # Tie-heavy dyadic line with negative coordinates, ids shuffled
        # against coordinate order: 1-D balls are runs in coordinate order.
        rng = np.random.default_rng(6)
        coords = rng.permutation(np.r_[np.arange(-40, 0), np.arange(0, 80, 2)] / 16.0)
        space = SpaceInstance("line", EuclideanMetric(coords), resolution=1 / 32, family="euclidean")
        k = np.rint(coords * 16).astype(np.int64)
        ids = np.flatnonzero(k % 5 != 2)
        return space, space.mask_from_ids(ids), ScalarField.on_ids(space, ids, (k[ids] % 3) / 3.0)
    if name == "offset_line":
        # +-(2^40 + x) with sub-unit gaps x on the 2^-12 grid, the ulp of 2^40.
        # Across the two halves fl(c_y - c_x) rounds to the 2^-11 grid of
        # 2^41, so neighbouring targets tie on one side of a center.
        rng = np.random.default_rng(9)
        x = np.cumsum(rng.choice([1, 2, 3, 512, 1024], size=50)) * 2.0**-12
        coords = rng.permutation(np.r_[2.0**40 + x, -(2.0**40 + x[::2])])
        space = SpaceInstance("offset_line", EuclideanMetric(coords), resolution=2.0**-12, family="euclidean")
        return with_subset_field(space, 9)
    raise KeyError(name)


CASES = ["ordinal:1", "ordinal:2", "ordinal:3", "random2d", "random3d", "lattice", "matrix", "line", "offset_line"]
SMALL_CASES = [c for c in CASES if c != "ordinal:3"]


# ---------------------------------------------------------------------------
# Distance kernels
# ---------------------------------------------------------------------------

BACKENDS = SMALL_CASES + ["cantor", "wide"]


def backend_space(name):
    if name == "wide":  # a 64-bit prefix metric: code XORs of 2^b - 1 for b > 53
        return wide_space()
    if name == "lattice3d":  # tie-heavy: a dyadic cube lattice
        g = np.arange(5) / 4.0
        coords = np.array([(x, y, z) for x in g for y in g for z in g])
        return SpaceInstance("lattice3d", EuclideanMetric(coords), resolution=1 / 8, family="euclidean")
    if name == "subnormal_line":
        # Gaps below 2^-511 square to subnormals, which round by up to a
        # relative 2^-15: a distance can read up to 2^-16 below the gap.
        gaps = np.random.default_rng(12).integers(1, 9, size=40) * 2.0**-530 * (1 + 2**-17)
        coords = np.random.default_rng(13).permutation(np.cumsum(gaps))
        return SpaceInstance("subnormal_line", EuclideanMetric(coords), resolution=2.0**-1022, family="euclidean")
    if name == "long_line":
        # _EXACT_DIAMETER_LIMIT points on the 2^-12 grid of 2^40, tied gaps, shuffled.
        rng = np.random.default_rng(14)
        gaps = rng.choice([1, 2, 3, 4096], size=space_mod._EXACT_DIAMETER_LIMIT) * 2.0**-12
        coords = rng.permutation(2.0**40 + np.cumsum(gaps))
        return SpaceInstance("long_line", EuclideanMetric(coords), resolution=2.0**-12, family="euclidean")
    return cantor_instance(7) if name == "cantor" else case(name)[0]


def scalar_block(space, rows, cols):
    return np.array([[space.metric.dist(int(i), int(j)) for j in cols] for i in rows])


class TestDistRows:
    @pytest.mark.parametrize("name", BACKENDS)
    def test_equals_stacked_rows(self, name):
        space = backend_space(name)
        rng = np.random.default_rng(len(name))
        picks = [np.arange(space.n), rng.integers(0, space.n, size=37), np.array([space.n - 1, 0, 0])]
        for rows in picks:
            for cols in picks:
                assert identical(space.metric.dist_rows(rows, cols), scalar_block(space, rows, cols))

    @pytest.mark.parametrize("name", BACKENDS)
    def test_dists_among_is_the_square_block(self, name):
        space = backend_space(name)
        m = np.random.default_rng(1).choice(space.n, size=min(space.n, 40), replace=False)
        assert identical(dists_among(space, m), scalar_block(space, m, m))


def order_space(kind, dim):
    """A small Euclidean space in ``dim`` dimensions on which the summation order shows.

    ``cloud``: normal coordinates scaled by 2^-3 .. 2^3, so squared
    differences of comparable size round differently in another order.
    ``dyadic``: points of the 1/8 lattice, with many tied distances.
    ``subnormal``: gaps below 2^-511, whose squares are subnormal.
    """
    if kind == "offset_line":
        return case("offset_line")[0]
    rng = np.random.default_rng(10 * dim + len(kind))
    if kind == "cloud":
        coords = rng.standard_normal((60, dim)) * 2.0 ** rng.integers(-3, 4, size=(60, dim))
    else:
        coords = np.unique(rng.integers(0, 16, size=(60, dim)), axis=0) / 8.0
        if kind == "subnormal":
            coords *= 2.0**-527 * (1 + 2**-17)
    return SpaceInstance(f"{kind}{dim}", EuclideanMetric(coords), resolution=2.0**-1022, family="euclidean")


ORDER_SPACES = [(kind, dim) for kind in ("cloud", "dyadic", "subnormal") for dim in range(1, 10)]
ORDER_SPACES.append(("offset_line", 1))


class TestEuclideanOrder:
    """Every Euclidean distance is ``oracles.o_euclidean``'s two-lane sum, bit for bit.

    Each kernel path is compared with the plain loop: the scalar ``dist``,
    ``dist_rows``, the pairs of ``ball_pairs`` (runs in coordinate order on
    the line), and the kd paths of ``scales`` and ``ball_extremes``, forced
    onto these small spaces.
    """

    @pytest.fixture(params=ORDER_SPACES, ids=[f"{kind}{dim}" for kind, dim in ORDER_SPACES])
    def spaced(self, request):
        space = order_space(*request.param)
        coords = space.metric.coords.tolist()
        return space, np.array([[o_euclidean(p, q) for q in coords] for p in coords])

    def test_dist_and_dist_rows(self, spaced):
        space, want = spaced
        everything = np.arange(space.n)
        assert identical(space.metric.dist_rows(everything, everything), want)
        assert identical(scalar_block(space, everything, everything), want)

    def test_ball_pairs(self, spaced):
        space, want = spaced
        # Radii equal to distances: a tie at the radius is decided by the last bit.
        centers = np.repeat(np.arange(space.n), 3)
        radii = want[centers, np.random.default_rng(1).integers(0, space.n, size=centers.size)]
        rows, cols, dist = (np.concatenate(parts) for parts in zip(*space.metric.ball_pairs(centers, radii,
                                                                                          np.arange(space.n))))
        inside = want[centers] < radii[:, None]
        assert np.array_equal(rows, np.nonzero(inside)[0]) and np.array_equal(cols, np.nonzero(inside)[1])
        assert identical(dist, want[centers][inside])

    def test_kd_paths(self, monkeypatch, spaced):
        space, want = spaced
        monkeypatch.setattr(space_mod, "_KD_SCALE_MEMBERS", 0)
        monkeypatch.setattr(space_mod, "_KD_BALL_MEMBERS", 0)
        everything = np.arange(space.n)
        others = np.where(np.eye(space.n, dtype=bool), np.inf, want)
        ls, nn = space.metric.scales(everything)
        assert identical(ls, others.min(axis=1))
        assert identical(nn, np.argmin(others, axis=1))  # first minimum = smallest id
        rng = np.random.default_rng(2)
        radii = want[everything, rng.integers(0, space.n, size=space.n)]
        fvals = rng.integers(0, 4, size=space.n) / 3.0
        inside = want < radii[:, None]
        got = space.metric.ball_extremes(everything, radii, everything, fvals)
        assert all_identical(got, (np.where(inside, fvals, -np.inf).max(axis=1),
                                   np.where(inside, fvals, np.inf).min(axis=1)))


class TestBallMembership:
    @pytest.mark.parametrize("name", ["lattice", "matrix", "ordinal:2"])
    def test_row_below_radius_is_the_ball(self, name):
        space = case(name)[0]
        for c in range(0, space.n, 7):
            # Radii exactly equal to distances: the tied points are excluded.
            for r in np.unique(dist_row(space, c))[1:12]:
                assert list(ball_ids(space, c, r)) == o_ball(space, c, r, range(space.n))

    def test_cantor_cylinders(self):
        space = cantor_instance(6)
        metric = space.metric
        for c in range(0, space.n, 5):
            for r in 2.0 ** -np.arange(1, 9.0):
                length = metric.cylinder_length(r)
                codes = prefix_codes(metric, length)
                cylinder = np.flatnonzero(codes == codes[c])
                assert np.array_equal(ball_ids(space, c, r), cylinder)


def scalar_ball_pairs(space, centers, radii, targets):
    """(row, col, d) of every target strictly inside each center's ball, from the scalar ``dist``."""
    return [(i, j, d) for i, (c, r) in enumerate(zip(centers, radii)) for j, t in enumerate(targets)
            for d in [space.metric.dist(int(c), int(t))] if d < r]


def assert_line_chunks(space, chunks, centers, radii, targets):
    """On the line a chunk holds whole centers, in order, whose search windows
    (``_line_window``) hold at most ``_BLOCK_ELEMS`` pairs unless it holds one
    center; cut greedily, there are at most 2 * pairs / budget + 1 chunks."""
    line = np.sort(space.metric.coords[targets, 0])
    start, stop = space_mod._line_window(line, space.metric.coords[centers, 0], radii)
    window = stop - start
    spans = [(r.min(), r.max()) for r, _c, _d in chunks if r.size]
    assert all(a[1] < b[0] for a, b in zip(spans, spans[1:]))
    assert all(lo == hi or window[lo:hi + 1].sum() <= space_mod._BLOCK_ELEMS for lo, hi in spans)
    assert len(chunks) <= 2 * window.sum() // space_mod._BLOCK_ELEMS + 1


class TestBallPairs:
    """The open-ball pair kernel against a scalar loop, center-major with columns ascending."""

    @pytest.mark.parametrize("name", BACKENDS + ["lattice3d"])
    @pytest.mark.parametrize("budget", [None, 5], ids=["default_budget", "five_rows"])
    def test_matches_scalar_loop(self, monkeypatch, name, budget):
        space = backend_space(name)
        queries, radii, targets, _fvals = extremes_inputs(space, 13, max(space.n // 3, 2), min(space.n, 90))
        if budget is not None:  # blocks of five centers: several chunks, rows counted across them
            monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", budget * targets.size)
        chunks = list(space.metric.ball_pairs(queries, radii, targets))
        rows, cols, dist = (np.concatenate(parts) for parts in zip(*chunks))
        want = scalar_ball_pairs(space, queries, radii, targets)
        assert list(zip(rows.tolist(), cols.tolist(), dist.tolist())) == want
        assert rows.dtype == cols.dtype == np.int64 and dist.dtype == np.float64
        spans = [(r.min(), r.max()) for r, _c, _d in chunks if r.size]
        if space.metric.kind == "euclidean" and space.metric.coords.shape[1] == 1:
            assert_line_chunks(space, chunks, queries, radii, targets)
        else:  # each chunk is one block of whole centers within the element budget
            limit = space_mod._BLOCK_ELEMS // targets.size
            assert all(hi - lo < limit for lo, hi in spans)
            assert len(chunks) == -(-queries.size // limit)
        if budget is not None:
            assert len(spans) > 1
        # A target at exactly the radius is excluded, and radius 0 yields no pairs.
        tied = [(i, j) for i, q in enumerate(queries) for j, t in enumerate(targets)
                if space.metric.dist(int(q), int(t)) == radii[i]]
        assert tied and not set(tied) & set(zip(rows.tolist(), cols.tolist()))
        assert (radii == 0).any() and not np.isin(rows, np.flatnonzero(radii == 0)).any()

    def test_line_chunks_per_call_on_the_ladder(self, monkeypatch):
        # ordinal:3 layered: 1111 points on the line.  A full-width call holds
        # a few thousand window pairs, one chunk; blocks of _BLOCK_ELEMS // 1111
        # centers would cut it into 20.
        space, Y, f = case("ordinal:3")
        real = LineMetric.ball_pairs
        calls = []  # (chunks, window pairs) per call

        def spy(metric, centers, radii, targets):
            line = np.sort(metric.coords[targets, 0])
            start, stop = space_mod._line_window(line, metric.coords[centers, 0], radii)
            chunks = list(real(metric, centers, radii, targets))
            calls.append((len(chunks), int((stop - start).sum())))
            yield from chunks

        monkeypatch.setattr(LineMetric, "ball_pairs", spy)
        layered_extension(space, Y, f)
        assert len(calls) > 10 and max(pairs for _chunks, pairs in calls) > 0
        for chunks, pairs in calls:
            assert chunks == 1 if pairs <= _BLOCK_ELEMS else chunks <= 2 * pairs // _BLOCK_ELEMS + 1

    @pytest.mark.parametrize("name", ["line", "offset_line", "subnormal_line"])
    def test_line_radii(self, name):
        # Per center: radius 0, -1 and inf, and every distinct distance to a
        # target with the floats just below and above it.
        space = backend_space(name)
        targets = np.random.default_rng(3).permutation(space.n)[: space.n // 2]
        centers, radii = [], []
        for c in range(0, space.n, space.n // 4):
            d = np.unique(space.metric.dist_rows(np.array([c]), targets))
            r = np.r_[0.0, -1.0, np.inf, d, np.nextafter(d, -np.inf), np.nextafter(d, np.inf)]
            centers += [c] * r.size
            radii.append(r)
        centers, radii = np.array(centers), np.concatenate(radii)
        rows, cols, dist = (np.concatenate(parts) for parts in zip(*space.metric.ball_pairs(centers, radii, targets)))
        assert list(zip(rows.tolist(), cols.tolist(), dist.tolist())) == scalar_ball_pairs(space, centers, radii, targets)
        full = np.flatnonzero(np.isinf(radii))
        assert np.array_equal(np.bincount(rows, minlength=radii.size)[full], np.full(full.size, targets.size))


class TestNearestInSet:
    @pytest.mark.parametrize("name", SMALL_CASES + ["cantor:6", "cantor:8"])
    def test_matches_row_loop(self, name):
        space, Y, _f = case(name)
        rng = np.random.default_rng(2)
        targets = [Y, space.full_mask(), space.mask_from_ids([space.n - 1]),
                   space.mask_from_ids(rng.choice(space.n, size=5, replace=False))]
        for target in targets:
            got = nearest_in_set(space, target)
            assert all_identical(got, reference_nearest_in_set(space, target))

    @pytest.mark.parametrize("name", ["matrix", "ordinal:2", "lattice", "cantor:6", "cantor:8"])
    def test_member_queries_match_whole_space(self, name):
        # The scattered loop asks for the nearest Y points of a component's
        # members only; each must be the whole-space answer at that member.
        space, Y, _f = case(name)
        rng = np.random.default_rng(4)
        full = space.full_mask()
        groups = [comp for mult in (1.0, 1.5, 3.0) for comp in visibility_components(space, full, mult)]
        groups += [space.mask_from_ids(rng.choice(space.n, size=space.n // 4, replace=False)) for _ in range(3)]
        for group in groups:
            target = Y & group
            if target.is_empty():
                continue
            members = group.ids()
            whole = nearest_in_set(space, target)
            assert all_identical(space.metric.nearest(members, target.ids()), tuple(w[members] for w in whole))

    def test_lattice_ties_go_to_smallest_id(self):
        space, _Y, _f = case("lattice")
        target = space.mask_from_ids(np.arange(0, space.n, 2))
        got_id, _d = nearest_in_set(space, target)
        want_id, _ = reference_nearest_in_set(space, target)
        assert np.array_equal(got_id, want_id)


def isin_nearest(space, queries, targets):
    """``Metric.nearest`` as first written: queries among the targets found by ``np.isin``."""
    ids = np.array(queries, dtype=np.int64)
    dist = np.zeros(ids.size)
    q = np.flatnonzero(~np.isin(ids, targets))
    dist[q], ids[q] = space.metric._nearest_other(ids[q], targets)
    return ids, dist


def full_length_ranks(space, dec):
    """Ranks and isolation radii of ``dec`` by the full-length loop over its levels.

    A point dropped from level k has rank k and its local scale in level k
    as isolation radius (inf where 0); -1 and NaN elsewhere.
    """
    levels = list(dec.filtration) + ([space.empty_mask()] if dec.emptied else [])
    ranks = np.full(space.n, -1, dtype=np.int64)
    iso = np.full(space.n, np.nan)
    for k, (level, nxt) in enumerate(zip(levels, levels[1:])):
        members = level.ids()
        gone = ~nxt.mask[members]
        d = local_scales(space, members)[0][gone]
        ranks[members[gone]] = k
        iso[members[gone]] = np.where(d > 0, d, np.inf)
    return ranks, iso


class TestMembershipKernels:
    """``Metric.nearest`` and ``cb_filtration`` against their full-length formulations, bit for bit."""

    @pytest.mark.parametrize("name", BACKENDS)
    def test_nearest_matches_isin_formulation(self, name):
        # Targets unsorted, with repeats, sorted, and overlapping the queries or not.
        space = backend_space(name)
        rng = np.random.default_rng(17)
        for size in (1, 2, space.n // 3, space.n):
            chosen = rng.choice(space.n, size=size, replace=False)
            others = np.setdiff1d(np.arange(space.n), chosen)
            for targets in (chosen, np.sort(chosen), np.r_[chosen, chosen[: size // 2 + 1]],
                            np.sort(np.r_[chosen, chosen[:1]])):
                for queries in (np.arange(space.n), rng.permutation(space.n)[: space.n // 2], others,
                                np.r_[chosen[:3], chosen[:3]]):
                    assert all_identical(space.metric.nearest(queries, targets),
                                         isin_nearest(space, queries, targets)), (size, queries.size)

    @pytest.mark.parametrize("name", BACKENDS)
    @pytest.mark.parametrize("policy", [AdaptiveScale(3.0), AdaptiveScale(1.5), FixedScale(0.05)],
                             ids=["adaptive3", "adaptive1.5", "fixed"])
    def test_ranks_match_full_length_loop(self, name, policy):
        space = backend_space(name)
        rng = np.random.default_rng(19)
        for region in [space.full_mask()] + [space.mask_from_ids(rng.choice(space.n, size=k, replace=False))
                                             for k in (1, 2, space.n // 4, space.n // 2)]:
            dec = cb_filtration(space, region, policy)
            ranks, iso = full_length_ranks(space, dec)
            assert identical(dec.ranks, ranks) and identical(dec.iso_radius, iso)
            members = region.ids()
            assert identical(dec.member_ranks, ranks[members])
            assert identical(dec.member_iso_radius, iso[members])
            assert [dec.rank_of(i) for i in range(space.n)] == ranks.tolist()

    @pytest.mark.parametrize("spec", ["ordinal:3", "cantor:8"])
    def test_scattered_loop_reads_no_ranks(self, spec, monkeypatch):
        # Ranks and isolation radii are read off the levels only on first
        # read; the scattered recursion reads neither, so it pays for neither.
        space = generate_from_spec(spec)
        f = ScalarField(space.full_mask(), np.linspace(0.0, 1.0, space.n))
        want = scattered_extension(space, space.full_mask(), f).field.values

        def unread(dec):
            raise AssertionError("per-member ranks computed")

        monkeypatch.setattr(space_mod.ScatteredDecomposition, "_per_member", property(unread))
        got = scattered_extension(space, space.full_mask(), f).field.values
        assert identical(got, want)
        dec = cb_filtration(space, space.full_mask(), AdaptiveScale(3.0))
        with pytest.raises(AssertionError, match="per-member ranks computed"):
            dec.ranks


def kernel_space(name):
    """A Euclidean input of the nearest-point kernel.

    ``cloudK``: 300 uniform points in K dimensions.  ``lattice``: the
    tie-heavy dyadic lattice.  ``offset``: a 2-D normal cloud moved by
    2^40, so its coordinates keep only 12 or 13 fractional bits.
    """
    if name == "lattice":
        return case("lattice")[0]
    if name == "offset":
        coords = 2.0**40 + np.random.default_rng(8).standard_normal((300, 2))
    else:
        dim = int(name[len("cloud"):])
        coords = np.random.default_rng(dim).uniform(size=(300, dim))
    return SpaceInstance(name, EuclideanMetric(coords), resolution=2.0**-1022, family="euclidean")


class TestNearestKernel:
    """The Euclidean kd path of ``_nearest_other`` against its dense row blocks, bit for bit;
    on the line, the kernel of sort neighbours, which builds no tree."""

    @staticmethod
    def calls(space, queries, targets):
        """``nearest``, ``scales`` and ``local_scale`` on one query and target set."""
        within = space.mask_from_ids(targets)
        local = [local_scale(space, int(x), within) for x in targets[:25]]
        return (*space.metric.nearest(queries, targets), *space.metric.scales(targets),
                *space.metric.scales(queries), np.array(local))

    @pytest.mark.parametrize("name", ["cloud1", "cloud2", "cloud3", "cloud9", "lattice", "offset"])
    @pytest.mark.parametrize("sets", ["disjoint", "overlapping", "equal", "single_target"])
    def test_kd_path_matches_dense(self, monkeypatch, name, sets):
        space = kernel_space(name)
        perm = np.random.default_rng(len(name)).permutation(space.n)
        queries, targets = {
            "disjoint": (perm[:100], perm[100:]),
            "overlapping": (perm[:150], perm[100:]),
            "equal": (perm[:200], perm[:200]),
            "single_target": (perm[:60], perm[60:61]),
        }[sets]
        from scipy.spatial import cKDTree

        built = []  # the size of each tree the kd path builds
        monkeypatch.setattr("scipy.spatial.cKDTree", lambda pts: built.append(len(pts)) or cKDTree(pts))
        # On the line the block budget is the switch to the dense kernel.
        monkeypatch.setattr(space_mod, "_KD_SCALE_MEMBERS", 10**9)
        monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", 10**9)
        want = self.calls(space, queries, targets)
        assert not built
        monkeypatch.setattr(space_mod, "_KD_SCALE_MEMBERS", 0)
        monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", 0 if name == "cloud1" else _BLOCK_ELEMS)
        got = self.calls(space, queries, targets)
        if name == "cloud1":  # no kd path on the line: the kernel of sort neighbours
            assert not built
        else:
            assert built and (sets != "single_target" or 1 in built)
        assert all_identical(got, want)

    @pytest.mark.parametrize("name", ["cloud2", "cloud9", "lattice"])
    @pytest.mark.parametrize("sets", ["disjoint", "equal"])
    def test_kd_row_blocks_match_dense(self, monkeypatch, name, sets):
        # A 200-element block budget cuts the kd rounds into blocks of
        # 200 // (4 * dim) rows, taken in the tree's leaf order for ``scales``.
        space = kernel_space(name)
        perm = np.random.default_rng(len(name)).permutation(space.n)
        queries, targets = (perm[:100], perm[100:]) if sets == "disjoint" else (perm[:200], perm[:200])
        monkeypatch.setattr(space_mod, "_KD_SCALE_MEMBERS", 10**9)
        want = self.calls(space, queries, targets)
        monkeypatch.setattr(space_mod, "_KD_SCALE_MEMBERS", 0)
        monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", 200)
        assert all_identical(self.calls(space, queries, targets), want)

    @pytest.mark.parametrize("n, dim", [(50000, 2), (20000, 9)])
    def test_kd_scales_peak_memory(self, n, dim):
        # The kd rounds run over row blocks, so their (rows, 4, dim)
        # candidate arrays stay within the block budget; one round over all
        # rows at once takes about 16 and 14.5 MiB on these clouds.
        metric = EuclideanMetric(np.random.default_rng(0).uniform(size=(n, dim)))
        ids = np.arange(n)
        import scipy.spatial  # noqa: F401  (its import is not the cost measured)

        tracemalloc.start()
        try:
            metric.scales(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    def test_single_target_stays_one_column(self, monkeypatch):
        # cKDTree.query gives 1-D arrays for k = 1.  Broadcast as they come,
        # they would still give the right answers, from a queries^2 block.
        space = random_instance(7, 3000, 2)
        monkeypatch.setattr(space_mod, "_KD_SCALE_MEMBERS", 0)
        tracemalloc.start()
        try:
            ids, _dist = space.metric.nearest(np.arange(1, space.n), np.array([0]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(ids, np.zeros(space.n - 1, dtype=np.int64))
        assert peak < 8 * space.n**2 / 10


def nearest_line(name):
    """A 1-D input of the nearest-point kernel of sort neighbours.

    ``dyadic``: the 1/8 grid, so inner points tie exactly to the left and
    right.  ``ulp_cluster``: points one ulp apart above 1 and below -1, seen
    from +-2^40, where the computed differences round together: the
    nearest points tie 10 and 40 deep, ids shuffled.
    ``coincident``: copies of points, -0.0 and a subnormal that squares to
    0; any coincident id may be named at distance 0.  Other names are lines
    of ``case`` and ``backend_space``, or generator specs.
    """
    rng = np.random.default_rng(len(name))
    if name == "dyadic":
        coords = np.arange(-64, 64) / 8.0
    elif name == "ulp_cluster":
        coords = np.r_[1.0 + np.arange(40) * 2.0**-52, -1.0 - np.arange(10) * 2.0**-52, 2.0**40, -2.0**40]
    elif name == "coincident":
        coords = np.r_[0.0, 0.0, 0.0, -0.0, 2.0**-1074, 1.0, 1.0, 0.5, 0.25, 0.25, 3.0]
    elif ":" in name:
        return generate_from_spec(name)
    else:
        return backend_space(name)
    return SpaceInstance(name, EuclideanMetric(rng.permutation(coords)), resolution=2.0**-1022, family="euclidean")


NEAREST_LINES = ["dyadic", "line", "ordinal:3", "offset_line", "subnormal_line", "ulp_cluster", "coincident",
                 "random:7:1500:1"]


class TestLineNearest:
    """On the line ``_nearest_other`` works from each query's neighbours in
    coordinate order at every size; it must give the dense base kernel's
    bits, the smallest id on every tie."""

    @staticmethod
    def calls(space, queries, targets):
        """(queries, targets, ids, distances) of ``nearest``, ``scales`` and ``local_scale``."""
        within = space.mask_from_ids(targets)
        local = np.array([local_scale(space, int(x), within) for x in targets[:25]])
        return [(queries, targets, *space.metric.nearest(queries, targets)),
                (targets, targets, *space.metric.scales(targets)[::-1]),
                (queries, queries, *space.metric.scales(queries)[::-1]),
                (targets[:25], targets, None, local)]

    @pytest.mark.parametrize("name", NEAREST_LINES)
    @pytest.mark.parametrize("sets", ["disjoint", "overlapping", "equal", "single_target"])
    def test_matches_dense_kernel(self, monkeypatch, name, sets):
        space = nearest_line(name)
        metric = space.metric
        perm = np.random.default_rng(len(name) + len(sets)).permutation(space.n)
        half = space.n // 2
        queries, targets = {
            "disjoint": (perm[:half], perm[half:]),
            "overlapping": (perm[: 2 * half // 3 + 1], perm[half // 3:]),
            "equal": (perm, perm),
            "single_target": (perm[1:], perm[:1]),
        }[sets]
        with monkeypatch.context() as dense:
            dense.setattr(LineMetric, "_nearest_other", space_mod.Metric._nearest_other)
            dense.setattr(space_mod, "_BLOCK_ELEMS", 10**9)
            want = self.calls(space, queries, targets)
        monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", 0)
        built = []
        monkeypatch.setattr("scipy.spatial.cKDTree", lambda pts: built.append(len(pts)))
        got = self.calls(space, queries, targets)
        assert not built
        for (q, t, got_ids, got_dist), (*_sets, want_ids, want_dist) in zip(got, want):
            assert identical(got_dist, want_dist)
            if got_ids is None:
                continue
            assert got_ids.dtype == want_ids.dtype
            apart = (want_dist > 0) | (want_ids < 0)  # -1: an isolated member, which has no neighbour
            assert np.array_equal(got_ids[apart], want_ids[apart])
            # At distance 0 any coincident target may be named.
            assert all(metric.dist(int(a), int(b)) == 0.0 and b in t for a, b in zip(q[~apart], got_ids[~apart]))

    def test_never_dense(self, monkeypatch):
        # Every call on the line takes the sort neighbours, within one
        # _BLOCK_ELEMS block of queries x targets and above it, such as
        # scales on the 1111-point ladder.
        space = generate_from_spec("random:7:1500:1")
        dense = []
        monkeypatch.setattr(space_mod.Metric, "_nearest_other", lambda metric, q, t: dense.append(q.size * t.size))
        ids = np.arange(space.n)
        side = math.isqrt(_BLOCK_ELEMS)
        for q, t in [(ids[side:side + 3], ids[:5]), (ids[side:2 * side], ids[:side]),
                     (ids[side:2 * side + 1], ids[:side])]:
            _ids, dist = space.metric.nearest(q, t)
            assert np.array_equal(dist, space.metric.dist_rows(q, t).min(axis=1))
        generate_from_spec("ordinal:3").metric.scales(np.arange(1111))
        local_scale(space, 3, space.mask_from_ids(ids[:40]))
        assert dense == []

    def test_inputs_hold_deep_ties_and_coincident_points(self):
        def depth(name):
            space = nearest_line(name)
            block = space.metric.dist_rows(np.arange(space.n), np.arange(space.n))
            np.fill_diagonal(block, np.inf)
            return (block == block.min(axis=1, keepdims=True)).sum(axis=1), block.min(axis=1)

        ties, _ = depth("ulp_cluster")
        assert sorted(ties)[-2:] == [10, 40]
        assert (depth("dyadic")[0] == 2).sum() > 100
        assert (depth("subnormal_line")[0] >= 2).any() and (depth("offset_line")[0] >= 2).any()
        ties, dist = depth("coincident")
        assert (dist == 0).sum() >= 7 and ties.max() >= 4

    def test_scales_of_a_long_line_peak_memory(self, monkeypatch):
        # 20000 points: a dense queries x targets block would hold 4 * 10^8
        # distances.  The kernel keeps a few words per target, and a sparse
        # table of one word per target and level.
        space = generate_from_spec("random:7:20000:1")
        built = []
        monkeypatch.setattr("scipy.spatial.cKDTree", lambda pts: built.append(len(pts)))
        ids = np.arange(space.n)
        tracemalloc.start()
        try:
            dist, nn = space.metric.scales(ids)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 8 * space.n and not built
        x = space.metric.coords[:, 0]
        order = np.argsort(x)
        gaps = np.diff(x[order])  # a distance on the line is |fl(y - x)|
        want = np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])
        assert np.array_equal(dist[order], want)
        assert np.array_equal(np.abs(x[nn] - x), dist)


def brute_ball_extremes(space, queries, radii, targets, fvals):
    """Max and min of f over ``oracles.o_ball`` per query; (-inf, inf) when empty."""
    value = dict(zip(targets.tolist(), fvals))
    maxv, minv = [], []
    for q, r in zip(queries, radii):
        inside = [value[y] for y in o_ball(space, int(q), r, targets.tolist())]
        maxv.append(max(inside, default=-np.inf))
        minv.append(min(inside, default=np.inf))
    return np.array(maxv), np.array(minv)


def extremes_inputs(space, seed, ntargets, nqueries):
    """Targets, unsorted queries that partly miss them, and radii that tie distances.

    Every seventh radius is 0; others equal a query-to-target distance,
    twice one, or half the query's nearest positive target distance.
    """
    rng = np.random.default_rng(seed)
    targets = np.sort(rng.choice(space.n, size=ntargets, replace=False))
    queries = rng.choice(space.n, size=nqueries, replace=False)
    d = np.array([[space.dist(int(q), int(t)) for t in targets] for q in queries])
    radii = d[np.arange(nqueries), rng.integers(0, ntargets, size=nqueries)]
    radii[3::7] *= 2.0
    radii[5::7] = 0.5 * np.where(d > 0, d, np.inf).min(axis=1)[5::7]
    radii[::7] = 0.0
    fvals = rng.integers(0, 4, size=ntargets) / 3.0
    return queries, radii, targets, fvals


def kd_lattice():
    g = np.arange(64) / 8.0
    coords = np.array([(x, y) for x in g for y in g])
    return SpaceInstance("lattice64", EuclideanMetric(coords), resolution=1 / 16, family="euclidean")


class TestBallExtremes:
    """Queries differ from targets: some queries are not targets, some balls are empty."""

    @pytest.mark.parametrize("name", ["lattice", "matrix", "random3d", "cantor:6", "cantor:8", "line", "offset_line"])
    def test_matches_brute_force(self, name):
        space = case(name)[0]
        queries, radii, targets, fvals = extremes_inputs(space, 7, space.n // 3, min(space.n, 90))
        got = space.metric.ball_extremes(queries, radii, targets, fvals)
        want = brute_ball_extremes(space, queries, radii, targets, fvals)
        assert all_identical(got, want)
        empty = got[0] < got[1]
        assert empty[radii == 0].all() and (empty & (radii > 0)).any()

    def test_kd_path_matches_brute_force(self):
        space = kd_lattice()
        queries, radii, targets, fvals = extremes_inputs(space, 8, 3200, 40)
        assert targets.size > _KD_BALL_MEMBERS
        got = space.metric.ball_extremes(queries, radii, targets, fvals)
        assert all_identical(got, brute_ball_extremes(space, queries, radii, targets, fvals))


def stacked_ball_extremes(space, queries, grid, targets, fvals):
    """One ``ball_extremes`` call per radius of ``grid``, stacked in grid order."""
    rows = [space.metric.ball_extremes(queries, np.full(queries.size, r), targets, fvals) for r in grid]
    return tuple(np.array([row[i] for row in rows]).reshape(grid.size, queries.size) for i in (0, 1))


def same_bits(got, want):
    """``all_identical`` with the values compared as bytes, so +0.0 and -0.0 differ."""
    return all_identical(got, want) and all(g.tobytes() == w.tobytes() for g, w in zip(got, want))


class TestGridExtremes:
    """``grid_extremes`` equals one ball_extremes call per radius: the binned
    distance pass, the cylinder passes, and on the line the run kernel, which
    ``TestLineExtremes`` checks against the dense fold."""

    @pytest.mark.parametrize("name", ["matrix", "lattice", "random3d", "ordinal:2", "cantor:6", "cantor:8",
                                      "line", "offset_line"])
    def test_matches_stacked_ball_extremes(self, name):
        space = case(name)[0]
        queries, _radii, targets, fvals = extremes_inputs(space, 11, space.n // 3, min(space.n, 90))
        n_max = int(math.ceil(math.log2(1.0 / space.resolution))) + 4
        grids = {
            "dyadic": 2.0 ** -np.arange(n_max),  # the layered spread table's grid
            # Radii equal to query-to-target distances, 0 included: ties at the radius.
            "tied": np.unique(space.metric.dist_rows(queries[:6], targets))[::-1][:16],
            # Resolution 100 gives n_max = -2: no radius at all.
            "empty": 2.0 ** -np.arange(max(int(math.ceil(math.log2(1.0 / 100.0))) + 4, 0)),
        }
        got = {label: space.metric.grid_extremes(queries, grid, targets, fvals) for label, grid in grids.items()}
        for label, grid in grids.items():
            assert all_identical(got[label], stacked_ball_extremes(space, queries, grid, targets, fvals)), label
        # The smallest dyadic balls of queries off the targets miss every target.
        missed = np.isneginf(got["dyadic"][0]) & np.isposinf(got["dyadic"][1])
        assert missed[-1].any() and not missed[0].all()
        assert not np.array_equal(np.sort(queries), queries)
        # A field of signed zeros: every extreme ties, and the sign must be
        # the one ball_extremes keeps.
        zeros = np.where(np.random.default_rng(3).integers(0, 2, size=targets.size) == 1, 0.0, -0.0)
        for label, grid in grids.items():
            got = space.metric.grid_extremes(queries, grid, targets, zeros)
            assert same_bits(got, stacked_ball_extremes(space, queries, grid, targets, zeros)), label

    def test_signed_zero_tie_keeps_the_last_target(self):
        # The line [0, 0.25, 0.5, 0.75] as a matrix metric, so the distance
        # pass is the base class's: at radius 1 every target is inside, and
        # of the tied zeros ball_extremes keeps the last target's -0.0.
        x = np.array([0.0, 0.25, 0.5, 0.75])
        space = SpaceInstance("zeros", MatrixMetric(np.abs(x[:, None] - x)), resolution=0.25)
        queries, grid, targets = np.array([0]), np.array([1.0, 0.5]), np.array([3, 2, 1, 0])
        fvals = np.array([-0.0, 0.0, 0.0, -0.0])
        got = space.metric.grid_extremes(queries, grid, targets, fvals)
        assert same_bits(got, stacked_ball_extremes(space, queries, grid, targets, fvals))
        assert np.signbit(got[0][0, 0]) and np.signbit(got[1][0, 0])


def line_space(name):
    """A 1-D input of the line's run kernels: a line of ``backend_space``, or

    ``ulp_cluster``: points one ulp apart on both sides of 1 and of -1, so
    the balls of radius about 1 around 0, and about 2 around either cluster,
    end inside a cluster that the widened search window holds whole.
    ``kd_line``: uniform points, half of them more than ``_KD_BALL_MEMBERS``,
    the target count above which balls in two or more dimensions go through
    a kd-tree.
    """
    if name == "ulp_cluster":
        ones = np.r_[1.0 - np.arange(1, 25) * 2.0**-53, 1.0 + np.arange(25) * 2.0**-52]
        coords = np.random.default_rng(15).permutation(np.r_[ones, -ones, 0.0, 0.5, -0.25, 2.0, 3.0])
    elif name == "kd_line":
        coords = np.random.default_rng(16).uniform(size=2 * _KD_BALL_MEMBERS + 200)
    else:
        return backend_space(name)
    return SpaceInstance(name, EuclideanMetric(coords), resolution=2.0**-1022, family="euclidean")


def line_balls(space, seed, nqueries):
    """Half the points as targets, queries that are partly not targets, and radii.

    Each query gets the radii 0 and +inf, and for its distance d to each of
    8 targets, d (a tie at the radius) and the floats either side of d.
    Returns (queries, radii, targets, fvals, radii per query).
    """
    rng = np.random.default_rng(seed)
    targets = np.sort(rng.choice(space.n, size=space.n // 2, replace=False))
    queries = rng.choice(space.n, size=nqueries, replace=False)
    d = space.metric.dist_rows(queries, rng.choice(targets, size=8))
    radii = np.hstack([np.zeros((nqueries, 1)), np.full((nqueries, 1), np.inf),
                       d, np.nextafter(d, np.inf), np.nextafter(d, -np.inf)])
    fvals = rng.integers(0, 4, size=targets.size) / 3.0
    return np.repeat(queries, radii.shape[1]), radii.ravel(), targets, fvals, radii.shape[1]


def spread_picks(total, targets, pairs=40000):
    """Every k-th of ``total`` balls, so the brute-force loop visits about ``pairs`` (ball, target) pairs."""
    return np.arange(0, total, -(-total * targets // pairs))


LINES = ["line", "offset_line", "subnormal_line", "ulp_cluster", "kd_line"]


class TestLineExtremes:
    """On the line ``ball_extremes`` and ``grid_extremes`` are one kernel, range
    queries over coordinate runs, so each is checked against the brute-force
    balls and against the base class's dense fold run on the same metric."""

    @pytest.mark.parametrize("name", LINES)
    @pytest.mark.parametrize("budget", [None, 100], ids=["default_budget", "six_balls"])
    def test_matches_dense_fold_and_brute_force(self, monkeypatch, name, budget):
        space = line_space(name)
        metric = space.metric
        queries, radii, targets, fvals, per = line_balls(space, len(name), min(space.n, 40))
        assert not np.isin(queries, targets).all()
        assert name != "kd_line" or targets.size > _KD_BALL_MEMBERS
        # The grid: every radius of the first three queries, descending, +inf and 0 included.
        grid = np.unique(radii[:3 * per])[::-1]
        q = queries[::per]
        # Balls by ascending radius: their runs lengthen from block to block.
        by_radius = np.argsort(radii, kind="stable")
        queries, radii = queries[by_radius], radii[by_radius]
        dense = (space_mod.Metric.ball_extremes(metric, queries, radii, targets, fvals),
                 space_mod.Metric.grid_extremes(metric, q, grid, targets, fvals))
        built = []  # no kd-tree on the line
        monkeypatch.setattr("scipy.spatial.cKDTree", lambda pts: built.append(len(pts)))
        if budget is not None:  # blocks of six balls: the table's levels fill from block to block
            monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", budget)

        got = metric.ball_extremes(queries, radii, targets, fvals)
        assert all_identical(got, dense[0])
        pick = spread_picks(queries.size, targets.size)
        want = brute_ball_extremes(space, queries[pick], radii[pick], targets, fvals)
        assert all_identical(tuple(g[pick] for g in got), want)
        assert (got[0] < got[1])[radii == 0].all()

        got = metric.grid_extremes(q, grid, targets, fvals)
        assert all_identical(got, dense[1])
        rows, cols = np.unravel_index(spread_picks(grid.size * q.size, targets.size), (grid.size, q.size))
        want = brute_ball_extremes(space, q[cols], grid[rows], targets, fvals)
        assert all_identical((got[0][rows, cols], got[1][rows, cols]), want)
        assert not built

    def test_equal_extremes_take_the_last_target(self):
        # Only +0.0 and -0.0 tell equal values apart.  The dense fold keeps
        # the later of two equal values, and so do the run kernel's ranks: in
        # ``targets`` order, whatever the coordinate order.
        metric = EuclideanMetric(np.array([0.0, 0.25, 0.5, 0.75]))
        queries, radii = np.array([0, 0, 3]), np.array([1.0, 0.3, 0.3])
        fvals = np.array([-0.0, 0.0, 0.0, -0.0])
        for targets, negative in [([0, 1, 2, 3], [True, False, True]), ([3, 2, 1, 0], [True, True, False])]:
            for extreme in metric.ball_extremes(queries, radii, np.array(targets), fvals):
                assert np.array_equal(extreme, np.zeros(3)) and np.signbit(extreme).tolist() == negative

    def test_wide_balls_peak_memory(self):
        # Every ball holds every one of more than _KD_BALL_MEMBERS targets.
        # The kd path this replaced built one Python list per ball, n^2 ids in
        # all: `index --generate random:7:3001:1 --policy fixed:1` peaked at
        # 890 MB RSS.  The sparse tables hold 2 log2(n) ranks per target.
        n = _KD_BALL_MEMBERS + 1000
        metric = EuclideanMetric(np.random.default_rng(0).uniform(size=n))
        ids = np.arange(n)
        fvals = np.random.default_rng(1).normal(size=n)
        tracemalloc.start()
        try:
            maxv, minv = metric.ball_extremes(ids, np.full(n, 1.0), ids, fvals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(maxv, np.full(n, fvals.max())) and np.array_equal(minv, np.full(n, fvals.min()))
        assert peak < 100 * 8 * n

    def test_grid_peak_memory(self):
        # The grid's balls are read from the queries and the broadcast grid
        # block by block: beside the two outputs, one float per ball each,
        # only the sparse tables and one block's temporaries (2 MiB in all).
        n = 4000
        metric = EuclideanMetric(np.random.default_rng(0).uniform(size=n))
        ids = np.arange(n)
        fvals = np.random.default_rng(1).normal(size=n)
        grid = 2.0 ** -np.arange(64)
        tracemalloc.start()
        try:
            maxv, minv = metric.grid_extremes(ids, grid, ids, fvals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * grid.size * n + (2 << 20)
        for j in (0, 9, 63):
            want = metric.ball_extremes(ids, np.full(n, grid[j]), ids, fvals)
            assert identical(maxv[j], want[0]) and identical(minv[j], want[1])


# ---------------------------------------------------------------------------
# Limsup envelope
# ---------------------------------------------------------------------------

def assert_same_limsup(space, Y, f):
    report = limsup_extension(space, Y, f)
    pre, diagnostics = reference_limsup(space, Y, f)
    assert identical(report.prepatch.values, pre)
    assert report.diagnostics == diagnostics
    assert type(report.diagnostics["max_radius_used"]) is float


class TestLimsup:
    @pytest.mark.parametrize("path", sorted(p.name for p in FIXTURES.glob("*.json") if p.name != "broken_triangle.json"))
    def test_fixture_matches_loop(self, path):
        space = load_space_file(FIXTURES / path)
        f = space.fields["f"]
        assert_same_limsup(space, space.subsets.get("Y", f.domain), f)

    @pytest.mark.parametrize("spec", ["ordinal:1", "ordinal:2", "ordinal:3", "cantor:6", "cantor:8",
                                      "cantor:10", "random:7:200:2", "sequence"])
    def test_generated_matches_loop(self, spec):
        space = generate_from_spec(spec)
        assert_same_limsup(space, space.subsets["Y"], space.fields["f"])

    @pytest.mark.parametrize("name", ["lattice", "matrix", "random3d"])
    def test_tie_heavy_cases_match_loop(self, name):
        # On the lattice, points off Y sit exactly a grid radius from Y.
        assert_same_limsup(*case(name))

    def test_far_point_uses_the_top_radius(self):
        # Point 1 lies a whole diameter from Y: only the top grid radius reaches Y.
        space = SpaceInstance("pair", MatrixMetric(np.array([[0.0, 1.0], [1.0, 0.0]])), resolution=0.5)
        assert_same_limsup(space, space.mask_from_ids([0]), ScalarField.on_ids(space, [0], [0.25]))

    def test_kd_path_matches_loop(self):
        # Y holds more than _KD_BALL_MEMBERS points: balls come from a kd-tree.
        space, Y, f = with_subset_field(random_instance(9, 4000, 2), 9, keep=0.85)
        assert Y.size > _KD_BALL_MEMBERS
        assert_same_limsup(space, Y, f)


# ---------------------------------------------------------------------------
# Scattered recursion
# ---------------------------------------------------------------------------

def scattered_outcome(monkeypatch, space, Y, f, policy, region_loop=None):
    """(prepatch values, diagnostics) of ``scattered_extension``, or its
    PreconditionError message; ``region_loop`` replaces ``_scatter_region``."""
    with monkeypatch.context() as m:
        if region_loop is not None:
            m.setattr(extend, "_scatter_region", region_loop)
        try:
            report = scattered_extension(space, Y, f, policy)
        except PreconditionError as exc:
            return str(exc)
    return report.prepatch.values, report.diagnostics


def check_scatter_against_loop(monkeypatch, space, Y, f, policy):
    """Assert the loop and ``reference_scatter_region`` agree bit for bit;
    the diagnostics, or None when both refuse the input alike."""
    got = scattered_outcome(monkeypatch, space, Y, f, policy)
    want = scattered_outcome(monkeypatch, space, Y, f, policy, reference_scatter_region)
    if isinstance(want, str):
        assert got == want
        return None
    assert identical(got[0], want[0])
    assert got[1] == want[1]
    return got[1]


# None: a fixed radius below the smallest gap, which empties the filtration
# in one step; a multiplier of 1e308 overflows mult * ls to inf.
SCATTER_MULTS = [1.0, 1.5, 2.0, 3.0, 1e308, None]


def scatter_policy(space, mult):
    return AdaptiveScale(mult) if mult else FixedScale(space.resolution / 2)


class TestScattered:
    @pytest.mark.parametrize("spec", ["ordinal:1", "ordinal:2", "ordinal:3", "ordinal:2:6", "sequence", "cantor:6"])
    @pytest.mark.parametrize("mult", SCATTER_MULTS, ids=lambda mult: None if mult else "fixed")
    def test_matches_loop(self, monkeypatch, spec, mult):
        for keep in (0.2, 0.5):
            space, Y, f = with_subset_field(generate_from_spec(spec), 3, keep)
            assert check_scatter_against_loop(monkeypatch, space, Y, f, scatter_policy(space, mult)) is not None

    @pytest.mark.parametrize("name", ["line", "offset_line", "subnormal_line", "ulp_cluster", "cantor", "wide"])
    def test_matches_loop_on_tie_heavy_lines(self, monkeypatch, name):
        # The run backends' tie-heavy inputs, the lines as family "sequence",
        # under every policy.  Y is every other point in run order or every
        # other pair (where a point has two nearest Y points at one
        # distance), a random fifth, one point (Y-empty components) or
        # everything.
        space = line_space(name)
        if space.metric.kind == "euclidean":
            space = SpaceInstance(name, space.metric, space.resolution, family="sequence")
        order = space.metric.run_order(np.arange(space.n))
        rng = np.random.default_rng(len(name))
        subsets = [order[::2], order[np.arange(space.n) % 4 >= 2], np.flatnonzero(rng.uniform(size=space.n) < 0.2),
                   order[space.n // 2:space.n // 2 + 1], np.arange(space.n)]
        ties = 0
        for ids in subsets[:2]:
            d = space.metric.dist_rows(np.setdiff1d(np.arange(space.n), ids), np.sort(ids))
            ties += np.count_nonzero((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1)
        assert ties
        seen = []
        for mult in SCATTER_MULTS:
            for ids in subsets:
                ids = np.sort(ids)
                f = ScalarField.on_ids(space, ids, rng.normal(size=ids.size))
                seen.append(check_scatter_against_loop(monkeypatch, space, space.mask_from_ids(ids), f,
                                                       scatter_policy(space, mult)))
        seen = [diag for diag in seen if diag is not None]
        assert any(diag["default_zero_regions"] for diag in seen)  # a component missing Y
        assert any(diag["components"] == space.n for diag in seen)  # every point its own component
        assert any(diag["anchored_tops"] for diag in seen) or name == "cantor"  # a deeper filtration

    @pytest.mark.parametrize("spec, generations", [("ordinal:3", 4), ("ordinal:4", 5)])
    def test_one_split_per_generation(self, monkeypatch, spec, generations):
        # The loop splits every live region of a generation in one call, and
        # filters only the whole space (the probe): neither count grows with
        # the components (211 on ordinal:3, 2111 on ordinal:4).
        space = generate_from_spec(spec)
        calls = {"visibility_components": 0, "cb_filtration": 0}
        for name in calls:
            real = getattr(extend, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(extend, name, counted)
        report = scattered_extension(space, space.subsets["Y"], space.fields["f"])
        assert report.diagnostics["components"] > 10 * generations
        assert calls == {"visibility_components": generations, "cb_filtration": 1}


# ---------------------------------------------------------------------------
# Visibility components
# ---------------------------------------------------------------------------

RUN_BACKENDS = ["line", "offset_line", "subnormal_line", "ulp_cluster", "cantor", "wide"]


class TestBallRuns:
    @pytest.mark.parametrize("name", RUN_BACKENDS)
    def test_runs_are_the_dense_balls(self, name):
        # Every open ball among members in run order is the run
        # [start, stop) of positions: radii 0 and inf, the in-set scales,
        # and radii that tie a distance to a random member or lie one float
        # either side of it.
        space = line_space(name)
        rng = np.random.default_rng(len(name))
        for keep in (1.0, 0.5, 0.1):
            members = np.flatnonzero(rng.uniform(size=space.n) < keep)
            if members.size < 2:
                continue
            order = space.metric.run_order(members)
            assert np.array_equal(np.sort(order), members)
            d = space.metric.dist_rows(order, order)
            tied = d[np.arange(order.size), rng.integers(0, order.size, size=order.size)]
            radii = [np.zeros(order.size), np.full(order.size, np.inf), space.metric.scales(order)[0] * 3.0,
                     tied, np.nextafter(tied, np.inf), np.nextafter(tied, -np.inf)]
            pos = np.arange(order.size)
            for r in radii:
                start, stop = space.metric.ball_runs(order, r)
                assert np.array_equal(d < r[:, None], (start[:, None] <= pos) & (pos < stop[:, None]))

    @pytest.mark.parametrize("name", ["matrix", "lattice", "random2d", "random3d"])
    def test_no_runs_off_the_line_and_prefix_metric(self, name):
        space = case(name)[0]
        assert space.metric.run_order(np.arange(space.n)) is None


def labelled_regions(space, seed, count):
    """Random disjoint regions as a generation: (member ids in run order,
    their nondecreasing region labels, each region's ids).  Each region is
    a run of the members, as in the scattered loop."""
    rng = np.random.default_rng(seed)
    order = space.metric.run_order(np.arange(space.n))
    order = order[rng.uniform(size=space.n) < 0.8]  # some points in no region
    labels = np.sort(rng.integers(0, count, size=order.size))
    return order, labels, [np.sort(order[labels == k]) for k in range(count)]


class TestLabelledKernels:
    # Each label's members see only their own label: the labelled kernels
    # equal one unlabelled call per label, ties to the smallest id included.
    @pytest.mark.parametrize("name", RUN_BACKENDS + ["ordinal:3"])
    @pytest.mark.parametrize("count", [1, 3, 40])
    def test_scales_and_nearest_per_label(self, name, count):
        space = line_space(name) if name in RUN_BACKENDS else generate_from_spec(name)
        order, labels, _regions = labelled_regions(space, count, count)
        ls, nn = space.metric.scales(order, labels)
        rng = np.random.default_rng(count)
        in_t = rng.uniform(size=order.size) < 0.3
        in_t[np.searchsorted(labels, np.arange(count))] = True  # every label holds a target
        got_id, got_d = space.metric.nearest(order, order[in_t], (labels, labels[in_t]))
        for k in range(count):
            at = labels == k
            want_ls, want_nn = space.metric.scales(order[at])
            assert identical(ls[at], want_ls) and identical(nn[at], want_nn)
            want_id, want_d = space.metric.nearest(order[at], order[at & in_t])
            assert identical(got_id[at], want_id) and identical(got_d[at], want_d)

    @pytest.mark.parametrize("block", [None, 0, 10**9], ids=["default", "runs", "dense"])
    @pytest.mark.parametrize("name", ["ordinal:3", "cantor:8", "line", "offset_line", "ulp_cluster", "wide"])
    def test_components_per_label(self, monkeypatch, name, block):
        # A generation's components are each region's own components, as
        # runs of the generation numbered along it.
        if block is not None:
            monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", block)
        space = line_space(name) if name in RUN_BACKENDS else generate_from_spec(name)
        for count in (1, 5):
            order, labels, regions = labelled_regions(space, len(name), count)
            for mult in TestVisibilityComponents.MULTS:
                comp = visibility_components(space, order, mult, labels)
                assert comp[0] == 0 and set(np.diff(comp)) <= {0, 1}
                same = np.flatnonzero(np.diff(comp) == 0)
                assert np.array_equal(labels[same], labels[same + 1])  # no component crosses two labels
                got = [np.sort(order[comp == c]) for c in range(comp[-1] + 1)]
                where = np.empty(space.n, dtype=np.int64)
                where[order] = np.arange(order.size)
                want = sorted((ids for region in regions if region.size
                               for ids in component_ids(space, space.mask_from_ids(region), mult)),
                              key=lambda ids: where[ids].min())
                assert all_identical(got, want), (count, mult)


def component_ids(space, region, mult):
    return [comp.ids() for comp in visibility_components(space, region, mult)]


def visibility_space(name):
    return case(name)[0] if name in ("line", "offset_line", "matrix", "lattice", "random2d") else generate_from_spec(name)


class TestVisibilityComponents:
    MULTS = (0.5, 1.0, 1.5, 3.0, 7.0)

    @pytest.mark.parametrize("block", [None, 0, 10**9], ids=["default", "runs", "dense"])
    @pytest.mark.parametrize("name", ["ordinal:1", "ordinal:2", "ordinal:3", "sequence", "cantor:6", "cantor:8",
                                      "cantor:10", "line", "offset_line"])
    def test_matches_dense_oracle(self, monkeypatch, name, block):
        # The run sweep (``_BLOCK_ELEMS`` 0), the dense block in run order
        # (10^9) and the default switch between them give scipy's components
        # of the dense graph, in its order, on the full region and on random
        # subsets.
        if block is not None:
            monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", block)
        space = visibility_space(name)
        rng = np.random.default_rng(len(name))
        regions = [space.full_mask()] + [space.mask_from_ids(np.flatnonzero(rng.uniform(size=space.n) < keep))
                                         for keep in (0.05, 0.2, 0.5, 0.8)]
        for region in regions:
            if region.size < 2:
                continue
            for mult in self.MULTS:
                want = reference_visibility_components(space, region, mult)
                assert all_identical(component_ids(space, region, mult), want), (region.size, mult)

    @pytest.mark.parametrize("name", ["matrix", "lattice", "random2d"])
    def test_metrics_without_runs_label_the_dense_graph(self, name):
        space = visibility_space(name)
        rng = np.random.default_rng(3)
        for region in (space.full_mask(), space.mask_from_ids(np.flatnonzero(rng.uniform(size=space.n) < 0.5))):
            for mult in self.MULTS:
                assert all_identical(component_ids(space, region, mult),
                                     reference_visibility_components(space, region, mult))

    def test_peak_memory_is_linear(self):
        # The runs and their scales take about 360 bytes per member; the
        # dense member block of ordinal:4 alone would be about 1 GB.
        space = generate_from_spec("ordinal:4")
        full = space.full_mask()
        full.ids()
        tracemalloc.start()
        try:
            comps = visibility_components(space, full, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(comp.size for comp in comps) == space.n
        assert peak < 1024 * space.n

    def test_singleton_components_cost_their_members(self):
        # At multiplier 0.5 every one of ordinal:4's 11111 points is its own
        # component; each costs its one member, where a full-length bool
        # mask per component took about 127 MB.
        space = generate_from_spec("ordinal:4")
        full = space.full_mask()
        full.ids()
        tracemalloc.start()
        try:
            comps = visibility_components(space, full, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(comps) == space.n and all(comp.size == 1 for comp in comps)
        assert peak < 1024 * space.n


# ---------------------------------------------------------------------------
# Cover, partition, blend
# ---------------------------------------------------------------------------

def level_pairs(space, Y, f, epsilon):
    """Consecutive derivation levels, plus Y against a seeded subset and against nothing."""
    trace = iterate("pair", f.restrict(Y), epsilon, Y, AdaptiveScale(3.0))
    pairs = [(a, b) for a, b in zip(trace.levels, trace.levels[1:]) if not (a - b).is_empty()]
    ids = Y.ids()
    some = np.random.default_rng(ids.size).choice(ids, size=ids.size // 3, replace=False)
    return pairs + [(Y, space.mask_from_ids(some)), (Y, space.empty_mask())]


BIG_CLOUDS = {f"cloud{dim}d_2^{e}": (dim, e) for dim in (1, 2, 3, 9) for e in (-20, 0, 20)}


@functools.lru_cache(maxsize=None)
def large_space(name):
    """Spaces above ``_EXACT_DIAMETER_LIMIT`` points, where the diameter is the box corners' distance.

    ``box``: 4097 points in 3-D, the box's corners at ids 0 and 1, whose
    diagonal summed in another order than ``_euclidean``'s reads an ulp
    below ``dist(0, 1)``.  ``cloudKd_2^E``: normal points in K dimensions
    scaled by 2^E, with the box's corners at ids 0 and 1.
    """
    n = space_mod._EXACT_DIAMETER_LIMIT + 1
    if name == "box":
        inner = np.random.default_rng(3).uniform(0.1, 2.5, size=(n - 2, 3))
        coords = np.vstack([np.zeros(3), [5.328, 5.227, 2.587], inner])
    else:
        dim, e = BIG_CLOUDS[name]
        inner = np.random.default_rng(dim).standard_normal((n - 2, dim)) * 2.0**e
        coords = np.vstack([inner.min(axis=0), inner.max(axis=0), inner])
    return SpaceInstance(name, EuclideanMetric(coords), resolution=2.0**-1022, family="euclidean")


class TestCoverPartitionBlend:
    @pytest.mark.parametrize("name", CASES + ["smooth2d"])
    @pytest.mark.parametrize("epsilon", [0.5, 2.0**-4])
    def test_bit_identical_to_loops(self, name, epsilon):
        space, Y, f = case(name)
        fY = f.restrict(Y)
        for ybeta, ynext in level_pairs(space, Y, f, epsilon):
            got = cover_for_piece(space, ybeta, ynext, fY, epsilon)
            want = reference_cover_for_piece(space, ybeta, ynext, fY, epsilon)
            assert got.elements == want.elements
            assert all(type(c) is int and type(r) is float for c, r in got.elements)
            assert identical(got.carrier.mask, want.carrier.mask)

            pou = partition(space, got)
            ref = reference_partition(space, got)
            assert all_identical(pou.support_ids, ref.support_ids)
            assert all_identical(pou.weights, ref.weights)
            assert pou.to_dict() == ref.to_dict()

            anchors = [fY.values[c] for c, _r in got.elements]
            out = blend(pou, anchors)
            assert identical(out.values, reference_blend(ref, anchors).values)
            assert identical(out.domain.mask, got.carrier.mask)

    @pytest.mark.parametrize("name", ["random2d", "lattice", "matrix", "line", "offset_line", "subnormal_line",
                                      "long_line", "cantor:6", *BIG_CLOUDS, "box"])
    def test_diameter_bounds_every_distance(self, name):
        # The cover caps an absent constraint at the diameter, so it must be
        # at least every distance.
        space = large_space(name) if name in BIG_CLOUDS or name == "box" else backend_space(name)
        everything = np.arange(space.n)
        farthest = max(float(space.metric.dist_rows(everything[lo:hi], everything).max())
                       for lo, hi in _row_chunks(space.n, space.n))
        assert space.diameter() >= farthest
        # Equal where the exact pass runs, for the matrix and prefix metrics,
        # on lines of any size, whose two ends are the farthest pair, and
        # above the pass wherever the box's corners are points.
        assert space.diameter() == farthest

    def test_bounding_box_cap_below_the_farthest_pair(self):
        # Above _EXACT_DIAMETER_LIMIT points the diameter is the distance of
        # the bounding box's corners, points 0 and 1 here; summed in another
        # order than _euclidean's it read an ulp below dist(0, 1).
        space = large_space("box")
        assert space.diameter() >= space.metric.dist(0, 1)
        ybeta = space.mask_from_ids(np.arange(8))
        f = ScalarField.on_ids(space, np.arange(8), np.arange(8) // 4)
        for epsilon in (0.5, 2.0):
            got = cover_for_piece(space, ybeta, space.mask_from_ids([0]), f, epsilon)
            want = reference_cover_for_piece(space, ybeta, space.mask_from_ids([0]), f, epsilon)
            assert got.elements == want.elements
            assert identical(got.carrier.mask, want.carrier.mask)

    def test_radius_failure_names_the_first_point(self):
        # Points 1 and 2 coincide but differ in f: neither admits a radius.
        coords = np.array([[0.0], [0.5], [0.5], [0.9]])
        space = SpaceInstance("dup", EuclideanMetric(coords), resolution=0.1, family="euclidean")
        f = ScalarField.on_ids(space, [0, 1, 2, 3], [0.0, 0.0, 1.0, 1.0])
        full, empty = space.full_mask(), space.empty_mask()
        with pytest.raises(InvariantError) as want:
            reference_cover_for_piece(space, full, empty, f, 0.5)
        with pytest.raises(InvariantError) as got:
            cover_for_piece(space, full, empty, f, 0.5)
        assert str(got.value) == str(want.value)
        assert "point 1 admits no positive cover radius" in str(got.value)


# ---------------------------------------------------------------------------
# Generic layering
# ---------------------------------------------------------------------------

def assert_same_layers(space, Y, fY, max_layers=24):
    n_max = int(math.ceil(math.log2(1.0 / space.resolution))) + 4
    want = reference_layered_generic(space, Y, fY, max_layers, n_max)
    got = _layered(space, Y, fY, max_layers, n_max, *nearest_in_set(space, Y), _GenericSupports)
    assert_identical_layers(got, want)
    return got


@functools.lru_cache(maxsize=None)
def supports_of(name):
    space, Y, f = case(name)
    return _GenericSupports(space, Y, f.restrict(Y))


def run_checked_layers(space, Y, fY, max_layers=24):
    """Run ``_layered`` and check every ``next_depths`` call against the candidate loop.

    Returns one (chosen, near pairs per row chunk, packed covering width in
    bytes) per call.  The candidate loop reads the cover unpacked to bools.
    """
    calls, widths = [], []

    class Checked(_GenericSupports):
        def supports(self, centers, depths, l_prev):
            widths.append(centers.size)
            return super().supports(centers, depths, l_prev)

        def next_depths(self, cover, cand, ok):
            got = super().next_depths(cover, cand, ok)
            pairs = []
            # A cover of None: every support covers every point.
            m = widths[-1]
            covering = np.ones((self.everything.size, m), dtype=bool) if cover is None else unpacked(cover, m)
            assert identical(got, reference_next_depths(self, covering, cand, ok, pairs))
            calls.append((got, pairs, (m + 7) >> 3))
            return got

    n_max = int(math.ceil(math.log2(1.0 / space.resolution))) + 4
    _layered(space, Y, fY, max_layers, n_max, *nearest_in_set(space, Y), Checked)
    return calls


def walked_layers(space, Y, fY):
    """(centers, depths, l_prev, cover) of each ``supports`` call of one
    ``_layered`` run whose cover is walked, not None."""
    seen = []

    class Recorded(_GenericSupports):
        def supports(self, centers, depths, l_prev):
            lmax, minlp, cover = super().supports(centers, depths, l_prev)
            if cover is not None:
                seen.append((centers, depths, l_prev, cover))
            return lmax, minlp, cover

    n_max = int(math.ceil(math.log2(1.0 / space.resolution))) + 4
    _layered(space, Y, fY, 24, n_max, *nearest_in_set(space, Y), Recorded)
    return seen


def kernel_walks(monkeypatch, space, Y, fY):
    """The ``supports`` and ``next_depths`` calls of one ``_layered`` run, in
    order, with a "ball_pairs" entry after each for every pair walk it
    starts; from the first ``supports`` on, past the spread table's walk."""
    walks = []
    pairs = space.metric.ball_pairs
    monkeypatch.setattr(space.metric, "ball_pairs", lambda *args: walks.append("ball_pairs") or pairs(*args))

    class Spied(_GenericSupports):
        def supports(self, *args):
            walks.append("supports")
            return super().supports(*args)

        def next_depths(self, *args):
            walks.append("next_depths")
            return super().next_depths(*args)

    n_max = int(math.ceil(math.log2(1.0 / space.resolution))) + 4
    _layered(space, Y, fY, 24, n_max, *nearest_in_set(space, Y), Spied)
    return walks[walks.index("supports"):]


class WalkingSupports(_GenericSupports):
    """The generic backend with its diameter read as +inf: no layer covers
    every point, so every layer walks its pairs."""

    def __init__(self, *args):
        super().__init__(*args)
        self.diameter = np.inf


class TestLayeredGeneric:
    @pytest.mark.parametrize("name", CASES)
    def test_bit_identical_to_loop(self, name):
        space, Y, f = case(name)
        layers = assert_same_layers(space, Y, f.restrict(Y))
        assert len(layers) >= 2

    def test_truncated(self):
        space, Y, f = case("random2d")
        assert len(assert_same_layers(space, Y, f.restrict(Y), max_layers=3)) == 3

    def test_coarse_resolution(self):
        # resolution 100 gives n_max = -2: no depth is ever tried.
        coords = np.array([[0.0], [100.0], [250.0], [260.0]])
        space = SpaceInstance("coarse", EuclideanMetric(coords), resolution=100.0, family="euclidean")
        f = ScalarField.on_ids(space, [0, 1, 2, 3], [0.0, 1.0, 0.5, 0.25])
        assert len(assert_same_layers(space, space.full_mask(), f)) == 1

    def test_missing_anchor_names_the_first_center(self):
        coords = np.array([[0.0], [0.5], [3.0], [7.0]])
        space = SpaceInstance("far", EuclideanMetric(coords), resolution=0.25, family="euclidean")
        Y = space.mask_from_ids([0])
        fY = ScalarField.on_ids(space, [0], [1.0])
        with pytest.raises(InvariantError) as want:
            reference_layered_generic(space, Y, fY, 24, 6)
        with pytest.raises(InvariantError) as got:
            _layered(space, Y, fY, 24, 6, *nearest_in_set(space, Y), _GenericSupports)
        assert str(got.value) == str(want.value) == "layer 0: no anchor candidate near 2"

    @pytest.mark.parametrize("name", CASES)
    def test_next_depths_match_candidate_loop(self, name):
        space, Y, f = case(name)
        calls = run_checked_layers(space, Y, f.restrict(Y))
        assert calls and any((chosen >= 0).any() for chosen, _pairs, _width in calls)

    def test_pair_slices_cross_the_block_budget(self):
        # A smooth field at a coarse resolution: nearly every point is in
        # every candidate's doubled ball, so one row chunk's near pairs take
        # several slices of packed covering rows.
        space, _Y, f = case("smooth2d")
        coarse = SpaceInstance("smooth-coarse", space.metric, resolution=1 / 8, family="euclidean")
        full = coarse.full_mask()
        calls = run_checked_layers(coarse, full, ScalarField(full, f.values))
        assert max(max(pairs) * width for _chosen, pairs, width in calls) > _BLOCK_ELEMS

    def test_point_at_the_small_radius_is_outside_the_small_ball(self):
        # Point 1 sits exactly 2^-2 from the candidate 0 and leaves the only
        # support covering it; the open ball B(0, 2^-2) misses it, so depth 2 passes.
        space = SpaceInstance("tie", EuclideanMetric(np.array([[0.0], [0.25], [3.0]])), resolution=0.125,
                              family="euclidean")
        full = space.full_mask()
        sup = _GenericSupports(space, full, ScalarField(full, np.zeros(3)))
        covering = np.array([[True, False], [False, False], [False, True]])
        cover = np.packbits(covering, axis=1, bitorder="little")
        cand, ok = np.array([0]), np.array([[False, True, True, True]])
        assert (sup.next_depths(cover, cand, ok).tolist() == reference_next_depths(sup, covering, cand, ok).tolist()
                == [2])

    @pytest.mark.parametrize("name, max_layers", [("ordinal:2", 1), ("alternating_line", 24)])
    def test_report_reads_layer_zero(self, name, max_layers):
        """Reports whose points end in layer 0 read its deferred hat sums."""
        if name == "alternating_line":
            # 0 and 1 alternating along the line: every ball at resolution
            # holds both, so no point gets past layer 0.
            space = SpaceInstance(name, EuclideanMetric(np.arange(64) / 64), resolution=1 / 16, family="euclidean")
            Y = space.full_mask()
            fY = ScalarField(Y, np.arange(64) % 2.0)
        else:
            space, Y, f = case(name)
            fY = f.restrict(Y)
        n_max = int(math.ceil(math.log2(1.0 / space.resolution))) + 4
        want = reference_layered_generic(space, Y, fY, max_layers, n_max)
        assert len(want) == 1
        assert_report_reads_layers(layered_extension(space, Y, fY, max_layers=max_layers), Y, fY, want)

    @pytest.mark.parametrize("name", CASES)
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_carrier_is_where_den_is_positive(self, name, data):
        """Each hat weight r - d with d < r is a positive float, so the
        covered points (lmax >= 0), the layered carrier, are where den > 0."""
        sup = supports_of(name)
        n = sup.everything.size
        centers = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=64))))
        depths = np.array(data.draw(st.lists(st.just(0) | st.integers(0, 16), min_size=centers.size,
                                             max_size=centers.size)), dtype=np.int64)
        a = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).uniform(-1.0, 1.0, centers.size) / 3
        l_prev = np.arange(n) % 7 if data.draw(st.booleans()) else None
        (_num, den), (lmax, _minlp, _cover) = sup.hat_sums(centers, depths, a), sup.supports(centers, depths, l_prev)
        assert np.array_equal(den > 0, lmax >= 0)

    @pytest.mark.parametrize("spec", ["ordinal:1", "ordinal:2", "ordinal:3", "random:7:300:1"])
    def test_layer_wider_than_the_space_walks_no_pairs(self, monkeypatch, spec):
        # Radius 1 exceeds the diameter (0.8 to 0.99): layer 0's supports
        # and support test walk no pairs; deeper layers do.
        space, Y, f = case(spec) if spec in CASES else with_subset_field(generate_from_spec(spec), 7)
        assert space.diameter() < 1.0
        walks = kernel_walks(monkeypatch, space, Y, f.restrict(Y))
        assert walks[:3] == ["supports", "next_depths", "supports"]
        assert "ball_pairs" in walks

    @pytest.mark.parametrize("name", ["random:7:200:2", "unit_line"])
    def test_layer_zero_walks_pairs_on_a_wide_space(self, monkeypatch, name):
        # A 2-D cloud of diameter 1.32, and a line of diameter exactly 1,
        # whose two ends are outside each other's radius-1 ball.
        if name == "unit_line":
            space = SpaceInstance(name, EuclideanMetric(np.arange(17) / 16), resolution=1 / 16, family="euclidean")
            Y, f = space.full_mask(), ScalarField(space.full_mask(), np.arange(17) % 3 / 3)
        else:
            space = generate_from_spec(name)
            Y, f = space.subsets["Y"], space.fields["f"]
        assert space.diameter() >= 1.0
        walks = kernel_walks(monkeypatch, space, Y, f.restrict(Y))
        assert walks[:4] == ["supports", "ball_pairs", "next_depths", "ball_pairs"]

    @pytest.mark.parametrize("name", ["ordinal:1", "ordinal:2", "ordinal:3", "line", "matrix", "random:7:300:1"])
    def test_forced_walk_gives_the_same_layers(self, name):
        space, Y, f = case(name) if name in CASES else with_subset_field(generate_from_spec(name), 7)
        fY = f.restrict(Y)
        n_max = int(math.ceil(math.log2(1.0 / space.resolution))) + 4
        got = _layered(space, Y, fY, 24, n_max, *nearest_in_set(space, Y), _GenericSupports)
        want = _layered(space, Y, fY, 24, n_max, *nearest_in_set(space, Y), WalkingSupports)
        assert len(got) >= 2
        assert_identical_layers(got, want)

    def test_broadcast_covering_reads_as_the_walked_one(self):
        # Layer 0 of ordinal:2 covers every point: its cover of None reads as
        # the walked covering matrix, every bit set, and the candidate loop
        # reads that matrix, unpacked to bools, alike.
        space, Y, f = case("ordinal:2")
        fY = f.restrict(Y)
        centers, depths = np.arange(space.n), np.zeros(space.n, dtype=np.int64)
        sup, walking = _GenericSupports(space, Y, fY), WalkingSupports(space, Y, fY)
        l_prev = np.arange(space.n) % 5 + 3
        for lp in (l_prev, None):
            (*got, cover), (*want, walked) = sup.supports(centers, depths, lp), walking.supports(centers, depths, lp)
            assert all_identical(got, want)
            assert cover is None and walked.shape == (space.n, (centers.size + 7) >> 3)
            assert unpacked(walked, centers.size).all()
        cand = np.arange(0, space.n, 3)
        ok = np.random.default_rng(5).uniform(size=(cand.size, 12)) < 0.3
        want = reference_next_depths(walking, unpacked(walked, centers.size), cand, ok)
        assert identical(sup.next_depths(cover, cand, ok), want)
        assert identical(sup.next_depths(cover, cand, ok), walking.next_depths(walked, cand, ok))

    @pytest.mark.parametrize("name", ["ordinal:1", "ordinal:2", "ordinal:3", "line", "offset_line", "matrix",
                                      "random2d", "lattice"])
    def test_packed_cover_matches_pair_loop(self, name):
        # Each walked cover is np.packbits(covering, axis=1, bitorder="little")
        # of the bool matrix a per-pair loop over ball_pairs sets: center k is
        # bit k & 7 of byte k >> 3, and the padding bits are zero.
        space, Y, f = case(name)
        walked = walked_layers(space, Y, f.restrict(Y))
        assert walked
        metric = space.metric
        for centers, depths, _l_prev, cover in walked:
            m = centers.size
            assert cover.dtype == np.uint8 and cover.shape == (space.n, (m + 7) >> 3)
            bits = np.unpackbits(cover, axis=1, bitorder="little")
            assert not bits[:, m:].any()
            want = np.zeros((space.n, m), dtype=bool)
            for rows, ids, _d in metric.ball_pairs(centers, 2.0 ** -depths.astype(float), np.arange(space.n)):
                for r, i in zip(rows.tolist(), ids.tolist()):
                    want[i, r] = True
            assert np.array_equal(bits[:, :m].astype(bool), want)

    def test_walked_cover_is_smaller_than_the_dense_matrix(self):
        # Every ordinal:3 layer from 1 to 5 walks 1111 centers on 1111 points;
        # the dense bool matrix alone would take n * m bytes (1.18 MiB), the
        # packed cover an eighth of that.  The rest of the bound is for the
        # ball_pairs chunks: layer 1 peaked at 0.51 MiB with numpy 2.4.
        space, Y, f = case("ordinal:3")
        fY = f.restrict(Y)
        centers, depths, l_prev, _cover = walked_layers(space, Y, fY)[0]
        assert centers.size == space.n
        sup = _GenericSupports(space, Y, fY)
        tracemalloc.start()
        try:
            sup.supports(centers, depths, l_prev)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.6 * space.n * centers.size

    def test_empty_target_rejected(self):
        space = case("random2d")[0]
        with pytest.raises(PreconditionError):
            nearest_in_set(space, space.empty_mask())


# ---------------------------------------------------------------------------
# Accumulation order: every generic float sum against a Python-float loop
# ---------------------------------------------------------------------------

TINY = 40  # order-sensitive terms after the first, each below half an ulp of it
ORDER_BLOCK = 1 << 12  # a block budget that cuts each pass into many ball_pairs chunks


@functools.lru_cache(maxsize=None)
def summed_space(name):
    """400 seeded points in the unit square (the row-block pairs), or on the
    unit interval (the line's window chunks)."""
    return random_instance(3, 400, 2 if name == "cloud" else 1)


def summed_cover(space):
    """Element 0 is B(0, 1), whose raw weight at point 0 is 1.0.  ``TINY``
    copies of B(0, 2^-54) follow, each adding 2^-54 at point 0, below half an
    ulp of 1, so the total there in element order stays 1.0, while adding
    the small terms together first would take it above.  Balls of radius 1/5
    follow at every third point at least 2/5 from point 0, which they miss."""
    far = np.flatnonzero(space.metric.dist_rows(np.array([0]), np.arange(space.n))[0] >= 0.4)
    elements = [(0, 1.0)] + [(0, 2.0**-54)] * TINY + [(int(y), 0.2) for y in far[::3]]
    centers, radii = (np.array(col) for col in zip(*elements))
    carrier = (space.metric.dist_rows(centers, np.arange(space.n)) < radii[:, None]).any(axis=0)
    return BallCover(space, elements, SubsetMask(space, carrier))


def summed_anchors(k):
    """Anchor 1 for element 0, 2 for the ``TINY`` small balls (2^-53 a term
    at point 0, again below half an ulp of 1), and values in [1, 2] after."""
    tail = np.random.default_rng(11).uniform(1.0, 2.0, k - 1 - TINY)
    return np.r_[1.0, np.full(TINY, 2.0), tail]


def float_bits(values):
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestAccumulationOrder:
    """The generic hat sums, ``partition`` and ``blend`` equal a Python-float
    loop in their documented order (center or element order, each point's
    terms one at a time from 0) bit for bit, on inputs where the order of
    the terms changes the sums."""

    @pytest.mark.parametrize("name", ["cloud", "line"])
    def test_hat_sums_match_float_loop_in_center_order(self, monkeypatch, name):
        monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", ORDER_BLOCK)
        space = summed_space(name)
        full = space.full_mask()
        centers, depths = np.arange(space.n), np.zeros(space.n, dtype=np.int64)
        a = np.full(space.n, 2.0**-53)
        a[0] = 1.0
        got = _GenericSupports(space, full, ScalarField(full, np.zeros(space.n))).hat_sums(centers, depths, a)
        want = o_hat_sums(space, centers, depths, a)
        assert want[0][0] == 1.0
        for g, w in zip(got, want):
            assert np.array_equal(float_bits(g), float_bits(w))

    @pytest.mark.parametrize("name", ["cloud", "line"])
    def test_partition_and_blend_match_float_loops_in_element_order(self, monkeypatch, name):
        monkeypatch.setattr(space_mod, "_BLOCK_ELEMS", ORDER_BLOCK)
        space = summed_space(name)
        cover = summed_cover(space)
        pou = partition(space, cover)
        want_ids, want_weights = o_partition(space, cover.elements)
        assert [i.tolist() for i in pou.support_ids] == want_ids
        assert all(np.array_equal(float_bits(g), float_bits(w)) for g, w in zip(pou.weights, want_weights))
        anchors = summed_anchors(len(cover.elements))
        got = blend(pou, anchors).values
        want = o_blend(space, want_ids, want_weights, anchors)
        assert np.array_equal(float_bits(got), float_bits(want))
        assert want_weights[0][0] == 1.0 and want[0] == 1.0

    def test_order_changes_the_sums(self):
        # Added together first, the small terms at point 0 move each sum.
        space = summed_space("cloud")
        others = 1.0 - space.metric.dist_rows(np.array([0]), np.arange(1, space.n))[0]
        assert 1.0 + math.fsum(others[others > 0] * 2.0**-53) != 1.0
        assert 1.0 / (1.0 + math.fsum([2.0**-54] * TINY)) != 1.0
        assert 1.0 < 1.0 + math.fsum([2.0**-53] * TINY) < 2.0
