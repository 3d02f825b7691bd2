"""The cantor backend's vectorised kernels against loops written from the definitions.

local_scales and the one-step operators are checked against the brute-force
oracles.  The layered construction is checked against the per-center loop it
replaced, kept below as the reference: the arithmetic is unchanged, so every
layer must be bit-identical, NaNs included.  The generic support backend run
on the same prefix-metric spaces must build the same layers too.
"""

import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscext import (
    AdaptiveScale,
    FixedScale,
    ScalarField,
    cantor_instance,
    gap_step,
    generate_from_spec,
    pair_step,
)
from oscext.errors import InvariantError, ValidationError
from oscext import extend
from oscext.extend import LayerState, _CantorSupports, _GenericSupports, _layered, layered_extension, nearest_in_set
from oscext.instances import block_parity_field
from oscext import space as space_module
from oscext.space import CantorMetric, Metric, SubsetMask, local_scales
from oscext.subsets import _distinct_sorted as distinct_sorted

from conftest import (all_identical, assert_identical_layers, assert_report_reads_layers, dense_ball_extremes,
                      identical, prefix_codes, wide_space)
from oracles import o_gap_step, o_hat_sums, o_local_scale, o_next_depths, o_pair_step


def brute_nearest(space, members):
    """Smallest id among the other members at the smallest distance; -1 if none."""
    out = []
    for x in members:
        others = [(space.dist(int(x), int(y)), int(y)) for y in members if y != x]
        if not others:
            out.append(-1)
            continue
        dmin = min(d for d, _ in others)
        out.append(min(y for d, y in others if d == dmin))
    return out


def member_sets(space, seed):
    rng = np.random.default_rng(seed)
    n = space.n
    sets = [rng.choice(n, size=2, replace=False) for _ in range(4)]
    sets += [rng.choice(n, size=k, replace=False) for k in (3, 7, 20, 60)]
    return [np.sort(s) for s in sets] + [np.arange(n)]


class TestCommonPrefix:
    WIDTHS = [1, 3, 13, 52, 53]

    @staticmethod
    def code_pairs(width):
        """All pairs of the extreme codes of a width and 40 random ones."""
        rng = np.random.default_rng(width)
        top = (1 << width) - 1
        vals = [0, top, 1, top - 1, 1 << (width - 1), (1 << (width - 1)) - 1]
        vals += [int(v) for v in rng.integers(0, 2**63, size=40, dtype=np.uint64) >> (64 - width)]
        a = np.array([v for v in vals for _ in vals], dtype=np.uint64)
        b = np.array([w for _ in vals for w in vals], dtype=np.uint64)
        return CantorMetric(np.zeros(1, dtype=np.uint64), width), a, b

    @pytest.mark.parametrize("width", WIDTHS)
    def test_exact_at_every_width(self, width):
        metric, a, b = self.code_pairs(width)
        want = [width - (int(x) ^ int(y)).bit_length() for x, y in zip(a, b)]
        assert metric.common_prefix(a, b).tolist() == want

    @pytest.mark.parametrize("width", WIDTHS)
    def test_code_dist_exact_at_every_width(self, width):
        metric, a, b = self.code_pairs(width)
        want = [2.0 ** ((int(x) ^ int(y)).bit_length() - width - 1) if x != y else 0.0 for x, y in zip(a, b)]
        got = metric.code_dist(a, b)
        assert got.dtype == np.float64 and got.tolist() == want

    @pytest.mark.parametrize("width", [0, 54])
    def test_refuses_inexact_widths(self, width):
        with pytest.raises(ValidationError, match="1 to 53 bits wide"):
            CantorMetric(np.zeros(1, dtype=np.uint64), width)


class TestCylinderLength:
    """The closed form against its definition: the smallest c >= 0 with
    2^-(c+1) < r, clamped at the width, checked by exact ldexp comparisons."""

    @staticmethod
    def radii():
        powers = [math.ldexp(1.0, k) for k in range(-1074, 6)]
        near = [math.nextafter(p, to) for p in powers for to in (0.0, math.inf)]
        subnormal = [k * 5e-324 for k in (1, 2, 3, 5, 7, 1000, 2**51 + 1)] + [math.nextafter(2.0**-1022, 0.0)]
        rng = np.random.default_rng(8)
        scattered = (rng.random(2000) * 2.0 ** rng.integers(-1074, 8, size=2000)).tolist()
        large = [1.0, 1.5, 3.0, 1e300, sys.float_info.max, math.inf]
        return np.array([r for r in powers + near + subnormal + scattered + large if r > 0])

    @pytest.mark.parametrize("width", [1, 8, 53])
    def test_matches_definition(self, width):
        radii = self.radii()
        got = CantorMetric(np.zeros(1, dtype=np.uint64), width).cylinder_length(radii)
        assert got.shape == radii.shape and got.min() == 0 and got.max() == width
        for r, c in zip(radii.tolist(), got.tolist()):
            assert 0 <= c <= width
            assert c == width or math.ldexp(1.0, -(c + 1)) < r, (r, c)  # the c-cylinder ball
            assert c == 0 or math.ldexp(1.0, -c) >= r, (r, c)  # and no shorter one


def wide_inputs(space, seed=4):
    """Unsorted queries over every point, a target subset, and radii that are 0,
    double a query-to-target distance, sit just above or below one, or are half
    the query's nearest positive target distance."""
    rng = np.random.default_rng(seed)
    queries = rng.permutation(space.n)
    targets = np.sort(rng.choice(space.n, size=space.n // 2, replace=False))
    d = space.metric.dist_rows(queries, targets)
    radii = d[np.arange(space.n), rng.integers(0, targets.size, size=space.n)]
    radii[1::5] *= 2.0
    radii[2::5] = np.nextafter(radii[2::5], np.inf)
    radii[3::5] = 0.5 * np.where(d > 0, d, np.inf).min(axis=1)[3::5]
    radii[4::5] = np.nextafter(radii[4::5], 0.0)
    radii[::5] = 0.0
    return queries, radii, targets, rng.integers(0, 4, size=targets.size) / 3.0


class TestWideCylinders:
    """The cylinder kernels at width 53, the widest exact float64 code."""

    def test_ball_extremes_match_distance_rows(self):
        space = wide_space()
        queries, radii, targets, fvals = wide_inputs(space)
        got = space.metric.ball_extremes(queries, radii, targets, fvals)
        assert all_identical(got, dense_ball_extremes(space, queries, radii, targets, fvals))
        empty = got[0] < got[1]
        assert empty[radii == 0].all() and (empty & (radii > 0)).any() and not empty.all()

    def test_grid_extremes_match_stacked_ball_extremes(self):
        space = wide_space()
        queries, _radii, targets, fvals = wide_inputs(space, seed=9)
        # Every cylinder length from 0 past the width, and radii tied to distances.
        for grid in (2.0 ** -np.arange(space.metric.width + 3.0),
                     np.unique(space.metric.dist_rows(queries[:8], targets))[::-1]):
            got = space.metric.grid_extremes(queries, grid, targets, fvals)
            for j, r in enumerate(grid):
                radii = np.full(queries.size, r)
                want = space.metric.ball_extremes(queries, radii, targets, fvals)
                assert identical(got[0][j], want[0]) and identical(got[1][j], want[1])
                assert all_identical(want, dense_ball_extremes(space, queries, radii, targets, fvals))


class TestDiameter:
    @pytest.mark.parametrize("space", [cantor_instance(6), cantor_instance(8), wide_space()],
                             ids=["cantor6", "cantor8", "wide"])
    def test_is_the_largest_pair_distance(self, space):
        everything = np.arange(space.n)
        assert space.diameter() == space.metric.dist_rows(everything, everything).max()

    def test_narrow_cylinder_spaces(self):
        # Every point shares its first 5 coordinates: the diameter is 2^-6, not 1/2.
        codes = np.array([0b00000000, 0b00000010, 0b00000100, 0b00000110], dtype=np.uint64)
        assert CantorMetric(codes, 8).diameter() == 2.0**-6
        assert CantorMetric(codes[:1], 8).diameter() == 0.0


class TestLocalScales:
    @pytest.mark.parametrize("depth", [6, 8])
    def test_matches_oracles(self, depth):
        space = cantor_instance(depth)
        for members in member_sets(space, depth)[:-1] + [np.arange(0, space.n, 3)]:
            ls, nn = local_scales(space, members)
            assert ls.tolist() == [o_local_scale(space, x, members) for x in members]
            assert nn.tolist() == brute_nearest(space, members)

    def test_unsorted_members(self, cantor6):
        members = np.random.default_rng(3).permutation(cantor6.n)[:30]
        ls, nn = local_scales(cantor6, members)
        assert ls.tolist() == [o_local_scale(cantor6, x, members) for x in members]
        assert nn.tolist() == brute_nearest(cantor6, members)

    def test_wide_width(self):
        space = wide_space()
        members = np.arange(space.n)
        ls, nn = local_scales(space, members)
        assert ls.tolist() == [o_local_scale(space, x, members) for x in members]
        assert nn.tolist() == brute_nearest(space, members)

    def test_singleton(self, cantor6):
        ls, nn = local_scales(cantor6, np.array([5]))
        assert ls.tolist() == [0.0] and nn.tolist() == [-1]


class TestSteps:
    POLICIES = [(AdaptiveScale(1.5), ("adaptive", 1.5)), (FixedScale(2.0**-4), ("fixed", 2.0**-4))]

    @pytest.mark.parametrize("depth", [6, 8])
    @pytest.mark.parametrize("policy,oracle_policy", POLICIES)
    def test_steps_match_oracles(self, depth, policy, oracle_policy):
        space = cantor_instance(depth)
        rng = np.random.default_rng(100 + depth)
        f = ScalarField(space.full_mask(), rng.choice([0.0, 1 / 3, 2 / 3, 1.0], size=space.n))
        sets = member_sets(space, depth)[:-1] + [np.array([7])]  # a singleton level
        if depth == 6:
            sets.append(np.arange(space.n))
        for members in sets:
            P = space.mask_from_ids(members)
            for eps in (1 / 3, 0.5):
                got = pair_step(f, eps, P, policy).ids().tolist()
                assert got == o_pair_step(space, f.values, eps, members, oracle_policy)
                got = gap_step(f, eps, P, policy).ids().tolist()
                assert got == o_gap_step(space, f.values, eps, members, oracle_policy)


# ---------------------------------------------------------------------------
# Layering: the per-center loop of the definition, kept as the reference
# ---------------------------------------------------------------------------

def _match_counts(codes, group_members, queries):
    """How many of group_members share their ``codes`` value with each query."""
    if group_members.size == 0:
        return np.zeros(queries.size, dtype=np.int64)
    gcodes = np.sort(codes[group_members])
    lo = np.searchsorted(gcodes, codes[queries], side="left")
    hi = np.searchsorted(gcodes, codes[queries], side="right")
    return (hi - lo).astype(np.int64)


def reference_layered_cantor(space, Y, fY, max_layers, n_max):
    metric = space.metric
    n = space.n
    width = metric.width
    codes = [prefix_codes(metric, c) for c in range(width + 1)]
    order = np.argsort(codes[width], kind="stable")
    sorted_codes = [codes[c][order] for c in range(width + 1)]

    def code_at(c):
        return codes[min(c, width)]

    def cyl_range(i, c):
        c = min(c, width)
        sc = sorted_codes[c]
        code = codes[c][i]
        return np.searchsorted(sc, code, side="left"), np.searchsorted(sc, code, side="right")

    y_sorted = Y.mask[order]
    fv_sorted = np.where(Y.mask, fY.values, np.nan)[order]
    ycnt = np.zeros((width + 1, n), dtype=np.int64)
    yosc = np.zeros((width + 1, n))
    for c in range(width + 1):
        sc = sorted_codes[c]
        starts = np.flatnonzero(np.r_[True, sc[1:] != sc[:-1]])
        gidx = np.cumsum(np.r_[False, sc[1:] != sc[:-1]])
        cnt = np.add.reduceat(y_sorted.astype(np.int64), starts)
        fmax = np.maximum.reduceat(np.where(y_sorted, fv_sorted, -np.inf), starts)
        fmin = np.minimum.reduceat(np.where(y_sorted, fv_sorted, np.inf), starts)
        osc = np.where(cnt >= 2, fmax - fmin, 0.0)
        ycnt[c][order] = cnt[gidx]
        yosc[c][order] = osc[gidx]

    def ycnt_at(ids, c):
        if c >= width:
            extra = Y.mask[ids].astype(np.int64)
            return extra if c > width else ycnt[width][ids]
        return ycnt[c][ids]

    def yosc_at(ids, c):
        if c > width:
            return np.zeros(len(ids))
        return yosc[min(c, width)][ids]

    nearest_y, _dy = nearest_in_set(space, Y)
    osc_res = yosc_at(np.arange(n), metric.cylinder_length(space.resolution))

    centers = np.arange(n)
    depths = np.zeros(n, dtype=np.int64)
    layers = []
    l_prev = None
    for k in range(max_layers):
        num = np.zeros(n)
        den = np.zeros(n)
        lmax = np.full(n, -1, dtype=np.int64)
        minlp = np.full(n, np.inf)
        for pos in range(centers.size):
            s = int(centers[pos])
            nu = int(depths[pos])
            r = 2.0**-nu
            lo, hi = cyl_range(s, nu)
            mem = order[lo:hi]
            lcp = np.full(mem.size, min(nu, width), dtype=np.int64)
            for c in range(min(nu, width) + 1, width + 1):
                clo, chi = cyl_range(s, c)
                if clo == lo and chi == hi:
                    lcp[:] = c
                    continue
                lcp[clo - lo: chi - lo] = c
            d = 2.0 ** -(lcp + 1.0)
            d[lcp == width] = np.where(mem[lcp == width] == s, 0.0, 2.0 ** -(width + 1.0))
            w = r - d
            a = fY.values[nearest_y[s]]
            if ycnt_at(np.array([s]), max(nu - 1, 0))[0] == 0:
                raise InvariantError(f"layer {k}: no anchor candidate near {s}")
            num[mem] += w * a
            den[mem] += w
            np.maximum.at(lmax, mem, nu)
            if l_prev is not None:
                np.minimum.at(minlp, mem, l_prev[s])
        carrier_mask = den > 0
        carrier = SubsetMask(space, carrier_mask)
        values = np.where(carrier_mask, num / np.where(carrier_mask, den, 1.0), np.nan)
        lvl = np.where(carrier_mask, lmax + 1, 0).astype(np.int64)
        layers.append(LayerState(k, centers.copy(), depths.copy(), carrier, values, lvl,
                                 None if l_prev is None else minlp))

        members = np.flatnonzero(carrier_mask)
        cand = members[osc_res[members] < 2.0 ** -lvl[members].astype(float)]
        if cand.size == 0 or k + 1 >= max_layers:
            break
        pending = cand.copy()
        lx = lvl[cand].astype(np.int64)
        chosen = np.full(n, -1, dtype=np.int64)
        for nn in range(int(lx.min()), n_max + 1):
            if pending.size == 0:
                break
            active = pending[lx[np.searchsorted(cand, pending)] <= nn]
            if active.size == 0:
                continue
            ok = ycnt_at(active, nn - 1) > 0
            lact = lvl[active].astype(float)
            ok &= yosc_at(active, nn - 1) < 2.0**-lact
            deep = depths >= nn
            if deep.any():
                deep_centers = centers[deep]
                deep_depths = depths[deep]
                c1 = _match_counts(code_at(nn - 1), deep_centers, active)
                c2 = np.zeros(active.size, dtype=np.int64)
                for m in np.unique(deep_depths):
                    sel = deep_centers[deep_depths == m]
                    c2 += _match_counts(code_at(int(m)), sel, active)
                ok &= c1 == c2
            taken = active[ok]
            chosen[taken] = nn
            keep = chosen[pending] < 0
            pending = pending[keep]
        next_centers = np.flatnonzero(chosen >= 0)
        if next_centers.size == 0:
            break
        centers = next_centers
        depths = chosen[next_centers]
        l_prev_full = np.zeros(n, dtype=np.int64)
        l_prev_full[carrier_mask] = lvl[carrier_mask]
        l_prev = l_prev_full
    return layers


def n_max_of(space):
    return int(math.ceil(math.log2(1.0 / space.resolution))) + 4


def layered(space, Y, fY, backend, max_layers=24):
    return _layered(space, Y, fY, max_layers, n_max_of(space), *nearest_in_set(space, Y), backend)


def assert_same_layers(space, Y, fY, max_layers=24):
    got = layered(space, Y, fY, _CantorSupports, max_layers)
    assert_identical_layers(got, reference_layered_cantor(space, Y, fY, max_layers, n_max_of(space)))
    return got


def noise_field(space):
    """Block parity on Y plus seeded noise of a third of 2^-10: non-dyadic values."""
    Y = space.subsets["Y"]
    base = block_parity_field(space).values
    noise = np.random.default_rng(8).uniform(-1.0, 1.0, space.n) * 2.0**-10 / 3
    return ScalarField(Y, np.where(Y.mask, base + noise, np.nan))


def dyadic_field(space):
    """Block parity on Y rounded down to quarters: oscillations meet the bounds 2^-l exactly."""
    Y = space.subsets["Y"]
    return ScalarField(Y, np.where(Y.mask, np.floor(block_parity_field(space).values * 4) / 4, np.nan))


FIELDS = {"block_parity": lambda space: block_parity_field(space).restrict(space.subsets["Y"]),
          "noise": noise_field, "dyadic": dyadic_field}


class TestLayeredBitIdentity:
    @pytest.mark.parametrize("depth", [6, 8, 10])
    def test_block_parity(self, depth):
        space = cantor_instance(depth)
        Y = space.subsets["Y"]
        layers = assert_same_layers(space, Y, block_parity_field(space).restrict(Y))
        assert len(layers) > 2

    def test_non_dyadic_random_field(self):
        space = cantor_instance(8)
        layers = assert_same_layers(space, space.subsets["Y"], noise_field(space))
        assert len(layers) > 2

    def test_dyadic_field(self):
        space = cantor_instance(6)
        layers = assert_same_layers(space, space.subsets["Y"], dyadic_field(space))
        assert len(layers) > 2

    def test_truncated(self):
        space = cantor_instance(8)
        Y = space.subsets["Y"]
        layers = assert_same_layers(space, Y, block_parity_field(space).restrict(Y), max_layers=3)
        assert len(layers) == 3

    def test_wide_width(self):
        space = wide_space()
        rng = np.random.default_rng(1)
        Y = space.mask_from_ids(np.flatnonzero(rng.random(space.n) < 0.6))
        fY = ScalarField(Y, np.where(Y.mask, rng.random(space.n), np.nan))
        assert_same_layers(space, Y, fY)

    def test_every_flat_setting(self, flat_setting):
        space = cantor_instance(8)
        layers = assert_same_layers(space, space.subsets["Y"], noise_field(space))
        assert len(layers) > 2


def reference_sums(space, centers, depths, a, l_prev):
    """The hat sums by definition: one distance row per center, in center order."""
    n = space.n
    num = np.zeros(n)
    den = np.zeros(n)
    lmax = np.full(n, -1, dtype=np.int64)
    minlp = np.full(n, np.inf)
    for s, nu, a_s, row in zip(centers, depths, a, space.metric.dist_rows(centers, np.arange(n))):
        r = 2.0 ** -float(nu)
        inside = np.flatnonzero(row < r)
        w = r - row[inside]
        num[inside] += w * a_s
        den[inside] += w
        lmax[inside] = np.maximum(lmax[inside], nu)
        if l_prev is not None:
            minlp[inside] = np.minimum(minlp[inside], l_prev[s])
    return num, den, lmax, minlp


KERNEL_SPACES = {"cantor6": cantor_instance(6), "cantor10": cantor_instance(10), "wide": wide_space()}

# (_FLAT_BELOW, _FLAT_PAIRS) settings of the cantor hat sums: every center
# flat, large and flat interleaved, no center flat, batches that split the
# runs of flat centers, and row blocks of two centers on cantor10's
# 2048-member depth-0 slice (four on its 1024-member depth-1 slices).
FLAT_SETTINGS = [(1, extend._FLAT_PAIRS), (8, extend._FLAT_PAIRS), (1 << 20, extend._FLAT_PAIRS),
                 (extend._FLAT_BELOW, extend._FLAT_PAIRS), (1, 1), (8, 1), (8, 7), (extend._FLAT_BELOW, 7),
                 (1, 5000)]


@pytest.fixture(params=FLAT_SETTINGS, ids=lambda v: f"below{v[0]}-pairs{v[1]}")
def flat_setting(request, monkeypatch):
    below, pairs = request.param
    monkeypatch.setattr(extend, "_FLAT_BELOW", below)
    monkeypatch.setattr(extend, "_FLAT_PAIRS", pairs)
    return request.param


@st.composite
def sums_inputs(draw, space):
    """Sorted distinct center ids (at most 128), drawn with or without the
    first and last points in code order; a depth per center, 0 (the whole
    space as support) half the time and otherwise in 0..width+3; non-dyadic
    anchor values; previous levels or None."""
    n, width = space.n, space.metric.width
    order = np.argsort(space.metric.code, kind="stable")
    ids = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 128)))
    ids |= {int(order[0])} if draw(st.booleans()) else set()
    ids |= {int(order[-1])} if draw(st.booleans()) else set()
    centers = np.array(sorted(ids), dtype=np.int64)
    depth = st.just(0) | st.integers(0, width + 3)
    depths = np.array(draw(st.lists(depth, min_size=centers.size, max_size=centers.size)), dtype=np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(-1.0, 1.0, centers.size) / 3
    l_prev = rng.integers(0, width + 4, n) if draw(st.booleans()) else None
    return centers, depths, a, l_prev


@st.composite
def slice_run_inputs(draw, space):
    """Long runs of consecutive centers on one slice: up to four blocks, each
    of 1 to 256 distinct centers drawn from one cylinder of length 0..3 and
    given that length as depth.  The blocks follow each other in the order
    drawn, each in id order; the sums add in the order the centers are
    given, whatever it is.  Non-dyadic anchor values; previous levels or
    None."""
    metric = space.metric
    n, width = space.n, metric.width
    by_position = np.argsort(metric.code, kind="stable")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    taken = np.zeros(n, dtype=bool)
    centers, depths = [], []
    for _ in range(draw(st.integers(1, 4))):
        c = draw(st.integers(0, min(width, 3)))
        bounds = metric.cylinders(c)[1]
        g = draw(st.integers(0, bounds.size - 2))
        free = by_position[bounds[g]:bounds[g + 1]]
        free = free[~taken[free]]
        block = np.sort(rng.permutation(free)[:draw(st.integers(min(free.size, 1), min(free.size, 256)))])
        taken[block] = True
        centers.append(block)
        depths.append(np.full(block.size, c, dtype=np.int64))
    centers, depths = np.concatenate(centers).astype(np.int64), np.concatenate(depths)
    a = rng.uniform(-1.0, 1.0, centers.size) / 3
    l_prev = rng.integers(0, width + 4, n) if draw(st.booleans()) else None
    return centers, depths, a, l_prev


class TestCantorSums:
    """The cylinder hat sums equal the per-center loop over distance rows bit
    for bit, dtypes included, whichever centers take the slice path and the
    flat path and however the flat runs and the slice runs are cut."""

    @staticmethod
    def check(space, data, inputs=sums_inputs):
        centers, depths, a, l_prev = data.draw(inputs(space))
        Y = space.full_mask()
        sup = _CantorSupports(space, Y, ScalarField(Y, np.zeros(space.n)))
        got = sup.hat_sums(centers, depths, a) + sup.supports(centers, depths, l_prev)[:2]
        want = reference_sums(space, centers, depths, a, l_prev)
        for out, g, w in zip(("num", "den", "lmax", "minlp"), got, want):
            assert identical(g, w), out

    @pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_distance_rows(self, name, data):
        self.check(KERNEL_SPACES[name], data)

    @pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
    @pytest.mark.parametrize("below, pairs", FLAT_SETTINGS)
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_every_flat_setting(self, name, below, pairs, data):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extend, "_FLAT_BELOW", below)
            mp.setattr(extend, "_FLAT_PAIRS", pairs)
            self.check(KERNEL_SPACES[name], data)

    @pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
    @pytest.mark.parametrize("below, pairs", [(extend._FLAT_BELOW, extend._FLAT_PAIRS), (1, 5000), (1, 1)])
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_long_slice_runs(self, name, below, pairs, data):
        """Runs of equal depths on one slice, added in row blocks."""
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(extend, "_FLAT_BELOW", below)
            mp.setattr(extend, "_FLAT_PAIRS", pairs)
            self.check(KERNEL_SPACES[name], data, slice_run_inputs)

    @pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_carrier_is_where_den_is_positive(self, name, data):
        """Each hat weight r - d with d < r is a positive float, so the
        covered points (lmax >= 0), the layered carrier, are where den > 0."""
        space = KERNEL_SPACES[name]
        centers, depths, a, l_prev = data.draw(sums_inputs(space))
        Y = space.full_mask()
        sup = _CantorSupports(space, Y, ScalarField(Y, np.zeros(space.n)))
        for _num, den, lmax, _minlp in (sup.hat_sums(centers, depths, a) + sup.supports(centers, depths, l_prev)[:2],
                                        reference_sums(space, centers, depths, a, l_prev)):
            assert np.array_equal(den > 0, lmax >= 0)

    def test_cantor10_reaches_both_paths(self):
        """At the default threshold the depth-0 and depth-1 cylinders of
        cantor10 take the slice path and those of depth 3 the flat path."""
        bounds = [KERNEL_SPACES["cantor10"].metric.cylinders(c)[1] for c in (1, 3)]
        assert np.diff(bounds[0]).min() >= extend._FLAT_BELOW > np.diff(bounds[1]).max()


def counted_code_dist(monkeypatch):
    """Record the pair count of every ``CantorMetric.code_dist`` call from now on."""
    calls = []
    code_dist = CantorMetric.code_dist
    monkeypatch.setattr(CantorMetric, "code_dist", lambda self, a, b: calls.append(np.size(a)) or code_dist(self, a, b))
    return calls


def zero_supports(space):
    Y = space.full_mask()
    return _CantorSupports(space, Y, ScalarField(Y, np.zeros(space.n)))


class TestSlicePieces:
    """The slice path builds each row of a block from the pieces of the
    center's cylinder, one constant weight per piece: it reads no pair
    distance, and a run of centers on one slice may mix depths."""

    # (_FLAT_BELOW, depths): at the default threshold cantor10's depth-0
    # and depth-1 cylinders all take the slice path; below 1 every center
    # does, at any depth; above n none does.
    PATHS = {"default": (extend._FLAT_BELOW, 2), "slice": (1, None), "flat": (1 << 20, None)}

    @pytest.mark.parametrize("name, path", [("cantor10", "default")]
                             + [(name, path) for name in sorted(KERNEL_SPACES) for path in ("slice", "flat")])
    def test_slice_path_calls_no_code_dist(self, monkeypatch, name, path):
        below, top = self.PATHS[path]
        space = KERNEL_SPACES[name]
        rng = np.random.default_rng(3)
        centers = np.sort(rng.choice(space.n, size=min(space.n, 64), replace=False))
        depths = rng.integers(0, top or space.metric.width + 3, size=centers.size)
        a = rng.uniform(-1.0, 1.0, centers.size) / 3
        want = reference_sums(space, centers, depths, a, None)[:2]
        monkeypatch.setattr(extend, "_FLAT_BELOW", below)
        calls = counted_code_dist(monkeypatch)
        assert all_identical(zero_supports(space).hat_sums(centers, depths, a), want)
        assert (calls == []) == (path != "flat")

    @pytest.mark.parametrize("pairs", [extend._FLAT_PAIRS, 1])
    def test_run_mixing_depths(self, monkeypatch, pairs):
        """On the sparse wide codes a cylinder can keep its members from one
        length to the next: centers at both depths share one slice, and
        the run's pieces start at the shorter length.  A depth past the
        width is capped at the width-cylinder, the center alone."""
        space = KERNEL_SPACES["wide"]
        metric = space.metric
        for c in range(metric.width):
            short, long = (metric.cylinders(c + k)[1].tolist() for k in (0, 1))
            kept = set(zip(short[:-1], short[1:])) & set(zip(long[:-1], long[1:]))
            wide = sorted((lo, hi) for lo, hi in kept if hi - lo >= 3)
            if wide:
                break
        lo, hi = wide[0]
        centers = np.sort(np.argsort(metric.code, kind="stable")[lo:hi])
        depths = c + np.arange(centers.size) % 2
        centers = np.r_[centers, 0]  # an isolated center past the width
        depths = np.r_[depths, metric.width + 2]
        a = np.random.default_rng(6).uniform(-1.0, 1.0, centers.size) / 3
        monkeypatch.setattr(extend, "_FLAT_BELOW", 1)
        monkeypatch.setattr(extend, "_FLAT_PAIRS", pairs)
        assert all_identical(zero_supports(space).hat_sums(centers, depths, a),
                             reference_sums(space, centers, depths, a, None)[:2])


@pytest.fixture(scope="module")
def order_inputs():
    """Every point of cantor8 as a depth-0 center, in id order, and the
    float loop's sums.  The first anchor is 1 and every other 2^-53: at
    point 0 the first term is 1.0 and each later one is below half its
    ulp, so the sum in center order stays 1.0, while adding the small
    terms together first would round above it."""
    space = cantor_instance(8)
    centers = np.arange(space.n)
    depths = np.zeros(space.n, dtype=np.int64)
    a = np.full(space.n, 2.0**-53)
    a[0] = 1.0
    return space, centers, depths, a, o_hat_sums(space, centers, depths, a)


class TestAccumulationOrder:
    """The hat sums equal a Python-float loop in center order bit for bit,
    on the slice path (cantor8's 512-member depth-0 slice, at the default
    threshold) and on the flat path, on inputs where the order of the
    terms changes the sums."""

    @pytest.mark.parametrize("path", ["slice", "flat"])
    def test_matches_float_loop_in_center_order(self, monkeypatch, order_inputs, path):
        space, centers, depths, a, want = order_inputs
        if path == "flat":
            monkeypatch.setattr(extend, "_FLAT_BELOW", 1 << 20)
        calls = counted_code_dist(monkeypatch)
        got = zero_supports(space).hat_sums(centers, depths, a)
        assert (calls == []) == (path == "slice")
        for g, w in zip(got, want):
            assert np.array_equal(g.view(np.int64), np.array(w).view(np.int64))

    def test_order_changes_the_sums(self, order_inputs):
        space, centers, depths, a, (num, _den) = order_inputs
        assert num[0] == 1.0
        others = math.fsum(a[1:] * (1.0 - space.metric.dist_rows(np.array([0]), centers[1:])[0]))
        assert 1.0 + others != 1.0


@pytest.fixture(scope="module")
def depth12_layer1():
    """Cantor depth 12 with the block-parity field, and its layer 1: 8192
    centers at depths from 2, on cylinders of up to 2048 members."""
    space = cantor_instance(12)
    Y = space.subsets["Y"]
    fY = block_parity_field(space).restrict(Y)
    nearest_y, dist_y = nearest_in_set(space, Y)
    layers = layered(space, Y, fY, _CantorSupports, max_layers=2)
    centers, depths = layers[1].centers, layers[1].depths
    return space, Y, fY, layers[0].level_numbers, centers, depths, fY.values[nearest_y[centers]]


def traced_peak(fn):
    """The tracemalloc peak, in MiB, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """The cylinder table and the pieces cost no more memory than the
    per-length cylinder arrays and the ``code_dist`` row blocks they
    replaced, whose peaks on these inputs were 1.76 MiB (``__init__``),
    0.52 MiB (``supports``) and 1.59 MiB (``hat_sums``) with numpy 2.4."""

    def test_init(self, depth12_layer1):
        space, Y, fY, *_ = depth12_layer1
        assert traced_peak(lambda: _CantorSupports(space, Y, fY)) <= 1.76

    def test_supports(self, depth12_layer1):
        space, Y, fY, l_prev, centers, depths, _a = depth12_layer1
        sup = _CantorSupports(space, Y, fY)
        assert traced_peak(lambda: sup.supports(centers, depths, l_prev)) <= 0.52

    def test_layer1_hat_sums(self, depth12_layer1):
        space, Y, fY, _l_prev, centers, depths, a = depth12_layer1
        sup = _CantorSupports(space, Y, fY)
        assert centers.size == 8192 and depths.min() >= 2
        assert traced_peak(lambda: sup.hat_sums(centers, depths, a)) <= 1.59


class TestNearestOther:
    """The prefix metric's nearest other targets, found among the sorted
    targets alone, against the dense base kernel bit for bit: ties go to
    the smallest id."""

    @pytest.mark.parametrize("name", sorted(KERNEL_SPACES))
    @pytest.mark.parametrize("sets", ["disjoint", "overlapping", "equal", "single_target", "pairs"])
    def test_matches_dense_rows(self, name, sets):
        space = KERNEL_SPACES[name]
        perm = np.random.default_rng(len(name) + len(sets)).permutation(space.n)
        k = space.n // 3
        queries, targets = {
            "disjoint": (perm[:k], perm[k:]),
            "overlapping": (perm[:2 * k], perm[k:]),
            "equal": (perm, perm),
            "single_target": (perm[1:k], perm[:1]),
            "pairs": (perm[:2], perm[:2]),
        }[sets]
        metric = space.metric
        assert all_identical(metric._nearest_other(queries, targets), Metric._nearest_other(metric, queries, targets))


class TestDistinctCylinderLengths:
    """The prefix-metric kernels take their distinct cylinder lengths with
    ``_distinct_sorted``, not ``np.unique`` (which imports ``numpy.ma``):
    the two agree on every input the kernels pass, empty ones included."""

    def test_kernel_inputs_match_np_unique(self, cantor8, monkeypatch):
        seen = {}

        def spy(a):
            seen.setdefault(sys._getframe(1).f_code.co_name, []).append(a.copy())
            return distinct_sorted(a)

        monkeypatch.setattr(space_module, "_distinct_sorted", spy)
        metric, rng = cantor8.metric, np.random.default_rng(3)
        members = np.sort(rng.choice(cantor8.n, size=60, replace=False))
        order = metric.run_order(members)
        radii = rng.choice([0.0, 2.0**-3, 2.0**-5, 0.3, 2.0**-9, 1.0], size=members.size)
        fvals = rng.uniform(size=members.size)
        for r in (radii, np.zeros(members.size)):  # all radii 0: no cylinder length
            metric.ball_runs(order, r)
            metric.ball_runs(order, r, np.arange(members.size) // 7)
            metric.ball_extremes(members, r, members, fvals)
        metric._nearest_other(members, members)
        metric._nearest_other(members[:1], members[:1])  # no other target
        metric.scales(order, np.arange(members.size) // 7)
        metric.scales(order, np.arange(members.size))  # every member alone in its label
        assert sorted(seen) == ["_nearest_other", "ball_extremes", "ball_runs"]
        inputs = [a for calls in seen.values() for a in calls]
        assert any(a.size == 0 for a in inputs) and any(a.size > 1 for a in inputs)
        for a in inputs:
            assert identical(distinct_sorted(a), np.unique(a))


def random_cover(space, rng):
    """Distinct centers at depths from 0 to 3 past the width; candidates that
    are centers and candidates that are not; and ok rows with gaps, up to 3
    depths past the width."""
    n, width = space.n, space.metric.width
    centers = np.sort(rng.choice(n, size=int(rng.integers(1, min(n, 24) + 1)), replace=False))
    depths = rng.integers(0, width + 4, size=centers.size)
    others = np.setdiff1d(np.arange(n), centers)
    cand = np.r_[rng.choice(centers, size=min(centers.size, 6), replace=False),
                 rng.choice(others, size=min(others.size, 10), replace=False)]
    ok = rng.random((cand.size, int(rng.integers(1, width + 4)))) < rng.uniform(0.2, 0.9)
    return (centers, depths), cand, ok


class TestNextDepths:
    """The prefix backend's support test against the distance loop, on
    random covers, and on ok tables with no depth in play."""

    SPACES = {**{f"cantor{d}": cantor_instance(d) for d in range(2, 9)}, "wide": KERNEL_SPACES["wide"]}

    @pytest.mark.parametrize("name", sorted(SPACES))
    def test_matches_oracle(self, name):
        space = self.SPACES[name]
        sup = zero_supports(space)
        rng = np.random.default_rng(space.n)
        for _ in range(12):
            cover, cand, ok = random_cover(space, rng)
            got = sup.next_depths(cover, cand, ok)
            assert got.dtype == np.int64
            assert got.tolist() == o_next_depths(space, *cover, cand, ok)

    @pytest.mark.parametrize("shape", [(5, 0), (0, 0), (0, 4), (5, 4)])
    def test_no_depth_in_play(self, shape):
        space = cantor_instance(4)
        cover, _cand, _ok = random_cover(space, np.random.default_rng(1))
        cand = np.arange(shape[0])
        ok = np.zeros(shape, dtype=bool)
        got = zero_supports(space).next_depths(cover, cand, ok)
        assert got.tolist() == o_next_depths(space, *cover, cand, ok) == [-1] * shape[0]


class TestBackendsAgree:
    """On the prefix metric the generic support backend builds the cantor one's layers."""

    @pytest.mark.parametrize("depth, field", [(6, "block_parity"), (8, "block_parity"), (8, "noise"),
                                              (6, "dyadic")])
    def test_same_layers(self, depth, field):
        space = cantor_instance(depth)
        Y = space.subsets["Y"]
        fY = FIELDS[field](space)
        want = layered(space, Y, fY, _CantorSupports)
        assert len(want) > 2
        assert_identical_layers(layered(space, Y, fY, _GenericSupports), want)

    def test_every_flat_setting(self, flat_setting):
        space = cantor_instance(6)
        Y = space.subsets["Y"]
        fY = dyadic_field(space)
        assert_identical_layers(layered(space, Y, fY, _CantorSupports), layered(space, Y, fY, _GenericSupports))


def rank_parity(space):
    """0 and 1 alternating in code order on the full mask: every cylinder
    with two members holds both, so the oscillation at resolution is 1."""
    full = space.full_mask()
    return full, ScalarField(full, (space.metric.rank % 2).astype(float))


class TestLayerZeroRead:
    """Layer 0's hat sums run only when its values are read, through the
    same kernel, so reports that read them match the oracle bit for bit."""

    @pytest.mark.parametrize("inputs, max_layers", [("block_parity", 1), ("rank_parity", 24)])
    def test_report_matches_oracle_layers(self, inputs, max_layers):
        space = cantor_instance(8)
        if inputs == "rank_parity":
            Y, fY = rank_parity(space)
        else:
            Y, fY = space.subsets["Y"], FIELDS[inputs](space)
        want = reference_layered_cantor(space, Y, fY, max_layers, n_max_of(space))
        assert len(want) == 1
        assert_report_reads_layers(layered_extension(space, Y, fY, max_layers=max_layers), Y, fY, want)

    @pytest.mark.parametrize("spec, backend", [("cantor:8", _CantorSupports), ("ordinal:2", _GenericSupports)])
    @pytest.mark.parametrize("max_layers, reads", [(24, 0), (1, 1)])
    def test_hat_sums_run_only_when_read(self, monkeypatch, spec, backend, max_layers, reads):
        """A hat-sum call over depth-0 centers is layer 0's."""
        calls = []
        hat_sums = backend.hat_sums

        def spy(self, centers, depths, a):
            if not depths.any():
                calls.append(centers.size)
            return hat_sums(self, centers, depths, a)

        monkeypatch.setattr(backend, "hat_sums", spy)
        space = generate_from_spec(spec)
        report = layered_extension(space, space.subsets["Y"], space.fields["f"], max_layers=max_layers)
        assert report.diagnostics["layers"] > 1 or max_layers == 1
        assert calls == [space.n] * reads

    def test_values_are_computed_once(self, monkeypatch):
        space = cantor_instance(6)
        Y = space.subsets["Y"]
        fY = block_parity_field(space).restrict(Y)
        got = layered(space, Y, fY, _CantorSupports)
        calls = []
        hat_sums = _CantorSupports.hat_sums
        monkeypatch.setattr(_CantorSupports, "hat_sums", lambda self, *args: calls.append(1) or hat_sums(self, *args))
        first = got[0].values
        assert got[0].values is first and len(calls) == 1
        want = reference_layered_cantor(space, Y, fY, 24, n_max_of(space))
        assert identical(first, want[0].values)


class TestValuesAtFirstRead:
    """Each layer's values are a function that runs the backend's
    ``hat_sums`` at the first read, and ``hat_sums`` changes no backend
    state that ``next_depths`` could read."""

    BACKENDS = [("cantor:8", _CantorSupports), ("ordinal:2", _GenericSupports)]

    @staticmethod
    def inputs(spec):
        space = generate_from_spec(spec)
        Y = space.subsets["Y"]
        return space, Y, space.fields["f"].restrict(Y)

    @pytest.mark.parametrize("spec, backend", BACKENDS)
    def test_earlier_hat_sums_leave_next_depths_unchanged(self, spec, backend):
        space, Y, fY = self.inputs(spec)
        recorded = []

        class Interleaved(backend):
            def supports(self, centers, depths, l_prev):
                recorded.append((centers, depths))
                return super().supports(centers, depths, l_prev)

            def next_depths(self, cover, cand, ok):
                state = dict(vars(self))
                for centers, depths in recorded[:-1]:  # every earlier layer
                    self.hat_sums(centers, depths, np.ones(centers.size))
                assert vars(self).keys() == state.keys()
                assert all(vars(self)[name] is value for name, value in state.items())
                return super().next_depths(cover, cand, ok)

        got = layered(space, Y, fY, Interleaved)
        assert len(got) > 2
        assert_identical_layers(got, layered(space, Y, fY, backend))

    @pytest.mark.parametrize("spec, backend", BACKENDS)
    def test_each_layer_sums_at_most_once_and_only_when_read(self, monkeypatch, spec, backend):
        calls = []
        hat_sums = backend.hat_sums

        def spy(self, centers, depths, a):
            calls.append(centers)
            return hat_sums(self, centers, depths, a)

        monkeypatch.setattr(backend, "hat_sums", spy)
        space, Y, fY = self.inputs(spec)
        layers = layered(space, Y, fY, backend)
        assert len(layers) > 2 and calls == []
        for st in layers:
            assert st.values is st.values
            assert len(calls) == st.k + 1 and calls[-1] is st.centers
        calls.clear()
        report = layered_extension(space, Y, fY)
        assert len({id(c) for c in calls}) == len(calls) <= report.diagnostics["layers"]


class _Held:
    """A layer's cover behind an object a weakref can point at (a tuple or None cannot)."""

    def __init__(self, cover):
        self.cover = cover


class TestCoversAsValues:
    """Each layer's cover passes from ``supports`` to ``next_depths`` as a
    value: the layer loop drops it before the next layer's ``supports``, and
    the backends keep no per-layer attributes."""

    @pytest.mark.parametrize("spec, backend", TestValuesAtFirstRead.BACKENDS)
    def test_cover_is_dead_when_the_next_layer_starts(self, spec, backend):
        space, Y, fY = TestValuesAtFirstRead.inputs(spec)
        refs, kinds, backends = [], [], []

        class Watched(backend):
            def __init__(self, *args):
                super().__init__(*args)
                backends.append((self, set(vars(self))))

            def supports(self, centers, depths, l_prev):
                assert [ref() for ref in refs] == [None] * len(refs)  # every earlier layer's cover
                lmax, minlp, cover = super().supports(centers, depths, l_prev)
                kinds.append(type(cover).__name__)
                held = _Held(cover)
                refs.append(weakref.ref(held))
                if isinstance(cover, np.ndarray):
                    refs.append(weakref.ref(cover))
                return lmax, minlp, held

            def next_depths(self, held, cand, ok):
                return super().next_depths(held.cover, cand, ok)

        got = layered(space, Y, fY, Watched)
        assert len(got) > 2 and len(kinds) == len(got)
        assert [ref() for ref in refs] == [None] * len(refs)
        assert set(kinds) == ({"tuple"} if backend is _CantorSupports else {"NoneType", "ndarray"})
        ((sup, keys),) = backends
        assert set(vars(sup)) == keys
        assert_identical_layers(got, layered(space, Y, fY, backend))
