import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscext import (
    AdaptiveScale,
    FixedScale,
    ScalarField,
    adversarial_union_fixture,
    gap_step,
    inclusion_check,
    index_profile,
    indicator_field,
    iterate,
    osc_at_point,
    osc_on_set,
    pair_step,
    random_field,
    random_instance,
)
from oscext.errors import PreconditionError, ValidationError
from oscext import cli, derive
from oscext import space as space_mod
from oscext.instances import generate_from_spec
from oscext.space import _KD_BALL_MEMBERS, CantorMetric, EuclideanMetric, SpaceInstance

from conftest import dense_ball_extremes
from oracles import o_gap_step, o_iterate, o_pair_step


def assert_iterate_matches_oracle(space, f, members):
    """Pair-step traces from ``members`` equal the oracle's, level by level."""
    P = space.mask_from_ids(members)
    for pol, opol in ((AdaptiveScale(3.0), ("adaptive", 3.0)),
                      (FixedScale(0.02), ("fixed", 0.02))):
        levels, terminal = o_iterate(space, f.values, 0.5, [int(i) for i in members], opol)
        tr = iterate("pair", f, 0.5, P, pol)
        assert tr.terminal == terminal, pol
        assert [l.ids().tolist() for l in tr.levels] == levels, pol


class TestOsc:
    def test_constant_field_zero(self, seq10):
        f = ScalarField.constant(seq10.full_mask(), 3.0)
        assert osc_on_set(f, seq10.full_mask()) == 0.0

    def test_singleton_zero(self, seq10, seq_indicator):
        assert osc_on_set(seq_indicator, seq10.mask_from_ids([0])) == 0.0

    def test_max_minus_min(self, seq10):
        f = ScalarField.on_ids(seq10, [0, 1, 2], [0.0, 0.3, 1.0])
        assert osc_on_set(f, seq10.mask_from_ids([0, 1, 2])) == 1.0

    def test_requires_domain(self, seq10):
        f = ScalarField.on_ids(seq10, [0, 1], [0.0, 1.0])
        with pytest.raises(PreconditionError):
            osc_on_set(f, seq10.full_mask())

    def test_at_point_misses_y(self, seq10, seq_indicator):
        y = seq10.mask_from_ids([1])  # far from the point 0
        assert osc_at_point(seq_indicator, 0, y, 0.05) == 0.0

    def test_at_point_indicator(self, seq10, seq_indicator):
        got = osc_at_point(seq_indicator, 0, seq10.full_mask(), 0.15)
        assert got == 1.0

    def test_scale_must_be_positive(self, seq10, seq_indicator):
        with pytest.raises(ValidationError):
            osc_at_point(seq_indicator, 0, seq10.full_mask(), 0.0)


class TestSteps:
    def test_constant_field_empty(self, seq10):
        f = ScalarField.constant(seq10.full_mask(), 1.0)
        assert pair_step(f, 0.5, seq10.full_mask(), AdaptiveScale(3.0)).is_empty()
        assert gap_step(f, 0.5, seq10.full_mask(), AdaptiveScale(3.0)).is_empty()

    def test_epsilon_above_range_empty(self, rand60):
        f = random_field(rand60, 1)
        big = 2 * f.norm() + 1
        assert pair_step(f, big, rand60.full_mask(), AdaptiveScale(3.0)).is_empty()

    def test_indicator_example_multiplier2(self, seq10, seq_indicator):
        # the oracle-derived value at multiplier 2: exactly the limit point
        got = pair_step(seq_indicator, 0.5, seq10.full_mask(), AdaptiveScale(2.0))
        assert list(got.ids()) == [0]

    def test_indicator_multiplier3_includes_outermost(self, seq10, seq_indicator):
        # at multiplier 3 the point 1 has local scale 0.5, so its ball
        # reaches the limit point; expected value frozen from the oracle
        got = pair_step(seq_indicator, 0.5, seq10.full_mask(), AdaptiveScale(3.0))
        assert sorted(got.ids()) == o_pair_step(
            seq10, seq_indicator.values, 0.5, list(range(seq10.n)), ("adaptive", 3.0)
        ) == [0, 1]

    def test_gap_subset_of_pair(self, rand60):
        f = random_field(rand60, 2)
        for pol in (AdaptiveScale(3.0), FixedScale(0.2)):
            g = gap_step(f, 0.4, rand60.full_mask(), pol)
            d = pair_step(f, 0.4, rand60.full_mask(), pol)
            assert g.issubset(d)

    def test_matches_oracles(self, rand60):
        f = random_field(rand60, 3)
        members = list(range(rand60.n))
        for pol, opol in ((AdaptiveScale(3.0), ("adaptive", 3.0)),
                          (FixedScale(0.15), ("fixed", 0.15))):
            P = rand60.full_mask()
            assert sorted(pair_step(f, 0.3, P, pol).ids()) == o_pair_step(
                rand60, f.values, 0.3, members, opol)
            assert sorted(gap_step(f, 0.3, P, pol).ids()) == o_gap_step(
                rand60, f.values, 0.3, members, opol)

    def test_cantor_backend_matches_oracle(self, cantor6):
        f = indicator_field(cantor6, [0, 5, 9])
        members = list(range(cantor6.n))
        for pol, opol in ((AdaptiveScale(1.5), ("adaptive", 1.5)),
                          (FixedScale(0.07), ("fixed", 0.07))):
            got = sorted(pair_step(f, 0.5, cantor6.full_mask(), pol).ids())
            assert got == o_pair_step(cantor6, f.values, 0.5, members, opol)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(e1=st.floats(min_value=0.05, max_value=1.0),
           e2=st.floats(min_value=0.05, max_value=1.0))
    def test_epsilon_antitone(self, rand60, e1, e2):
        lo, hi = sorted((e1, e2))
        f = random_field(rand60, 4)
        P = rand60.full_mask()
        pol = AdaptiveScale(3.0)
        assert pair_step(f, hi, P, pol).issubset(pair_step(f, lo, P, pol))
        assert gap_step(f, hi, P, pol).issubset(gap_step(f, lo, P, pol))

    def test_scale_monotone_fixed(self, rand60):
        f = random_field(rand60, 5)
        P = rand60.full_mask()
        a = pair_step(f, 0.3, P, FixedScale(0.1))
        b = pair_step(f, 0.3, P, FixedScale(0.2))
        assert a.issubset(b)

    def test_set_monotone_fixed(self, rand60):
        f = random_field(rand60, 6)
        small = rand60.mask_from_ids(list(range(0, 60, 2)))
        a = pair_step(f, 0.3, small, FixedScale(0.2))
        b = pair_step(f, 0.3, rand60.full_mask(), FixedScale(0.2))
        assert a.issubset(b)


class TestIterate:
    def test_constant_trace(self, seq10):
        f = ScalarField.constant(seq10.full_mask(), 0.0)
        tr = iterate("pair", f, 0.5, seq10.full_mask(), AdaptiveScale(3.0))
        assert tr.terminal == ("emptied", 1)
        assert tr.level_sizes() == [seq10.n, 0]
        assert tr.index == 1

    def test_indicator_trace_multiplier2(self, seq10, seq_indicator):
        tr = iterate("pair", seq_indicator, 0.5, seq10.full_mask(), AdaptiveScale(2.0))
        assert tr.terminal == ("emptied", 2)
        assert tr.level_sizes() == [11, 1, 0]
        assert list(tr.levels[1].ids()) == [0]

    def test_saturation_interleaved_grids(self):
        # two interleaved 1-d grids at spacing below the fixed scale
        xs = np.arange(0, 20) * 0.01
        space = SpaceInstance("grids", EuclideanMetric(xs), resolution=0.01)
        vals = np.where(np.arange(20) % 2 == 0, 0.0, 1.0)
        f = ScalarField(space.full_mask(), vals)
        tr = iterate("pair", f, 0.5, space.full_mask(), FixedScale(0.05))
        assert tr.terminal[0] == "saturated"

    def test_levels_decrease(self, rand60):
        f = random_field(rand60, 7)
        tr = iterate("pair", f, 0.4, rand60.full_mask(), AdaptiveScale(3.0))
        for a, b in zip(tr.levels, tr.levels[1:]):
            assert b.issubset(a)
        assert len(tr.levels) <= rand60.n + 2

    def test_truncation(self, rand60):
        f = random_field(rand60, 8)
        tr = iterate("pair", f, 0.05, rand60.full_mask(), AdaptiveScale(3.0), max_steps=1)
        # A fixed point inside the step budget is a saturation, not a truncation.
        assert tr.terminal == ("saturated", 0)
        assert tr.level_sizes() == [60]

    def test_saturation_and_truncation_at_step_one(self, seq10, seq_indicator):
        tr = iterate("pair", seq_indicator, 0.5, seq10.full_mask(), AdaptiveScale(3.0))
        assert tr.terminal == ("saturated", 1)
        assert tr.level_sizes() == [11, 2]
        tr = iterate("pair", seq_indicator, 0.5, seq10.full_mask(), AdaptiveScale(3.0), max_steps=1)
        assert tr.terminal == ("truncated", 1)
        assert tr.level_sizes() == [11, 2]

    def test_empty_start_is_emptied_at_zero(self, seq10):
        f = ScalarField.constant(seq10.full_mask(), 1.0)
        tr = iterate("pair", f, 0.5, seq10.empty_mask(), AdaptiveScale(3.0))
        assert tr.terminal == ("emptied", 0)
        assert tr.index == 0

    def test_terminal_matches_oracle(self, rand60):
        f = random_field(rand60, 9)
        levels, terminal = o_iterate(rand60, f.values, 0.4, list(range(60)), ("adaptive", 3.0))
        tr = iterate("pair", f, 0.4, rand60.full_mask(), AdaptiveScale(3.0))
        assert tr.terminal == terminal
        assert [sorted(l.ids()) for l in tr.levels] == [sorted(l) for l in levels]

    def test_uniform_points_match_oracle(self):
        # every fourth of 1500 uniform points keeps the oracle to seconds
        space = random_instance(21, 1500, 2)
        f = random_field(space, 22)
        assert_iterate_matches_oracle(space, f, np.arange(0, space.n, 4))


class TestKdBallExtremes:
    """Above the dense member limit Euclidean balls come from a kd-tree.

    On a 64x64 lattice at spacing 1/8 the radii 1/4 and 3/8 (and 3 times
    the nearest distance, 3/8) equal lattice distances exactly, so whole
    rings of points sit on the boundary the open ball must exclude.
    """

    @pytest.mark.parametrize("permute", [False, True])
    def test_lattice_matches_dense_rows(self, permute):
        g = np.arange(64) / 8.0
        coords = np.array([(x, y) for x in g for y in g])
        if permute:
            coords = coords[np.random.default_rng(0).permutation(len(coords))]
        space = SpaceInstance("lattice64", EuclideanMetric(coords), resolution=1 / 16)
        members = np.arange(space.n)
        assert members.size > _KD_BALL_MEMBERS
        fvals = np.random.default_rng(5).integers(0, 4, size=space.n) / 3.0
        for pol in (AdaptiveScale(1.5), AdaptiveScale(3.0), FixedScale(1 / 4), FixedScale(3 / 8)):
            radii = pol.radii(space, members)
            maxv, minv = space.metric.ball_extremes(members, radii, members, fvals)
            want_max, want_min = dense_ball_extremes(space, members, radii, members, fvals)
            assert np.array_equal(maxv, want_max), pol
            assert np.array_equal(minv, want_min), pol

    @pytest.mark.parametrize("dim", [3, 4, 5, 8])
    def test_random_cloud_matches_forced_dense(self, monkeypatch, dim):
        # 4000 targets, above the dense limit.  A radius one ulp above each
        # member's nearest dist_rows distance puts that neighbour strictly
        # inside; from dim 4 up the tree's own rounding used to drop some.
        space = random_instance(7, 4000, dim)
        members = np.arange(space.n)
        assert members.size > _KD_BALL_MEMBERS
        fvals = np.random.default_rng(5).uniform(size=space.n)
        with monkeypatch.context() as m:
            m.setattr(space_mod, "_KD_SCALE_MEMBERS", 10**9)
            m.setattr(space_mod, "_KD_BALL_MEMBERS", 10**9)
            ls = space.metric.scales(members)[0]
            cases = [3.0 * ls, FixedScale(0.1).radii(space, members), np.nextafter(ls, np.inf)]
            wants = [space.metric.ball_extremes(members, r, members, fvals) for r in cases]
        for radii, (want_max, want_min) in zip(cases, wants):
            maxv, minv = space.metric.ball_extremes(members, radii, members, fvals)
            assert np.array_equal(maxv, want_max)
            assert np.array_equal(minv, want_min)


def dyadic_line():
    """128 points of the 1/8 lattice on a line, ids shuffled; values in
    quarters, so distances and differences tie everywhere."""
    rng = np.random.default_rng(11)
    xs = rng.permutation(np.arange(-64, 64)) / 8.0
    space = SpaceInstance("dyadic_line", EuclideanMetric(xs), resolution=1 / 16)
    return space, ScalarField(space.full_mask(), rng.integers(0, 5, space.n) / 4.0)


def cloud2d():
    space = random_instance(3, 400, 2)
    return space, random_field(space, 4)


def generated(spec):
    space = generate_from_spec(spec)
    return space, space.fields["f"]


PROFILE_SPACES = {"cantor8": lambda: generated("cantor:8"), "ordinal3": lambda: generated("ordinal:3"),
                  "dyadic_line": dyadic_line, "cloud2d": cloud2d}
PROFILE_GRID = sorted(set(cli.DEFAULT_GRID + cli.CANTOR_EXTRA), reverse=True)


def count_profile_calls(monkeypatch, metric_cls, run):
    """Pair steps taken by ``run``, and the ball passes made inside them."""
    counts = {"steps": 0, "balls": 0, "inside": False}
    step, extremes = derive._STEPS["pair"], metric_cls.ball_extremes

    def spy_step(*args, **kwargs):
        counts["steps"] += 1
        counts["inside"] = True
        try:
            return step(*args, **kwargs)
        finally:
            counts["inside"] = False

    def spy_extremes(self, *args):
        counts["balls"] += counts["inside"]
        return extremes(self, *args)

    monkeypatch.setitem(derive._STEPS, "pair", spy_step)
    monkeypatch.setattr(metric_cls, "ball_extremes", spy_extremes)
    run()
    return counts["steps"], counts["balls"]


class TestIndexProfile:
    def test_constant_all_ones(self, seq10):
        f = ScalarField.constant(seq10.full_mask(), 2.0)
        prof = index_profile(f, seq10.full_mask(), AdaptiveScale(3.0), [0.5, 0.25])
        assert [e.index for e in prof.entries] == [1, 1]

    def test_indicator_grid(self, seq10, seq_indicator):
        prof = index_profile(seq_indicator, seq10.full_mask(), AdaptiveScale(2.0), [0.5])
        assert prof.index_at(0.5) == 2

    def test_grid_validation(self, seq10, seq_indicator):
        with pytest.raises(ValidationError):
            index_profile(seq_indicator, seq10.full_mask(), AdaptiveScale(2.0), [])
        with pytest.raises(ValidationError):
            index_profile(seq_indicator, seq10.full_mask(), AdaptiveScale(2.0), [0.1, 0.5])
        for grid in ([float("nan")], [float("inf"), 0.5], [0.5, float("nan")]):
            with pytest.raises(ValidationError, match="finite"):
                index_profile(seq_indicator, seq10.full_mask(), AdaptiveScale(2.0), grid)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, seq10, seq_indicator, eps):
        for step in (pair_step, gap_step):
            with pytest.raises(ValidationError, match="finite"):
                step(seq_indicator, eps, seq10.full_mask(), AdaptiveScale(2.0))

    def test_csv_rows_mark_saturation(self, seq10, seq_indicator):
        prof = index_profile(seq_indicator, seq10.full_mask(), AdaptiveScale(3.0), [0.5])
        rows = prof.csv_rows()
        assert rows[0][1] == "SATURATED"

    @pytest.mark.parametrize("name", sorted(PROFILE_SPACES))
    @pytest.mark.parametrize("policy", [FixedScale(0.01), AdaptiveScale(1.5)], ids=lambda p: p.describe())
    def test_matches_one_trace_per_epsilon(self, name, policy):
        """The shared ball spreads change no entry: each equals a fresh
        ``iterate`` at its epsilon."""
        space, f = PROFILE_SPACES[name]()
        P = f.domain
        prof = index_profile(f, P, policy, PROFILE_GRID)
        want = [iterate("pair", f, eps, P, policy) for eps in PROFILE_GRID]
        assert [e.epsilon for e in prof.entries] == PROFILE_GRID
        assert [e.index for e in prof.entries] == [tr.index for tr in want]
        assert [e.level_sizes for e in prof.entries] == [tr.level_sizes() for tr in want]

    @pytest.mark.parametrize("policy", [FixedScale(1.5), AdaptiveScale(1.5)], ids=lambda p: p.describe())
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_small_lines_match_one_trace_per_epsilon(self, policy, data):
        """Small integer lines with quarter values: levels of equal size but
        other members recur across the grid, and must not share spreads."""
        n = data.draw(st.integers(2, 24))
        xs = np.array(data.draw(st.lists(st.integers(0, 40), min_size=n, max_size=n, unique=True)), dtype=float)
        vals = np.array(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))) / 4.0
        space = SpaceInstance("line", EuclideanMetric(xs), resolution=0.5)
        f = ScalarField(space.full_mask(), vals)
        grid = [1.0, 0.75, 0.5, 0.25]
        prof = index_profile(f, f.domain, policy, grid)
        want = [iterate("pair", f, eps, f.domain, policy) for eps in grid]
        assert [(e.index, e.level_sizes) for e in prof.entries] == [(tr.index, tr.level_sizes()) for tr in want]

    @pytest.mark.parametrize("name", ["cantor8", "cloud2d"])
    def test_one_ball_pass_per_distinct_level(self, monkeypatch, name):
        """Each step still runs, but the balls of a level recurring at another
        epsilon are not queried again."""
        space, f = PROFILE_SPACES[name]()
        P, policy = f.domain, AdaptiveScale(1.5)
        traces = [iterate("pair", f, eps, P, policy) for eps in PROFILE_GRID]
        stepped = [lvl for tr in traces for lvl in tr.levels if not lvl.is_empty()]
        steps, balls = count_profile_calls(monkeypatch, type(space.metric),
                                           lambda: index_profile(f, P, policy, PROFILE_GRID))
        assert steps == len(stepped)
        assert balls == len(set(stepped)) < steps

    def test_ex1_pass_counts(self, monkeypatch):
        """One ``ex1 --depths 6,8,10,12`` pass: 144 pair steps over 28 distinct levels."""
        steps, balls = count_profile_calls(
            monkeypatch, CantorMetric,
            lambda: cli.main(["ex1", "--depths", "6,8,10,12", "--format", "csv", "--out", os.devnull]))
        assert (steps, balls) == (144, 28)


class TestInclusionLaws:
    def test_zero_g_reduces_to_antitone(self, rand60):
        f = random_field(rand60, 30)
        zero = ScalarField.constant(rand60.full_mask(), 0.0)
        rep = inclusion_check(f, zero, 0.4, rand60.full_mask(), FixedScale(0.2), depth=4)
        assert rep.sum_split_ok

    def test_hard_laws_on_seeded_instances(self):
        for seed in range(6):
            space = random_instance(seed, 50, 2)
            f = random_field(space, seed + 1000)
            g = random_field(space, seed + 2000)
            rep = inclusion_check(f, g, 0.5, space.full_mask(), FixedScale(0.2),
                                  depth=space.n + 1)
            assert rep.sum_split_ok, f"seed {seed}: sum-split violated"
            assert rep.bracket_ok, f"seed {seed}: bracket violated"

    def test_one_step_laws_adaptive(self):
        space = random_instance(40, 50, 2)
        f = random_field(space, 41)
        g = random_field(space, 42)
        rep = inclusion_check(f, g, 0.5, space.full_mask(), AdaptiveScale(3.0), depth=1)
        assert rep.sum_split_ok
        lo, up = rep.bracket_levels[0]
        assert lo and up

    def test_union_violation_on_adversarial_fixture(self):
        space, f, P, Q, eps, delta = adversarial_union_fixture()
        rep = inclusion_check(f, ScalarField.constant(space.full_mask(), 0.0),
                              eps, P, FixedScale(delta), depth=2, q=Q)
        assert rep.union_violations >= 1

    def test_report_serializes(self, rand60):
        f = random_field(rand60, 50)
        g = random_field(rand60, 51)
        rep = inclusion_check(f, g, 0.5, rand60.full_mask(), FixedScale(0.1), depth=3)
        d = rep.to_dict()
        assert set(d) >= {"sum_split_ok", "bracket_levels", "doubled_sum_violations"}


class TestEmission:
    def test_trace_to_dict(self, seq10, seq_indicator):
        from oscext.derive import trace_to_dict

        tr = iterate("pair", seq_indicator, 0.5, seq10.full_mask(), AdaptiveScale(2.0))
        d = trace_to_dict(tr)
        assert d["terminal"] == {"state": "emptied", "step": 2}
        assert d["levels"][1] == [0]
        assert d["kind"] == "pair"

    def test_gap_trace_levels_decrease(self, rand60):
        f = random_field(rand60, 60)
        tr = iterate("gap", f, 0.4, rand60.full_mask(), AdaptiveScale(3.0))
        for a, b in zip(tr.levels, tr.levels[1:]):
            assert b.issubset(a)


class TestIterateClusteredGeometry:
    def test_clusters_match_oracle(self):
        # tight clusters where most values sit flat, so whole clusters drain
        rng = np.random.default_rng(77)
        centers = rng.uniform(size=(30, 2)) * 100.0
        pts = np.concatenate([c + rng.uniform(size=(50, 2)) * 0.01 for c in centers])
        space = SpaceInstance("clusters", EuclideanMetric(pts), resolution=1e-5,
                              family="euclidean")
        vals = rng.uniform(size=space.n)
        quiet = rng.uniform(size=space.n) < 0.8
        vals[quiet] = 0.0
        f = ScalarField(space.full_mask(), vals)
        # every fourth point: about a dozen per cluster, every cluster kept
        assert_iterate_matches_oracle(space, f, np.arange(0, space.n, 4))
