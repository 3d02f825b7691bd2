import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oscext import (
    AdaptiveScale,
    FixedScale,
    ScalarField,
    SpaceInstance,
    ValidationError,
    ball,
    cb_filtration,
    delta_limit_points,
    load_space,
    local_scale,
    parse_policy,
    random_instance,
    space_to_document,
)
from oscext.errors import PreconditionError
from oscext import space as space_mod
from oscext.space import EuclideanMetric, local_scales

from conftest import FIXTURES, tiny_matrix_space
from oracles import o_adaptive_filtration, o_ball, o_delta_limit, o_local_scale


def make_doc(matrix, resolution=0.5):
    n = len(matrix)
    return {
        "name": "doc",
        "resolution": resolution,
        "points": [{"id": i} for i in range(n)],
        "metric": {"type": "matrix", "data": matrix},
    }


def coincident_doc(n, same):
    # Uniform points in the unit square with the ids in ``same`` moved onto the first.
    pts = np.random.default_rng(3).uniform(size=(n, 2))
    pts[list(same)] = pts[same[0]]
    return {"name": "coincident", "resolution": 2.0**-40, "points": [{"id": i} for i in range(n)],
            "metric": {"type": "euclidean", "coords": pts.tolist()}}


class TestLoadSpace:
    @pytest.mark.parametrize("n, same", [(50, (17, 25, 40)), (5000, (17, 2500, 4000)),
                                         (5000, (17, 30, 2500, 4000, 4001, 4002))])
    def test_coincident_points_name_the_smallest_pair(self, n, same):
        # Dense blocks up to 2048 points, the kd search above: both name the
        # smallest id at distance 0 and its smallest partner.
        with pytest.raises(ValidationError, match=f"points {same[0]} and {same[1]} have equal coordinates"):
            load_space(coincident_doc(n, same))

    def test_many_identical_points_fail_in_bounded_memory(self):
        # The kd search stops at distance 0, so rejecting 3000 copies of one
        # point costs no 3000 x 3000 arrays (one is 72 MB).
        import scipy.spatial  # noqa: F401  (its import is not the cost measured)

        doc = coincident_doc(3000, range(3000))
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match="points 0 and 1 have equal coordinates"):
                load_space(doc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_valid_three_point_space(self):
        space = load_space(make_doc([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
        assert space.n == 3
        assert space.dist(0, 1) == 1.0

    def test_triangle_violation_names_triple(self):
        with pytest.raises(ValidationError, match=r"\(0,1,2\)"):
            load_space(make_doc([[0, 1, 3], [1, 0, 1], [3, 1, 0]]))

    def test_cantor_rule_depth6_counts(self):
        # enumerate head/tail combinations by brute force and deduplicate
        seen = set()
        for tail in (0, 1):
            for length in range(7):
                for value in range(1 << length):
                    head = format(value, f"0{length}b") if length else ""
                    seen.add((head.rstrip(str(tail)), tail))
        doc = {
            "name": "c6",
            "resolution": 2.0**-6,
            "points": [{"id": i} for i in range(len(seen))],
            "metric": {"type": "cantor", "depth": 6},
        }
        space = load_space(doc)
        assert space.n == len(seen) == 2**7

    def test_nonpositive_resolution(self):
        doc = make_doc([[0, 1], [1, 0]])
        doc["resolution"] = 0
        with pytest.raises(ValidationError, match="resolution"):
            load_space(doc)

    def test_asymmetric_matrix(self):
        with pytest.raises(ValidationError, match="symmetric"):
            load_space(make_doc([[0, 1], [2, 0]]))

    def test_subsets_and_fields_roundtrip(self, seq10):
        space = seq10
        doc = space_to_document(
            space,
            subsets={"A": space.mask_from_ids([0, 2])},
            fields={"g": ScalarField.on_ids(space, [0, 2], [1.5, -2.0])},
        )
        again = load_space(doc)
        assert list(again.subsets["A"].ids()) == [0, 2]
        assert again.fields["g"].value(2) == -2.0

    def test_fixture_files_load(self):
        for name in ("sequence_space", "ordinal_k1", "cantor_depth_6"):
            space = load_space(json.loads((FIXTURES / f"{name}.json").read_text()))
            assert space.n >= 3


class TestBall:
    def test_radius_beyond_diameter_returns_within(self, seq10):
        within = seq10.mask_from_ids([0, 3, 7])
        assert ball(seq10, 0, 10.0, within) == within

    def test_tiny_radius_gives_center_only(self, seq10):
        within = seq10.full_mask()
        got = ball(seq10, 5, 1e-6, within)
        assert list(got.ids()) == [5]

    def test_sequence_fixture_example(self, seq10):
        got = ball(seq10, 0, 0.15, seq10.full_mask())
        coords = seq10.metric.coords[:, 0]
        expect = sorted(i for i in range(seq10.n) if coords[i] < 0.15)
        assert sorted(got.ids()) == expect
        # exactly {0, 1/10, 1/9, 1/8, 1/7}: 1/7 is inside, 1/6 is not
        assert sorted(np.round(coords[got.ids()], 6)) == sorted(
            np.round([0.0, 1 / 10, 1 / 9, 1 / 8, 1 / 7], 6)
        )

    def test_unknown_id_and_foreign_mask(self, seq10, rand60):
        with pytest.raises(ValidationError):
            ball(seq10, 99, 0.1, seq10.full_mask())
        with pytest.raises(ValidationError):
            ball(seq10, 0, 0.1, rand60.full_mask())

    def test_matches_oracle_on_random_instance(self, rand60):
        members = list(range(0, 60, 3))
        within = rand60.mask_from_ids(members)
        for center in (0, 7, 33):
            got = sorted(ball(rand60, center, 0.3, within).ids())
            assert got == sorted(o_ball(rand60, center, 0.3, members))

    def test_relabeling_invariance(self, rand60):
        # permute points; balls must map through the permutation
        rng = np.random.default_rng(5)
        perm = rng.permutation(rand60.n)
        from oscext.space import EuclideanMetric, SpaceInstance

        relabeled = SpaceInstance(
            "perm", EuclideanMetric(rand60.metric.coords[perm]), rand60.resolution
        )
        inv = np.argsort(perm)
        within = rand60.full_mask()
        for center in (3, 41):
            a = set(ball(rand60, center, 0.25, within).ids())
            b = {int(perm[j]) for j in ball(relabeled, int(inv[center]), 0.25, relabeled.full_mask()).ids()}
            assert a == b


class TestMaskFromIds:
    def test_names_the_first_unknown_id(self, seq10):
        with pytest.raises(ValidationError, match=r"^unknown point id 11 \(space has 11 points\)$"):
            seq10.mask_from_ids([3, 11, -1, 40])
        with pytest.raises(ValidationError, match=r"^unknown point id -1 "):
            seq10.mask_from_ids([[3, -1], [11, 2]])

    def test_repeats_and_order(self, seq10):
        assert list(seq10.mask_from_ids([5, 0, 5]).ids()) == [0, 5]
        assert seq10.mask_from_ids([]).is_empty()


class TestLocalScale:
    def test_singleton(self, seq10):
        assert local_scale(seq10, 4, seq10.mask_from_ids([4])) == 0.0

    def test_sequence_point_zero(self, seq10):
        assert local_scale(seq10, 0, seq10.full_mask()) == pytest.approx(0.1)

    def test_two_points(self, seq10):
        assert local_scale(seq10, 1, seq10.mask_from_ids([0, 1])) == 1.0

    def test_requires_membership(self, seq10):
        with pytest.raises(PreconditionError):
            local_scale(seq10, 3, seq10.mask_from_ids([0, 1]))

    def test_batch_matches_oracle(self, rand60):
        members = np.arange(0, 60, 2)
        ls, nn = local_scales(rand60, members)
        for pos, x in enumerate(members):
            assert ls[pos] == pytest.approx(o_local_scale(rand60, x, list(members)))


def dense_local_scales(space, members):
    """The dense path's rule row by row: nearest other member, ties to the smallest id."""
    ls = np.empty(members.size)
    nn = np.empty(members.size, dtype=np.int64)
    for pos, x in enumerate(members):
        row = space.metric.dist_rows(np.array([x]), members)[0]
        row[pos] = np.inf
        ls[pos] = row.min()
        nn[pos] = members[row == ls[pos]].min()
    return ls, nn


class TestKdLocalScales:
    """Above 2048 members the Euclidean path queries a kd-tree; on a lattice
    every point has up to four neighbours at exactly the nearest distance."""

    @pytest.mark.parametrize("permute", [False, True])
    def test_lattice_matches_dense_path(self, permute):
        g = np.arange(64) / 8.0
        coords = np.array([(x, y) for x in g for y in g])
        if permute:
            coords = coords[np.random.default_rng(0).permutation(len(coords))]
        space = SpaceInstance("lattice64", EuclideanMetric(coords), resolution=1 / 16)
        members = np.arange(space.n)
        ls, nn = local_scales(space, members)
        want_ls, want_nn = dense_local_scales(space, members)
        assert np.array_equal(ls, want_ls)
        assert np.array_equal(nn, want_nn)

    def test_unsorted_subset(self):
        g = np.arange(48) / 8.0
        coords = np.array([(x, y) for x in g for y in g])
        space = SpaceInstance("lattice48", EuclideanMetric(coords), resolution=1 / 16)
        members = np.random.default_rng(1).permutation(space.n)[:2100]
        ls, nn = local_scales(space, members)
        want_ls, want_nn = dense_local_scales(space, members)
        assert np.array_equal(ls, want_ls)
        assert np.array_equal(nn, want_nn)

    @pytest.mark.parametrize("dim", [3, 4, 5, 8])
    def test_random_cloud_matches_forced_dense(self, monkeypatch, dim):
        # From dim 3 up the tree's distances can differ from dist_rows in
        # the last bits; the kd path must still return the dense path's bits.
        space = random_instance(7, 3000, dim)
        members = np.arange(space.n)
        assert members.size > space_mod._KD_SCALE_MEMBERS
        got = local_scales(space, members)
        with monkeypatch.context() as m:
            m.setattr(space_mod, "_KD_SCALE_MEMBERS", 10**9)
            want = local_scales(space, members)
            want_resolution = random_instance(7, 3000, dim).resolution
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert space.resolution == want_resolution


class TestDeltaLimitPoints:
    def test_empty(self, seq10):
        assert delta_limit_points(seq10, seq10.empty_mask(), 0.5).is_empty()

    def test_two_distant_points(self):
        space = tiny_matrix_space([[0, 1], [1, 0]])
        got = delta_limit_points(space, space.full_mask(), 0.5)
        assert got.is_empty()

    def test_sequence_fixture_scan(self, seq10):
        got = sorted(delta_limit_points(seq10, seq10.full_mask(), 0.15).ids())
        assert got == sorted(o_delta_limit(seq10, list(range(seq10.n)), 0.15))

    def test_nonpositive_scale(self, seq10):
        with pytest.raises(ValidationError):
            delta_limit_points(seq10, seq10.full_mask(), 0.0)

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        ids=st.sets(st.integers(min_value=0, max_value=59), min_size=0, max_size=40),
        s1=st.floats(min_value=0.01, max_value=0.5),
        s2=st.floats(min_value=0.01, max_value=0.5),
    )
    def test_monotone_in_scale_and_set(self, rand60, ids, s1, s2):
        lo, hi = sorted((s1, s2))
        A = rand60.mask_from_ids(sorted(ids)) if ids else rand60.empty_mask()
        B = A | rand60.mask_from_ids([0, 1, 2])
        assert delta_limit_points(rand60, A, lo).issubset(delta_limit_points(rand60, A, hi))
        assert delta_limit_points(rand60, A, lo).issubset(A)
        assert delta_limit_points(rand60, A, lo).issubset(delta_limit_points(rand60, B, lo))


class TestCbFiltration:
    def test_fixed_below_min_gap_all_isolated(self):
        space = tiny_matrix_space([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
        dec = cb_filtration(space, space.full_mask(), FixedScale(0.5))
        assert dec.emptied and len(dec.filtration) == 1
        assert all(dec.rank_of(i) == 0 for i in range(3))

    def test_sequence_adaptive_matches_spec_example(self, seq10):
        dec = cb_filtration(seq10, seq10.full_mask(), AdaptiveScale(3.0))
        assert dec.emptied
        assert len(dec.filtration) == 2
        assert list(dec.filtration[1].ids()) == [0]
        assert dec.rank_of(0) == 1
        assert all(dec.rank_of(i) == 0 for i in range(1, seq10.n))

    def test_ordinal_k2_apex_rank(self, ordinal2):
        dec = cb_filtration(ordinal2, ordinal2.full_mask(), AdaptiveScale(3.0))
        assert dec.emptied and len(dec.filtration) == 3
        assert list(dec.filtration[-1].ids()) == [0]

    def test_adaptive_matches_oracle(self, seq10, ordinal2):
        for space in (seq10, ordinal2):
            dec = cb_filtration(space, space.full_mask(), AdaptiveScale(3.0))
            levels, terminal = o_adaptive_filtration(space, list(range(space.n)), 3.0)
            assert [sorted(l.ids()) for l in dec.filtration] == [sorted(l) for l in levels]

    @pytest.mark.parametrize("policy", [AdaptiveScale(3.0), AdaptiveScale(1.5), FixedScale(0.05)])
    def test_ranks_and_isolation_radii_match_levels(self, seq10, ordinal2, cantor6, rand60, policy):
        # A point dropped from level r has rank r and, as isolation radius, its
        # local scale within level r (inf when it was alone there).
        for space in (seq10, ordinal2, cantor6, rand60):
            dec = cb_filtration(space, space.full_mask(), policy)
            for p in range(space.n):
                r = dec.rank_of(p)
                if r < 0:
                    assert not dec.emptied and p in dec.filtration[-1] and np.isnan(dec.iso_radius[p])
                    continue
                assert p in dec.filtration[r] and (r + 1 == len(dec.filtration) or p not in dec.filtration[r + 1])
                d = o_local_scale(space, p, list(dec.filtration[r].ids()))
                assert dec.iso_radius[p] == (d if d > 0 else np.inf)

    def test_requires_nonempty(self, seq10):
        with pytest.raises(PreconditionError):
            cb_filtration(seq10, seq10.empty_mask(), FixedScale(0.5))

    def test_saturated_at_start(self):
        space = tiny_matrix_space([[0, 1], [1, 0]])
        dec = cb_filtration(space, space.full_mask(), FixedScale(2.0))
        assert dec.terminal == ("saturated", 0) and len(dec.filtration) == 1
        assert dec.ranks.tolist() == [-1, -1]
        assert np.isnan(dec.iso_radius).all()

    def test_saturated_after_one_step(self):
        space = tiny_matrix_space([[0, 1, 4], [1, 0, 4], [4, 4, 0]])
        dec = cb_filtration(space, space.full_mask(), FixedScale(2.0))
        assert dec.terminal == ("saturated", 1)
        assert [l.ids().tolist() for l in dec.filtration] == [[0, 1, 2], [0, 1]]
        assert dec.ranks.tolist() == [-1, -1, 0]
        assert dec.iso_radius[2] == 4

    def test_fixed_terminates_within_size(self, rand60):
        dec = cb_filtration(rand60, rand60.full_mask(), FixedScale(0.1))
        assert len(dec.filtration) <= rand60.n


class TestPolicies:
    def test_parse(self):
        assert parse_policy("fixed:0.25") == FixedScale(0.25)
        assert parse_policy("adaptive:2") == AdaptiveScale(2.0)
        assert parse_policy("adaptive:") == AdaptiveScale(3.0)
        with pytest.raises(ValidationError):
            parse_policy("nope:1")
        with pytest.raises(ValidationError):
            parse_policy("adaptive:0.5")
        with pytest.raises(ValidationError):
            parse_policy("fixed:-1")

    @pytest.mark.parametrize("text", ["fixed:nan", "fixed:inf", "adaptive:nan", "adaptive:inf"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ValidationError, match="finite"):
            parse_policy(text)


class TestMasksAndFields:
    def test_mask_ops(self, seq10):
        a = seq10.mask_from_ids([0, 1, 2])
        b = seq10.mask_from_ids([2, 3])
        assert sorted((a | b).ids()) == [0, 1, 2, 3]
        assert sorted((a & b).ids()) == [2]
        assert sorted((a - b).ids()) == [0, 1]
        assert (a & b).issubset(a)

    def test_field_requires_finite_values(self, seq10):
        with pytest.raises(ValidationError):
            ScalarField.on_ids(seq10, [0], [np.inf])

    def test_field_restrict_and_norm(self, seq10):
        f = ScalarField.on_ids(seq10, [0, 1, 2], [1.0, -3.0, 2.0])
        assert f.norm() == 3.0
        r = f.restrict(seq10.mask_from_ids([0, 2]))
        assert r.norm() == 2.0
        with pytest.raises(PreconditionError):
            f.restrict(seq10.full_mask())

    def test_field_arithmetic_on_shared_domain(self, seq10):
        f = ScalarField.on_ids(seq10, [0, 1], [1.0, 2.0])
        g = ScalarField.on_ids(seq10, [1, 2], [10.0, 20.0])
        h = f + g
        assert sorted(h.domain.ids()) == [1]
        assert h.value(1) == 12.0


class TestSampledValidation:
    def test_large_matrix_uses_sampled_triples(self):
        rng = np.random.default_rng(1)
        coords = rng.uniform(size=(600, 2))
        diff = coords[:, None, :] - coords[None, :, :]
        data = np.sqrt((diff**2).sum(-1))
        doc = {
            "name": "big",
            "resolution": 1e-3,
            "points": [{"id": i} for i in range(600)],
            "metric": {"type": "matrix", "data": data.tolist()},
        }
        space = load_space(doc)
        assert space.n == 600
