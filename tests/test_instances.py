import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from oscext import (
    AdaptiveScale,
    ValidationError,
    cantor_instance,
    cb_filtration,
    ordinal_instance,
    random_instance,
    rank_parity_field,
)
from oscext import cli, instances
from oscext.derive import index_profile, osc_at_point
from oscext.extend import layered_extension, limsup_extension
from oscext.errors import PreconditionError
from oscext.instances import (
    CantorPoint,
    block_parity_field,
    block_parity_value,
    cantor_codes,
    cantor_labels,
    cantor_point_id,
    head_from_blocks,
    parse_blocks,
    scaled_position_field,
    sequence_space,
)

from oscext import space as space_module
from oscext.space import load_space, load_space_file, space_to_document, visibility_graph

from conftest import FIXTURES, wide_space
from oracles import o_adaptive_filtration, o_cantor_code, o_cantor_points


class TestCantorPoints:
    def test_canonicalization_strips_tail_bits(self):
        assert CantorPoint("10", 0) == CantorPoint("1", 0)
        assert CantorPoint("0111", 1) == CantorPoint("0", 1)
        assert CantorPoint("", 0).label == "+0"

    def test_canonicalization_idempotent(self):
        p = CantorPoint("1101000", 0)
        q = CantorPoint(p.head, p.tail)
        assert p == q

    def test_coordinates(self):
        p = CantorPoint("10", 1)
        assert [p.coordinate(j) for j in range(1, 6)] == [1, 0, 1, 1, 1]


class TestCantorInstance:
    def test_point_count(self):
        for depth in (2, 4, 6):
            assert cantor_instance(depth).n == 2 ** (depth + 1)

    def test_depth_below_two_rejected(self):
        with pytest.raises(ValidationError):
            cantor_instance(1)

    def test_prefix_metric_examples(self, cantor6):
        # (tail1) vs (1, tail0): sequences 111... and 1000...: differ at 2
        a = cantor_point_id(cantor6, "", 1)
        b = cantor_point_id(cantor6, "1", 0)
        assert cantor6.dist(a, b) == 2.0**-2
        # canonical equality: head "10"+tail0 is the same point as "1"+tail0
        assert cantor_point_id(cantor6, "10", 0) == cantor_point_id(cantor6, "1", 0)

    def test_distinct_points_have_positive_distance(self, cantor6):
        assert np.unique(cantor6.metric.code).size == cantor6.n

    def test_y_is_dense_at_resolution(self, cantor6):
        from oscext.extend import nearest_in_set

        _ids, dist = nearest_in_set(cantor6, cantor6.subsets["Y"])
        assert float(dist.max()) < cantor6.resolution


class TestBlockParityField:
    def test_all_zero_sequence(self, cantor6):
        f = block_parity_field(cantor6)
        assert f.value(cantor_point_id(cantor6, "", 0)) == 0.0

    def test_alternating_pattern_value(self, cantor6):
        # j complete "10" blocks then tail 0: value 1 - 3^-j
        f = block_parity_field(cantor6)
        for j in (1, 2, 3):
            head = "10" * j
            expect = float(1 - Fraction(1, 3**j))
            assert f.value(cantor_point_id(cantor6, head, 0)) == expect

    def test_parse_blocks(self):
        assert parse_blocks("") == [0]
        assert parse_blocks("110") == [2, 0]
        assert parse_blocks("101") == [1, 1]
        assert head_from_blocks([2, 0, 1]) == "110010"

    def test_undefined_off_y(self, cantor6):
        f = block_parity_field(cantor6)
        w = cantor_point_id(cantor6, "", 1)
        with pytest.raises(PreconditionError):
            f.value(w)

    def test_oscillation_pair_identity(self):
        # |f(1^{n1},0,...,1^{nk},0,1^{2n},0^w) - f(...,1^{2n-1},0,(10)^j...)|
        # equals (1 - 3^-(j+1)) / 3^k exactly on the truncations.
        space = cantor_instance(12)
        f = block_parity_field(space)
        n1, k, n = 2, 1, 2
        head_a = head_from_blocks([n1, 2 * n])
        ja = cantor_point_id(space, head_a, 0)
        fill = 12 - len(head_from_blocks([n1, 2 * n - 1]))
        j = fill // 2  # complete "10" blocks that fit before the depth
        head_b = head_from_blocks([n1, 2 * n - 1]) + "10" * j
        jb = cantor_point_id(space, head_b, 0)
        got = abs(f.value(ja) - f.value(jb))
        pa = block_parity_value(head_a)
        pb = block_parity_value(head_b)
        assert abs(pa - pb) == (1 - Fraction(1, 3 ** (j + 1))) / Fraction(3**k)
        assert got == pytest.approx(float((1 - Fraction(1, 3 ** (j + 1))) / 3**k))
        assert abs(got - 3.0**-k) <= 3.0 ** -(k + j)

    def test_continuity_at_resolution_on_y(self, cantor6):
        # osc over the m-cylinder is bounded by 3 * 3^-(completed blocks)
        f = block_parity_field(cantor6)
        Y = cantor6.subsets["Y"]
        for y in Y.ids()[:40]:
            head = CantorPoint.from_label(cantor6.labels[int(y)]).head
            for m in (3, 5, 6):
                blocks = head[: m - 1].count("0") if head else 0
                got = osc_at_point(f, int(y), Y, 2.0**-m)
                assert got <= 3.0 * 3.0**-blocks + 1e-12


class TestCantorClosedForms:
    """Codes, labels, ids and block parity from closed forms, against the
    per-point enumeration of CantorPoint objects."""

    @pytest.mark.parametrize("depth", range(2, 15))
    def test_match_the_enumeration(self, depth):
        points = o_cantor_points(depth)
        codes, labels = cantor_codes(depth), cantor_labels(depth)
        assert codes.dtype == np.uint64
        assert codes.tolist() == [o_cantor_code(p, depth + 1) for p in points]
        assert labels == [p.label for p in points]
        space = cantor_instance(depth)
        f = block_parity_field(space)
        ids = space.subsets["Y"].ids()
        assert ids.tolist() == list(range(2**depth))
        assert f.values[ids].tolist() == [float(block_parity_value(points[i].head)) for i in ids]

    @pytest.mark.parametrize("depth, loaded", [(6, False), (8, False), (8, True)])
    def test_point_ids_round_trip(self, depth, loaded):
        space = load_space_file(FIXTURES / f"cantor_depth_{depth}.json") if loaded else cantor_instance(depth)
        for i, label in enumerate(space.labels):
            p = CantorPoint.from_label(label)
            assert cantor_point_id(space, p.head, p.tail) == i

    def test_point_id_rejects_long_heads(self, cantor6):
        # the first head of length 6 in the tail-1 block
        assert cantor_point_id(cantor6, "0" * 6, 1) == 2**6 + 2**5
        for head, tail in (("1" * 7, 0), ("0" * 7, 1), ("0" * 6 + "1" * 3, 0)):
            with pytest.raises(ValidationError, match="is not in"):
                cantor_point_id(cantor6, head, tail)
        # a head ending in the tail bit is shortened first, so this point is in the space
        assert cantor_point_id(cantor6, "1" * 6 + "0", 0) == cantor_point_id(cantor6, "1" * 6, 0)

    def test_point_id_rejects_other_spaces(self, ordinal1, seq10):
        # wide_space is a prefix metric, but not the canonical points in enumeration order
        for space in (ordinal1, seq10, wide_space()):
            with pytest.raises(ValidationError, match="is not in"):
                cantor_point_id(space, "", 0)

    def test_field_equals_the_fixture(self):
        space = load_space_file(FIXTURES / "cantor_depth_8.json")
        stored = space.fields["f"]
        f = block_parity_field(space)
        assert np.array_equal(f.domain.mask, stored.domain.mask)
        assert np.array_equal(f.values, stored.values, equal_nan=True)

    def test_field_refuses_tail_one_points(self):
        space = cantor_instance(6)
        space.subsets["Y"] = space.mask_from_ids([0, 2**6])
        with pytest.raises(PreconditionError, match="tail-1"):
            block_parity_field(space)


class TestLazyCantorLabels:
    """A prefix-metric space builds its labels at the first read of
    ``space.labels``, once, and nothing in the constructions reads them."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The depths ``cantor_labels`` is called with while the test runs."""
        calls, build = [], instances.cantor_labels

        def spy(depth):
            calls.append(depth)
            return build(depth)

        monkeypatch.setattr(instances, "cantor_labels", spy)
        return calls

    def test_ex1_work_builds_no_labels(self, builds, capsys):
        space = cantor_instance(12)
        Y, f = space.subsets["Y"], block_parity_field(space)
        grid = cli._grid_for(space, None)
        for report in (layered_extension(space, Y, f, cli.CANTOR_POLICY), limsup_extension(space, Y, f)):
            index_profile(report.field, space.full_mask(), cli.CANTOR_POLICY, grid)
        assert cli.main(["ex1", "--depths", "6,8"]) == 0
        assert builds == []
        assert len(space.labels) == space.n and builds == [12]

    @pytest.mark.parametrize("depth", range(2, 13))
    def test_first_read_builds_the_canonical_labels(self, builds, depth):
        space = cantor_instance(depth)
        assert builds == []
        labels = space.labels
        assert labels == [p.label for p in o_cantor_points(depth)]
        assert [CantorPoint.from_label(label).label for label in labels] == labels
        assert space.labels is labels and builds == [depth]

    def test_document_without_labels(self, builds):
        doc = space_to_document(cantor_instance(6))
        for point in doc["points"]:
            del point["label"]
        builds.clear()  # the document's labels were read
        space = load_space(doc)
        assert builds == []
        assert space.labels == cantor_labels(6)

    def test_document_labels_are_checked(self, capsys, tmp_path):
        doc = space_to_document(cantor_instance(6))
        assert load_space(doc).labels == [p["label"] for p in doc["points"]]
        doc["points"][5]["label"] = doc["points"][4]["label"]
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", "--instance", str(path)]) == 1
        assert "point 5 has label '001+0'; the cantor space of depth 6 has '011+0' there" in capsys.readouterr().err


class TestOrdinalInstance:
    def test_filtration_length_exactly_k_plus_1(self):
        for k, branching in ((1, 10), (2, 6), (3, 5)):
            space = ordinal_instance(k, branching)
            dec = cb_filtration(space, space.full_mask(), AdaptiveScale(3.0))
            assert dec.emptied
            assert len(dec.filtration) == k + 1
            assert list(dec.filtration[-1].ids()) == [space.meta["apex"]]

    def test_matches_generator_ranks(self, ordinal2):
        dec = cb_filtration(ordinal2, ordinal2.full_mask(), AdaptiveScale(3.0))
        assert np.array_equal(dec.ranks, ordinal2.meta["true_ranks"])

    def test_oracle_agreement_k1(self, ordinal1):
        levels, terminal = o_adaptive_filtration(ordinal1, list(range(ordinal1.n)), 3.0)
        dec = cb_filtration(ordinal1, ordinal1.full_mask(), AdaptiveScale(3.0))
        assert [sorted(l.ids()) for l in dec.filtration] == [sorted(l) for l in levels]

    def test_parameter_bounds(self):
        with pytest.raises(ValidationError):
            ordinal_instance(0)
        with pytest.raises(ValidationError):
            ordinal_instance(1, 2)

    def test_parity_field_is_apex_indicator_at_k1(self, ordinal1):
        f = rank_parity_field(ordinal1)
        assert f.value(0) == 1.0
        assert all(f.value(i) == 0.0 for i in range(1, ordinal1.n))


class TestSequenceSpace:
    def test_geometry(self, seq10):
        coords = np.sort(seq10.metric.coords[:, 0])
        assert coords[0] == 0.0 and coords[-1] == 1.0
        assert seq10.resolution == pytest.approx(1 / 90)

    def test_limit_point_id(self, seq10):
        assert seq10.meta["limit"] == 0


class TestRandomInstance:
    def test_determinism(self):
        a = random_instance(7, 50, 3)
        b = random_instance(7, 50, 3)
        assert np.array_equal(a.metric.coords, b.metric.coords)
        assert a.resolution == b.resolution

    def test_minimal_size(self):
        with pytest.raises(ValidationError):
            random_instance(1, 1)
        two = random_instance(1, 2)
        assert two.dist(0, 1) > 0

    def test_triangle_exhaustive_small(self):
        space = random_instance(3, 40, 2)
        D = np.array([[space.dist(i, j) for j in range(40)] for i in range(40)])
        for i in range(40):
            assert np.all(D <= D[:, [i]] + D[[i], :] + 1e-12)


class TestScaledPositionField:
    def test_visible_gaps_below_bound(self, ordinal2):
        from oscext.derive import gap_step

        f = scaled_position_field(ordinal2)
        for eps in (2.0**-8, 2.0**-6):
            assert gap_step(f, eps, ordinal2.full_mask(), AdaptiveScale(3.0)).is_empty()

    def test_equals_dense_visibility_graph(self, monkeypatch):
        for space in (ordinal_instance(3), sequence_space(50), random_instance(6, 400, 2)):
            rng = np.random.default_rng(2)
            for domain in (space.full_mask(), space.mask_from_ids(np.flatnonzero(rng.random(space.n) < 0.3))):
                members = domain.ids()
                visible = visibility_graph(space, members, 3.0)
                x = space.metric.coords[members, 0]
                worst = float(np.abs(x[:, None] - x[None, :])[visible].max())
                want = np.where(domain.mask, space.metric.coords[:, 0] * (2.0**-9 / (2.0 * worst)), np.nan)
                for kd in (False, True):
                    with monkeypatch.context() as m:
                        if kd:  # kd-tree local scales and ball extremes at every member-set size
                            m.setattr(space_module, "_KD_SCALE_MEMBERS", 0)
                            m.setattr(space_module, "_KD_BALL_MEMBERS", 0)
                        got = scaled_position_field(space, domain=domain).values
                    assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), (space.name, kd)

    def test_no_dense_blocks(self):
        space = ordinal_instance(4)
        tracemalloc.start()
        try:
            scaled_position_field(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20
