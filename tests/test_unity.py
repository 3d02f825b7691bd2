import numpy as np
import pytest

from oscext import (
    AdaptiveScale,
    ScalarField,
    blend,
    cover_for_piece,
    partition,
    pair_step,
    random_field,
)
from oscext.errors import PreconditionError, ValidationError
from oscext.unity import BallCover

from conftest import tiny_matrix_space


class TestCoverForPiece:
    def test_constant_field_radii_half_diameter(self, seq10):
        f = ScalarField.constant(seq10.full_mask(), 1.0)
        cover = cover_for_piece(seq10, seq10.full_mask(), seq10.empty_mask(), f, 0.5)
        half = seq10.diameter() / 2
        assert all(r == half for _c, r in cover.elements)

    def test_indicator_radii_capped_by_next_level(self, seq10, seq_indicator):
        ybeta = seq10.full_mask()
        ynext = seq10.mask_from_ids([0])
        cover = cover_for_piece(seq10, ybeta, ynext, seq_indicator, 0.5)
        coords = seq10.metric.coords[:, 0]
        for c, r in cover.elements:
            assert r <= coords[c] / 2 + 1e-15  # half the distance to the point 0

    def test_single_point_piece(self, seq10, seq_indicator):
        ybeta = seq10.mask_from_ids([0, 5])
        ynext = seq10.mask_from_ids([5])
        cover = cover_for_piece(seq10, ybeta, ynext, seq_indicator, 0.5)
        assert len(cover.elements) == 1
        assert 0 in cover.carrier

    def test_conditions_verified(self, rand60):
        f = random_field(rand60, 12)
        P = rand60.full_mask()
        nxt = pair_step(f, 0.5, P, AdaptiveScale(1.5))
        if (P - nxt).is_empty():
            pytest.skip("degenerate draw")
        cover = cover_for_piece(rand60, P, nxt, f, 0.5)
        for c, r in cover.elements:
            row = rand60.metric.dist_rows(np.array([c]), np.arange(rand60.n))[0]
            inside = np.flatnonzero(row < r)
            assert not np.any(nxt.mask[inside])
            vals = f.values[inside]
            assert np.all(np.abs(vals - f.values[c]) < 0.5)

    def test_empty_piece_rejected(self, seq10, seq_indicator):
        with pytest.raises(PreconditionError):
            cover_for_piece(seq10, seq10.full_mask(), seq10.full_mask(), seq_indicator, 0.5)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf")])
    def test_non_finite_epsilon_rejected(self, seq10, seq_indicator, eps):
        with pytest.raises(ValidationError, match="finite"):
            cover_for_piece(seq10, seq10.full_mask(), seq10.empty_mask(), seq_indicator, eps)


class TestPartition:
    def test_single_element_weight_one(self, seq10):
        cover = BallCover(seq10, [(0, 0.15)], None)
        cover = cover_for_piece(seq10, seq10.mask_from_ids([0]), seq10.empty_mask(),
                                ScalarField.on_ids(seq10, [0], [1.0]), 0.5)
        pou = partition(seq10, cover)
        for ws in pou.weights:
            assert np.allclose(ws, 1.0)

    def test_symmetric_pair_half_half(self):
        space = tiny_matrix_space([[0, 1, 0.5], [1, 0, 0.5], [0.5, 0.5, 0]])
        cover = BallCover(space, [(0, 1.0), (1, 1.0)],
                          space.full_mask())
        pou = partition(space, cover)
        # point 2 is equidistant from both centers with equal radii
        w = []
        for ids, ws in zip(pou.support_ids, pou.weights):
            for i, v in zip(ids, ws):
                if i == 2:
                    w.append(v)
        assert w == [0.5, 0.5]

    def test_hat_weights_two_thirds_one_third(self):
        # raw weights 0.8 and 0.4 at the shared point
        space = tiny_matrix_space([[0, 0.7, 0.2], [0.7, 0, 0.6], [0.2, 0.6, 0]])
        cover = BallCover(space, [(0, 1.0), (1, 1.0)], space.full_mask())
        pou = partition(space, cover)
        got = {}
        for e, (ids, ws) in enumerate(zip(pou.support_ids, pou.weights)):
            for i, v in zip(ids, ws):
                if i == 2:
                    got[e] = v
        assert got[0] == pytest.approx(2 / 3)
        assert got[1] == pytest.approx(1 / 3)

    def test_normalization_and_subordination(self, rand60):
        f = random_field(rand60, 13)
        cover = cover_for_piece(rand60, rand60.full_mask(), rand60.empty_mask(), f, 2.5)
        pou = partition(rand60, cover)
        totals = np.zeros(rand60.n)
        for (c, r), ids, ws in zip(cover.elements, pou.support_ids, pou.weights):
            np.add.at(totals, ids, ws)
            assert np.all(ws >= 0)
            d = rand60.metric.dist_rows(np.array([c]), ids)[0]
            assert np.all(d < r)  # support inside the open ball, exactly
        carrier = pou.carrier.mask
        assert np.all(np.abs(totals[carrier] - 1.0) <= 2.0**-48)


class TestBlend:
    def test_constant_anchors(self, rand60):
        f = ScalarField.constant(rand60.full_mask(), 4.25)
        cover = cover_for_piece(rand60, rand60.full_mask(), rand60.empty_mask(), f, 0.5)
        pou = partition(rand60, cover)
        out = blend(pou, [4.25] * len(cover.elements))
        assert np.all(out.values[out.domain.mask] == 4.25)

    def test_anchor_count_checked(self, seq10, seq_indicator):
        cover = cover_for_piece(seq10, seq10.full_mask(), seq10.mask_from_ids([0]),
                                seq_indicator, 0.5)
        pou = partition(seq10, cover)
        with pytest.raises(ValidationError):
            blend(pou, [1.0])

    def test_dot_product_example(self):
        space = tiny_matrix_space([[0, 0.7, 0.2], [0.7, 0, 0.6], [0.2, 0.6, 0]])
        cover = BallCover(space, [(0, 1.0), (1, 1.0)], space.full_mask())
        pou = partition(space, cover)
        out = blend(pou, [0.0, 1.0])
        assert out.values[2] == pytest.approx(1 / 3)

    def test_convexity_bound(self, rand60):
        f = random_field(rand60, 14)
        cover = cover_for_piece(rand60, rand60.full_mask(), rand60.empty_mask(), f, 3.0)
        pou = partition(rand60, cover)
        anchors = [float(f.values[c]) for c, _ in cover.elements]
        out = blend(pou, anchors)
        vals = out.values[out.domain.mask]
        assert vals.min() >= min(anchors) and vals.max() <= max(anchors)

    def test_window_bound_exact(self, rand60):
        # every covered piece point stays within epsilon of its own value
        eps = 0.5
        f = random_field(rand60, 15)
        P = rand60.full_mask()
        nxt = pair_step(f, eps, P, AdaptiveScale(1.5))
        piece = P - nxt
        if piece.is_empty():
            pytest.skip("degenerate draw")
        cover = cover_for_piece(rand60, P, nxt, f, eps)
        pou = partition(rand60, cover)
        anchors = [float(f.values[c]) for c, _ in cover.elements]
        out = blend(pou, anchors)
        for x in piece.ids():
            if out.domain.mask[x]:
                assert abs(f.values[x] - out.values[x]) <= eps


class TestEmission:
    def test_partition_to_dict(self, seq10, seq_indicator):
        cover = cover_for_piece(seq10, seq10.full_mask(), seq10.mask_from_ids([0]),
                                seq_indicator, 0.5)
        pou = partition(seq10, cover)
        d = pou.to_dict()
        assert len(d["elements"]) == len(cover.elements)
        first = d["elements"][0]
        assert set(first) == {"center", "radius", "support", "weights"}
        assert len(first["support"]) == len(first["weights"])
