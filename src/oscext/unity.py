"""Ball covers and hat-weight partitions of unity subordinated to them.

Weights are hats: the raw weight of a cover element (c, r) at a covered
point z is max(0, r - d(c, z)), normalised by the per-point total.  Supports
therefore coincide exactly with the open balls, which makes subordination a
strict identity rather than an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvariantError, PreconditionError, ValidationError
from .space import ScalarField, SpaceInstance, SubsetMask


@dataclass
class BallCover:
    """Open balls (center id, radius) with their union as carrier."""

    space: SpaceInstance
    elements: list  # (center, radius) pairs
    carrier: SubsetMask


@dataclass
class PartitionOfUnity:
    """Per element: support ids and weights; weights sum to 1 on the carrier."""

    space: SpaceInstance
    cover: BallCover
    support_ids: list  # np.ndarray of point ids per element
    weights: list  # aligned np.ndarray per element
    carrier: SubsetMask

    def to_dict(self):
        return {
            "elements": [
                {
                    "center": int(c),
                    "radius": float(r),
                    "support": ids.tolist(),
                    "weights": ws.tolist(),
                }
                for (c, r), ids, ws in zip(self.cover.elements, self.support_ids, self.weights)
            ]
        }


def cover_for_piece(space: SpaceInstance, Ybeta: SubsetMask, Ynext: SubsetMask,
                    f: ScalarField, epsilon: float) -> BallCover:
    """One ball per point of Ybeta minus Ynext, avoiding Ynext and f-jumps.

    The radius at y is half the smaller of: the distance to Ynext, and the
    distance to the nearest point of Ybeta whose f-value differs from f(y)
    by >= epsilon.  Absent constraints are capped at the space diameter.
    Both defining conditions (ball misses Ynext; f stays inside the open
    epsilon window around f(y) on the ball) are verified per element.
    """
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be a positive finite number, got {epsilon}")
    if not Ynext.issubset(Ybeta):
        raise PreconditionError("Ynext must be contained in Ybeta")
    if not Ybeta.issubset(f.domain):
        raise PreconditionError("Ybeta is not contained in the field domain")
    piece = Ybeta - Ynext
    if piece.is_empty():
        raise PreconditionError("the cover piece Ybeta \\ Ynext is empty")
    cap = space.diameter()
    if cap <= 0:
        cap = space.resolution
    metric = space.metric
    next_ids, beta_ids, piece_ids = Ynext.ids(), Ybeta.ids(), piece.ids()
    beta_vals = f.values[beta_ids]
    fy = f.values[piece_ids]
    # min(d_next, d_bad): the distance to the next level (cap when it is
    # empty), lowered to the nearest f-jump strictly inside it.
    d = metric.nearest(piece_ids, next_ids)[1] if next_ids.size else np.full(piece_ids.size, cap)
    near = d.copy()
    for rows, cols, dist in metric.ball_pairs(piece_ids, d, beta_ids):
        bad = np.abs(beta_vals[cols] - fy[rows]) >= epsilon
        np.minimum.at(near, rows[bad], dist[bad])
    radii = 0.5 * near
    # Both defining conditions, and the carrier, from the balls' members.
    meets_next, breaks_window = np.zeros((2, piece_ids.size), dtype=bool)
    carrier = np.zeros(space.n, dtype=bool)
    for rows, cols, _dist in metric.ball_pairs(piece_ids, radii, np.arange(space.n)):
        carrier[cols] = True
        meets_next[rows[Ynext.mask[cols]]] = True
        breaks_window[rows[Ybeta.mask[cols] & (np.abs(f.values[cols] - fy[rows]) >= epsilon)]] = True
    no_radius = ~(radii > 0)
    failing = np.flatnonzero(no_radius | meets_next | breaks_window)
    if failing.size:
        i = failing[0]
        y = int(piece_ids[i])
        if no_radius[i]:
            raise InvariantError(
                f"point {y} admits no positive cover radius; "
                "it should have been removed by the derivation step"
            )
        if meets_next[i]:
            raise InvariantError(f"cover ball at {y} meets the next level")
        raise InvariantError(f"cover ball at {y} breaks the epsilon window")
    elements = [(int(y), float(r)) for y, r in zip(piece_ids, radii)]
    return BallCover(space, elements, SubsetMask(space, carrier))


def partition(space: SpaceInstance, cover: BallCover) -> PartitionOfUnity:
    """Hat-weight partition of unity subordinated to the cover.

    Accumulation-order contract: each point's total adds its elements' raw
    weights one at a time in element order, starting from 0, as a
    per-element loop does: the (element, member) pairs of
    ``Metric.ball_pairs``, in its order, fed to ``np.add.at``.
    """
    if cover.carrier.is_empty():
        raise PreconditionError("cover carrier is empty")
    centers = np.array([c for c, _r in cover.elements], dtype=np.int64)
    radii = np.array([r for _c, r in cover.elements], dtype=np.float64)
    chunks = []
    totals = np.zeros(space.n)
    for rows, ids, d in space.metric.ball_pairs(centers, radii, np.arange(space.n)):
        raw = radii[rows] - d  # strictly positive on the open ball
        np.add.at(totals, ids, raw)
        chunks.append((rows, ids, raw))
    if np.any(totals[cover.carrier.mask] <= 0):
        raise InvariantError("carrier point with zero total raw weight")
    rows, ids, raw = (np.concatenate(parts) for parts in zip(*chunks))
    cuts = np.cumsum(np.bincount(rows, minlength=centers.size))[:-1]
    return PartitionOfUnity(space, cover, np.split(ids, cuts), np.split(raw / totals[ids], cuts), cover.carrier)


def blend(pou: PartitionOfUnity, anchor_values) -> ScalarField:
    """Weighted combination of one anchor value per element, on the carrier.

    The result is clipped per point to the range of the anchors covering it,
    which the exact convex combination lies in anyway; this keeps the norm
    and window bounds exact in floating point.  Sums follow the element
    order, as in ``partition``.
    """
    anchors = np.asarray(anchor_values, dtype=np.float64)
    if anchors.shape != (len(pou.support_ids),):
        raise ValidationError("one anchor value per cover element is required")
    n = pou.space.n
    out = np.zeros(n)
    amin = np.full(n, np.inf)
    amax = np.full(n, -np.inf)
    ids = np.concatenate(pou.support_ids)
    a = np.repeat(anchors, [s.size for s in pou.support_ids])
    np.add.at(out, ids, np.concatenate(pou.weights) * a)
    np.minimum.at(amin, ids, a)
    np.maximum.at(amax, ids, a)
    mask = pou.carrier.mask
    out[mask] = np.clip(out[mask], amin[mask], amax[mask])
    vals = np.where(mask, out, np.nan)
    return ScalarField(pou.carrier, vals)
