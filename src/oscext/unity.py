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
from .space import ScalarField, SpaceInstance, SubsetMask, ball


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

    def covering_counts(self) -> np.ndarray:
        counts = np.zeros(self.space.n, dtype=np.int64)
        for ids in self.support_ids:
            counts[ids] += 1
        return counts

    def to_dict(self):
        return {
            "elements": [
                {
                    "center": int(c),
                    "radius": float(r),
                    "support": [int(i) for i in ids],
                    "weights": [float(w) for w in ws],
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
    next_ids = Ynext.ids()
    beta_ids = Ybeta.ids()
    beta_vals = f.values[beta_ids]
    elements = []
    carrier = np.zeros(space.n, dtype=bool)
    for y in piece.ids():
        row = space.metric.dist_row(int(y))
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


def partition(space: SpaceInstance, cover: BallCover) -> PartitionOfUnity:
    """Hat-weight partition of unity subordinated to the cover."""
    if cover.carrier.is_empty():
        raise PreconditionError("cover carrier is empty")
    support_ids = []
    raws = []
    totals = np.zeros(space.n)
    for center, radius in cover.elements:
        ids = space.metric.ball_ids(center, radius)
        d = space.metric.dist_row(center)[ids] if ids.size else np.empty(0)
        raw = radius - d  # strictly positive on the open ball
        support_ids.append(ids)
        raws.append(raw)
        np.add.at(totals, ids, raw)
    if np.any(totals[cover.carrier.mask] <= 0):
        raise InvariantError("carrier point with zero total raw weight")
    weights = [raw / totals[ids] for ids, raw in zip(support_ids, raws)]
    return PartitionOfUnity(space, cover, support_ids, weights, cover.carrier)


def blend(pou: PartitionOfUnity, anchor_values) -> ScalarField:
    """Weighted combination of one anchor value per element, on the carrier.

    The result is clipped per point to the range of the anchors covering it,
    which the exact convex combination lies in anyway; this keeps the norm
    and window bounds exact in floating point.
    """
    anchors = np.asarray(anchor_values, dtype=np.float64)
    if anchors.shape != (len(pou.support_ids),):
        raise ValidationError("one anchor value per cover element is required")
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
