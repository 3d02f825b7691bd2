"""Instance generators: binary-sequence spaces, ordinal ladders, random clouds.

The binary-sequence family stores eventually constant words exactly (head +
repeated tail bit) under the prefix metric 2^-(first difference).  The
ordinal family realises a prescribed finite derived-set depth with geometric
ladders whose decay ratio sits in the window where the adaptive filtration
separates ladder points from their accumulation point.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import PreconditionError, ValidationError
from .space import (
    CantorMetric,
    EuclideanMetric,
    ScalarField,
    SpaceInstance,
    SubsetMask,
    local_scales,
)

# Ladder decay per step.  The adaptive filtration separates an accumulation
# point from its ladder exactly when 3*(1-ratio)/ratio < 1 < 3*ratio, i.e.
# ratio in (3/4, 1); 4/5 keeps all gaps dyadic-rational friendly.
LADDER_RATIO = 0.8
CLUSTER_SHRINK = 1.0 / 64.0


# ---------------------------------------------------------------------------
# Eventually constant binary sequences
# ---------------------------------------------------------------------------

class CantorPoint:
    """Canonical form of an eventually constant 0/1 sequence."""

    __slots__ = ("head", "tail")

    def __init__(self, head: str, tail: int):
        tail = int(tail)
        if tail not in (0, 1):
            raise ValidationError("tail bit must be 0 or 1")
        if any(ch not in "01" for ch in head):
            raise ValidationError("head must be a 0/1 word")
        head = head.rstrip(str(tail))  # canonical: head never ends in the tail bit
        self.head = head
        self.tail = tail

    def coordinate(self, j: int) -> int:
        """1-indexed coordinate of the represented sequence."""
        if j < 1:
            raise ValidationError("coordinates are numbered from 1")
        return int(self.head[j - 1]) if j <= len(self.head) else self.tail

    @property
    def label(self) -> str:
        return f"{self.head}+{self.tail}"

    @classmethod
    def from_label(cls, label: str) -> "CantorPoint":
        head, _, tail = label.rpartition("+")
        if tail not in ("0", "1"):
            raise ValidationError(f"cantor point label {label!r} does not end in +0 or +1")
        return cls(head, int(tail))

    def __eq__(self, other):
        return isinstance(other, CantorPoint) and self.head == other.head and self.tail == other.tail

    def __hash__(self):
        return hash((self.head, self.tail))

    def __repr__(self):
        return f"CantorPoint({self.label!r})"


def check_cantor_depth(depth: int):
    """Refuse a cantor depth outside 2..20, before any point is built."""
    if depth < 2:
        raise ValidationError("depth must be >= 2")
    if depth > 20:  # 2^(depth+1) points and labels: deeper spaces cannot be enumerated in practice
        raise ValidationError(f"depth must be at most 20 (2^21 points), got {depth}")


def _cantor_heads(depth: int):
    """Head value, head length and tail bit of each id, in ``cantor_codes``' order."""
    check_cantor_depth(depth)
    j = np.tile(np.arange(1 << depth, dtype=np.int64), 2)
    tail = np.repeat(np.arange(2, dtype=np.int64), 1 << depth)
    length = np.frexp(j.astype(np.float64))[1].astype(np.int64)  # bit_length(j), 0 at j = 0
    return np.where(j > 0, 2 * j - (1 << length) + (1 - tail), 0), length, tail


def cantor_codes(depth: int) -> np.ndarray:
    """Full-width codes of the canonical points of head length <= depth.

    Points are ordered by (tail, head length, head value), so the tail-0
    half occupies ids 0 .. 2^depth - 1.  Inside a tail block, id j >= 1 has
    head length L = bit_length(j) and head value 2(j - 2^(L-1)) + (1 - tail):
    the heads that do not end in the tail bit.  Id 0 has the empty head.
    A code packs the first W = depth + 1 coordinates, the first one highest:
    distinct canonical points always differ within them.
    """
    head, length, tail = _cantor_heads(depth)
    rest = depth + 1 - length
    return ((head << rest) | tail * ((1 << rest) - 1)).astype(np.uint64)


def cantor_labels(depth: int) -> list:
    """The ``CantorPoint`` labels of ``cantor_codes``' points, in id order."""
    head, length, tail = _cantor_heads(depth)
    return [f"{h:0{n}b}+{t}" if n else f"+{t}" for h, n, t in zip(head.tolist(), length.tolist(), tail.tolist())]


def cantor_instance(depth: int) -> SpaceInstance:
    """Truncated binary-sequence space with the dense tail-0 subset Y.

    Its labels are built at the first read of ``space.labels``.
    """
    space = SpaceInstance(
        f"cantor_depth_{depth}", CantorMetric(cantor_codes(depth), depth + 1), resolution=2.0 ** -depth,
        labels=lambda: cantor_labels(depth), family="cantor",
    )
    # The tail-0 block comes first in the enumeration.
    space.subsets["Y"] = SubsetMask(space, np.arange(space.n) < 1 << depth)
    return space


def cantor_point_id(space: SpaceInstance, head: str, tail: int) -> int:
    """Id of the canonical point for (head, tail); errors if outside the space."""
    p = CantorPoint(head, tail)
    if space.family != "cantor" or space.n != 2 ** space.metric.width or len(p.head) >= space.metric.width:
        raise ValidationError(f"point {p.label!r} is not in {space.name}")
    # The inverse of cantor_codes' enumeration: (2^L | head) >> 1 is j, and 0 for the empty head.
    return p.tail * space.n // 2 + (((1 << len(p.head)) | int(p.head or "0", 2)) >> 1)


def head_from_blocks(blocks) -> str:
    """Head word 1^{n_1} 0 1^{n_2} 0 ... for the given run lengths."""
    return "".join("1" * int(n) + "0" for n in blocks)


def parse_blocks(head: str) -> list:
    """Run lengths of ones in head followed by the infinite 0 tail.

    Appending one 0 closes the final run; the all-zero remainder contributes
    empty blocks only, which the weight function maps to 0.
    """
    runs = []
    count = 0
    for ch in head + "0":
        if ch == "1":
            count += 1
        else:
            runs.append(count)
            count = 0
    return runs


def block_parity_value(head: str) -> Fraction:
    """Exact weight sum(2 * (n_i mod 2) / 3^i) over the parsed blocks."""
    total = Fraction(0)
    for i, n in enumerate(parse_blocks(head), start=1):
        if n % 2:
            total += Fraction(2, 3**i)
    return total


def block_parity_field(space: SpaceInstance) -> ScalarField:
    """The continuous block-parity function on the tail-0 subset Y.

    One pass over the W coordinates of the codes, first coordinate first,
    tracks each point's run parity and block index i, and adds 2 * 3^(W-i)
    to an integer numerator for every odd run a zero closes.  Numerators
    and 3^W are exact float64 integers below 2^53 (W <= 21), so the one
    division equals ``float(block_parity_value(head))``.  The last
    coordinate is the tail bit: evaluation is undefined on tail-1 points.
    """
    if space.family != "cantor" or space.n != 2 ** space.metric.width or "Y" not in space.subsets:
        raise PreconditionError("block_parity_field requires a cantor_instance space")
    ids, width = space.subsets["Y"].ids(), space.metric.width
    code = space.metric.code[ids]
    if np.any(code & np.uint64(1)):
        raise PreconditionError("block-parity function is undefined on tail-1 points")
    pow3 = 3 ** np.arange(width + 1, dtype=np.int64)
    num = np.zeros(ids.size, dtype=np.int64)
    block = np.ones(ids.size, dtype=np.int64)
    odd = np.zeros(ids.size, dtype=bool)
    for shift in range(width - 1, -1, -1):
        one = ((code >> np.uint64(shift)) & np.uint64(1)).astype(bool)
        num += np.where(odd & ~one, 2 * pow3[width - block], 0)  # a zero closes block i
        block += ~one
        odd = one & ~odd
    return ScalarField.on_ids(space, ids, num / 3**width)


# ---------------------------------------------------------------------------
# Ordinal ladders on the real line
# ---------------------------------------------------------------------------

def _build_cluster(rank, center, size, branching, positions, ranks):
    positions.append(center)
    ranks.append(rank)
    if rank == 0:
        return
    for j in range(1, branching + 1):
        offset = size * LADDER_RATIO**j
        _build_cluster(rank - 1, center + offset, offset * CLUSTER_SHRINK,
                       branching, positions, ranks)


def ordinal_instance(k: int, branching: int = 10) -> SpaceInstance:
    """Nested geometric ladders with derived-set depth exactly k.

    A rank-r cluster is its centre plus `branching` rank-(r-1) clusters
    accumulating at it geometrically.  The apex (rank k) has id 0.
    """
    if k < 1:
        raise ValidationError("k must be >= 1")
    if branching < 3:
        raise ValidationError("branching must be >= 3")
    count = (branching ** (k + 1) - 1) // (branching - 1)  # counted before any point is built
    if count > 1 << 14:  # ordinal:4 (11111 points) is the largest ladder the constructions are measured on
        raise ValidationError(f"ordinal:{k}:{branching} has {count} points, more than 16384 (2^14)")
    positions: list = []
    ranks: list = []
    _build_cluster(k, 0.0, 1.0, branching, positions, ranks)
    coords = np.asarray(positions)
    order = np.argsort(coords)
    gaps = np.diff(coords[order])
    if np.any(gaps <= 0):
        raise ValidationError("ordinal ladder parameters collapse two points")
    space = SpaceInstance(
        f"ordinal_k{k}_b{branching}", EuclideanMetric(coords),
        resolution=float(gaps.min()), family="ordinal",
    )
    space.meta["true_ranks"] = np.asarray(ranks, dtype=np.int64)
    space.meta["apex"] = 0
    space.meta["k"] = k
    return space


def rank_parity_field(space: SpaceInstance) -> ScalarField:
    """Indicator-style calibration field: rank parity per point.

    For depth-1 instances this is exactly the apex indicator; deeper
    instances alternate so every rank level oscillates against the next.
    """
    ranks = space.meta.get("true_ranks")
    if ranks is None:
        raise PreconditionError("rank_parity_field requires an ordinal_instance space")
    return ScalarField(space.full_mask(), (ranks % 2).astype(np.float64))


def indicator_field(space: SpaceInstance, ones, domain: SubsetMask | None = None) -> ScalarField:
    """Field that is 1 on the given ids and 0 elsewhere on the domain."""
    domain = domain if domain is not None else space.full_mask()
    vals = space.mask_from_ids(ones).mask.astype(np.float64)
    return ScalarField(domain, np.where(domain.mask, vals, np.nan))


def scaled_position_field(space: SpaceInstance, gap_bound: float = 2.0**-9,
                          domain: SubsetMask | None = None) -> ScalarField:
    """Affine-in-position field scaled continuous at resolution.

    The scale is chosen so the largest value gap across a mutually visible
    pair (either point's 3x-nearest-neighbour ball reaching the other)
    stays below ``gap_bound``; the field then shows no oscillation at any
    epsilon above that, which is the working rendering of a continuous
    function on a truncated instance.
    """
    if space.metric.kind != "euclidean":
        raise PreconditionError("scaled_position_field requires a euclidean-backed space")
    domain = domain if domain is not None else space.full_mask()
    coords = space.metric.coords[:, 0]
    members = domain.ids()
    x = coords[members]
    # A visible pair lies inside either point's ball of radius 3 ls, and
    # 3 * max(a, b) = max(3a, 3b) in floats: the largest visible gap is the
    # largest reach from a member to the extremes of x inside its own ball.
    ls, _ = local_scales(space, members)
    hi, lo = space.metric.ball_extremes(members, 3.0 * ls, members, x)
    worst = float(np.maximum(hi - x, x - lo).max(initial=0.0))
    scale = gap_bound / (2.0 * worst) if worst > 0 else 1.0
    return ScalarField(domain, np.where(domain.mask, coords * scale, np.nan))


# ---------------------------------------------------------------------------
# Small fixture spaces
# ---------------------------------------------------------------------------

def sequence_space(count: int = 10) -> SpaceInstance:
    """The truncated convergent sequence {0} union {1/n : n <= count}."""
    if count < 2:
        raise ValidationError("count must be >= 2")
    coords = np.array([0.0] + [1.0 / n for n in range(1, count + 1)])
    gaps = np.diff(np.sort(coords))
    space = SpaceInstance(
        f"sequence_{count}", EuclideanMetric(coords),
        resolution=float(gaps.min()), family="sequence",
    )
    space.meta["limit"] = 0
    return space


def adversarial_union_fixture():
    """Three points where the union law loses its only witness across the split.

    P = {y, far}, Q = {w}: w is y's only close witness, so the gap step on
    P union Q keeps y (and w) while the steps on P and on Q are both empty.
    Returns (space, f, P, Q, epsilon, policy_delta).
    """
    coords = np.array([0.0, 0.1, 10.0])  # y, w, far
    space = SpaceInstance("adversarial_union", EuclideanMetric(coords),
                          resolution=0.1, family="euclidean")
    space.subsets["P"] = space.mask_from_ids([0, 2])
    space.subsets["Q"] = space.mask_from_ids([1])
    f = ScalarField(space.full_mask(), np.array([0.0, 1.0, 0.0]))
    space.fields["f"] = f
    return space, f, space.subsets["P"], space.subsets["Q"], 0.5, 1.0


def random_instance(seed: int, n: int, dim: int = 2) -> SpaceInstance:
    """Seeded uniform points in the unit cube; resolution = smallest gap."""
    if n < 2:
        raise ValidationError("n must be >= 2")
    if dim < 1:
        raise ValidationError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    coords = rng.uniform(size=(n, dim))
    metric = EuclideanMetric(coords)
    return SpaceInstance(f"random_s{seed}_n{n}_d{dim}", metric,
                         resolution=float(metric.scales(np.arange(n))[0].min()), family="euclidean")


def random_field(space: SpaceInstance, seed: int, domain: SubsetMask | None = None) -> ScalarField:
    """Seeded uniform values on the domain (default: all points)."""
    domain = domain if domain is not None else space.full_mask()
    rng = np.random.default_rng(seed)
    vals = rng.uniform(size=space.n)
    return ScalarField(domain, np.where(domain.mask, vals, np.nan))


# ---------------------------------------------------------------------------
# Generator specs ("cantor:8", "ordinal:2:5", "random:7:200:2", ...)
# ---------------------------------------------------------------------------

def generate_from_spec(spec: str) -> SpaceInstance:
    parts = spec.split(":")
    kind, args = parts[0], parts[1:]
    try:
        if kind == "cantor":
            space = cantor_instance(int(args[0]))
            space.fields["f"] = block_parity_field(space)
            return space
        if kind == "ordinal":
            k = int(args[0])
            branching = int(args[1]) if len(args) > 1 else 10
            space = ordinal_instance(k, branching)
            space.subsets["Y"] = space.full_mask()
            space.fields["f"] = rank_parity_field(space)
            space.fields["pos"] = scaled_position_field(space)
            return space
        if kind == "random":
            seed, n = int(args[0]), int(args[1])
            dim = int(args[2]) if len(args) > 2 else 2
            space = random_instance(seed, n, dim)
            space.subsets["Y"] = space.full_mask()
            space.fields["f"] = random_field(space, seed + 1)
            return space
        if kind == "sequence":
            count = int(args[0]) if args else 10
            space = sequence_space(count)
            space.subsets["Y"] = space.full_mask()
            space.fields["f"] = indicator_field(space, [space.meta["limit"]])
            return space
        if kind == "adversarial":
            space, _f, _p, _q, _eps, _delta = adversarial_union_fixture()
            return space
    except (IndexError, ValueError) as exc:
        raise ValidationError(f"bad generator spec {spec!r}: {exc}") from None
    raise ValidationError(f"unknown generator kind {kind!r}")
