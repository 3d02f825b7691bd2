"""Extension constructions: every method takes a field on a subset Y and
returns a field on the whole space that restricts to it exactly.

All methods finish with an exact patch on Y (the construction value is
overwritten by f and the largest overwrite magnitude is logged), so the
restriction identity is a hard invariant rather than a limit statement.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import InvariantError, PreconditionError, ValidationError
from .space import (
    AdaptiveScale,
    ScalarField,
    SpaceInstance,
    SubsetMask,
    _row_chunks,
    _run_components,
    cb_filtration,
    visibility_graph,
)
from .derive import iterate, osc_at_point
from .unity import blend, cover_for_piece, partition

CLOPEN_FAMILIES = ("cantor", "ordinal", "sequence")
# Cantor hat sums: a center whose cylinder has fewer members than this joins
# the flat (center, member) pairs of its run; a larger one adds to its
# cylinder's slice.  On cantor depth 12 (2-core x86-64, numpy 2.4, median of
# 5) the hat sums of ``ex1 --depths 12`` took 0.055 s at 256 and 512,
# 0.066 s at 128, 0.073 s at 1024 and 0.089 s at 2048; at 4096 the
# 1024-2048-member cylinders of layer 1 went flat and they took 0.137 s.
_FLAT_BELOW = 512
# Pairs per flat batch, and per row block of a run of large centers on one
# slice.  Same host: at 2^14 ``ex1 --depths 6,8,10,12`` peaked at 42 MB RSS
# and the depth-12 sums took 0.056 s; 2^12 took 0.105 s, and 2^16 took
# 0.059 s but peaked at 46 MB.
_FLAT_PAIRS = 1 << 14


@dataclass
class ExtensionReport:
    """Output field plus the evidence that the construction behaved."""

    method: str
    field: ScalarField  # patched: restricts to f on Y exactly
    prepatch: ScalarField | None
    restriction_error: float  # exact max |F - f| on Y after patching (0)
    patch_magnitude: float  # max overwrite applied on Y
    diagnostics: dict = dc_field(default_factory=dict)  # plain Python values, emitted as they are
    assertion_log: list = dc_field(default_factory=list)

    def to_dict(self):
        return {
            "method": self.method,
            "restriction_error": self.restriction_error,
            "patch_magnitude": self.patch_magnitude,
            "diagnostics": dict(self.diagnostics),
            "assertion_log": list(self.assertion_log),
        }


def _check_subset_field(Y: SubsetMask, f: ScalarField):
    if Y.space is not f.space:
        raise ValidationError("Y and f are bound to different spaces")
    if not Y.issubset(f.domain):
        raise PreconditionError("Y is not contained in the field domain")


def _patched(space, Y, f, pre_values, method, diagnostics):
    pre = ScalarField(space.full_mask(), pre_values)
    patched_values = pre_values.copy()
    patch = 0.0
    if not Y.is_empty():
        patch = float(np.max(np.abs(pre_values[Y.mask] - f.values[Y.mask])))
        patched_values[Y.mask] = f.values[Y.mask]
    out = ScalarField(space.full_mask(), patched_values)
    err = float(np.max(np.abs(out.values[Y.mask] - f.values[Y.mask]))) if not Y.is_empty() else 0.0
    return ExtensionReport(
        method=method,
        field=out,
        prepatch=pre,
        restriction_error=err,
        patch_magnitude=patch,
        diagnostics=diagnostics,
    )


def nearest_in_set(space: SpaceInstance, target: SubsetMask):
    """Per point: (nearest target id, distance); ties go to the smallest id."""
    tids = target.ids()
    if tids.size == 0:
        raise PreconditionError("target set is empty")
    return space.metric.nearest(np.arange(space.n), tids)


# ---------------------------------------------------------------------------
# Glue (piecewise cover) extension
# ---------------------------------------------------------------------------

def glue_extension(space: SpaceInstance, Y: SubsetMask, f: ScalarField,
                   epsilon: float, policy) -> ExtensionReport:
    """Extend f by blending over one cover per derivation level.

    Requires the pair-step trace of f on Y to empty at this epsilon.  Each
    level-beta piece gets a cover avoiding the next level, a hat partition,
    and the blend of the piece's own f values; pieces are pasted first-come
    and the rest of the space gets 0.  Pre-patch, the result is bounded by
    ||f|| and stays within epsilon of f on Y; both are verified.
    """
    _check_subset_field(Y, f)
    if Y.is_empty():
        raise PreconditionError("Y must be nonempty")
    fY = f.restrict(Y)
    trace = iterate("pair", fY, epsilon, Y, policy)
    if trace.terminal[0] != "emptied":
        raise PreconditionError(
            f"derivation trace {trace.terminal[0]} at epsilon={epsilon}; "
            "the glue construction needs a finite index"
        )
    alpha = trace.index
    pre = np.zeros(space.n)
    assigned = np.zeros(space.n, dtype=bool)
    piece_sizes = []
    for beta in range(alpha):
        ybeta = trace.levels[beta]
        ynext = trace.levels[beta + 1]
        cover = cover_for_piece(space, ybeta, ynext, fY, epsilon)
        pou = partition(space, cover)
        anchors = [fY.values[c] for c, _r in cover.elements]
        fbeta = blend(pou, anchors)
        sel = fbeta.domain.mask & ~assigned
        pre[sel] = fbeta.values[sel]
        assigned |= fbeta.domain.mask
        piece_sizes.append((ybeta - ynext).size)
    norm_f = fY.norm()
    norm_pre = float(np.max(np.abs(pre))) if space.n else 0.0
    if norm_pre > norm_f:
        raise InvariantError(f"pre-patch norm {norm_pre} exceeds ||f|| = {norm_f}")
    pre_err = float(np.max(np.abs(pre[Y.mask] - fY.values[Y.mask])))
    if pre_err > epsilon:
        raise InvariantError(f"pre-patch error {pre_err} on Y exceeds epsilon={epsilon}")
    diagnostics = {
        "alpha": alpha,
        "epsilon": float(epsilon),
        "policy": policy.describe(),
        "piece_sizes": piece_sizes,
        "norm_f": norm_f,
        "norm_prepatch": norm_pre,
        "prepatch_error_on_Y": pre_err,
        "covered_points": int(assigned.sum()),
    }
    return _patched(space, Y, fY, pre, "glue", diagnostics)


# ---------------------------------------------------------------------------
# Iterated (geometric series) extension
# ---------------------------------------------------------------------------

def iterated_extension(space: SpaceInstance, Y: SubsetMask, f: ScalarField,
                       policy, rounds: int) -> ExtensionReport:
    """Sum of glue extensions of the running residual at epsilon = 2^-n.

    Round n extends the residual f - sum(g_i) with the unpatched glue
    output, which keeps the norm chain
    ||g_{n+1}|| <= ||f - sum_{i<=n} g_i||_Y <= 2^-n exact; the chain is
    asserted every round.

    The series ends at the first round that leaves the residual on Y
    exactly zero, and the rounds left record a residual norm of 0.0.  That
    is exact, not a truncation: every later round would extend the zero
    field, whose trace is [Y, empty] at any epsilon and whose cover radius
    is half the cap (no smaller than any radius the first round used), so
    every anchor is +-0.0, the blend is +-0.0 everywhere, and adding it
    leaves the running total unchanged bit for bit (the total starts at
    +0.0 and a sum is -0.0 only when both terms are).  Each check such a
    round would run holds trivially, so the output is the same.
    """
    if rounds < 1:
        raise ValidationError("rounds must be >= 1")
    if rounds > 1074:  # 2^-1074 is the smallest positive double
        raise ValidationError(f"rounds must be at most 1074 (2^-1075 underflows to 0.0), got {rounds}")
    _check_subset_field(Y, f)
    fY = f.restrict(Y)
    total = np.zeros(space.n)
    residual_norms = []
    residual = fY
    for nround in range(1, rounds + 1):
        eps = 2.0**-nround
        try:
            rep = glue_extension(space, Y, residual, eps, policy)
        except PreconditionError as exc:
            raise PreconditionError(f"round {nround}: {exc}") from None
        g = rep.prepatch
        if g.norm() > residual.norm():
            raise InvariantError(f"round {nround}: ||g|| exceeds the residual norm")
        total = total + g.values
        residual = ScalarField(Y, np.where(Y.mask, fY.values - total, np.nan))
        rnorm = residual.norm()
        residual_norms.append(rnorm)
        if rnorm > eps:
            raise InvariantError(
                f"round {nround}: residual norm {rnorm} exceeds 2^-{nround}"
            )
        if rnorm == 0.0:
            # Every later round would glue the zero field and add +-0.0 to
            # the total, which leaves it unchanged (see the docstring).
            residual_norms += [0.0] * (rounds - nround)
            break
    diagnostics = {
        "rounds": int(rounds),
        "policy": policy.describe(),
        "residual_norms": residual_norms,
    }
    return _patched(space, Y, fY, total, "iterated", diagnostics)


# ---------------------------------------------------------------------------
# Limsup baseline
# ---------------------------------------------------------------------------

def limsup_extension(space: SpaceInstance, Y: SubsetMask, f: ScalarField) -> ExtensionReport:
    """Upper envelope over the smallest dyadic ball that meets Y.

    The radius grid stops strictly above the resolution floor: balls at or
    below the floor see single points, which would collapse the envelope
    into a nearest-anchor map and lose the sup semantics.
    """
    _check_subset_field(Y, f)
    if Y.is_empty():
        raise PreconditionError("Y must be nonempty")
    fY = f.restrict(Y)
    diam = max(space.diameter(), space.resolution)
    j_top = -int(math.ceil(math.log2(diam))) - 1  # radius 2**-j_top > diameter
    j_bot = int(math.floor(math.log2(1.0 / space.resolution)))
    if 2.0**-j_bot <= space.resolution:
        j_bot -= 1  # smallest grid radius stays strictly above the floor
    if j_bot < j_top:
        j_bot = j_top
    _nearest, dY = nearest_in_set(space, Y)
    radius_grid = [2.0**-j for j in range(j_top, j_bot + 1)]
    # Per point the smallest grid radius above dY, capped at 2^-j_top.
    grid = np.array(radius_grid[::-1])
    radii = grid[np.minimum(np.searchsorted(grid, dY, side="right"), grid.size - 1)]
    yids = Y.ids()
    pre, _minv = space.metric.ball_extremes(np.arange(space.n), radii, yids, fY.values[yids])
    diagnostics = {
        "radius_grid": radius_grid,
        "max_radius_used": float(radii.max()),
    }
    return _patched(space, Y, fY, pre, "limsup", diagnostics)


# ---------------------------------------------------------------------------
# Nearest-point retraction
# ---------------------------------------------------------------------------

def retract_extension(space: SpaceInstance, f_on_closed: ScalarField) -> ExtensionReport:
    """Compose with the nearest-point map onto a domain closed at resolution."""
    D = f_on_closed.domain
    if D.is_empty():
        raise PreconditionError("the field domain is empty")
    nearest, dist = nearest_in_set(space, D)
    outside = ~D.mask
    if np.any(dist[outside] < space.resolution):
        i = int(np.flatnonzero(outside & (dist < space.resolution))[0])
        raise PreconditionError(
            f"domain is not closed at resolution: point {i} lies within "
            f"{space.resolution} of the domain"
        )
    pre = f_on_closed.values[nearest]
    diagnostics = {"domain_size": D.size}
    return _patched(space, D, f_on_closed, pre, "retract", diagnostics)


# ---------------------------------------------------------------------------
# Layered extension
# ---------------------------------------------------------------------------

@dataclass
class LayerState:
    """One layer of the shrinking-ball construction.

    ``values`` is given either as an array or as a function of no arguments
    that computes it at the first read.  The construction gives every layer
    a function, so a layer's hat sums run once if something reads its
    values and not at all otherwise (layer 0's are n^2 pairs, which only a
    point left in layer 0 reads).
    """

    k: int
    centers: np.ndarray  # S_k
    depths: np.ndarray  # n_k per center (ball radius 2^-n)
    carrier: SubsetMask  # X_k, the points some support covers
    _values: object  # F_k over the space, NaN off the carrier, or the function computing it
    level_numbers: np.ndarray  # l_k per carrier point
    min_prev_level: np.ndarray | None  # min l_{k-1} over covering elements

    @property
    def values(self) -> np.ndarray:
        if callable(self._values):
            self._values = self._values()
        return self._values


def layered_extension(space: SpaceInstance, Y: SubsetMask, f: ScalarField,
                      policy=None, max_layers: int = 24) -> ExtensionReport:
    """Layered shrinking-ball extension of a function continuous on dense Y.

    Builds successive ball covers B(s, 2^-n_k(s)) with hat partitions and
    nearest-Y anchors; a point proceeds to the next layer while its local
    oscillation (at resolution, over Y) beats 2^-l and a deeper admissible
    ball exists.  The two-layer difference bounds are asserted during
    construction and abort on failure.  ``policy`` is recorded for
    provenance; the construction itself uses the dyadic radii.
    """
    _check_subset_field(Y, f)
    if Y.is_empty():
        raise PreconditionError("Y must be nonempty")
    if max_layers < 1:
        raise ValidationError("max_layers must be >= 1")
    fY = f.restrict(Y)
    nearest_y, dY = nearest_in_set(space, Y)
    worst = int(np.argmax(dY))
    if dY[worst] > space.resolution:
        raise PreconditionError(
            f"Y is not dense at resolution: point {worst} is at distance "
            f"{dY[worst]} > {space.resolution}; compose with retract_extension instead"
        )
    if dY[worst] >= 2.0:
        raise PreconditionError(f"point {worst} is at distance {dY[worst]} >= 2 from Y: layer 0's "
                                "anchors must lie in its doubled radius-1 balls")
    # Anchors live in the doubled element ball (the one the oscillation
    # condition controls); at the resolution floor the single-radius rule
    # deadlocks against that condition and strands points in coarse layers.
    n_max = int(math.ceil(math.log2(1.0 / space.resolution))) + 4
    backend = _CantorSupports if space.metric.kind == "cantor" else _GenericSupports
    layers = _layered(space, Y, fY, max_layers, n_max, nearest_y, dY, backend)

    _assert_layer_bounds(space, Y, fY, layers)

    deepest = np.zeros(space.n, dtype=np.int64)
    for st in layers[1:]:
        deepest[st.carrier.mask] = st.k
    pre = np.empty(space.n)
    for k, st in enumerate(layers):
        sel = deepest == k
        if sel.any():  # a layer nothing ends in keeps its values unread
            pre[sel] = st.values[sel]
    k_star = int(deepest[Y.mask].min())
    diagnostics = {
        "layers": len(layers),
        "layer_sizes": [int(st.centers.size) for st in layers],
        "carrier_sizes": [st.carrier.size for st in layers],
        "k_star": k_star,
        "n_max": n_max,
        "policy": policy.describe() if policy is not None else None,
    }
    report = _patched(space, Y, fY, pre, "layered", diagnostics)
    if report.patch_magnitude > 2.0 ** (1 - k_star):
        fy = fY.values[Y.mask]
        if k_star == 0 and np.ptp(fy) > 2.0:  # F_0 mixes f over Y: off by at most f's range there
            worst = int(Y.ids()[np.argmax(np.abs(pre[Y.mask] - fy))])
            raise PreconditionError(
                f"f ranges over {np.ptp(fy)} > 2 on Y, and point {worst} of Y stays in layer 0, whose values "
                f"mix f over Y: its patch {report.patch_magnitude} exceeds the bound 2^(1-0)"
            )
        raise InvariantError(
            f"patch magnitude {report.patch_magnitude} exceeds the geometric "
            f"bound 2^(1-{k_star})"
        )
    return report


def _assert_layer_bounds(space, Y, fY, layers):
    """Two-layer difference bounds; a failure is an implementation bug."""
    log = []
    for j in range(1, len(layers)):
        sj = layers[j]
        if sj.min_prev_level is None:
            continue
        bound_pair = 2.0 ** (1.0 - sj.min_prev_level)
        bound_y = 2.0 ** (-sj.min_prev_level)
        for m in range(j + 1, len(layers)):
            sm = layers[m]
            sel = sm.carrier.mask
            diff = np.abs(sj.values[sel] - sm.values[sel])
            bad = diff >= bound_pair[sel]
            if np.any(bad):
                idx = int(np.flatnonzero(sel)[np.flatnonzero(bad)[0]])
                log.append(f"layer pair ({j},{m}): |F_{j}-F_{m}| bound fails at point {idx}")
        if j + 1 < len(layers):
            sel = Y.mask & layers[j + 1].carrier.mask
            if np.any(sel):
                diff = np.abs(sj.values[sel] - fY.values[sel])
                bad = diff >= bound_y[sel]
                if np.any(bad):
                    idx = int(np.flatnonzero(sel)[np.flatnonzero(bad)[0]])
                    log.append(f"layer {j}: |F_{j}-f| bound fails on Y at point {idx}")
    if log:
        raise InvariantError("layer difference bounds failed: " + "; ".join(log))


def _layered(space, Y, fY, max_layers, n_max, nearest_y, dist_y, backend):
    """The layer loop, with the two kernels and the support test of ``backend``.

    Layer 0 puts a ball of radius 1 on every point.  Every center's anchor
    is its nearest Y point, which must lie in the doubled ball.  The carrier
    is the points some support covers (``lmax >= 0``): each hat weight
    r - d with d < r is a positive float, so that is where den > 0.  The
    next centers are the carrier points x whose oscillation at resolution
    beats 2^-l_x, each at the smallest depth n in [l_x, n_max] whose doubled
    ball B(x, 2^(1-n)) meets Y with oscillation below 2^-l_x and passes the
    backend's support test.  Every layer is handled alike: ``supports``
    runs at once for the carrier, the levels and the layer's cover, which
    ``next_depths`` reads and the loop then drops; the layer's values are
    a function that runs ``hat_sums`` at the first read.
    """
    n = space.n
    sup = backend(space, Y, fY)
    # spread[n - 1]: the oscillation of f over Y in each point's doubled ball
    # at depth n, radius 2^(1-n); -inf where it misses Y.
    yids = Y.ids()
    grid = 2.0 ** -np.arange(max(n_max, 0))
    spread = np.subtract(*space.metric.grid_extremes(np.arange(n), grid, yids, fY.values[yids]))
    tried = np.arange(1, spread.shape[0] + 1)
    centers = np.arange(n)
    depths = np.zeros(n, dtype=np.int64)
    layers = []
    l_prev = None
    for k in range(max_layers):
        anchored = dist_y[centers] < 2.0 ** (1.0 - depths)  # anchors live in the doubled ball
        if not anchored.all():
            s = int(centers[np.argmin(anchored)])
            raise InvariantError(f"layer {k}: no anchor candidate near {s}")
        lmax, minlp, cover = sup.supports(centers, depths, l_prev)
        carrier_mask = lmax >= 0
        values = functools.partial(_hat_values, sup, centers, depths, fY.values[nearest_y[centers]], carrier_mask)
        lvl = np.where(carrier_mask, lmax + 1, 0).astype(np.int64)  # 0 off the carrier
        layers.append(LayerState(k, centers, depths, SubsetMask(space, carrier_mask),
                                 values, lvl, None if l_prev is None else minlp))
        members = np.flatnonzero(carrier_mask)
        cand = members[sup.osc_res[members] < 2.0 ** -lvl[members].astype(float)]
        if cand.size == 0 or k + 1 >= max_layers:
            break
        lx = lvl[cand, None]
        osc = spread[:, cand].T
        chosen = sup.next_depths(cover, cand, (tried >= lx) & (osc >= 0) & (osc < 2.0 ** -lx.astype(float)))
        del cover  # before the next layer's supports builds its own
        if not (chosen >= 0).any():
            break
        centers = cand[chosen >= 0]
        depths = chosen[chosen >= 0]
        l_prev = lvl
    return layers


def _hat_values(sup, centers, depths, a, carrier):
    """A layer's values F_k: the hat sums' ratio on the carrier, NaN off it."""
    num, den = sup.hat_sums(centers, depths, a)
    return np.where(carrier, num / np.where(carrier, den, 1.0), np.nan)


class _GenericSupports:
    """Supports of the layered construction from ``Metric.ball_pairs``, on any metric.

    Two kernels walk the (center, member) pairs of ``ball_pairs``, each on
    its own pass.  ``supports`` gives the covering depths and the layer's
    cover, which ``next_depths`` reads: the points x centers covering
    matrix as packed bits, one per (point, center), in the layout of
    ``np.packbits(..., axis=1, bitorder="little")``.  Center k is bit
    ``k & 7`` of byte ``k >> 3`` in its point's row, and the padding bits
    are zero, so a walked layer of m centers holds n * ceil(m / 8) bytes.
    A layer whose every radius exceeds the diameter, which bounds
    every computed distance, covers every point with every support: its
    cover is None, ``supports`` walks no pairs, and ``next_depths`` makes
    no pair pass, since no point can leave or enter a support.  Layer 0's
    radius-1 balls are such a layer on every space of diameter below 1, the
    ordinal ladders among them; on wider spaces that pass is n^2 pairs.
    Accumulation-order contract: each point's hat sums add its
    centers' terms one at a time in center order, starting from 0, as a
    per-center loop does: the pairs in ``ball_pairs`` order, fed to
    ``np.add.at``.
    """

    def __init__(self, space, Y, fY):
        self.metric = space.metric
        self.diameter = space.diameter()
        self.everything = np.arange(space.n)
        self.osc_res = np.array([osc_at_point(fY, x, Y, space.resolution) for x in range(space.n)])

    def supports(self, centers, depths, l_prev):
        """The deepest covering depth and min l_prev per point (-1 and inf where
        no support covers it), and the covering matrix as packed bits (None:
        all set)."""
        n = self.everything.size
        if 2.0 ** -float(depths.max()) > self.diameter:
            minlp = np.inf if l_prev is None else float(l_prev[centers].min())
            return np.full(n, depths.max(), dtype=np.int64), np.full(n, minlp), None
        lmax = np.full(n, -1, dtype=np.int64)
        minlp = np.full(n, np.inf)
        covering = np.zeros((n, (centers.size + 7) >> 3), dtype=np.uint8)
        for rows, ids, _d in self.metric.ball_pairs(centers, 2.0 ** -depths.astype(float), self.everything):
            np.maximum.at(lmax, ids, depths[rows])
            if l_prev is not None:
                np.minimum.at(minlp, ids, l_prev[centers[rows]])
            # Each (center, member) pair comes once, so adding its bit sets it.
            np.add.at(covering.reshape(-1), ids * covering.shape[1] + (rows >> 3),
                      np.uint8(1) << (rows.astype(np.uint8) & 7))
        return lmax, minlp, covering

    def hat_sums(self, centers, depths, a):
        """Hat sums num and den per point."""
        n = self.everything.size
        radii = 2.0 ** -depths.astype(float)
        num = np.zeros(n)
        den = np.zeros(n)
        for rows, ids, d in self.metric.ball_pairs(centers, radii, self.everything):
            w = radii[rows] - d
            np.add.at(num, ids, w * a[rows])
            np.add.at(den, ids, w)
        return num, den

    def next_depths(self, cover, cand, ok):
        """Per candidate x: the first depth n with ``ok[x, n - 1]`` that passes, or -1.

        The small ball B(x, 2^-n) must stay inside every support covering x,
        and the doubled ball must miss all other supports.  ``cover`` is the
        packed covering matrix of ``supports``: a point leaves or enters a
        support where its row and x's differ in a bit, tested a byte at a
        time, and each row chunk's budget counts bytes.
        """
        chosen = np.full(cand.size, -1, dtype=np.int64)
        tried = np.arange(1, ok.shape[1] + 1)
        small = 2.0 ** -tried.astype(float)
        wide = 2.0 * small
        live = np.flatnonzero(ok.any(axis=1))
        if live.size == 0:  # no depth in play; ok may have no columns at all
            return chosen
        d_out, d_in = np.full((2, live.size), np.inf)
        # Only the largest doubled ball still in play needs support tests.
        # Where every support covers every point, no point leaves or enters
        # one, and there is no pair to test.
        if cover is not None:
            for r, p, d in self.metric.ball_pairs(cand[live], wide[np.argmax(ok[live], axis=1)], self.everything):
                k = cand[live[r]]
                for plo, phi in _row_chunks(r.size, cover.shape[1]):
                    cov_x = cover[k[plo:phi]]
                    cov = cover[p[plo:phi]]
                    leaves = (cov_x & ~cov).any(axis=1)  # leaves a support covering x
                    enters = (cov & ~cov_x).any(axis=1)  # enters a support not covering x
                    np.minimum.at(d_out, r[plo:phi][leaves], d[plo:phi][leaves])
                    np.minimum.at(d_in, r[plo:phi][enters], d[plo:phi][enters])
        good = ok[live] & (small <= d_out[:, None]) & (wide <= d_in[:, None])
        hit = good.any(axis=1)
        chosen[live[hit]] = tried[np.argmax(good[hit], axis=1)]
        return chosen


class _CantorSupports:
    """Supports of the layered construction from cylinder arithmetic, for the prefix metric.

    The metric's code order gives ``adj[p]``, the common-prefix length of
    sorted positions p - 1 and p, and its cylinders, the runs of
    ``adj >= c``.  ``table[c, p]`` is the c-cylinder of sorted position p,
    for every length c up to the width, as an index into ``bounds``, the
    cylinder bounds of every length laid end to end: the cylinder holds
    the sorted positions ``bounds[g]`` up to ``bounds[g + 1]``.  Supports
    are contiguous ranges of sorted positions, the ball-nesting condition
    holds automatically once n >= l, and a candidate passes the support
    test at the depths above its floor: 1 + the longest prefix length it
    shares with a center whose support misses it.

    Along a center's c-cylinder, the members at distance 2^-(c'+1), the
    c'-cylinder minus the (c'+1)-cylinder for c <= c' < width, are one run
    on each side of the center's width-cylinder, which is at distance 0.
    So a center's distances over its support are 2 (width - c) + 1 pieces,
    each one constant, whose lengths the table gives.

    Accumulation-order contract: each member adds its centers' terms one at
    a time, in the order the centers are given (id order), starting from
    +0.0.  The hat sums walk the centers in that order along two paths that
    interleave.  A maximal run of consecutive centers whose cylinder, one
    slice, has at least ``_FLAT_BELOW`` members is cut into row blocks of
    at most ``_FLAT_PAIRS`` pairs; each row of a block is its center's hat
    weights over the slice, repeated from the pieces.  The slice's running
    sums are added to the first row, and the block is reduced along axis 0
    into the slice.  That reduction runs over a C-contiguous block, so numpy
    adds it row by row (pairwise summation applies only along a contiguous
    reduction axis); a slice of one member holds one distinct center, so
    its block has one row.  Each run of smaller centers between them is laid
    out as flat (center, member) pairs, center-major, cut into batches of at
    most ``_FLAT_PAIRS`` pairs, weighted through the metric's ``code_dist``
    and fed to ``np.add.at``, which adds them in that order.

    ``supports`` (covering depths and min previous levels) marks each
    center's cylinder and carries the marks down the cylinder tree, one
    length at a time, and the layer's cover, which ``next_depths`` reads,
    is its centers and depths.  So at layer 0, where every cylinder is the
    whole space, the n^2 pairs are all in the hat sums.
    """

    def __init__(self, space, Y, fY):
        metric = space.metric
        n = space.n
        self.width = width = metric.width
        self.rank, self.code_dist = metric.rank, metric.code_dist
        self.sorted_code = np.empty_like(metric.code)
        self.sorted_code[metric.rank] = metric.code
        # The metric's cylinders at every length, held while the construction runs.
        self.table = np.empty((width + 1, n), dtype=np.int32)
        bounds = []
        start = 0
        for c in range(width + 1):
            cyl, b = metric.cylinders(c)
            self.table[c] = cyl + start
            bounds.append(b)
            start += b.size
        self.bounds = np.concatenate(bounds)
        yids = Y.ids()
        hi, lo = metric.ball_extremes(np.arange(n), np.full(n, space.resolution), yids, fY.values[yids])
        self.osc_res = np.maximum(hi - lo, 0.0)

    def _supports_of(self, centers, depths):
        """Each center's support: its cylinder at its depth, capped at the
        width, as an index into ``bounds``."""
        return self.table[np.minimum(depths, self.width), self.rank[centers]]

    def supports(self, centers, depths, l_prev):
        """The deepest covering depth and min l_prev per point (-1 and inf where
        no support covers it), and the cover: the centers and depths."""
        cyl = self._supports_of(centers, depths)
        lmax = self._fold_down(cyl, depths, np.maximum, -1)
        if l_prev is None:
            return lmax, np.full(self.rank.size, np.inf), (centers, depths)
        return lmax, self._fold_down(cyl, l_prev[centers], np.minimum, np.inf), (centers, depths)

    def _fold_down(self, cyl, values, fold, empty):
        """Per point by id, ``fold`` of the ``values`` of the supports ``cyl``
        covering it, ``empty`` where none does.  Each support's cylinder is
        marked, and the marks go down the cylinder tree one length at a
        time: each (c+1)-cylinder takes in those of the c-cylinder it lies
        in, found at its first sorted position."""
        marks = np.full(self.bounds.size, empty, dtype=np.result_type(values, empty))
        fold.at(marks, cyl, values)
        for c in range(self.width):
            kids = slice(self.table[c + 1, 0], self.table[c + 1, -1] + 1)
            fold(marks[kids], marks[self.table[c, self.bounds[kids]]], out=marks[kids])
        return marks[self.table[self.width, self.rank]]

    def hat_sums(self, centers, depths, a):
        """Hat sums num and den by id."""
        cyl = self._supports_of(centers, depths)
        lo, hi = self.bounds[cyl], self.bounds[cyl + 1]
        # Indexed by sorted position until the return, in center order: each
        # run of consecutive large centers on one slice adds to that slice
        # in row blocks, and each run of small ones between them goes
        # through flat pairs in batches.
        n = self.rank.size
        r = 2.0 ** -depths.astype(float)
        num = np.zeros(n)
        den = np.zeros(n)
        pos = self.rank[centers]
        size = hi - lo
        before = np.r_[0, np.cumsum(size)]  # pairs of the centers before each
        # A center on the slice of the one before it is as large as that one.
        same = np.r_[False, (lo[1:] == lo[:-1]) & (hi[1:] == hi[:-1])]
        breaks = np.r_[np.flatnonzero(~same), centers.size]
        i = 0
        for g in np.r_[np.flatnonzero((size >= _FLAT_BELOW) & ~same), centers.size].tolist():
            while i < g:  # the small centers before the run starting at g
                j = np.searchsorted(before, before[i] + _FLAT_PAIRS, side="right") - 1
                j = min(max(int(j), i + 1), g)
                self._flat_sums(num, den, pos[i:j], lo[i:j], size[i:j], r[i:j], a[i:j])
                i = j
            if g == centers.size:
                break
            b, e = int(lo[g]), int(hi[g])
            end = int(breaks[np.searchsorted(breaks, g, side="right")])
            # The slice is the cylinder of the run's shortest capped depth;
            # a center of a longer one has empty pieces down to it.
            c0 = min(int(depths[g:end].min()), self.width)
            d = np.ldexp(1.0, -np.arange(c0 + 1, self.width + 1))  # at common prefix c0 .. width - 1
            dist = np.concatenate([d, [0.0], d[::-1]])
            step = max(_FLAT_PAIRS // (e - b), 1)
            for k in range(g, end, step):
                rows = slice(k, min(k + step, end))
                w = r[rows, None] - dist
                lengths = self._piece_lengths(pos[rows], c0)
                for sums, terms in ((den, w), (num, w * a[rows, None])):
                    block = np.repeat(terms.ravel(), lengths).reshape(-1, e - b)
                    block[0] += sums[b:e]
                    np.add.reduce(block, axis=0, out=sums[b:e])
            i = end
        return num[self.rank], den[self.rank]

    def _piece_lengths(self, pos, c0):
        """The lengths of the pieces of the c0-cylinders of the centers at
        sorted positions ``pos``, in sorted order, row-major."""
        cyl = self.table[c0:, pos].T  # the cylinders at lengths c0 .. width
        edges = self.bounds[np.concatenate([cyl, cyl[:, ::-1] + 1], axis=1)]
        return (edges[:, 1:] - edges[:, :-1]).ravel()

    def _flat_sums(self, num, den, s, b, size, rk, ak):
        """Add several centers' terms through flat (center, member) pairs, center-major."""
        # Member positions: each center's cylinder start plus the offset
        # inside it.
        p = np.arange(size.sum()) + np.repeat(b - (np.cumsum(size) - size), size)
        w = np.repeat(rk, size) - self.code_dist(self.sorted_code[p], np.repeat(self.sorted_code[s], size))
        np.add.at(den, p, w)
        np.add.at(num, p, w * np.repeat(ak, size))

    def next_depths(self, cover, cand, ok):
        """Per candidate x: the first depth n with ``ok[x, n - 1]`` above x's floor, or -1.

        A center whose support misses x and that shares prefix length l
        with it lies in x's doubled ball at depth n exactly for n <= l + 1.
        x shares l with one when its l-cylinder holds more centers of capped
        depth above l than its (l + 1)-cylinder does.
        """
        centers, depths = cover
        cols = np.flatnonzero(ok.any(axis=0))
        if cols.size == 0:  # no depth in play; ok may have no columns at all
            return np.full(cand.size, -1, dtype=np.int64)
        floor = np.zeros(cand.size, dtype=np.int64)
        at, capped = self.rank[centers], np.minimum(depths, self.width)
        x = self.rank[cand]
        for c in range(int(cols[0]), self.width):  # shorter lengths decide nothing
            at, capped = at[capped > c], capped[capped > c]
            shared = [np.bincount(cyl[at] - cyl[0], minlength=cyl[-1] - cyl[0] + 1)[cyl[x] - cyl[0]]
                      for cyl in self.table[c:c + 2]]
            floor[shared[0] > shared[1]] = c + 1
        good = ok & (np.arange(1, ok.shape[1] + 1) > floor[:, None])
        return np.where(good.any(axis=1), np.argmax(good, axis=1) + 1, -1)


# ---------------------------------------------------------------------------
# Scattered (derived-set recursion) extension
# ---------------------------------------------------------------------------

def visibility_components(space: SpaceInstance, region, multiplier: float, labels=None):
    """Partition a region into components of the mutual-visibility graph.

    Two members are adjacent when their distance is below multiplier times
    the larger of their in-region nearest-neighbour scales, i.e. when either
    point's adaptive ball can reach the other.  Distinct components cannot
    interact at resolution: the finite rendering of a disjoint clopen cover.
    Components come as subsets in the order of their smallest member id.

    Where every ball is a run of the metric's order (the line, the prefix
    metric) the components are chains of overlapping runs, with no block
    larger than one ``_BLOCK_ELEMS`` block (``space._run_components``);
    other metrics label the dense ``visibility_graph`` block's components.
    On those two metrics ``region`` may also be member ids in run order
    with nondecreasing region ``labels``, each region a run of them: then
    no edge joins two regions, and each member gets its component's
    number, components being runs of ``region`` numbered along it.
    """
    if labels is not None:
        return _run_components(space, region, multiplier, labels)
    members = region.ids()
    if members.size <= 1:
        return [region]
    order = space.metric.run_order(members)
    if order is not None:
        comp = _run_components(space, order, multiplier)
        # Sorting the keys component * n + id leaves each component in its
        # run positions and lays its ids out in id order.
        base = comp * space.n
        ids = np.sort(base + order) - base
        starts = np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]])
        comps = np.split(ids, starts[1:])
        comps = [comps[i] for i in np.argsort(ids[starts])]
    else:
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        # Sparse input skips the masked-array check scipy runs on dense graphs.
        _count, labels = connected_components(csr_matrix(visibility_graph(space, members, multiplier)), directed=False)
        comps = np.split(members[np.argsort(labels, kind="stable")], np.cumsum(np.bincount(labels))[:-1])
    return [space.mask_from_ids(ids) for ids in comps]


def scattered_extension(space: SpaceInstance, Y: SubsetMask, f: ScalarField,
                        policy=None) -> ExtensionReport:
    """Extension over the derived-set structure of the space, in one loop.

    Only the shipped clopen-at-resolution metric families are accepted, on
    the line or the prefix metric, and the filtration of the whole space
    must empty.  The loop splits each region once into mutual-visibility
    components (the finite form of a disjoint clopen refinement), anchors
    the top-depth points of each component (own f value on Y; the nearest
    carrier value when the point sits inside the Y-closure at its own
    scale; 0 otherwise), and takes the component minus its top points as a
    region of the next generation.  Components whose Y part is empty are
    filled with 0.
    """
    _check_subset_field(Y, f)
    if space.family not in CLOPEN_FAMILIES or space.metric.run_order(np.arange(0)) is None:
        raise PreconditionError(
            f"metric family {space.family!r} is not clopen at resolution; "
            "the scattered construction is restricted to the shipped families"
        )
    policy = policy or AdaptiveScale(3.0)
    mult = policy.multiplier if isinstance(policy, AdaptiveScale) else 3.0
    probe = cb_filtration(space, space.full_mask(), policy)
    if not probe.emptied:
        raise PreconditionError("filtration saturates: space is not scattered at resolution")
    fY = f.restrict(Y)
    pre = np.zeros(space.n)
    stats = {"components": 0, "anchored_tops": 0, "default_zero_regions": 0}
    _scatter_region(space, space.full_mask(), Y, fY, policy, mult, pre, stats)
    diagnostics = {
        "filtration_depth": len(probe.filtration),
        "policy": policy.describe(),
        **stats,
    }
    return _patched(space, Y, fY, pre, "scattered", diagnostics)


def _scatter_region(space, region, Y, fY, policy, mult, out, stats):
    """Anchor every point of ``region`` in ``out``, one generation at a time.

    A generation holds every live region at once: their member ids in the
    metric's run order, and one region label per member.  Each region is a
    run of them, as components are runs and a generation keeps a
    subsequence of the last.  One ``visibility_components`` call splits
    them all, with no edge across two regions.  A component is one
    component of itself: restricting a region to it only raises in-set
    nearest distances, and ``mult * max(ls_x, ls_y)`` is monotone in
    floats, so every visibility edge survives (the clopen families compute
    each distance elementwise: 1-D Euclidean or prefix).  Components
    missing Y are filled with 0.  The others step their filtrations
    together, one labelled ``Metric.scales`` call per level, so each
    component's scales, level 0's too, are its own; a component's top
    level is the one whose step keeps none of it, and a step that keeps all
    of it saturates.  One labelled ``Metric.nearest``
    call finds each top point's nearest Y point in its component.  A
    one-level component takes those values at every member; in a deeper
    one a top point takes its own f value on Y, the nearest one when it
    sits inside the Y-closure at its level-0 scale, 0 otherwise, and the
    rest is a region of the next generation.
    """
    metric, in_y = space.metric, Y.mask
    ids = metric.run_order(region.ids())
    lab = np.zeros(ids.size, dtype=np.int64)
    scale = np.zeros(space.n)  # a level's scales by id; a member alone reads scale[-1], any value >= 0 serves
    while ids.size:
        comp = visibility_components(space, ids, mult, lab)
        y = in_y[ids]
        meets = np.logical_or.reduceat(y, np.flatnonzero(np.r_[True, comp[1:] != comp[:-1]]))
        live = meets[comp]
        stats["components"] += int(meets.size)
        stats["default_zero_regions"] += int(meets.size - np.count_nonzero(meets))
        out[ids[~live]] = 0.0
        top, single = np.zeros((2, ids.size), dtype=bool)
        ls0 = np.empty(ids.size)
        level, first = np.flatnonzero(live), True
        while level.size:
            members, labels = ids[level], comp[level]
            ls, nn = metric.scales(members, labels)
            scale[members] = ls
            keep = policy.survivors(ls, scale[nn])
            cut = np.r_[True, labels[1:] != labels[:-1]]
            heads = np.flatnonzero(cut)
            if np.logical_and.reduceat(keep, heads).any():
                raise PreconditionError("a recursion region is not scattered at resolution")
            top[level[~np.logical_or.reduceat(keep, heads)[np.cumsum(cut) - 1]]] = True
            if first:
                ls0[level], single[:] = ls, top
            level, first = level[keep], False
        tops = np.flatnonzero(top)
        if tops.size:
            nearest_y, dist_y = metric.nearest(ids[tops], ids[y], (comp[tops], comp[y]))
            near = single[tops] | (dist_y <= mult * ls0[tops])  # inside the Y-closure at its scale
            out[ids[tops]] = np.where(near, fY.values[nearest_y], 0.0)
            stats["anchored_tops"] += int(tops.size - np.count_nonzero(single[tops]))
        rest = np.flatnonzero(live & ~top)
        ids, lab = ids[rest], comp[rest]
