"""Finite metric spaces, their kernels, and derived-set filtrations.

A space is a finite point set with a total metric given either as a dense
matrix, as Euclidean coordinates, or as the prefix metric on eventually
constant binary sequences.  All balls are open (strict inequality); ties at
exactly the radius are excluded.  Distances are ordinary 64-bit floats and
are compared exactly, so fixtures are built from dyadic or triadic rationals.
Point-set masks and scalar fields live in ``subsets`` and are re-exported.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import PreconditionError, ValidationError
from .subsets import ScalarField, SubsetMask, _distinct_sorted, _in_sorted, _increasing

EXHAUSTIVE_TRIANGLE_LIMIT = 500
TRIANGLE_SAMPLES_PER_POINT = 10
_EXACT_DIAMETER_LIMIT = 4096
# Element budget of one distance block (rows x columns) in the chunked
# row-block kernels, and of one chunk of pairs on the line; bounds their
# temporaries whatever the input size.
_BLOCK_ELEMS = 1 << 16
# In two or more dimensions Euclidean kernels query a kd-tree instead of
# distance row blocks: nearest points above _KD_SCALE_MEMBERS**2 queries x
# targets, ball extremes above _KD_BALL_MEMBERS targets.
_KD_SCALE_MEMBERS = 2048
_KD_BALL_MEMBERS = 3000


# ---------------------------------------------------------------------------
# Metric backends
# ---------------------------------------------------------------------------

class Metric:
    """The kernels every backend shares, read through ``dist_rows`` blocks.

    A backend provides ``n``, ``kind``, the scalar ``dist``, the block
    ``dist_rows``, its only row method, and ``diameter``, which is at least
    every distance: the constructions' finite stand-in for an absent
    constraint.  It overrides a kernel here only for a fast path.  Blocks
    are chunked by ``_row_chunks`` so their temporaries stay within
    ``_BLOCK_ELEMS``.
    """

    # How loading checks the triangle inequality; Euclidean and prefix
    # distances satisfy it by construction.
    triangle_check = "by_construction"

    def scales(self, m: np.ndarray, labels: np.ndarray | None = None):
        """Nearest-other-member distance and the neighbour's id, per member.

        With ``labels`` (run metrics only: ``m`` in run order, ``labels``
        nondecreasing) only members of one's own label count.  A member
        alone gets scale 0 and neighbour -1.
        """
        if labels is None:
            if m.size < 2:
                return np.zeros(m.size), np.full(m.size, -1, dtype=np.int64)
            return self._nearest_other(m, m)
        dist, nn = self._nearest_other(m, m, (labels, labels))
        cut = labels[1:] != labels[:-1]
        alone = np.r_[True, cut] & np.r_[cut, True]
        return np.where(alone, 0.0, dist), np.where(alone, -1, nn)

    def nearest(self, queries: np.ndarray, tids: np.ndarray, labels=None):
        """Per query: (nearest target id, distance); a target is its own nearest.

        Whether a query is a target is looked up in the sorted targets,
        sorted here only when they are not already.  With ``labels`` (query
        labels, target labels; run metrics only, the targets in run order
        with nondecreasing labels) only targets of a query's own label
        count, and each query's label must hold one.
        """
        ids = np.array(queries, dtype=np.int64)
        dist = np.zeros(ids.size)
        t = np.asarray(tids)
        q = np.flatnonzero(~_in_sorted(t if _increasing(t, strict=False) else np.sort(t), ids))
        sub = () if labels is None else ((labels[0][q], labels[1]),)
        dist[q], ids[q] = self._nearest_other(ids[q], tids, *sub)
        return ids, dist

    def _nearest_other(self, queries: np.ndarray, tids: np.ndarray):
        """Per query: (distance, id) of the nearest target other than itself.

        Ties go to the smallest id; at distance 0, which only coincident
        points under validation reach, a backend may name any of them.
        Every query must have a target other than itself.  The run metrics
        also take ``labels`` as in ``nearest``; a query alone in its label
        gets an arbitrary distance and id.
        """
        t = np.sort(tids)
        ids = np.empty(queries.size, dtype=np.int64)
        dist = np.empty(queries.size)
        for lo, hi in _row_chunks(queries.size, t.size):
            q = queries[lo:hi]
            rows = np.arange(hi - lo)
            block = self.dist_rows(q, t)
            pos = np.minimum(np.searchsorted(t, q), t.size - 1)
            own = t[pos] == q
            block[rows[own], pos[own]] = np.inf
            j = np.argmin(block, axis=1)  # first minimum = smallest id
            ids[lo:hi] = t[j]
            dist[lo:hi] = block[rows, j]
        return dist, ids

    def ball_pairs(self, centers: np.ndarray, radii: np.ndarray, targets: np.ndarray):
        """Yield (rows, cols, dist) for every target strictly inside each center's open ball.

        ``rows`` index ``centers``, counted from the first center, ``cols``
        index ``targets`` and ``dist`` is their ``dist_rows`` distance.  One
        ``_row_chunks`` block of centers per chunk; pairs come center-major
        with columns ascending (the ``np.nonzero`` order of the block).
        """
        for lo, hi in _row_chunks(centers.size, targets.size):
            block = self.dist_rows(centers[lo:hi], targets)
            rows, cols = np.nonzero(block < radii[lo:hi, None])
            yield rows + lo, cols, block[rows, cols]

    def run_order(self, members: np.ndarray):
        """``members`` in an order in which every open ball among them is a run, or None.

        Only the line and the prefix metric have such an order; their
        ``ball_runs`` find the runs.  Other backends return None.
        """
        return None

    def ball_extremes(self, queries: np.ndarray, radii: np.ndarray,
                      targets: np.ndarray, fvals: np.ndarray):
        """Per query: max and min of f over the targets inside its open ball.

        ``radii`` holds one radius per query and ``fvals`` one value per
        target; ``targets`` must be nonempty.  Empty balls yield max < min
        so every gap test fails for them.
        """
        maxv, minv = np.full((2, queries.size), [[-np.inf], [np.inf]])
        for rows, cols, _d in self.ball_pairs(queries, radii, targets):
            np.maximum.at(maxv, rows, fvals[cols])
            np.minimum.at(minv, rows, fvals[cols])
        return maxv, minv

    def grid_extremes(self, queries: np.ndarray, grid: np.ndarray, targets: np.ndarray, fvals: np.ndarray):
        """``ball_extremes`` at each radius of the descending ``grid``, one row per radius."""
        k, q = grid.size, queries.size
        rank, extremes = _f_ranks(fvals)
        # Row 0 starts below every rank, so -1 marks an empty ball; row 1 at its least rank.
        best = np.full((2, (k + 1) * q), [[-1], [1 - targets.size]])
        # The pairs inside the largest radius, binned by how many grid radii exceed each distance.
        for rows, cols, d in self.ball_pairs(queries, np.full(q, grid[0] if k else 0.0), targets):
            flat = (k - np.searchsorted(grid[::-1], d, side="right")) * q + rows
            np.maximum.at(best[0], flat, rank[0, cols])
            np.maximum.at(best[1], flat, rank[1, cols])
        # Radius j holds the targets of bins j + 1 .. k: running maxima from bin k back.
        best = np.maximum.accumulate(best.reshape(2, k + 1, q)[:, :0:-1], axis=1)[:, ::-1]
        return extremes(best, best[0] < 0)


class MatrixMetric(Metric):
    """Dense pairwise distance matrix."""

    kind = "matrix"

    def __init__(self, data: np.ndarray):
        self.data = np.ascontiguousarray(data, dtype=np.float64)
        self.n = self.data.shape[0]

    def dist(self, i: int, j: int) -> float:
        return float(self.data[i, j])

    def dist_rows(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.data[np.ix_(rows, cols)]

    def diameter(self) -> float:
        return float(self.data.max()) if self.n else 0.0

    @property
    def triangle_check(self) -> str:
        """Every triple up to ``EXHAUSTIVE_TRIANGLE_LIMIT`` points, random triples above."""
        return "exhaustive" if self.n <= EXHAUSTIVE_TRIANGLE_LIMIT else "sampled"


class EuclideanMetric(Metric):
    """Points in R^dim, with coordinate-order kernels on the line.

    On the line (dim 1) every open ball is a run of the targets in
    coordinate order: ``ball_pairs`` builds only the pairs inside each run,
    in chunks cut by their pair count, ``ball_extremes`` and
    ``grid_extremes`` are range max and min over the runs, and a query's
    nearest other target is at one of its sort neighbours, with ties found
    as a run (``_line_nearest``).  None of them has a kd path.  In two or
    more dimensions nearest points above ``_KD_SCALE_MEMBERS``^2 queries
    times targets, and ball extremes above ``_KD_BALL_MEMBERS`` targets, go
    through a kd-tree.  On the line the diameter is the two ends' distance.
    """

    kind = "euclidean"

    def __init__(self, coords: np.ndarray):
        self.coords = np.ascontiguousarray(coords, dtype=np.float64)
        if self.coords.ndim == 1:
            self.coords = self.coords[:, None]
        self.n = self.coords.shape[0]
        self._diameter = None

    def dist(self, i: int, j: int) -> float:
        return float(_euclidean(self.coords[i], self.coords[j]))

    def dist_rows(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return _euclidean(self.coords[rows][:, None, :], self.coords[cols][None, :, :])

    def _nearest_other(self, queries: np.ndarray, tids: np.ndarray, labels=None):
        """``Metric._nearest_other`` by size: dense row blocks up to one
        ``_BLOCK_ELEMS`` block of queries x targets on the line, or up to
        ``_KD_SCALE_MEMBERS``^2 in more dimensions; above, the sort neighbours
        of ``_line_nearest`` on the line and a kd-tree in more dimensions.
        Both give the dense blocks' distances, and their ids away from
        distance 0.  Labels (on the line only) always take the sort
        neighbours.
        """
        line = self.coords.shape[1] == 1
        if labels is None and queries.size * tids.size <= (_BLOCK_ELEMS if line else _KD_SCALE_MEMBERS**2):
            return super()._nearest_other(queries, tids)
        if line:
            return self._line_nearest(queries, tids, labels)
        from scipy.spatial import cKDTree

        k = tids.size
        dist, ids = np.empty(queries.size), np.empty(queries.size, dtype=np.int64)
        pts = self.coords[tids]
        tree = cKDTree(pts)
        # Candidates get the _euclidean distances.  Query more while
        # the farthest tree distance is within a relative 2^-40 of the nearest:
        # every tied neighbour must be seen for the smallest-id rule.  A row at
        # distance 0 stops after one query, so the cost does not grow with the
        # number of coincident points; its id is the smallest one seen.
        # The rounds run over blocks of rows whose first-round candidate
        # coordinates, rows x 4 x dim, fit _BLOCK_ELEMS.  When the queries are
        # the targets (``scales``) the rows go in the tree's leaf order, so
        # the queries of a block share tree nodes.
        order = tree.indices if queries is tids else np.arange(queries.size)
        for lo, hi in _row_chunks(queries.size, min(4, k) * pts.shape[1]):
            rows = order[lo:hi]
            kq = min(4, k)
            while rows.size:
                qpts = self.coords[queries[rows]]
                dkd, j = tree.query(qpts, k=kq, workers=-1)
                dkd, j = dkd.reshape(rows.size, kq), j.reshape(rows.size, kq)  # k = 1 gives 1-D arrays
                d = _euclidean(qpts[:, None, :], pts[j])
                d[tids[j] == queries[rows, None]] = np.inf
                near = d.min(axis=1)
                tie = d == near[:, None]
                dist[rows] = near
                ids[rows] = np.where(tie, tids[j], np.iinfo(np.int64).max).min(axis=1)
                if kq == k:
                    break
                rows = rows[(near > 0) & (dkd[:, -1] <= near * (1 + 2**-40))]
                kq = min(2 * kq, k)
        return dist, ids

    def _line_nearest(self, queries: np.ndarray, tids: np.ndarray, labels=None):
        """``_nearest_other`` on the line, from each query's neighbours in coordinate order.

        With the targets in run order, (coordinate, id), the computed distance
        never falls away from the query on either side (``_line_runs``), so the
        nearest distance D is the lesser of the two neighbours', skipping the
        query itself, and the targets at distance D are one run: the
        neighbours at D, and more only where the next target out is at D too.
        Only those queries search their run, exactly as the open ball of
        radius nextafter(D), for the smallest id in it other than their own, a
        range minimum over ids.  A query that is a target sits at its search
        position p unless a coincident target of smaller id does, whose id
        then wins anyway.  With ``labels`` every neighbour and run stays in
        the query's label's block [b0, b1) of the targets.
        """
        ids = tids if labels is not None else self.run_order(np.sort(tids))
        line, m = self.coords[ids, 0], ids.size
        c = self.coords[queries, 0]
        b0, b1 = (0, m) if labels is None else _label_blocks(labels)
        p = np.clip(np.searchsorted(line, c), b0, b1)  # line[b0:p] < c <= line[p:b1]
        own = (p < b1) & (ids[np.minimum(p, m - 1)] == queries)

        def gap(k):  # distance to the target at position k, inf outside the block
            return np.where((b0 <= k) & (k < b1), _euclidean(c[:, None], line[np.clip(k, 0, m - 1), None]), np.inf)

        left, right = p - 1, p + own  # the neighbours, past the query itself
        dl, dr = gap(left), gap(right)
        dist = np.minimum(dl, dr)
        big = np.iinfo(np.int64).max
        nn = np.minimum(np.where(dl == dist, ids[np.maximum(left, 0)], big),
                        np.where(dr == dist, ids[np.minimum(right, m - 1)], big))
        far = np.flatnonzero(((gap(left - 1) <= dist) | (gap(right + 1) <= dist)) & (dist < np.inf))
        if far.size:
            block = labels and (b0[far], b1[far])
            start, stop = _line_runs(line, c[far], np.nextafter(dist[far], np.inf), block)
            # The run less the query's own position, if it is a target: two ranges.
            skip = np.where(own[far], p[far], stop)
            lo, hi = np.concatenate([start, skip + 1]), np.concatenate([skip, stop])
            nn[far] = -np.where(lo < hi, _RangeMax(-ids)(lo, hi), -big).reshape(2, -1).max(axis=0)
        return dist, nn

    def run_order(self, members: np.ndarray):
        """On the line, ``members`` (sorted ids) in coordinate order, ties by id."""
        if self.coords.shape[1] != 1:
            return None
        return members[np.argsort(self.coords[members, 0], kind="stable")]

    def ball_runs(self, order: np.ndarray, radii: np.ndarray, labels: np.ndarray | None = None):
        """Per member of ``order`` (from ``run_order``): the run [start, stop) of
        positions in ``order`` inside its open ball of its radius, by ``_line_runs``;
        with ``labels`` (nondecreasing, one per member) within its label."""
        line = self.coords[order, 0]
        return _line_runs(line, line, radii, None if labels is None else _label_blocks((labels, labels)))

    def ball_pairs(self, centers: np.ndarray, radii: np.ndarray, targets: np.ndarray):
        if self.coords.shape[1] != 1:
            yield from super().ball_pairs(centers, radii, targets)
            return
        # On the line a ball is a run of the targets in coordinate order:
        # the pairs of each ball's window, re-filtered by their distance.  A
        # chunk is the next centers whose windows hold at most _BLOCK_ELEMS
        # pairs, or one center whose window alone holds more.
        t = targets.size
        x = self.coords[targets, 0]
        order = np.argsort(x, kind="stable")
        c = self.coords[centers, 0]
        start, stop = _line_window(x[order], c, radii)
        ends = np.cumsum(stop - start)
        lo = 0
        while lo < centers.size:
            done = ends[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(ends, done + _BLOCK_ELEMS, side="right")))
            counts = stop[lo:hi] - start[lo:hi]
            pos = np.arange(ends[hi - 1] - done) + np.repeat(start[lo:hi] - (ends[lo:hi] - counts - done), counts)
            # Center-major with columns ascending: sorting the keys row * t + col
            # leaves the rows where they are and orders the columns in each.
            rows = np.repeat(np.arange(lo, hi), counts)
            base = rows * t
            cols = np.sort(base + order[pos]) - base
            dist = _euclidean(np.repeat(c[lo:hi], counts)[:, None], x[cols, None])
            keep = dist < np.repeat(radii[lo:hi], counts)
            yield rows[keep], cols[keep], dist[keep]
            lo = hi

    def ball_extremes(self, queries: np.ndarray, radii: np.ndarray,
                      targets: np.ndarray, fvals: np.ndarray):
        if self.coords.shape[1] == 1:
            return self._line_extremes(queries, radii, targets, fvals)
        if targets.size <= _KD_BALL_MEMBERS:
            return super().ball_extremes(queries, radii, targets, fvals)
        from scipy.spatial import cKDTree

        k = queries.size
        qcoords = self.coords[queries]
        tcoords = self.coords[targets]
        # Widened by a relative 2^-40 past the tree's rounding; the re-filter decides.
        lists = cKDTree(tcoords).query_ball_point(qcoords, r=np.maximum(radii, 0.0) * (1 + 2**-40), workers=-1)
        lengths = np.fromiter((len(l) for l in lists), dtype=np.int64, count=k)
        flat = np.fromiter(itertools.chain.from_iterable(lists), dtype=np.int64, count=lengths.sum())
        seg = np.repeat(np.arange(k), lengths)
        dist = _euclidean(qcoords[seg], tcoords[flat])
        keep = dist < radii[seg]  # kd queries are closed; re-filter strictly
        maxv = np.full(k, -np.inf)
        minv = np.full(k, np.inf)
        np.maximum.at(maxv, seg[keep], fvals[flat[keep]])
        np.minimum.at(minv, seg[keep], fvals[flat[keep]])
        return maxv, minv

    def grid_extremes(self, queries: np.ndarray, grid: np.ndarray, targets: np.ndarray, fvals: np.ndarray):
        if self.coords.shape[1] != 1:
            return super().grid_extremes(queries, grid, targets, fvals)
        return self._line_extremes(queries, np.broadcast_to(grid[:, None], (grid.size, queries.size)), targets, fvals)

    def _line_extremes(self, queries, radii, targets, fvals):
        """``ball_extremes`` on the line for ``radii`` of shape (..., queries), one output of that shape each.

        Each ball is the run of the targets in coordinate order that
        ``_line_runs`` finds, and its extremes are ``_RangeMax`` queries over
        the ranks of ``_f_ranks``.  The balls go in blocks of about 16 words
        of search temporaries each within ``_BLOCK_ELEMS``.
        """
        x = self.coords[targets, 0]
        order = np.argsort(x, kind="stable")
        line = x[order]
        c = np.broadcast_to(self.coords[queries, 0], radii.shape).ravel()
        r = radii.ravel()
        rank, extremes = _f_ranks(fvals)
        runmax = _RangeMax(rank[:, order])
        maxv, minv = np.empty((2, c.size))
        for lo, hi in _row_chunks(c.size, 16):
            start, stop = _line_runs(line, c[lo:hi], r[lo:hi])
            maxv[lo:hi], minv[lo:hi] = extremes(runmax(start, stop).T, stop == start)
        return maxv.reshape(radii.shape), minv.reshape(radii.shape)

    def diameter(self) -> float:
        if self._diameter is None:
            if self.n <= _EXACT_DIAMETER_LIMIT and self.coords.shape[1] > 1:
                everything = np.arange(self.n)
                self._diameter = max((
                    float(self.dist_rows(everything[lo:hi], everything).max())
                    for lo, hi in _row_chunks(self.n, self.n)
                ), default=0.0)
            else:
                # The box corners, on the line its ends: _euclidean is monotone and |fl(y_k - x_k)| <= fl(hi_k - lo_k).
                self._diameter = float(_euclidean(self.coords.min(axis=0), self.coords.max(axis=0)))
        return self._diameter


def _label_blocks(labels):
    """Per query label in ``labels[0]``: the block [start, stop) of that label
    in the nondecreasing target labels ``labels[1]``."""
    return np.searchsorted(labels[1], labels[0]), np.searchsorted(labels[1], labels[0], side="right")


def _line_window(line: np.ndarray, c: np.ndarray, radii: np.ndarray):
    """Per center: the range [start, stop) of the sorted ``line`` that holds its open ball, and a little more.

    fl(y - c), its square and the root are monotone in y on each side of c,
    so a member (computed d < r) has exact |y - c| < r(1 + 2^-50), or below
    r + 2^-537.5 where the square is subnormal; the window
    [fl(c - w), fl(c + w)] holds every such y.
    """
    reach = np.maximum(radii, 0.0) * (1 + 2**-40) + 2.0**-537
    return np.searchsorted(line, c - reach, side="left"), np.searchsorted(line, c + reach, side="right")


def _line_runs(line: np.ndarray, c: np.ndarray, radii: np.ndarray, block=None):
    """Per center: the run [start, stop) of the sorted ``line`` inside its open ball, exactly.

    The ball lies in ``_line_window``, which the center's position p splits:
    left of p the computed distance falls as y rises, from p on it rises, so
    the members are a suffix of the left part and a prefix of the right one.
    One vectorised bisection finds both ends, each decided by the computed
    ``_euclidean(c, y) < r``.  Its first probe is the window's outer edge,
    where the end lies unless targets sit within the widening.  A ``block``
    (starts, stops) keeps each run in its center's block of ``line``.
    """
    n = c.size
    wlo, whi = _line_window(line, c, radii)
    p = np.searchsorted(line, c)
    if block is not None:
        wlo, whi, p = (np.clip(k, *block) for k in (wlo, whi, p))
    # Search s finds the first index in [lo, hi) whose membership is want[s], or hi.
    lo, hi = np.r_[wlo, p], np.r_[p, whi]
    cc, rr = np.r_[c, c], np.r_[radii, radii]
    want = np.arange(2 * n) < n
    act = np.flatnonzero(lo < hi)
    mid = np.where(want[act], lo[act], hi[act] - 1)
    while act.size:
        hit = (_euclidean(cc[act, None], line[mid, None]) < rr[act]) == want[act]
        hi[act[hit]] = mid[hit]
        lo[act[~hit]] = mid[~hit] + 1
        act = act[lo[act] < hi[act]]
        mid = (lo[act] + hi[act]) // 2
    return lo[:n], lo[n:]


def _f_ranks(fvals: np.ndarray):
    """Two rankings of f whose maxima over a set of targets give its max and min.

    Returns ``rank`` of shape (2, targets) and ``extremes(best, empty)``.  Row
    0 ranks f ascending with equal values in target order, so a set's max is
    at its largest rank; row 1 ranks them in reverse target order, negated, so
    a set's min is at its largest entry there.  Either way, of equal values
    (+0.0 and -0.0 differ only in bits) the last target wins, as in the dense
    fold of ``Metric.ball_extremes``.  ``extremes`` maps per-set maxima of
    both rows, shape (2, ...), to (max, min) of f, (-inf, inf) where ``empty``.
    """
    m = fvals.size
    up = np.argsort(fvals, kind="stable")
    down = m - 1 - np.argsort(fvals[::-1], kind="stable")
    rank = np.empty((2, m), dtype=np.int64)
    rank[0, up] = np.arange(m)
    rank[1, down] = -np.arange(m)

    def extremes(best, empty):
        return np.where(empty, -np.inf, fvals[up[best[0]]]), np.where(empty, np.inf, fvals[down[-best[1]]])

    return rank, extremes


class _RangeMax:
    """Max over runs of ``base``'s last axis, from a sparse table.

    Level j of the table holds the max of every 2^j consecutive entries, and
    a run is the union of two such windows: O(1) per run after O(m log m)
    setup (Bender and Farach-Colton, "The LCA Problem Revisited", 2000).  A
    level is filled when a run first needs it.
    """

    def __init__(self, base: np.ndarray):
        m = base.shape[-1]
        self.table = np.zeros((m.bit_length(), *base.shape), dtype=base.dtype)
        self.table[0] = base
        self.levels = 1

    def __call__(self, start: np.ndarray, stop: np.ndarray) -> np.ndarray:
        """Per run [start, stop), the max over it: shape (runs, ...) for a base of shape (..., m).

        The value of an empty run is arbitrary.
        """
        table, m = self.table, self.table.shape[-1]
        count = stop - start
        for j in range(self.levels, int(count.max(initial=0)).bit_length()):
            h, w = 1 << (j - 1), m - (1 << j) + 1
            np.maximum(table[j - 1, ..., :w], table[j - 1, ..., h:h + w], out=table[j, ..., :w])
            self.levels = j + 1
        j = np.frexp(np.maximum(count, 1))[1] - 1  # floor(log2(count))
        return np.maximum(table[j, ..., np.minimum(start, m - 1)], table[j, ..., stop - (1 << j)])


def _euclidean(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Euclidean distances between broadcast coordinate rows, coordinates on the last axis.

    The one summation order of every Euclidean distance: the squared
    coordinate differences add up in two lanes, the even coordinates in
    order and the odd coordinates in order, then lane 0 + lane 1.  One
    coordinate at a time, so no temporary has a coordinate axis.  An
    overflowing difference or square is a silent inf.
    """
    lanes = []
    with np.errstate(over="ignore"):
        for k in range(p.shape[-1]):
            sq = q[..., k] - p[..., k]
            sq *= sq
            if k < 2:
                lanes.append(sq)
            else:
                lanes[k % 2] += sq
        total = lanes[0]
        if len(lanes) == 2:
            total += lanes[1]
        return np.sqrt(total, out=total) if total.ndim else np.sqrt(total)  # in place: one block alive


class CantorMetric(Metric):
    """Prefix metric 2^-(first differing coordinate) on binary sequences.

    Each point is an eventually constant sequence stored as one ``uint64``
    code packing its first ``width`` coordinates (1 <= width <= 53);
    distinct points always differ within that window, so the metric is
    total.  Balls are prefix cylinders.  A code of at most 53 bits, and so
    the XOR of two codes, converts to float64 exactly: prefix lengths and
    distances are read from float exponents.
    """

    kind = "cantor"

    def __init__(self, code: np.ndarray, width: int):
        if not 1 <= width <= 53:
            raise ValidationError(f"prefix codes must be 1 to 53 bits wide, got {width}")
        # Coordinate 1 is the highest of the width packed bits.
        self.code = np.ascontiguousarray(code, dtype=np.uint64)
        self.n, self.width = self.code.size, int(width)
        # Code order: rank[i] is point i's sorted position, and adj[p] the
        # common-prefix length of sorted positions p - 1 and p (-1 at p = 0).
        order = np.argsort(self.code, kind="stable")
        self.rank = np.argsort(order)  # the inverse permutation
        self.adj = np.r_[-1, self.common_prefix(self.code[order[1:]], self.code[order[:-1]])]

    def cylinders(self, c: int):
        """The c-cylinder of each sorted position, and the cylinder bounds.

        Cylinders are the runs of ``adj >= c``: cylinder g holds the sorted
        positions ``bounds[g]`` up to ``bounds[g + 1]``.
        """
        starts = self.adj < c
        return np.cumsum(starts) - 1, np.r_[np.flatnonzero(starts), self.n]

    def common_prefix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise common-prefix length of full-width codes ``a`` and ``b``.

        The frexp exponent of the exact float ``a ^ b`` is its bit length.
        """
        return self.width - np.frexp((a ^ b).astype(np.float64))[1].astype(np.int64)

    def code_dist(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Elementwise distance of full-width codes ``a`` and ``b``, 0 where equal.

        The exponent bits alone of the exact float ``a ^ b`` are 2^(b-1) for
        bit length b, so the distance 2^(b - 1 - width) is one exact scaling
        away.
        """
        x = (a ^ b).view(np.int64).astype(np.float64).view(np.int64)
        return (x & np.int64(0x7FF << 52)).view(np.float64) * 2.0 ** -self.width

    def dist(self, i: int, j: int) -> float:
        # Python ints, independent of common_prefix: the bit length of the XOR is exact.
        x = int(self.code[i]) ^ int(self.code[j])
        return 2.0 ** (x.bit_length() - self.width - 1) if x else 0.0

    def dist_rows(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.code_dist(self.code[rows][:, None], self.code[cols][None, :])

    def cylinder_length(self, radii: np.ndarray) -> np.ndarray:
        """Per radius r > 0: the smallest c with 2^-(c+1) < r, at most ``width``.

        The open ball of radius r is the c-cylinder.  With r = m * 2^e and
        m in [1/2, 1), 2^-(c+1) < r <= 2^-c gives c = -e, or 1 - e when r is
        the power of two 2^(e-1).
        """
        m, e = np.frexp(radii)
        return np.clip((m == 0.5) - e, 0, self.width)

    def run_order(self, members: np.ndarray):
        """``members`` in code order: every open ball, a cylinder, is a run of it."""
        return members[np.argsort(self.rank[members])]

    def ball_runs(self, order: np.ndarray, radii: np.ndarray, labels: np.ndarray | None = None):
        """Per member of ``order`` (from ``run_order``): the run [start, stop) of
        positions in ``order`` inside its open ball, the members of its cylinder.
        A radius of 0 gives the empty run at the member's position.  The
        c-cylinders among the members are the runs of their adjacent common
        prefixes of length c or more, so only the members are read; with
        ``labels`` (nondecreasing, one per member) within its label."""
        start = np.arange(order.size)
        stop = start.copy()
        creq = np.where(radii > 0, self.cylinder_length(radii), -1)  # -1: the empty ball of radius 0
        adj = self._adjacent(order, labels)
        for c in _distinct_sorted(creq[creq >= 0]):
            group = np.r_[0, np.cumsum(adj < c)]  # nondecreasing along code order
            sel = np.flatnonzero(creq == c)
            start[sel] = np.searchsorted(group, group[sel], side="left")
            stop[sel] = np.searchsorted(group, group[sel], side="right")
        return start, stop

    def _adjacent(self, order: np.ndarray, labels: np.ndarray | None = None):
        """Common-prefix length of each point of ``order`` but the first with
        the one before it; -1 where ``labels``, one per point, change."""
        adj = self.common_prefix(self.code[order[1:]], self.code[order[:-1]])
        return adj if labels is None else np.where(labels[1:] != labels[:-1], -1, adj)

    def _nearest_other(self, queries: np.ndarray, tids: np.ndarray, labels=None):
        # In code order a query's longest prefix with another target is the
        # longer one with its sorted neighbours; the nearest other target is
        # the smallest other id in that prefix's cylinder, a run of the
        # sorted targets.  Only the targets and queries are read.  Labelled
        # targets come in code order, and a query's label's block bounds
        # its neighbours and cylinders.
        t = tids if labels is not None else tids[np.argsort(self.rank[tids])]
        lo, hi = (0, t.size) if labels is None else _label_blocks(labels)
        tpos, qpos = self.rank[t], self.rank[queries]
        pos = np.searchsorted(tpos, qpos)
        after = pos + (tpos[np.minimum(pos, t.size - 1)] == qpos)  # past the query itself
        near = np.stack([pos - 1, after])  # the sorted targets on either side
        lcp = self.common_prefix(self.code[t[near % t.size]], self.code[queries])
        lcp = np.where((near >= lo) & (near < hi), lcp, -1)
        side = np.argmax(lcp, axis=0)
        cols = np.arange(queries.size)
        best, inside = lcp[side, cols], near[side, cols]  # a target in the query's best cylinder
        # The c-cylinders among the targets are the runs of tadj >= c.
        tadj = np.r_[-1, self._adjacent(t, labels and labels[1])]
        ids = np.empty(queries.size, dtype=np.int64)
        big = np.iinfo(np.int64).max
        for c in _distinct_sorted(best[best >= 0]):  # -1: no other target in the label
            starts = tadj < c
            group = np.cumsum(starts) - 1
            heads = np.flatnonzero(starts)
            first = np.minimum.reduceat(t, heads)
            second = np.minimum.reduceat(np.where(t == first[group], big, t), heads)
            sel = best == c
            g = group[inside[sel]]
            ids[sel] = np.where(first[g] == queries[sel], second[g], first[g])
        return 2.0 ** -(best + 1.0), ids

    def ball_extremes(self, queries: np.ndarray, radii: np.ndarray,
                      targets: np.ndarray, fvals: np.ndarray):
        # Open balls are cylinders: per cylinder length, the extremes of the
        # targets in each cylinder, read at each query's cylinder.
        maxv, minv = np.full((2, queries.size), [[-np.inf], [np.inf]])
        creq = np.where(radii > 0, self.cylinder_length(radii), -1)  # -1: the empty ball of radius 0
        for c in _distinct_sorted(creq[creq >= 0]):
            cyl, bounds = self.cylinders(c)
            group = cyl[self.rank[targets]]
            gmax, gmin = np.full((2, bounds.size - 1), [[-np.inf], [np.inf]])
            np.maximum.at(gmax, group, fvals)
            np.minimum.at(gmin, group, fvals)
            sel = np.flatnonzero(creq == c)
            g = cyl[self.rank[queries[sel]]]
            maxv[sel] = gmax[g]
            minv[sel] = gmin[g]
        return maxv, minv

    def grid_extremes(self, queries: np.ndarray, grid: np.ndarray, targets: np.ndarray, fvals: np.ndarray):
        # One cylinder pass per radius costs less than a dense distance pass.
        maxv, minv = np.empty((grid.size, queries.size)), np.empty((grid.size, queries.size))
        for j, r in enumerate(grid):
            maxv[j], minv[j] = self.ball_extremes(queries, np.full(queries.size, r), targets, fvals)
        return maxv, minv

    def diameter(self) -> float:
        # The farthest pair has the shortest common prefix, the least adj.
        return float(2.0 ** -(self.adj[1:].min() + 1.0)) if self.n > 1 else 0.0


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

class SpaceInstance:
    """A finite metric space with a resolution floor.

    ``family`` records how the instance was generated ('cantor', 'ordinal',
    'sequence', 'euclidean', 'matrix'); the scattered construction uses it to
    recognise the clopen-at-resolution families.  ``labels`` is a sequence
    of point labels, or a function of no arguments that builds them at the
    first read of ``labels``: a prefix-metric space's labels, one string per
    point, are built only when something reads them.
    """

    def __init__(self, name, metric, resolution, labels=None, family=None):
        if resolution <= 0 or not np.isfinite(resolution):
            raise ValidationError(f"resolution must be a positive real, got {resolution}")
        self.name = str(name)
        self.metric = metric
        self.resolution = float(resolution)
        self.n = metric.n
        self._labels = labels if labels is None or callable(labels) else list(labels)
        self.family = family or metric.kind
        self.subsets: dict[str, SubsetMask] = {}
        self.fields: dict[str, ScalarField] = {}
        self.meta: dict = {}
        if metric.kind == "matrix":
            _validate_matrix(self.metric)

    @property
    def labels(self) -> list | None:
        if callable(self._labels):
            self._labels = self._labels()
        return self._labels

    def check_id(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < self.n:
            raise ValidationError(f"unknown point id {i} (space has {self.n} points)")
        return i

    def dist(self, i: int, j: int) -> float:
        return self.metric.dist(self.check_id(i), self.check_id(j))

    def diameter(self) -> float:
        return self.metric.diameter()

    def full_mask(self) -> "SubsetMask":
        return SubsetMask._owning(self, mask=np.ones(self.n, dtype=bool))

    def empty_mask(self) -> "SubsetMask":
        return SubsetMask._owning(self, ids=np.empty(0, dtype=np.int64))

    def mask_from_ids(self, ids) -> "SubsetMask":
        """The subset of the given point ids, in any order and with repeats.

        It costs the ids, not the space: they are sorted and deduplicated
        only when they are not already strictly increasing, and the range
        is checked at the sorted ends, min and max.  No full-length array
        is built.
        """
        ids = np.array(ids, dtype=np.int64).ravel()
        srt = ids if _increasing(ids) else _distinct_sorted(ids)
        if srt.size and (srt[0] < 0 or srt[-1] >= self.n):
            self.check_id(ids[np.argmax((ids < 0) | (ids >= self.n))])  # raises, naming the first bad id
        return SubsetMask._owning(self, ids=srt)

    def __repr__(self):
        return f"SpaceInstance({self.name!r}, n={self.n}, metric={self.metric.kind}, resolution={self.resolution})"


# ---------------------------------------------------------------------------
# Scale policies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedScale:
    """One global ball radius."""

    delta: float

    def __post_init__(self):
        if not (np.isfinite(self.delta) and self.delta > 0):
            raise ValidationError(f"fixed scale must be a positive finite number, got {self.delta}")

    def radii(self, space: SpaceInstance, members: np.ndarray) -> np.ndarray:
        return np.full(members.size, self.delta)

    def survivors(self, ls, nn_ls):
        """Which members have another member strictly within delta, as in delta_limit_points."""
        return (ls > 0) & (ls < self.delta)

    def describe(self) -> str:
        return f"fixed:{self.delta}"


@dataclass(frozen=True)
class AdaptiveScale:
    """Per-point radius: multiplier times the nearest-neighbour distance."""

    multiplier: float = 3.0

    def __post_init__(self):
        if not (np.isfinite(self.multiplier) and self.multiplier >= 1):
            raise ValidationError(f"adaptive multiplier must be finite and >= 1, got {self.multiplier}")

    def radii(self, space: SpaceInstance, members: np.ndarray) -> np.ndarray:
        ls, _ = local_scales(space, members)
        return self.multiplier * ls

    def survivors(self, ls, nn_ls):
        """Which members have their nearest neighbour at a strictly finer scale.

        x survives when its nearest neighbour y satisfies
        multiplier * local_scale(y) < d(x, y): y's own adaptive ball has moved
        on past x, so structure keeps refining towards x.  Companion points at
        comparable scale eliminate each other, which makes the iteration
        strictly decreasing.  ``ls`` are the members' local scales and
        ``nn_ls`` their nearest neighbours' (any value >= 0 where a member is
        alone, with scale 0).
        """
        return self.multiplier * nn_ls < ls

    def describe(self) -> str:
        return f"adaptive:{self.multiplier}"


def parse_policy(text: str):
    try:
        kind, _, arg = text.partition(":")
        if kind == "fixed":
            return FixedScale(float(arg))
        if kind == "adaptive":
            return AdaptiveScale(float(arg) if arg else 3.0)
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(f"bad scale policy {text!r}: {exc}") from None
    raise ValidationError(f"bad scale policy {text!r} (expected fixed:DELTA or adaptive:MULT)")


# ---------------------------------------------------------------------------
# Core point operations
# ---------------------------------------------------------------------------

def ball(space: SpaceInstance, center: int, radius: float, within: SubsetMask) -> SubsetMask:
    """Open ball around ``center`` intersected with ``within``."""
    if within.space is not space:
        raise ValidationError("mask is bound to a different space")
    center = space.check_id(center)
    if radius <= 0:
        return space.empty_mask()
    row = space.metric.dist_rows(np.array([center]), np.arange(space.n))[0]
    return SubsetMask._owning(space, mask=(row < radius) & within.mask)


def local_scales(space: SpaceInstance, members: np.ndarray):
    """Nearest-other-member distance and the neighbour's id, per member.

    Isolated members (a singleton set) get scale 0 and neighbour -1.
    Nearest-neighbour ties break to the smallest id, so results are
    reproducible across backends.
    """
    return space.metric.scales(np.asarray(members, dtype=np.int64))


def dists_among(space: SpaceInstance, members: np.ndarray) -> np.ndarray:
    """Dense pairwise distances among a (smallish) member set."""
    m = np.asarray(members, dtype=np.int64)
    return space.metric.dist_rows(m, m)


def visibility_graph(space: SpaceInstance, members: np.ndarray, multiplier: float,
                     labels: np.ndarray | None = None) -> np.ndarray:
    """Adjacency of the mutual-visibility graph among a (smallish) member set.

    Members x and y are adjacent when d(x, y) < multiplier * max(ls_x, ls_y),
    i.e. when either point's adaptive ball reaches the other.  The scales
    ls are the in-set nearest distances, read from the same distance block,
    so each call computes one dense block.  No member is its own neighbour.
    With ``labels``, one per member, members of two labels are infinitely
    far apart, so each label's scales are its own.  Rows and columns follow
    ``members``; ``_run_components`` passes them in the metric's run order
    and reads the runs from the block when it fits one ``_BLOCK_ELEMS`` block.
    """
    sub = dists_among(space, members)
    if labels is not None:
        sub[labels[:, None] != labels[None, :]] = np.inf
    np.fill_diagonal(sub, np.inf)
    reach = multiplier * sub.min(axis=1, initial=np.inf)
    # fl(mult * max(a, b)) = max(fl(mult * a), fl(mult * b)): two bool blocks, no float one.
    return (sub < reach[:, None]) | (sub < reach[None, :])


def _run_components(space: SpaceInstance, order: np.ndarray, multiplier: float, labels: np.ndarray | None = None):
    """Component number of each member of ``order``, in the mutual-visibility
    graph within each label: components are runs of ``order``, numbered
    from 0 along it.

    ``order`` is in the metric's run order (``Metric.run_order``), and
    ``labels`` (one label when None) are nondecreasing along it.
    fl(mult * max(a, b)) = max(fl(mult * a), fl(mult * b)), so x and y are
    adjacent exactly when one lies in the other's open ball of radius
    mult * ls.  A ball is a run of the run order, so its center sees every
    member between it and any member it sees: the components are the
    maximal chains of overlapping runs, cut at each gap no run crosses.
    Up to one ``_BLOCK_ELEMS`` block of members squared, a row's first and
    last neighbour in the dense ``visibility_graph`` block span its edges;
    above, the runs come from ``Metric.ball_runs`` at the radii of
    ``Metric.scales``.  Both read labels.
    """
    metric = space.metric
    m = order.size
    pos = np.arange(m)
    if m * m <= _BLOCK_ELEMS:
        adj = visibility_graph(space, order, multiplier, labels)
        adj[pos, pos] = True
        lo, hi = adj.argmax(axis=1), m - 1 - adj[:, ::-1].argmax(axis=1)
    else:
        start, stop = metric.ball_runs(order, multiplier * metric.scales(order, labels)[0], labels)
        lo, hi = np.minimum(start, pos), np.maximum(stop - 1, pos)
    # The spans [lo, hi] crossing the gap before position p: those with lo < p <= hi.
    crossing = np.cumsum(np.bincount(lo + 1, minlength=m + 1) - np.bincount(hi + 1, minlength=m + 1))
    return np.cumsum(crossing[:m] == 0) - 1  # no span crosses the gap before a component's first member


def _row_chunks(nrows: int, ncols: int):
    """(lo, hi) row ranges whose distance blocks of ``ncols`` columns fit the budget."""
    step = max(1, _BLOCK_ELEMS // max(ncols, 1))
    for lo in range(0, nrows, step):
        yield lo, min(nrows, lo + step)


def local_scale(space: SpaceInstance, x: int, within: SubsetMask) -> float:
    """Distance from ``x`` to the nearest other member of ``within`` (0 if none)."""
    x = space.check_id(x)
    if x not in within:
        raise PreconditionError(f"point {x} is not a member of the mask")
    members = within.ids()
    if members.size < 2:
        return 0.0
    return float(space.metric._nearest_other(np.array([x]), members)[0][0])


def delta_limit_points(space: SpaceInstance, A: SubsetMask, scale: float) -> SubsetMask:
    """Members of A having another member strictly within ``scale``."""
    if scale <= 0:
        raise ValidationError("scale must be positive")
    members = A.ids()
    if members.size == 0:
        return space.empty_mask()
    ls, _ = local_scales(space, members)
    keep = members[(ls > 0) & (ls < scale)]
    return space.mask_from_ids(keep)


# ---------------------------------------------------------------------------
# Derived-set filtration
# ---------------------------------------------------------------------------

@dataclass
class ScatteredDecomposition:
    """Iterated derived-set structure: per-point depth and isolation radius.

    It costs the members of A, not the space, and only what is read: the
    rank and isolation radius of each member of A (``member_ranks``,
    ``member_iso_radius``, in id order) are read off the levels on first
    read, and ``ranks`` and ``iso_radius`` expand them to full length on
    first read.
    """

    space: SpaceInstance
    filtration: list  # decreasing list of SubsetMask, first level = A
    terminal: tuple  # ("emptied" | "saturated", step)
    level_scales: list  # local_scales of each stepped level's members, in id order

    @property
    def emptied(self) -> bool:
        return self.terminal[0] == "emptied"

    @cached_property
    def _per_member(self):
        """A member of level k missing from level k + 1 gets rank k and its
        scale in level k as isolation radius (inf where 0); -1 and nan where
        it never leaves."""
        first = self.filtration[0].ids()
        ranks = np.full(first.size, -1, dtype=np.int64)
        iso = np.full(first.size, np.nan)
        levels = self.filtration + ([self.space.empty_mask()] if self.emptied else [])
        for k, (level, nxt) in enumerate(zip(levels, levels[1:])):
            members = level.ids()
            gone = ~_in_sorted(nxt.ids(), members)
            d = self.level_scales[k][gone]
            pos = first.searchsorted(members[gone])
            ranks[pos] = k
            iso[pos] = np.where(d > 0, d, np.inf)
        return ranks, iso

    @property
    def member_ranks(self) -> np.ndarray:
        return self._per_member[0]

    @property
    def member_iso_radius(self) -> np.ndarray:
        return self._per_member[1]

    def _full(self, per_member, outside):
        full = np.full(self.space.n, outside, dtype=per_member.dtype)
        full[self.filtration[0].ids()] = per_member
        return full

    @cached_property
    def ranks(self) -> np.ndarray:
        """Per point: its rank, -1 outside A."""
        return self._full(self.member_ranks, -1)

    @cached_property
    def iso_radius(self) -> np.ndarray:
        """Per point: its isolation radius, nan outside A."""
        return self._full(self.member_iso_radius, np.nan)

    def rank_of(self, i: int) -> int:
        return int(self.ranks[i])


def _descend(start: SubsetMask, step, max_steps: int):
    """Apply ``step`` from ``start`` until a level empties or repeats, or ``max_steps`` steps ran.

    Returns the levels, down to the empty one when a level empties, and the
    terminal: ("emptied", n) with levels[n] empty, ("saturated", n) when
    step(levels[n]) == levels[n], or ("truncated", n) after max_steps steps.
    """
    levels = [start]
    while not levels[-1].is_empty():
        n = len(levels) - 1
        if n == max_steps:
            return levels, ("truncated", n)
        nxt = step(levels[-1])
        if nxt == levels[-1]:
            return levels, ("saturated", n)
        levels.append(nxt)
    return levels, ("emptied", len(levels) - 1)


def cb_filtration(space: SpaceInstance, A: SubsetMask, policy) -> ScatteredDecomposition:
    """Iterate the derived-set surrogate until empty or a fixed point.

    Each level keeps the survivors of ``policy.survivors``.  Fixed policy:
    points with another member strictly within delta.  Adaptive policy:
    points whose nearest neighbour is strictly finer scaled; this recovers
    the ranks of the shipped truncated-convergence fixtures where a fixed
    radius saturates.  A point of level k missing from level k + 1 gets
    rank k and its scale in level k as isolation radius (inf where 0).
    Both are read off the levels and their scales, per member of A, only
    when read: the filtration costs A, not the space.
    """
    if A.is_empty():
        raise PreconditionError("cb_filtration requires a nonempty starting set")
    scales = []  # local_scales of each level's members

    def step(level):
        members = level.ids()
        ls, nn = local_scales(space, members)
        scales.append(ls)
        return space.mask_from_ids(members[policy.survivors(ls, ls[np.searchsorted(members, nn)])])

    # Every step removes a point, so A.size steps always empty or saturate.
    levels, terminal = _descend(A, step, A.size)
    if terminal[0] == "emptied":
        levels.pop()
    return ScatteredDecomposition(space, levels, terminal, scales)


# ---------------------------------------------------------------------------
# Instance documents (JSON schema)
# ---------------------------------------------------------------------------

def _validate_matrix(metric: MatrixMetric):
    data = metric.data
    n = data.shape[0]
    if data.shape != (n, n):
        raise ValidationError("metric matrix must be square")
    if not np.all(np.isfinite(data)):
        raise ValidationError("metric matrix has non-finite entries")
    if np.any(np.diag(data) != 0):
        i = int(np.flatnonzero(np.diag(data))[0])
        raise ValidationError(f"metric({i},{i}) must be 0")
    if not np.array_equal(data, data.T):
        i, j = np.argwhere(data != data.T)[0]
        raise ValidationError(f"metric is not symmetric at ({i},{j})")
    off = data + np.eye(n)  # lift the diagonal so the scan skips it
    if np.any(off < 2.0**-1022):  # the lower end of load_space's distance range
        i, j = np.argwhere(off < 2.0**-1022)[0]
        raise ValidationError(f"metric({i},{j}) must be at least 2^-1022 for distinct points")
    if metric.triangle_check == "exhaustive":
        for i in range(n):
            slack = data[:, [i]] + data[[i], :]
            bad = np.argwhere(data > slack + 0.0)
            if bad.size:
                j, k = bad[0]
                raise ValidationError(
                    f"triangle inequality fails for triple ({j},{i},{k}): "
                    f"d({j},{k})={data[j,k]} > d({j},{i})+d({i},{k})={slack[j,k]}"
                )
    else:
        rng = np.random.default_rng(20260808)
        trips = rng.integers(0, n, size=(TRIANGLE_SAMPLES_PER_POINT * n, 3))
        d_jk = data[trips[:, 0], trips[:, 2]]
        d_ji = data[trips[:, 0], trips[:, 1]]
        d_ik = data[trips[:, 1], trips[:, 2]]
        bad = np.flatnonzero(d_jk > d_ji + d_ik)
        if bad.size:
            j, i, k = trips[bad[0]]
            raise ValidationError(f"triangle inequality fails for sampled triple ({j},{i},{k})")


def _validate_distinct_points(metric: EuclideanMetric):
    """Distinct points must sit at positive distance.

    A distance is 0.0 exactly when every squared coordinate difference is
    0.0, whatever the summation order: equal rows (``==`` also equates -0.0
    and 0.0), or differences that underflow when squared.  So a zero
    nearest-point scale marks such a pair; the smallest id with one is
    named with the smallest id at distance 0 from it, read from one
    distance row.  A positive distance is at least sqrt(2^-1074) > 2^-1022.
    """
    if metric.n < 2:
        return
    ids = np.arange(metric.n)
    zero = np.flatnonzero(metric.scales(ids)[0] == 0.0)
    if zero.size:
        a = int(zero[0])
        row = metric.dist_rows(zero[:1], ids)[0]
        row[a] = np.inf
        b = int(np.argmin(row))
        if np.array_equal(metric.coords[a], metric.coords[b]):
            raise ValidationError(f"points {a} and {b} have equal coordinates")
        raise ValidationError(f"points {a} and {b} are at distance 0.0: "
                              "their coordinate differences underflow when squared")


def _require(cond, msg):
    if not cond:
        raise ValidationError(msg)


def _as_array(value, dtype, what):
    """``value`` as a numpy array, or a ValidationError naming ``what``."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} is malformed: {exc}") from None


def _point_ids(value, what):
    """A JSON list of integer point ids (not bools) as an id array."""
    _require(isinstance(value, list) and all(isinstance(i, int) and not isinstance(i, bool) for i in value),
             f"{what} must be a list of integer point ids")
    return _as_array(value, np.int64, what)


def load_space(doc: dict) -> SpaceInstance:
    """Build a validated SpaceInstance from an instance document."""
    _require(isinstance(doc, dict), "instance document must be an object")
    for key in ("name", "resolution", "points", "metric"):
        _require(key in doc, f"instance document is missing {key!r}")
    res = doc["resolution"]
    _require(isinstance(res, (int, float)) and not isinstance(res, bool), "resolution must be a number")
    try:
        res = float(res)
    except OverflowError:
        raise ValidationError("resolution is too large to be a float") from None
    # The constructions' dyadic radii run from above the diameter down to the
    # resolution, and cover radii halve the distance between two points.  With
    # the resolution and every distance in [2^-1022, 2^1022] all of them are
    # finite normal doubles.
    _require(2.0**-1022 <= res <= 2.0**1022, f"resolution must lie in [2^-1022, 2^1022], got {res}")
    points = doc["points"]
    _require(isinstance(points, list) and points, "points must be a nonempty list")
    n = len(points)
    _require(all(isinstance(p, dict) and isinstance(p.get("id"), int)
                 and not isinstance(p["id"], bool) for p in points),
             "every point must be an object with an integer id")
    ids = [p["id"] for p in points]
    _require(sorted(ids) == list(range(n)), "point ids must be dense 0..n-1")
    labels = None
    if any("label" in p for p in points):
        by_id = sorted(points, key=lambda p: p["id"])
        labels = [str(p.get("label", "")) for p in by_id]

    spec = doc["metric"]
    _require(isinstance(spec, dict) and "type" in spec, "metric must declare a type")
    mtype = spec["type"]
    if mtype == "matrix":
        data = _as_array(spec.get("data"), np.float64, "metric matrix")
        _require(data.shape == (n, n), "metric matrix shape must match the point count")
        metric = MatrixMetric(data)
    elif mtype == "euclidean":
        coords = _as_array(spec.get("coords"), np.float64, "coordinates")
        _require(coords.ndim in (1, 2) and coords.shape[0] == n, "coordinate count must match the point count")
        _require(coords.size > 0, "coordinates need at least one dimension")
        _require(np.all(np.isfinite(coords)), "coordinates must be finite")
        metric = EuclideanMetric(coords)
        _validate_distinct_points(metric)
    elif mtype == "cantor":
        depth = spec.get("depth")
        _require(isinstance(depth, int), "cantor depth must be an integer")
        from .instances import CantorPoint, cantor_codes, cantor_labels, check_cantor_depth  # avoids a cycle

        # The generators' bound, then 2^depth points per tail bit; both
        # checked before the space is enumerated.
        check_cantor_depth(depth)
        _require(n == 2 ** (depth + 1), f"cantor depth {depth} has {2 ** (depth + 1)} points, document lists {n}")
        metric = CantorMetric(cantor_codes(depth), depth + 1)
        if labels is None:
            labels = lambda: cantor_labels(depth)  # built at the first read of space.labels
        else:
            for label in labels:
                CantorPoint.from_label(label)
            for i, (label, canon) in enumerate(zip(labels, cantor_labels(depth))):
                _require(label == canon, f"point {i} has label {label!r}; the cantor space "
                         f"of depth {depth} has {canon!r} there")
    else:
        raise ValidationError(f"unknown metric type {mtype!r}")
    _require(metric.diameter() <= 2.0**1022, f"the diameter {metric.diameter()} exceeds 2^1022")
    # The generating family; only the euclidean metric carries more than one.
    family = doc.get("family", mtype)
    _require(family == mtype or (mtype == "euclidean" and family in ("ordinal", "sequence")),
             f"family {family!r} does not fit metric type {mtype!r}")
    # The ladder and sequence families live on the line; the scattered
    # construction's argument assumes their distances are 1-D.
    if family in ("ordinal", "sequence"):
        _require(metric.coords.shape[1] == 1,
                 f"family {family!r} needs one coordinate column, the document has {metric.coords.shape[1]}")

    space = SpaceInstance(doc["name"], metric, res, labels=labels, family=family)

    subsets = doc.get("subsets") or {}
    _require(isinstance(subsets, dict), "subsets must be an object of named id lists")
    for name, id_list in subsets.items():
        space.subsets[name] = space.mask_from_ids(_point_ids(id_list, f"subset {name!r}"))
    fields = doc.get("fields") or {}
    _require(isinstance(fields, dict), "fields must be an object of named fields")
    for name, fdoc in fields.items():
        _require(isinstance(fdoc, dict) and "domain" in fdoc and "values" in fdoc,
                 f"field {name!r} must carry domain and values")
        values = _as_array(fdoc["values"], np.float64, f"field {name!r} values")
        _require(isinstance(fdoc["domain"], list) and values.ndim == 1,
                 f"field {name!r} domain and values must be lists")
        domain = _point_ids(fdoc["domain"], f"field {name!r} domain")
        _require(domain.size == values.size, f"field {name!r} domain/values length mismatch")
        space.fields[name] = ScalarField.on_ids(space, domain, values)
    return space


def load_space_file(path) -> SpaceInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read instance file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"instance file {path} is not valid JSON: {exc}") from None
    return load_space(doc)


def space_to_document(space: SpaceInstance, subsets=None, fields=None) -> dict:
    """Serialize back to the instance schema (metric emitted per backend)."""
    labels = space.labels
    points = [{"id": i} if labels is None else {"id": i, "label": labels[i]} for i in range(space.n)]
    metric = space.metric
    if metric.kind == "matrix":
        mdoc = {"type": "matrix", "data": metric.data.tolist()}
    elif metric.kind == "euclidean":
        mdoc = {"type": "euclidean", "coords": metric.coords.tolist()}
    else:
        mdoc = {"type": "cantor", "depth": metric.width - 1}
    doc = {
        "name": space.name,
        "family": space.family,
        "resolution": space.resolution,
        "points": points,
        "metric": mdoc,
    }
    subsets = subsets if subsets is not None else space.subsets
    fields = fields if fields is not None else space.fields
    if subsets:
        doc["subsets"] = {name: m.ids().tolist() for name, m in subsets.items()}
    if fields:
        doc["fields"] = {
            name: {
                "domain": f.domain.ids().tolist(),
                "values": f.values[f.domain.mask].tolist(),
            }
            for name, f in fields.items()
        }
    return doc
