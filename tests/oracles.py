"""Independent brute-force oracles, written as plain loops over distances.

These intentionally share no code with the package implementations: they
read point distances via space.dist(i, j) and apply the definitions
directly, so tests can compare the optimized paths against them.
``o_euclidean`` is the Euclidean distance itself, from coordinates.
Policies are passed as plain tuples ("fixed", delta) / ("adaptive", mult).
"""

import math


def o_local_scale(space, x, members):
    best = None
    for y in members:
        if y == x:
            continue
        d = space.dist(int(x), int(y))
        if best is None or d < best:
            best = d
    return 0.0 if best is None else best


def o_ball(space, center, radius, members):
    return [int(y) for y in members if space.dist(int(center), int(y)) < radius]


def o_radius(space, x, members, policy):
    kind, value = policy
    if kind == "fixed":
        return value
    return value * o_local_scale(space, x, members)


def o_pair_step(space, fvals, epsilon, members, policy):
    out = []
    for x in members:
        ball = o_ball(space, x, o_radius(space, x, members, policy), members)
        vals = [fvals[y] for y in ball]
        if len(vals) >= 2 and max(vals) - min(vals) >= epsilon:
            out.append(int(x))
    return out


def o_gap_step(space, fvals, epsilon, members, policy):
    out = []
    for x in members:
        ball = o_ball(space, x, o_radius(space, x, members, policy), members)
        if any(abs(fvals[y] - fvals[x]) >= epsilon for y in ball):
            out.append(int(x))
    return out


def o_iterate(space, fvals, epsilon, members, policy, step=o_pair_step):
    """Levels of the iterated step; returns (levels, terminal)."""
    levels = [list(members)]
    current = list(members)
    for n in range(len(members) + 1):
        nxt = step(space, fvals, epsilon, current, policy)
        if nxt == current:
            return levels, ("saturated", n)
        levels.append(nxt)
        current = nxt
        if not nxt:
            return levels, ("emptied", n + 1)
    return levels, ("saturated", len(levels) - 1)


def o_index(space, fvals, epsilon, members, policy):
    _levels, terminal = o_iterate(space, fvals, epsilon, members, policy)
    return terminal[1] if terminal[0] == "emptied" else None


def o_delta_limit(space, members, scale):
    return [int(x) for x in members
            if any(y != x and space.dist(int(x), int(y)) < scale for y in members)]


def o_adaptive_filtration(space, members, mult):
    """Nearest-neighbour scale-dominance peeling, by the definition."""
    levels = [list(members)]
    current = list(members)
    while current:
        nxt = []
        for x in current:
            others = [y for y in current if y != x]
            if not others:
                continue
            dists = [(space.dist(int(x), int(y)), int(y)) for y in others]
            dmin = min(d for d, _ in dists)
            nn = min(y for d, y in dists if d == dmin)
            if mult * o_local_scale(space, nn, current) < dmin:
                nxt.append(int(x))
        if nxt == current:
            return levels, ("saturated", len(levels) - 1)
        if not nxt:
            return levels, ("emptied", len(levels))
        levels.append(nxt)
        current = nxt
    return levels, ("emptied", len(levels))


def o_cantor_points(depth):
    """The canonical prefix-metric points, one CantorPoint per (tail, head length, head value)."""
    from oscext.instances import CantorPoint

    points = []
    for tail in (0, 1):
        for length in range(depth + 1):
            for value in range(1 << length):
                head = format(value, f"0{length}b") if length else ""
                if not (head and head.endswith(str(tail))):
                    points.append(CantorPoint(head, tail))
    return points


def o_cantor_code(point, width):
    """The first ``width`` coordinates of a point, packed first-highest from ``coordinate``."""
    code = 0
    for j in range(1, width + 1):
        code = 2 * code + point.coordinate(j)
    return code


def o_euclidean(p, q):
    """Euclidean distance of two coordinate lists, summed in two lanes.

    Lane 0 adds the squared differences of the even coordinates in order,
    lane 1 those of the odd coordinates; the root is taken of lane 0 + lane 1.
    """
    lanes = [0.0, 0.0]
    for k, (a, b) in enumerate(zip(p, q)):
        lanes[k % 2] += (b - a) * (b - a)
    return math.sqrt(lanes[0] + lanes[1])


def o_hat_sums(space, centers, depths, anchors):
    """Hat sums num and den of the layered construction, as Python floats.

    Center s at depth nu has the open ball of radius r = 2^-nu as support
    and adds, to each member y, the weight r - d(s, y) to den and that
    weight times its anchor value to num.  The centers are walked in the
    order given, and each member adds their terms one at a time, from 0.0.
    """
    num = [0.0] * space.n
    den = [0.0] * space.n
    for s, nu, a in zip(centers, depths, anchors):
        r = 2.0 ** -int(nu)
        for y in range(space.n):
            d = space.dist(int(s), y)
            if d < r:
                den[y] += r - d
                num[y] += (r - d) * float(a)
    return num, den


def o_partition(space, elements):
    """Hat-weight partition of unity, as Python floats: per cover element,
    its support ids and weights.

    Element (c, r) has the raw weight r - d(c, y) at each y with d(c, y) < r.
    Each point's total adds its elements' raw weights in element order, one
    at a time, from 0.0, and a weight is its raw weight over that total.
    """
    total = [0.0] * space.n
    raws = []
    for c, r in elements:
        row = []
        for y in range(space.n):
            d = space.dist(int(c), y)
            if d < r:
                row.append((y, r - d))
                total[y] += r - d
        raws.append(row)
    return [[y for y, _w in row] for row in raws], [[w / total[y] for y, w in row] for row in raws]


def o_blend(space, support_ids, weights, anchors):
    """Blend of one anchor value per element, as Python floats.

    Each covered point adds weight x anchor over its elements in element
    order, one at a time, from 0.0, and the sum is clipped to the range of
    those anchors.  A point no element covers reads NaN.
    """
    out = [0.0] * space.n
    lo = [math.inf] * space.n
    hi = [-math.inf] * space.n
    for ids, ws, a in zip(support_ids, weights, anchors):
        for y, w in zip(ids, ws):
            out[y] += w * a
            lo[y], hi[y] = min(lo[y], a), max(hi[y], a)
    return [min(max(v, l), h) if l <= h else math.nan for v, l, h in zip(out, lo, hi)]


def o_next_depths(space, centers, depths, cand, ok):
    """The layered construction's support test: per candidate, the first depth
    n with ``ok[x][n - 1]`` that passes, or -1.

    Candidate x passes at depth n when the deep centers (depth >= n) whose
    doubled ball B(x, 2^(1-n)) holds them are exactly the deep centers whose
    support, the open ball of radius 2^-depth, holds x.
    """
    out = []
    for x, row in zip(cand, ok):
        chosen = -1
        for n, allowed in enumerate(row, start=1):
            if not allowed:
                continue
            deep = [(k, int(nu)) for k, nu in enumerate(depths) if nu >= n]
            near = {k for k, _nu in deep if space.dist(int(centers[k]), int(x)) < 2.0 ** (1 - n)}
            covering = {k for k, nu in deep if space.dist(int(centers[k]), int(x)) < 2.0 ** -nu}
            if near == covering:
                chosen = n
                break
        out.append(chosen)
    return out


def reference_visibility_components(space, region, multiplier):
    """Components of the mutual-visibility graph among a region's members, as id arrays.

    The dense member x member block: x and y are adjacent when
    d(x, y) < multiplier * max(ls_x, ls_y), with ls the in-region nearest
    distances of the block's rows.  scipy's ``connected_components`` labels
    the components in the order of their smallest member.
    """
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    members = region.ids()
    d = space.metric.dist_rows(members, members)
    np.fill_diagonal(d, np.inf)
    ls = d.min(axis=1, initial=np.inf)
    adj = d < multiplier * np.maximum(ls[:, None], ls[None, :])
    count, labels = connected_components(csr_matrix(adj), directed=False)
    return [members[labels == i] for i in range(count)]
