"""Oscillation quantities and the iterated derivation operators.

Two one-step operators act on a subset P of the domain of a field f, both
reading one open ball per point whose radius comes from the scale policy:

* pair_step keeps x when some pair inside its ball differs by >= epsilon
  (the two-witness derivation behind the oscillation index);
* gap_step keeps y when some ball member differs from f(y) by >= epsilon
  (the single-witness variant; its closure step is the identity here since
  finite sets are closed).

Iterating either operator yields a decreasing trace that either empties or
reaches a fixed point (saturates).  Index profiles record, per epsilon, the
step at which the pair-step trace empties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ValidationError
from .space import ScalarField, SubsetMask, _descend, ball


# ---------------------------------------------------------------------------
# Oscillation
# ---------------------------------------------------------------------------

def osc_on_set(f: ScalarField, A: SubsetMask) -> float:
    """Largest pairwise |f difference| over A; 0 when |A| <= 1."""
    vals = f.on(A)
    if vals.size <= 1:
        return 0.0
    return float(vals.max() - vals.min())


def osc_at_point(f: ScalarField, x: int, Y: SubsetMask, scale: float) -> float:
    """Oscillation of f over the open ball around x within Y.

    The resolution surrogate of the shrinking-ball limit; 0 when the ball
    misses Y.  x itself need not belong to Y.
    """
    if scale <= 0:
        raise ValidationError("scale must be positive")
    if not Y.issubset(f.domain):
        raise PreconditionError("Y is not contained in the field domain")
    return osc_on_set(f, ball(Y.space, x, scale, Y))


# ---------------------------------------------------------------------------
# One-step operators
# ---------------------------------------------------------------------------

def _check_step_args(f, epsilon, P):
    if not (np.isfinite(epsilon) and epsilon > 0):
        raise ValidationError(f"epsilon must be a positive finite number, got {epsilon}")
    if not P.issubset(f.domain):
        raise PreconditionError("P is not contained in the field domain")


def _step(f, epsilon, P, policy, kind, spreads=None):
    """Both one-step operators; ``kind`` picks what must reach epsilon.

    "pair" tests the spread max - min of f over each member's ball, "gap"
    the largest gap between the member's own value and one in its ball.
    Neither spread depends on epsilon, so ``spreads``, a dict from level to
    its per-member spread for one f, policy and kind, lets steps at other
    epsilons reuse the balls of a level seen before.
    """
    _check_step_args(f, epsilon, P)
    space = P.space
    members = P.ids()
    if members.size == 0:
        return space.empty_mask()
    spread = None if spreads is None else spreads.get(P)
    if spread is None:
        fvals = f.values[members]
        maxv, minv = space.metric.ball_extremes(members, policy.radii(space, members), members, fvals)
        spread = maxv - minv if kind == "pair" else np.maximum(maxv - fvals, fvals - minv)
        if spreads is not None:
            spreads[P] = spread
    return space.mask_from_ids(members[spread >= epsilon])


def pair_step(f: ScalarField, epsilon: float, P: SubsetMask, policy, *, spreads=None) -> SubsetMask:
    """Members of P whose policy ball contains a pair with f-gap >= epsilon.

    Isolated members get radius 0 under the adaptive policy and never
    qualify.  ``spreads`` is the cache of ``_step``.
    """
    return _step(f, epsilon, P, policy, "pair", spreads)


def gap_step(f: ScalarField, epsilon: float, P: SubsetMask, policy, *, spreads=None) -> SubsetMask:
    """Members of P with a single ball witness at f-gap >= epsilon from them.

    ``spreads`` is the cache of ``_step``.
    """
    return _step(f, epsilon, P, policy, "gap", spreads)


_STEPS = {"pair": pair_step, "gap": gap_step}


# ---------------------------------------------------------------------------
# Iteration
# ---------------------------------------------------------------------------

@dataclass
class DerivationTrace:
    """Record of an iterated derivation: every level, down to the terminal.

    terminal is ("emptied", n) with levels[n] empty, ("saturated", n) when
    levels[n] is a nonempty fixed point, or ("truncated", n) when a caller
    supplied max_steps cut the run short.
    """

    kind: str
    epsilon: float
    policy: object
    levels: list
    terminal: tuple

    @property
    def index(self):
        """The finite emptying step, or None when saturated/truncated."""
        return self.terminal[1] if self.terminal[0] == "emptied" else None

    def level(self, n: int) -> SubsetMask:
        """Level n, with levels past the end frozen at the terminal set."""
        if n < len(self.levels):
            return self.levels[n]
        return self.levels[-1]

    def level_sizes(self):
        return [lvl.size for lvl in self.levels]


def iterate(kind: str, f: ScalarField, epsilon: float, P: SubsetMask, policy,
            max_steps: int | None = None, *, spreads=None) -> DerivationTrace:
    """Apply the chosen step until empty, a fixed point, or max_steps.

    max_steps defaults to |P| + 1, which the strictly decreasing levels can
    never exhaust; smaller values may truncate.  ``spreads`` is passed to
    every step: traces of one f, policy and kind at several epsilons can
    share one dict.
    """
    if kind not in _STEPS:
        raise ValidationError(f"unknown derivation kind {kind!r}")
    _check_step_args(f, epsilon, P)
    if max_steps is None:
        max_steps = P.size + 1
    if max_steps < 1:
        raise ValidationError("max_steps must be >= 1")
    levels, terminal = _descend(P, lambda level: _STEPS[kind](f, epsilon, level, policy, spreads=spreads),
                               max_steps)
    return DerivationTrace(kind, epsilon, policy, levels, terminal)


# ---------------------------------------------------------------------------
# Index profiles
# ---------------------------------------------------------------------------

@dataclass
class ProfileEntry:
    epsilon: float
    index: int | None  # None means SATURATED at this epsilon
    level_sizes: list

    @property
    def saturated(self) -> bool:
        return self.index is None


@dataclass
class IndexProfile:
    entries: list
    policy: object

    def index_at(self, epsilon: float):
        for e in self.entries:
            if e.epsilon == epsilon:
                return e.index
        raise KeyError(epsilon)

    def csv_rows(self):
        rows = []
        for e in self.entries:
            label = "SATURATED" if e.saturated else str(e.index)
            rows.append((repr(e.epsilon), label, ";".join(str(s) for s in e.level_sizes)))
        return rows


def checked_epsilon_grid(epsilon_grid) -> list:
    """The grid as floats: nonempty, positive, finite and strictly decreasing."""
    grid = [float(e) for e in epsilon_grid]
    if not grid:
        raise ValidationError("epsilon grid must be nonempty")
    if any(b >= a for a, b in zip(grid, grid[1:])) or not all(0 < e < math.inf for e in grid):
        raise ValidationError("epsilon grid must be positive, finite and strictly decreasing")
    return grid


def index_profile(f: ScalarField, P: SubsetMask, policy, epsilon_grid) -> IndexProfile:
    """Emptying step of the pair-step trace for every epsilon in the grid.

    The traces share their ball spreads: a level that recurs at several
    epsilons costs one ball pass, and the cache is dropped on return.
    """
    grid = checked_epsilon_grid(epsilon_grid)
    entries = []
    spreads = {}
    for eps in grid:
        tr = iterate("pair", f, eps, P, policy, spreads=spreads)
        entries.append(ProfileEntry(eps, tr.index, tr.level_sizes()))
    return IndexProfile(entries, policy)


# ---------------------------------------------------------------------------
# Inclusion laws
# ---------------------------------------------------------------------------

@dataclass
class InclusionReport:
    """Level-by-level verdicts for the derivation inclusion laws.

    sum_split (one step) and the bracket chain (every level) are the hard
    laws; the union law and the doubled-step sum law are soft: with one
    ball per point they can genuinely fail, so violations are counted and
    reported, never raised.
    """

    epsilon: float
    depth: int
    policy: object
    sum_split_ok: bool
    sum_split_violations: list
    bracket_levels: list  # per level n: (lower_ok, upper_ok)
    union_violations: int | None
    union_violating_ids: list
    doubled_sum_violations: list  # (n, count)

    @property
    def bracket_ok(self) -> bool:
        return all(lo and up for lo, up in self.bracket_levels)

    def to_dict(self):
        return {
            "epsilon": self.epsilon,
            "depth": self.depth,
            "policy": self.policy.describe(),
            "sum_split_ok": self.sum_split_ok,
            "sum_split_violations": [int(i) for i in self.sum_split_violations],
            "bracket_levels": [[bool(a), bool(b)] for a, b in self.bracket_levels],
            "bracket_ok": self.bracket_ok,
            "union_violations": self.union_violations,
            "union_violating_ids": [int(i) for i in self.union_violating_ids],
            "doubled_sum_violations": [[int(n), int(c)] for n, c in self.doubled_sum_violations],
        }


def inclusion_check(f: ScalarField, g: ScalarField, epsilon: float, P: SubsetMask,
                    policy, depth: int, q: SubsetMask | None = None) -> InclusionReport:
    """Check the inclusion laws relating the two operators and field sums.

    Hard laws: gap_step(f+g, eps) inside the union of the half-epsilon gap
    steps (one step, shared balls), and the bracket pair-at-2eps subset
    gap-at-eps subset pair-at-eps at every level to ``depth``.  The bracket
    holds exactly at all levels under a fixed policy; under the adaptive
    policy only the first step is guaranteed (deeper levels lose the
    set-monotonicity the induction needs).

    Soft laws: the union law over P and q (checked when q is given), and
    the doubled-step sum law comparing level 2n of the summed field with
    level n of the halves.
    """
    if depth < 1:
        raise ValidationError("depth must be >= 1")
    _check_step_args(f, epsilon, P)
    _check_step_args(g, epsilon, P)
    space = P.space
    total = f + g

    a_lhs = gap_step(total, epsilon, P, policy)
    a_rhs = gap_step(f, epsilon / 2, P, policy) | gap_step(g, epsilon / 2, P, policy)
    a_bad = (a_lhs - a_rhs).ids()

    t_pair2 = iterate("pair", f, 2 * epsilon, P, policy, max_steps=depth + 1)
    t_gap = iterate("gap", f, epsilon, P, policy, max_steps=depth + 1)
    t_pair1 = iterate("pair", f, epsilon, P, policy, max_steps=depth + 1)
    bracket = []
    for n in range(1, depth + 1):
        lo = t_pair2.level(n).issubset(t_gap.level(n))
        up = t_gap.level(n).issubset(t_pair1.level(n))
        bracket.append((lo, up))

    union_violations = None
    union_ids: list = []
    if q is not None:
        u_lhs = gap_step(f, epsilon, P | q, policy)
        u_rhs = gap_step(f, epsilon, P, policy) | gap_step(f, epsilon, q, policy)
        union_ids = list((u_lhs - u_rhs).ids())
        union_violations = len(union_ids)

    t_sum = iterate("gap", total, epsilon, P, policy, max_steps=depth + 1)
    t_f = iterate("gap", f, epsilon / 2, P, policy, max_steps=depth + 1)
    t_g = iterate("gap", g, epsilon / 2, P, policy, max_steps=depth + 1)
    doubled = []
    for n in range(1, depth // 2 + 1):
        lhs = t_sum.level(2 * n)
        rhs = t_f.level(n) | t_g.level(n)
        doubled.append((n, (lhs - rhs).size))

    return InclusionReport(
        epsilon=epsilon,
        depth=depth,
        policy=policy,
        sum_split_ok=a_bad.size == 0,
        sum_split_violations=list(a_bad),
        bracket_levels=bracket,
        union_violations=union_violations,
        union_violating_ids=union_ids,
        doubled_sum_violations=doubled,
    )


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def trace_to_dict(trace: DerivationTrace) -> dict:
    return {
        "kind": trace.kind,
        "epsilon": trace.epsilon,
        "policy": trace.policy.describe(),
        "levels": [lvl.ids().tolist() for lvl in trace.levels],
        "terminal": {"state": trace.terminal[0], "step": trace.terminal[1]},
    }
