"""Subsets of the points of one space, and scalar fields on them.

A subset costs its members: it holds sorted member ids, and builds the
full-length bool mask only when that is read.  A field holds one value per
point of the space, NaN off its domain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import PreconditionError, ValidationError

if TYPE_CHECKING:
    from .space import SpaceInstance


class SubsetMask:
    """An immutable subset of the points of one space.

    A subset costs its members, not the space.  It holds its sorted member
    ids (``ids()``, read-only), or the full-length bool ``mask`` it was
    built from, and builds the other on first read and keeps it.  ``size``
    and ``is_empty`` count whichever it holds; ``==`` and ``hash`` read the
    ids, ``==`` after comparing sizes.  ``&``, ``|``, ``-`` and ``issubset``
    combine the bool masks when both are built, and otherwise look one
    side's members up in the other's mask or sorted ids.  A subset from
    ``mask_from_ids``, or from those operations on such subsets, builds no
    full-length array until ``mask`` is read.
    """

    __slots__ = ("space", "_mask", "_ids")

    def __init__(self, space: SpaceInstance, mask: np.ndarray):
        self.space = space
        m = np.asarray(mask, dtype=bool)
        if m.shape != (space.n,):
            raise ValidationError(f"mask length {m.shape} does not match space size {space.n}")
        m = m.copy()
        m.setflags(write=False)
        self._mask = m
        self._ids = None

    @classmethod
    def _owning(cls, space: SpaceInstance, ids=None, mask=None) -> "SubsetMask":
        """A subset of sorted distinct int64 ``ids`` or a bool ``mask``, taken over unchecked."""
        sub = cls.__new__(cls)
        sub.space, sub._ids, sub._mask = space, ids, mask
        (mask if ids is None else ids).setflags(write=False)
        return sub

    @property
    def mask(self) -> np.ndarray:
        """The full-length bool membership array, read-only; built on first read."""
        if self._mask is None:
            m = np.zeros(self.space.n, dtype=bool)
            m[self._ids] = True
            m.setflags(write=False)
            self._mask = m
        return self._mask

    def ids(self) -> np.ndarray:
        """The member ids, ascending, read-only."""
        if self._ids is None:
            ids = np.flatnonzero(self._mask).astype(np.int64, copy=False)
            ids.setflags(write=False)
            self._ids = ids
        return self._ids

    def _has(self, ids: np.ndarray) -> np.ndarray:
        """Per point id in ``ids``: whether it is a member, from the mask when it is built."""
        if self._mask is not None:
            return self._mask[ids]
        return _in_sorted(self._ids, ids)

    @property
    def size(self) -> int:
        if self._ids is None:  # no ids kept beside a mask only to count it
            return int(np.count_nonzero(self._mask))
        return int(self._ids.size)

    def __len__(self):
        return self.size

    def __contains__(self, i):
        i = int(i)
        return 0 <= i < self.space.n and bool(self._has(np.array([i]))[0])

    def is_empty(self) -> bool:
        return self.size == 0

    def same_space(self, other: "SubsetMask"):
        if self.space is not other.space:
            raise ValidationError("masks are bound to different spaces")

    def __eq__(self, other):
        if not isinstance(other, SubsetMask):
            return NotImplemented
        if self is other:
            return True
        return (self.space is other.space and self.size == other.size
                and bool((self.ids() == other.ids()).all()))

    def __hash__(self):
        return hash((id(self.space), self.ids().tobytes()))

    def _both_masks(self, other: "SubsetMask") -> bool:
        self.same_space(other)
        return self._mask is not None and other._mask is not None

    def issubset(self, other: "SubsetMask") -> bool:
        if self is other:
            return True
        if self._both_masks(other):
            return not (self._mask > other._mask).any()
        return bool(other._has(self.ids()).all())

    def __and__(self, other):
        if self._both_masks(other):
            return SubsetMask._owning(self.space, mask=self._mask & other._mask)
        # Walk one side's members and look them up in the other: in its
        # mask when it has one, else walk the smaller side.
        walk, look = self, other
        if other._mask is None and (self._mask is not None or self.size > other.size):
            walk, look = other, self
        ids = walk.ids()
        return SubsetMask._owning(self.space, ids=ids[look._has(ids)])

    def __or__(self, other):
        if self._both_masks(other):
            return SubsetMask._owning(self.space, mask=self._mask | other._mask)
        extra = other.ids()[~self._has(other.ids())]
        if not extra.size:
            return SubsetMask._owning(self.space, ids=self.ids())
        return SubsetMask._owning(self.space, ids=np.sort(np.concatenate((self.ids(), extra))))

    def __sub__(self, other):
        if self._both_masks(other):
            return SubsetMask._owning(self.space, mask=self._mask & ~other._mask)
        ids = self.ids()
        return SubsetMask._owning(self.space, ids=ids[~other._has(ids)])

    def __repr__(self):
        return f"SubsetMask({self.size}/{self.space.n} points of {self.space.name!r})"


class ScalarField:
    """A finite real value per point of a domain mask.

    Values are stored in a full-length array with NaN off the domain, which
    keeps arithmetic and restriction cheap.
    """

    __slots__ = ("space", "domain", "values")

    def __init__(self, domain: SubsetMask, values: np.ndarray):
        self.space = domain.space
        self.domain = domain
        v = np.asarray(values, dtype=np.float64)
        if v.shape != (self.space.n,):
            raise ValidationError("field values must be a full-length array")
        if not np.all(np.isfinite(v[domain.mask])):
            raise ValidationError("field has a non-finite value on its domain")
        v = v.copy()
        v[~domain.mask] = np.nan
        v.setflags(write=False)
        self.values = v

    @classmethod
    def on_ids(cls, space: SpaceInstance, ids, values) -> "ScalarField":
        ids = np.asarray(ids, dtype=np.int64)
        vals = np.asarray(values, dtype=np.float64)
        if ids.shape != vals.shape:
            raise ValidationError("domain ids and values must align")
        domain = space.mask_from_ids(ids)  # rejects unknown ids before they index
        if domain.size != ids.size:
            srt = np.sort(ids)
            raise ValidationError(f"domain repeats point id {srt[1:][srt[1:] == srt[:-1]][0]}")
        full = np.full(space.n, np.nan)
        full[ids] = vals
        # The values cost the space already; the domain keeps its mask, not
        # a second, 8-byte-per-member copy of the ids.
        return cls(SubsetMask(space, domain.mask), full)

    @classmethod
    def constant(cls, domain: SubsetMask, value: float) -> "ScalarField":
        full = np.full(domain.space.n, np.nan)
        full[domain.mask] = float(value)
        return cls(domain, full)

    def value(self, i: int) -> float:
        i = self.space.check_id(i)
        if not self.domain.mask[i]:
            raise PreconditionError(f"point {i} is outside the field domain")
        return float(self.values[i])

    def on(self, mask: SubsetMask) -> np.ndarray:
        """Values over the members of ``mask`` (which must lie in the domain)."""
        if not mask.issubset(self.domain):
            raise PreconditionError("mask is not contained in the field domain")
        return self.values[mask.mask]

    def restrict(self, mask: SubsetMask) -> "ScalarField":
        if not mask.issubset(self.domain):
            raise PreconditionError("restriction target is not contained in the domain")
        return ScalarField(mask, self.values)

    def norm(self) -> float:
        if self.domain.is_empty():
            return 0.0
        return float(np.max(np.abs(self.values[self.domain.mask])))

    def __add__(self, other: "ScalarField") -> "ScalarField":
        self.domain.same_space(other.domain)
        dom = self.domain & other.domain
        return ScalarField(dom, np.where(dom.mask, self.values + other.values, np.nan))

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        self.domain.same_space(other.domain)
        dom = self.domain & other.domain
        return ScalarField(dom, np.where(dom.mask, self.values - other.values, np.nan))

    def __repr__(self):
        return f"ScalarField(on {self.domain.size} points of {self.space.name!r})"


def _increasing(a: np.ndarray, strict: bool = True) -> bool:
    """Whether the 1-D ``a`` is (strictly) increasing."""
    return bool((a[1:] > a[:-1] if strict else a[1:] >= a[:-1]).all())


def _distinct_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct entries of the 1-D ``a``, ascending (``np.unique`` without its ``numpy.ma`` import)."""
    a = np.sort(a)
    keep = np.ones(a.size, dtype=bool)
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _in_sorted(t: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per entry of ``q``: whether it occurs in the ascending array ``t``."""
    if t.size == 0:
        return np.zeros(q.shape, dtype=bool)
    return t[np.minimum(t.searchsorted(q), t.size - 1)] == q
