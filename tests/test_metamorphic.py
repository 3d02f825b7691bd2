"""Metamorphic relations: maps of a space's points that change no computed
distance, so every output must be byte-identical.

Each case rebuilds a generated space with ``SpaceInstance`` on the mapped
metric, keeping its resolution, subsets, fields and family, and compares
all six extensions (field bytes and ``report.to_dict()``, or the error a
construction refuses with) and the pair-step index profile over the
``index`` command's epsilon grid.

- Line: negating every coordinate reverses the coordinate order, so it
  exercises the (coordinate, id) tie rules of the run kernels.
- Prefix metric: XOR of every code with one constant keeps every common
  prefix.
- Euclidean: negating every coordinate keeps every squared difference, and
  a swap of two coordinates in the same ``_euclidean`` lane keeps every
  sum.  Only a lane of two terms is exact under a swap: a third term
  re-associates the lane's sum.
"""

import functools
import json

import numpy as np
import pytest

from oscext import ScalarField, SpaceInstance, SubsetMask, index_profile
from oscext.cli import _METHODS, _field_and_subset, _grid_for, _policy_for, _run_method, build_parser
from oscext.errors import OscextError
from oscext.instances import generate_from_spec
from oscext.space import CantorMetric, EuclideanMetric


def _rebuilt(space, metric):
    new = SpaceInstance(space.name, metric, space.resolution, family=space.family)
    new.subsets = {name: SubsetMask(new, s.mask) for name, s in space.subsets.items()}
    new.fields = {name: ScalarField(SubsetMask(new, f.domain.mask), f.values) for name, f in space.fields.items()}
    return new


def _outputs(space):
    """Every compared output of ``space``, as bytes and strings."""
    args = build_parser().parse_args(["extend", "--method", "layered"])  # the default flags
    f, Y = _field_and_subset(space, args)
    policy = _policy_for(space, args)
    profile = index_profile(f, Y & f.domain, policy, _grid_for(space, None))
    out = {"profile": [(e.epsilon.hex(), e.index, e.level_sizes) for e in profile.entries]}
    for method in _METHODS:
        try:
            rep = _run_method(method, space, Y, f, policy, args)
        except OscextError as exc:
            out[method] = (type(exc).__name__, str(exc))
        else:
            out[method] = (rep.field.values.tobytes(), json.dumps(rep.to_dict()))
    return out


@functools.lru_cache(maxsize=None)
def _generated_outputs(spec):
    return _outputs(generate_from_spec(spec))


def _negated(metric):
    return EuclideanMetric(-metric.coords)


def _swapped(a, b):
    def swap(metric):
        coords = metric.coords.copy()
        coords[:, [a, b]] = coords[:, [b, a]]
        return EuclideanMetric(coords)
    return swap


def _xor(const=None):
    """XOR with ``const``, or with all ones over the code width."""
    def xor(metric):
        c = (1 << metric.width) - 1 if const is None else const
        return CantorMetric(metric.code ^ np.uint64(c), metric.width)
    return xor


CASES = [
    *[(spec, "negate", _negated) for spec in ("ordinal:2", "ordinal:2:5", "sequence:40", "random:3:300:1")],
    *[(spec, name, _xor(c)) for spec in ("cantor:4", "cantor:6")
      for name, c in (("xor 1", 1), ("xor 0b1011", 0b1011), ("xor all ones", None))],
    # random:7:2100:2 is past the dense nearest-point limit: the kd-tree path
    *[(spec, "negate", _negated) for spec in ("random:7:200:2", "random:7:2100:2", "random:7:60:3", "random:3:400:4")],
    ("random:7:60:3", "swap 0,2", _swapped(0, 2)),
    ("random:3:400:4", "swap 0,2", _swapped(0, 2)),
    ("random:3:400:4", "swap 1,3", _swapped(1, 3)),
]


@pytest.mark.parametrize("spec, relation, mapped", CASES, ids=[f"{s}-{r}" for s, r, _m in CASES])
def test_outputs_are_byte_identical(spec, relation, mapped):
    space = generate_from_spec(spec)
    assert _outputs(_rebuilt(space, mapped(space.metric))) == _generated_outputs(spec)


def test_line_negation_with_half_of_the_sequence_as_y():
    # With Y the first half of the points, the retraction reads nearest
    # points of Y, so the line's tie rules, which negation mirrors, show.
    space = generate_from_spec("sequence:40")
    space.subsets["Y"] = SubsetMask(space, np.arange(space.n) < space.n // 2)
    assert _outputs(_rebuilt(space, _negated(space.metric))) == _outputs(space)
