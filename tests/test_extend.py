import dataclasses
import json
import warnings

import numpy as np
import pytest

from oscext import (
    AdaptiveScale,
    FixedScale,
    ScalarField,
    block_parity_field,
    glue_extension,
    index_profile,
    iterate,
    iterated_extension,
    layered_extension,
    limsup_extension,
    random_field,
    random_instance,
    retract_extension,
    scattered_extension,
    visibility_components,
)
from oscext.cli import _field_and_subset, _policy_for, _run_method, build_parser
from oscext.errors import InvariantError, PreconditionError, ValidationError
from oscext.extend import _assert_layer_bounds
from oscext.instances import cantor_point_id, generate_from_spec, ordinal_instance, scaled_position_field
from oracles import o_layer_bounds


class TestGlue:
    def test_full_domain_restriction(self, rand60):
        f = random_field(rand60, 16)
        eps = 2 * f.norm() + 0.5  # the one-step set is empty at this epsilon
        rep = glue_extension(rand60, rand60.full_mask(), f, eps, AdaptiveScale(1.5))
        assert rep.restriction_error == 0.0
        assert rep.diagnostics["prepatch_error_on_Y"] <= eps

    def test_constant_on_proper_subset(self, seq10):
        Y = seq10.mask_from_ids([0, 3, 5])
        f = ScalarField.constant(Y, 2.5)
        rep = glue_extension(seq10, Y, f, 0.5, AdaptiveScale(2.0))
        vals = rep.field.values
        covered = vals == 2.5
        assert covered[[0, 3, 5]].all()
        assert set(np.unique(vals)) <= {0.0, 2.5}
        assert rep.diagnostics["norm_prepatch"] == 2.5

    def test_indicator_fixture_alpha2(self, seq10, seq_indicator):
        rep = glue_extension(seq10, seq10.full_mask(), seq_indicator, 0.5, AdaptiveScale(2.0))
        assert rep.diagnostics["alpha"] == 2
        assert rep.diagnostics["prepatch_error_on_Y"] <= 0.5
        assert rep.diagnostics["norm_prepatch"] <= 1.0

    def test_saturated_trace_is_clean_error(self, seq10, seq_indicator):
        with pytest.raises(PreconditionError, match="saturated"):
            glue_extension(seq10, seq10.full_mask(), seq_indicator, 0.5, AdaptiveScale(3.0))

    def test_prop1_contracts_on_seeds(self):
        for seed in range(8):
            space = random_instance(seed + 300, 50, 2)
            f = random_field(space, seed + 400)
            eps = None
            for cand in (0.9, 0.8, 0.7, 0.6, 0.5):
                tr = iterate("pair", f, cand, space.full_mask(), AdaptiveScale(1.5))
                if tr.terminal[0] == "emptied":
                    eps = cand
                    break
            if eps is None:
                continue
            rep = glue_extension(space, space.full_mask(), f, eps, AdaptiveScale(1.5))
            assert rep.diagnostics["norm_prepatch"] <= rep.diagnostics["norm_f"]
            assert rep.diagnostics["prepatch_error_on_Y"] <= eps


class TestIterated:
    def test_constant_first_round(self, seq10):
        f = ScalarField.constant(seq10.full_mask(), 0.8)
        rep = iterated_extension(seq10, seq10.full_mask(), f, AdaptiveScale(2.0), 3)
        assert rep.diagnostics["residual_norms"][0] <= 0.5

    def test_indicator_ten_rounds(self, seq10, seq_indicator):
        rep = iterated_extension(seq10, seq10.full_mask(), seq_indicator, AdaptiveScale(2.0), 10)
        for n, r in enumerate(rep.diagnostics["residual_norms"], start=1):
            assert r <= 2.0**-n
        assert rep.restriction_error == 0.0

    def test_single_round_equals_glue_plus_patch(self, seq10, seq_indicator):
        rep1 = iterated_extension(seq10, seq10.full_mask(), seq_indicator, AdaptiveScale(2.0), 1)
        rep2 = glue_extension(seq10, seq10.full_mask(), seq_indicator, 0.5, AdaptiveScale(2.0))
        assert np.array_equal(rep1.field.values, rep2.field.values)

    def test_saturation_reports_round(self, rand60):
        f = random_field(rand60, 17)
        with pytest.raises(PreconditionError, match="round"):
            iterated_extension(rand60, rand60.full_mask(), f, AdaptiveScale(3.0), 5)

    def test_rounds_validated(self, seq10, seq_indicator):
        with pytest.raises(ValidationError):
            iterated_extension(seq10, seq10.full_mask(), seq_indicator, AdaptiveScale(2.0), 0)

    def test_rounds_above_1074_rejected_up_front(self, seq10, seq_indicator):
        with pytest.raises(ValidationError, match="at most 1074"):
            iterated_extension(seq10, seq10.full_mask(), seq_indicator, AdaptiveScale(2.0), 1075)

    def test_1074_rounds_run(self, seq10, seq_indicator):
        rep = iterated_extension(seq10, seq10.full_mask(), seq_indicator, AdaptiveScale(2.0), 1074)
        assert len(rep.diagnostics["residual_norms"]) == 1074
        assert rep.restriction_error == 0.0


def reference_iterated(space, Y, f, policy, rounds):
    """The iterated series with no early exit: one glue construction per
    round, also once the residual is zero."""
    fY = f.restrict(Y)
    total = np.zeros(space.n)
    residual_norms = []
    residual = fY
    for nround in range(1, rounds + 1):
        eps = 2.0**-nround
        g = glue_extension(space, Y, residual, eps, policy).prepatch
        if g.norm() > residual.norm():
            raise InvariantError(f"round {nround}: ||g|| exceeds the residual norm")
        total = total + g.values
        residual = ScalarField(Y, np.where(Y.mask, fY.values - total, np.nan))
        residual_norms.append(residual.norm())
        if residual_norms[-1] > eps:
            raise InvariantError(f"round {nround}: residual norm exceeds 2^-{nround}")
    return total, residual_norms


def _ordinal2_case(field, first_half=False, negative_zeros=False):
    space = generate_from_spec("ordinal:2")
    f = space.fields[field]
    if negative_zeros:
        f = ScalarField(f.domain, np.where(f.values == 0.0, -0.0, f.values))
    Y = space.mask_from_ids(np.arange(space.n // 2)) if first_half else space.subsets["Y"]
    return space, Y, f, AdaptiveScale(3.0)


def _late_zero_case():
    # The residual is nonzero for three rounds and exactly zero from round 4.
    space = ordinal_instance(1, 4)
    f = ScalarField(space.full_mask(), np.array([0.5, 0.0, 0.0, -0.125, -0.25]))
    return space, space.full_mask(), f, AdaptiveScale(1.5)


ITERATED_CASES = {
    "ordinal2_f": lambda: _ordinal2_case("f"),  # zero after round 1
    "ordinal2_pos": lambda: _ordinal2_case("pos"),  # never zero
    "ordinal2_negative_zeros": lambda: _ordinal2_case("f", negative_zeros=True),
    "ordinal2_subset_f": lambda: _ordinal2_case("f", first_half=True),
    "ordinal2_subset_pos": lambda: _ordinal2_case("pos", first_half=True),
    "ordinal1_late_zero": _late_zero_case,
}


class TestIteratedMatchesReference:
    """The series stops at the first exactly zero residual; its output must be
    the one the full series gives, signed zeros included."""

    @pytest.mark.parametrize("rounds", [1, 2, 12])
    @pytest.mark.parametrize("case", sorted(ITERATED_CASES))
    def test_bit_identical(self, case, rounds):
        space, Y, f, policy = ITERATED_CASES[case]()
        rep = iterated_extension(space, Y, f, policy, rounds)
        total, norms = reference_iterated(space, Y, f, policy, rounds)
        patched = total.copy()
        patched[Y.mask] = f.values[Y.mask]
        assert rep.prepatch.values.tobytes() == total.tobytes()
        assert rep.field.values.tobytes() == patched.tobytes()
        assert rep.diagnostics["residual_norms"] == norms
        assert rep.patch_magnitude == float(np.max(np.abs(total[Y.mask] - f.values[Y.mask])))
        assert rep.restriction_error == 0.0

    def test_cases_reach_what_they_name(self):
        assert 0.0 not in reference_iterated(*ITERATED_CASES["ordinal2_pos"](), 12)[1]
        norms = reference_iterated(*ITERATED_CASES["ordinal1_late_zero"](), 12)[1]
        assert norms.index(0.0) == 3 and set(norms[3:]) == {0.0}
        _space, Y, f, _policy = ITERATED_CASES["ordinal2_negative_zeros"]()
        assert np.signbit(f.values[Y.mask]).any()


class TestLimsup:
    def test_patch_on_y(self, seq10, seq_indicator):
        rep = limsup_extension(seq10, seq10.full_mask(), seq_indicator)
        assert rep.restriction_error == 0.0
        assert np.array_equal(rep.field.values, seq_indicator.values)

    def test_constant(self, rand60):
        Y = rand60.mask_from_ids(list(range(0, 60, 2)))
        f = ScalarField.constant(Y, -1.5)
        rep = limsup_extension(rand60, Y, f)
        assert np.all(rep.field.values == -1.5)

    def test_range_bound(self, rand60):
        Y = rand60.mask_from_ids(list(range(0, 60, 3)))
        f = random_field(rand60, 18).restrict(Y)
        rep = limsup_extension(rand60, Y, f)
        vals = f.values[Y.mask]
        assert rep.field.values.min() >= vals.min()
        assert rep.field.values.max() <= vals.max()

    def test_cantor_shell_value(self, cantor6):
        # F at the all-ones point is the max of f over the coarsest shell
        # above the resolution floor: both parities appear, so the value
        # is 2/3 regardless of the depth parity.
        f = block_parity_field(cantor6)
        rep = limsup_extension(cantor6, cantor6.subsets["Y"], f)
        w = cantor_point_id(cantor6, "", 1)
        shell = [cantor_point_id(cantor6, "1" * 6, 0), cantor_point_id(cantor6, "1" * 5, 0)]
        assert rep.field.values[w] == max(f.values[i] for i in shell)


class TestRetract:
    def test_identity_on_full_domain(self, seq10, seq_indicator):
        rep = retract_extension(seq10, seq_indicator)
        assert np.array_equal(rep.field.values, seq_indicator.values)

    def test_single_point_domain(self, seq10):
        f = ScalarField.on_ids(seq10, [3], [7.0])
        rep = retract_extension(seq10, f)
        assert np.all(rep.field.values == 7.0)

    def test_threshold_by_proximity(self, seq10):
        f = ScalarField.on_ids(seq10, [0, 1], [0.0, 1.0])
        rep = retract_extension(seq10, f)
        coords = seq10.metric.coords[:, 0]
        expect = np.where(np.abs(coords - 0.0) <= np.abs(coords - 1.0), 0.0, 1.0)
        # ties break to the smaller id (the point 0)
        assert np.array_equal(rep.field.values, expect)

    def test_open_domain_rejected(self, cantor6):
        # a lone non-isolated point: its twin lies within the resolution
        f = ScalarField.on_ids(cantor6, [0], [1.0])
        with pytest.raises(PreconditionError, match="closed at resolution"):
            retract_extension(cantor6, f)


class TestLayered:
    def test_dense_precondition(self, seq10, seq_indicator):
        Y = seq10.mask_from_ids([0, 1])
        with pytest.raises(PreconditionError, match="dense"):
            layered_extension(seq10, Y, seq_indicator.restrict(Y))

    def test_full_domain_small_euclid(self, rand60):
        f = scaled_position_field(rand60)
        rep = layered_extension(rand60, rand60.full_mask(), f)
        assert rep.restriction_error == 0.0
        assert rep.assertion_log == []

    def test_cantor_depth6_pipeline(self, cantor6):
        f = block_parity_field(cantor6)
        rep = layered_extension(cantor6, cantor6.subsets["Y"], f)
        assert rep.restriction_error == 0.0
        assert rep.assertion_log == []
        assert rep.patch_magnitude <= 2.0 ** (1 - rep.diagnostics["k_star"])
        prof = index_profile(rep.field, cantor6.full_mask(), AdaptiveScale(1.5),
                             [3.0**-j for j in range(1, 5)])
        assert all(e.index is not None and e.index <= 3 for e in prof.entries)

    def test_layer_carriers_nest(self, cantor6):
        f = block_parity_field(cantor6)
        rep = layered_extension(cantor6, cantor6.subsets["Y"], f)
        sizes = rep.diagnostics["carrier_sizes"]
        assert all(b <= a for a, b in zip(sizes, sizes[1:]))

    def test_jump_field_exits_after_first_layer(self):
        # indicator of one interleaved grid: every point fails the
        # oscillation test immediately, so only layer 0 exists
        from oscext.space import EuclideanMetric, SpaceInstance

        xs = np.arange(0, 16) * 0.01
        space = SpaceInstance("grids", EuclideanMetric(xs), resolution=0.011, family="euclidean")
        vals = np.where(np.arange(16) % 2 == 0, 0.0, 1.0)
        f = ScalarField(space.full_mask(), vals)
        rep = layered_extension(space, space.full_mask(), f)
        assert rep.diagnostics["layers"] == 1
        assert rep.restriction_error == 0.0


class TestScattered:
    def test_family_gate(self, rand60):
        f = random_field(rand60, 19)
        with pytest.raises(PreconditionError, match="clopen"):
            scattered_extension(rand60, rand60.full_mask(), f)

    def test_full_y_is_identity(self, ordinal1):
        f = scaled_position_field(ordinal1)
        rep = scattered_extension(ordinal1, ordinal1.full_mask(), f)
        assert np.array_equal(rep.field.values, f.values)
        assert rep.patch_magnitude == 0.0

    def test_apex_outside_closure_gets_zero(self, ordinal2):
        # Y collects only the outermost cluster, far from the apex
        coords = ordinal2.metric.coords[:, 0]
        ids = np.flatnonzero(coords > 0.7)
        Y = ordinal2.mask_from_ids(ids)
        f = scaled_position_field(ordinal2).restrict(Y)
        rep = scattered_extension(ordinal2, Y, f)
        assert rep.field.values[0] == 0.0

    def test_random_subsets_low_index(self, ordinal2):
        grid = [2.0**-j for j in range(1, 9)]
        f_full = scaled_position_field(ordinal2)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            ids = np.flatnonzero(rng.uniform(size=ordinal2.n) < 0.4)
            if ids.size == 0:
                ids = np.array([1])
            Y = ordinal2.mask_from_ids(ids)
            rep = scattered_extension(ordinal2, Y, f_full.restrict(Y))
            prof = index_profile(rep.field, ordinal2.full_mask(), AdaptiveScale(3.0), grid)
            assert all(e.index is not None and e.index <= 2 for e in prof.entries)

    def test_saturating_fixed_policy_refused(self, ordinal1):
        f = scaled_position_field(ordinal1)
        with pytest.raises(PreconditionError, match="scattered"):
            scattered_extension(ordinal1, ordinal1.full_mask(), f, FixedScale(10.0))

    def test_components_partition_region(self, ordinal2):
        comps = visibility_components(ordinal2, ordinal2.full_mask(), 3.0)
        total = np.zeros(ordinal2.n, dtype=int)
        for comp in comps:
            total[comp.mask] += 1
        assert np.all(total == 1)

    @pytest.mark.parametrize("spec", ["ordinal:1", "ordinal:2", "ordinal:3", "sequence", "cantor:6", "cantor:8"])
    @pytest.mark.parametrize("mult", [1.0, 1.5, 3.0])
    def test_components_are_not_split_again(self, spec, mult):
        # The scattered loop splits each region once: restricted to one of
        # its components, every in-set nearest distance can only grow.
        space = generate_from_spec(spec)
        rng = np.random.default_rng(len(spec))
        regions = [space.full_mask()] + [
            space.mask_from_ids(np.flatnonzero(rng.uniform(size=space.n) < keep)) for keep in (0.2, 0.5, 0.8)]
        for region in regions:
            for comp in visibility_components(space, region, mult):
                assert visibility_components(space, comp, mult) == [comp]


class TestRestrictionIdentityEverywhere:
    def test_all_methods_restrict_exactly(self, seq10, seq_indicator, ordinal2, cantor6):
        runs = []
        runs.append(glue_extension(seq10, seq10.full_mask(), seq_indicator, 0.5, AdaptiveScale(2.0)))
        runs.append(iterated_extension(seq10, seq10.full_mask(), seq_indicator, AdaptiveScale(2.0), 5))
        runs.append(limsup_extension(seq10, seq10.full_mask(), seq_indicator))
        f2 = block_parity_field(cantor6)
        runs.append(layered_extension(cantor6, cantor6.subsets["Y"], f2))
        runs.append(limsup_extension(cantor6, cantor6.subsets["Y"], f2))
        f3 = scaled_position_field(ordinal2)
        runs.append(scattered_extension(ordinal2, ordinal2.full_mask(), f3))
        for rep in runs:
            assert rep.restriction_error == 0.0

    def test_determinism(self, cantor6):
        f = block_parity_field(cantor6)
        a = layered_extension(cantor6, cantor6.subsets["Y"], f)
        b = layered_extension(cantor6, cantor6.subsets["Y"], f)
        assert np.array_equal(a.field.values, b.field.values)


def _leaves(obj):
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


class TestReportDict:
    @pytest.mark.parametrize("spec, method", [
        *[("ordinal:2", m) for m in ("glue", "iterated", "layered", "limsup", "retract", "scattered")],
        *[("cantor:6", m) for m in ("layered", "limsup", "scattered")],
    ])
    def test_to_dict_is_plain_json(self, spec, method):
        # to_dict hands the diagnostics out as built: every construction
        # builds them from Python scalars, strings and lists.
        args = build_parser().parse_args(["extend", "--generate", spec, "--method", method])
        space = generate_from_spec(spec)
        f, Y = _field_and_subset(space, args)
        d = _run_method(method, space, Y, f, _policy_for(space, args), args).to_dict()
        assert json.loads(json.dumps(d)) == d
        assert not [leaf for leaf in _leaves(d) if isinstance(leaf, (np.generic, np.ndarray))]

    def test_numpy_arguments_reach_json_as_python(self, seq10, seq_indicator):
        # epsilon and rounds are the diagnostics a caller passes in.
        reps = [glue_extension(seq10, seq10.full_mask(), seq_indicator, np.float32(0.5), AdaptiveScale(2.0)),
                iterated_extension(seq10, seq10.full_mask(), seq_indicator, AdaptiveScale(2.0), np.int64(3))]
        for rep in reps:
            d = rep.to_dict()
            assert json.loads(json.dumps(d)) == d
            d["diagnostics"].clear()  # a copy: the report keeps its own
            assert rep.diagnostics


class TestLimsupRegression:
    def test_depth8_ternary_profile_frozen(self, cantor8):
        # frozen at first computation: the envelope's trace never empties at
        # any ternary epsilon, at either measurement multiplier
        f = block_parity_field(cantor8)
        rep = limsup_extension(cantor8, cantor8.subsets["Y"], f)
        for mult in (1.5, 3.0):
            prof = index_profile(rep.field, cantor8.full_mask(), AdaptiveScale(mult),
                                 [1 / 3, 1 / 9, 1 / 27])
            assert [e.index for e in prof.entries] == [None, None, None]


class TestLayeredInvariants:
    def test_carriers_nest_and_level_numbers_grow(self, cantor6):
        from oscext.extend import _CantorSupports, _layered, nearest_in_set

        f = block_parity_field(cantor6)
        Y = cantor6.subsets["Y"]
        layers = _layered(cantor6, Y, f.restrict(Y), 24, 10, *nearest_in_set(cantor6, Y), _CantorSupports)
        for a, b in zip(layers, layers[1:]):
            assert b.carrier.issubset(a.carrier)
        for st in layers:
            centers = st.centers
            lv = st.level_numbers[centers]
            assert np.all(lv >= st.k + 1)


def _built_layers(spec):
    """(Y, fY, layers) as ``layered_extension`` builds them on a generated space, every layer's values read."""
    space = generate_from_spec(spec)
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("oscext.extend._assert_layer_bounds", lambda fY, layers: seen.append((fY, layers)))
        layered_extension(space, space.subsets["Y"], space.fields["f"])
    (fY, layers), = seen
    return space.subsets["Y"], fY, [dataclasses.replace(st, _values=st.values) for st in layers]


def _oracle_message(found):
    """The check's message from the pair loop's failures: per failing layer j,
    its first failing point p with the first deeper layer failing there, then
    its first failing point of Y."""
    parts = []
    for j in sorted({j for j, _m, _pts in found}):
        pairs = [(int(pts[0]), m) for jj, m, pts in found if jj == j and m is not None]
        if pairs:
            p, m = min(pairs)
            parts.append(f"layer pair ({j},{m}): |F_{j}-F_{m}| bound fails at point {p}")
        parts += [f"layer {j}: |F_{j}-f| bound fails on Y at point {pts[0]}"
                  for jj, m, pts in found if jj == j and m is None]
    return "layer difference bounds failed: " + "; ".join(parts) if parts else None


class TestLayerBounds:
    """``_assert_layer_bounds`` against the pair loop of ``o_layer_bounds`` on
    built layers whose values are perturbed at a few carrier points."""

    @pytest.mark.parametrize("spec", ["ordinal:2", "ordinal:3", "cantor:6", "cantor:8", "sequence:40"])
    def test_matches_pair_loop(self, spec):
        Y, fY, layers = _built_layers(spec)
        assert o_layer_bounds(Y, fY, layers) == []
        _assert_layer_bounds(fY, layers)
        rng = np.random.default_rng(len(layers))
        steps = [2.0 ** -k for k in range(30)] + [5e-324, np.nextafter(2.0, 3.0)]
        raised = 0
        for _ in range(60):
            trial = list(layers)
            for _ in range(rng.integers(1, 4)):
                j = int(rng.integers(1, len(layers)))
                vals = trial[j].values.copy()
                p = int(rng.choice(trial[j].carrier.ids()))
                deeper = [m for m in range(j + 1, len(layers)) if layers[m].carrier.mask[p]]
                if deeper and rng.random() < 0.3:
                    # to the bound against one deeper layer, or one step inside it
                    m = int(rng.choice(deeper))
                    vals[p] = layers[m].values[p] + rng.choice([-1, 1]) * 2.0 ** (1.0 - layers[j].min_prev_level[p])
                    if rng.random() < 0.5:
                        vals[p] = np.nextafter(vals[p], layers[m].values[p])
                else:
                    vals[p] += rng.choice([-1, 1]) * steps[rng.integers(len(steps))]
                trial[j] = dataclasses.replace(trial[j], _values=vals)
            expected = _oracle_message(o_layer_bounds(Y, fY, trial))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if expected is None:
                    _assert_layer_bounds(fY, trial)
                    continue
                with pytest.raises(InvariantError) as err:
                    _assert_layer_bounds(fY, trial)
            assert str(err.value) == expected
            raised += 1
        assert 0 < raised < 60

    def test_message_for_one_fault(self):
        _Y, fY, layers = _built_layers("ordinal:2")
        vals = layers[1].values.copy()
        vals[5] += 4.0
        layers[1] = dataclasses.replace(layers[1], _values=vals)
        layers[0] = dataclasses.replace(layers[0], _values=lambda: pytest.fail("layer 0's values were read"))
        with pytest.raises(InvariantError) as err:
            _assert_layer_bounds(fY, layers)
        assert str(err.value) == ("layer difference bounds failed: layer pair (1,2): |F_1-F_2| bound fails "
                                  "at point 5; layer 1: |F_1-f| bound fails on Y at point 5")
