import copy
import math
import operator
import pickle
import re
import warnings
from dataclasses import FrozenInstanceError, asdict, fields, make_dataclass, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multiphonon import (
    CapabilityError,
    DefectConfiguration,
    DegeneracyError,
    DomainError,
    ModeLookupError,
    MultiphononError,
    OscillatorPair,
    gaussian_delta,
    isotope_rate_ratio,
    nonradiative_rate,
    rate_sweep,
    sweep_grid,
    transition_moment,
    transition_moments,
    VibrationalMode,
)
from multiphonon import rates
from multiphonon.rates import SWEEP_PARAMETERS, SweepPoint
from references import mpmath_rate, reference_rate

EXPERIMENT_RATE = 1.0 / 0.885e-6  # s^-1, natural-variant total decay rate


class TestGaussianDelta:
    def test_peak_value(self):
        # 1/(16.5 sqrt(2 pi)) by independent 30-digit arithmetic.
        assert gaussian_delta(0.0, 16.5) == pytest.approx(0.0241783200243, rel=1e-10)

    def test_normalization_by_quadrature(self):
        sigma = 16.5
        x = np.linspace(-10 * sigma, 10 * sigma, 200001)
        integral = np.trapezoid([gaussian_delta(float(v), sigma) for v in x], x)
        assert integral == pytest.approx(1.0, abs=1e-10)

    def test_even_symmetry_exact(self):
        for detuning in (0.3, 12.0, 550.0):
            assert gaussian_delta(detuning, 16.5) == gaussian_delta(-detuning, 16.5)

    @pytest.mark.parametrize("sigma", [0.0, -1.0, math.inf, math.nan])
    def test_domain_errors(self, sigma):
        with pytest.raises(DomainError):
            gaussian_delta(1.0, sigma)

    def test_weight_past_the_float_range_is_refused(self):
        # 1/(σ sqrt(2π)) overflows below σ = 2.2e-309; above, the value is unchanged.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapabilityError, match="^the Gaussian weight is not finite"):
                gaussian_delta(5e-324, 5e-324)
            assert gaussian_delta(0.0, 1e-308) == 1.0 / (1e-308 * math.sqrt(2.0 * math.pi))


class TestNonradiativeRate:
    def test_zero_coupling_gives_zero_rate(self, natural):
        silent = natural.with_mode(replace(natural.mode("ch-stretch"), coupling=0.0))
        assert nonradiative_rate(silent, "ch-stretch").total_rate == 0.0

    def test_ch_stretch_within_order_of_magnitude_of_experiment(self, natural):
        rate = nonradiative_rate(natural, "ch-stretch").total_rate
        assert EXPERIMENT_RATE / 10 <= rate <= EXPERIMENT_RATE * 10

    def test_accepting_mode_fails_by_orders_of_magnitude(self, natural):
        rate = nonradiative_rate(natural, "accepting").total_rate
        assert rate <= 1e-8 * EXPERIMENT_RATE

    def test_terms_sum_to_total_and_are_nonnegative(self, natural, deuterium):
        for config in (natural, deuterium):
            for mode in config.modes:
                result = nonradiative_rate(config, mode.label)
                total = math.fsum(term.contribution for term in result.terms)
                assert result.total_rate == pytest.approx(total, rel=1e-12)
                assert all(term.contribution >= 0.0 for term in result.terms)
                assert result.total_rate >= 0.0
                assert result.sigma == mode.energy_excited / 2.0
                assert len(result.terms) == result.n_max_used + 1

    def test_totals_are_python_floats(self, natural):
        assert type(nonradiative_rate(natural, "accepting").total_rate) is float
        points = rate_sweep(natural, "accepting", "coupling", [1.0, 9.23])
        assert [type(point.rate) for point in points] == [float, float]

    def test_quadratic_coupling_scaling(self, natural):
        base = nonradiative_rate(natural, "ch-stretch").total_rate
        for k in (0.5, 2.0, 7.0):
            scaled_config = natural.with_mode(
                replace(natural.mode("ch-stretch"), coupling=k * 0.58)
            )
            scaled = nonradiative_rate(scaled_config, "ch-stretch").total_rate
            assert scaled == pytest.approx(k**2 * base, rel=1e-12)

    def test_displacement_parity(self, natural):
        base = nonradiative_rate(natural, "accepting").total_rate
        flipped_config = natural.with_mode(
            replace(natural.mode("accepting"), displacement=-0.734)
        )
        flipped = nonradiative_rate(flipped_config, "accepting").total_rate
        assert flipped == pytest.approx(base, rel=1e-12)

    def test_truncation_is_converged(self, natural):
        # Re-derive the sum with 64 extra phonon terms; the default cut at
        # E_zpl + 10 sigma must already carry all the weight.
        for label in ("ch-stretch", "accepting"):
            result = nonradiative_rate(natural, label)
            extended = reference_rate(natural, label, result.n_max_used + 64)
            assert result.total_rate == pytest.approx(extended, rel=1e-10)

    def test_missing_mode(self, natural):
        with pytest.raises(ModeLookupError):
            nonradiative_rate(natural, "breathing")

    def test_capability_error_for_tiny_phonon_energy(self, natural):
        shrunk = natural.with_mode(replace(natural.mode("accepting"), energy_ground=0.5))
        with pytest.raises(CapabilityError):
            nonradiative_rate(shrunk, "accepting")


class TestIsotopeRateRatio:
    def test_identical_configs(self, natural):
        assert isotope_rate_ratio(natural, natural, "ch-stretch") == pytest.approx(1.0, rel=1e-14)

    def test_hydrogen_isotope_ratio_near_285(self, natural, deuterium):
        ratio = isotope_rate_ratio(natural, deuterium, "ch-stretch")
        assert 285 / 2 <= ratio <= 285 * 2

    def test_accepting_mode_shows_no_isotope_effect(self, natural, deuterium):
        ratio = isotope_rate_ratio(natural, deuterium, "accepting")
        assert ratio == pytest.approx(1.0, rel=1e-6)

    def test_zero_denominator(self, natural):
        silent = replace(
            natural,
            variant_label="silent",
            modes=tuple(replace(m, coupling=0.0) for m in natural.modes),
        )
        with pytest.raises(DegeneracyError):
            isotope_rate_ratio(natural, silent, "ch-stretch")


class TestRateSweep:
    def test_coupling_sweep_quadratic(self, natural):
        points = rate_sweep(natural, "ch-stretch", "coupling", [0.58, 1.16])
        assert points[1].rate == pytest.approx(4 * points[0].rate, rel=1e-12)

    def test_displacement_sweep_parity(self, natural):
        points = rate_sweep(natural, "accepting", "displacement", [0.734, -0.734])
        assert points[0].rate == pytest.approx(points[1].rate, rel=1e-12)

    def test_zpl_sweep_self_consistency(self, natural):
        grid = sweep_grid(500.0, 1200.0, 8)  # includes 935 exactly? no: check direct
        points = rate_sweep(natural, "ch-stretch", "zpl_energy", [935.0] + grid)
        direct = nonradiative_rate(natural, "ch-stretch").total_rate
        assert points[0].rate == direct

    def test_order_and_count_preserved(self, natural):
        grid = sweep_grid(500.0, 1200.0, 29)
        points = rate_sweep(natural, "ch-stretch", "zpl_energy", grid)
        assert len(points) == 29
        assert [p.value for p in points] == grid

    def test_per_row_failure_reporting(self, natural):
        points = rate_sweep(natural, "accepting", "energy_ground", [33.0, 0.5, -1.0, 40.0])
        assert points[0].error is None and points[3].error is None
        assert points[1].error is not None and points[1].rate is None  # capability
        assert points[2].error is not None  # domain
        assert [p.value for p in points] == [33.0, 0.5, -1.0, 40.0]

    def test_unknown_parameter(self, natural):
        with pytest.raises(DomainError):
            rate_sweep(natural, "ch-stretch", "temperature", [1.0])

    def test_sweep_grid_endpoints(self):
        grid = sweep_grid(1.0, 2.0, 5)
        assert grid[0] == 1.0 and grid[-1] == 2.0 and len(grid) == 5
        assert sweep_grid(3.0, 9.0, 1) == [3.0]
        with pytest.raises(DomainError):
            sweep_grid(0.0, 1.0, 0)

    @pytest.mark.parametrize("start, stop, steps", [
        (1.0, 2.0, 5), (500.0, 1200.0, 29), (3.0, 9.0, 1), (0, 1, 2), (1, 1e54, 2),
    ])
    def test_sweep_grid_is_python_floats_with_the_linspace_values(self, natural, start, stop, steps):
        grid = sweep_grid(start, stop, steps)
        assert [type(value) for value in grid] == [float] * steps
        assert [value.hex() for value in grid] == [
            float(value).hex() for value in np.linspace(start, stop, steps)
        ]
        # The float pass-through gives the rows of the np.float64 entries.
        linspace = list(np.linspace(start, stop, steps))
        assert rate_sweep(natural, "ch-stretch", "coupling", grid) == rate_sweep(
            natural, "ch-stretch", "coupling", linspace
        )


    @pytest.mark.parametrize("steps, expected", [(3, [-1e308, 0.0, 1e308]), (2, [-1e308, 1e308])])
    def test_sweep_grid_spanning_past_the_float_range(self, steps, expected):
        # stop - start overflows: linspace gave [nan, inf, 1e308] and a RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grid = sweep_grid(-1e308, 1e308, steps)
        assert [type(value) for value in grid] == [float] * steps
        assert [value.hex() for value in grid] == [value.hex() for value in expected]


def _vary(config, mode_label, parameter, value):
    """The configuration a sweep evaluates at one grid value, built independently."""
    if parameter == "zpl_energy":
        return replace(config, zpl_energy=value)
    return config.with_mode(replace(config.mode(mode_label), **{parameter: value}))


def _current(config, mode_label, parameter):
    """The value of a sweep parameter in *config*."""
    if parameter == "zpl_energy":
        return config.zpl_energy
    return getattr(config.mode(mode_label), parameter)


def _direct(config, mode_label, parameter, value):
    """(rate, n_max, sigma, error) of one grid value through nonradiative_rate."""
    try:
        varied = _vary(config, mode_label, parameter, value)
        result = nonradiative_rate(varied, mode_label)
    except MultiphononError as exc:
        return None, None, None, str(exc)
    return result.total_rate, result.n_max_used, result.sigma, None


_ROW = operator.attrgetter("rate", "n_max", "sigma", "error")  # the fields _direct rebuilds


def _sweep_grid(mode_label, parameter):
    """In-range values plus rows that must fail, in shuffled order."""
    if parameter == "zpl_energy":
        grid = list(np.linspace(300.0, 2500.0, 41)) + [0.0, -5.0, 1e5]
    elif parameter == "coupling":
        grid = list(np.linspace(0.0, 10.0, 41)) + [-0.5, math.inf]
    elif parameter == "displacement":
        top = 1.5 if mode_label == "accepting" else 0.01
        grid = list(np.linspace(-top, top, 41)) + [15.0, math.nan]
    elif mode_label == "accepting":
        grid = list(np.geomspace(2.2, 140.0, 41)) + [2.1, 1.0, 0.0]
    else:
        grid = list(np.linspace(0.7 * 359.0, 1.3 * 359.0, 41)) + [-359.0]
    return [float(v) for v in np.random.default_rng(len(grid)).permutation(grid)]


def _mixed_n_max_grid():
    """Accepting-mode ħΩ_g from 2.2 to 140 meV, which needs n_max from 500 down to 8,
    and 20 values below ~2.148 meV, where the phonon sum needs n > 512."""
    in_range = list(np.geomspace(2.2, 140.0, 200))
    refused = list(np.linspace(1.0, 2.14, 20))
    return [float(v) for v in np.random.default_rng(5).permutation(in_range + refused)]


class TestSweepExactness:
    """Every sweep row equals nonradiative_rate of its own configuration."""

    @pytest.mark.parametrize("mode_label", ["accepting", "ch-stretch"])
    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_rows_equal_direct_rate_across_chunks(self, natural, monkeypatch, parameter, mode_label):
        # A small cell budget splits every grid into many chunks.
        monkeypatch.setattr(rates, "_SWEEP_CHUNK_CELLS", 97)
        grid = _sweep_grid(mode_label, parameter)
        points = rate_sweep(natural, mode_label, parameter, grid)
        assert np.array_equal([p.value for p in points], grid, equal_nan=True)
        resolved = 0
        for point in points:
            assert _ROW(point) == _direct(natural, mode_label, parameter, point.value)
            resolved += point.error is None
        assert resolved >= 40

    def test_mixed_n_max_grid_at_default_budget(self, natural):
        grid = _mixed_n_max_grid()
        points = rate_sweep(natural, "accepting", "energy_ground", grid)
        assert [p.value for p in points] == grid
        n_max = {p.n_max for p in points if p.error is None}
        assert min(n_max) == 8 and max(n_max) == 500
        for point in points:
            assert _ROW(point) == _direct(natural, "accepting", "energy_ground", point.value)
            if point.value < 2.148:
                assert "exceeds the certified recursion range" in point.error
            else:
                assert point.error is None and point.rate > 0.0

    def test_long_zpl_sweep_spans_several_chunks(self, natural):
        grid = [float(v) for v in np.linspace(500.0, 1200.0, 2000)]
        points = rate_sweep(natural, "accepting", "zpl_energy", grid)
        assert sum(p.n_max + 1 for p in points) > 3 * rates._SWEEP_CHUNK_CELLS
        for point in points[::97] + points[-1:]:
            assert point.error is None
            assert _ROW(point) == _direct(natural, "accepting", "zpl_energy", point.value)

    def test_empty_grid(self, natural):
        for parameter in SWEEP_PARAMETERS:
            assert rate_sweep(natural, "accepting", parameter, []) == []

    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_non_real_entries_fail_their_own_rows(self, natural, parameter):
        # Only the type is checked: "1.5" is not swept as 1.5, nor True as 1.0.
        good = {"zpl_energy": 935.0, "displacement": 0.5, "coupling": 0.58, "energy_ground": 300.0}
        bad = ["1.5", True, None, "x", b"1"]
        grid = [good[parameter], *bad, np.float32(2.0), 3, good[parameter]]
        points = rate_sweep(natural, "ch-stretch", parameter, grid)
        assert [p.value for p in points[1:6]] == bad
        for point in points[1:6]:
            assert point.rate is None and point.n_max is None
            assert point.error == f"{parameter} must be a real number, got {point.value!r}"
        assert points[0] == points[-1]
        for point, entry in zip(points, grid):
            if point.error is None:
                assert type(point.value) is float and point.value == float(entry)
                assert _ROW(point) == _direct(natural, "ch-stretch", parameter, float(entry))

    @pytest.mark.parametrize(
        "entry", [math.nan, -math.inf, np.float64(math.inf), 10**400],
        ids=["nan", "-inf", "np-inf", "huge-int"],
    )
    def test_non_finite_entries_stay_row_errors(self, natural, entry):
        points = rate_sweep(natural, "ch-stretch", "coupling", [0.58, entry, 1.16])
        assert points[0].error is None and points[2].error is None
        assert points[1].rate is None and "coupling must be finite" in points[1].error


    @pytest.mark.parametrize("mode_label", ["accepting", "ch-stretch"])
    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_rows_at_the_bound_edges_equal_direct_rates(self, natural, parameter, mode_label):
        # The bounds of _tables._BOUNDS, as the constructors apply them: each
        # row at 0.0, -0.0 and the next float on either side of 0 equals
        # nonradiative_rate of its own configuration, error text included.
        tiny = math.nextafter(0.0, 1.0)
        grid = [0.0, -0.0, tiny, -tiny, _current(natural, mode_label, parameter)]
        points = rate_sweep(natural, mode_label, parameter, grid)
        assert [p.value for p in points] == grid
        for point in points:
            assert _ROW(point) == _direct(natural, mode_label, parameter, point.value)
        assert points[-1].error is None


class TestExtremeEnergies:
    """Energies near the float minimum and overflowing inputs are refused, never
    returned as NaN or raised as a bare arithmetic error."""

    @pytest.mark.parametrize("field, value, match", [
        ("energy_ground", 5e-324, r"quantum number inf exceeds the certified recursion range"),
        ("energy_excited", 1e-310, "is not finite in double precision"),
        ("energy_excited", 5e-324, "is not finite in double precision"),
    ], ids=["ground-5e-324", "excited-1e-310", "excited-5e-324"])
    def test_refused_by_the_rate_and_by_every_sweep_row(self, natural, field, value, match):
        config = _vary(natural, "accepting", field, value)
        with pytest.raises(CapabilityError, match=match):
            nonradiative_rate(config, "accepting")
        for parameter in SWEEP_PARAMETERS:
            grid = [_current(config, "accepting", parameter), 1.5]
            for point in rate_sweep(config, "accepting", parameter, grid):
                assert _ROW(point) == _direct(config, "accepting", parameter, point.value)
                assert point.rate is None

    @pytest.mark.parametrize("parameter, value", [
        ("energy_ground", 5e-324), ("displacement", 1e308), ("coupling", 1e200),
    ])
    def test_a_refused_row_leaves_its_chunk(self, natural, parameter, value):
        # The other rows share the batched pass with the refused one.
        current = _current(natural, "accepting", parameter)
        grid = [current, value, 0.5 * current]
        points = rate_sweep(natural, "accepting", parameter, grid)
        assert [point.error is None for point in points] == [True, False, True]
        for point in points:
            assert _ROW(point) == _direct(natural, "accepting", parameter, point.value)


def _overflowing():
    """A mode whose 106 terms are finite (the largest 1.4e308) but sum past 1.8e308."""
    return DefectConfiguration(
        "x", 1e-98, (VibrationalMode("m", 1e-100, 1e-100, 4.09e51, 1e54),)
    )


class TestOverflowingTotal:
    """A total of finite terms past the float range is refused, not raised as OverflowError."""

    def test_rate_refuses_it(self):
        with pytest.raises(CapabilityError, match="is not finite in double precision"):
            nonradiative_rate(_overflowing(), "m")

    def test_sweep_reports_it_in_its_row(self):
        config = _overflowing()
        first, second = rate_sweep(config, "m", "coupling", [1.0, 1e54])
        assert first.error is None and first.rate > 1e200
        assert _ROW(first) == _direct(config, "m", "coupling", 1.0)
        assert second.rate is None and "is not finite in double precision" in second.error
        assert _ROW(second) == _direct(config, "m", "coupling", 1e54)

    def test_message_in_full(self):
        # The total is a Python float in the text: inf, not np.float64(inf).
        message = "the rate through mode 'm' is not finite in double precision (got inf s⁻¹)"
        with pytest.raises(CapabilityError) as caught:
            nonradiative_rate(_overflowing(), "m")
        (point,) = rate_sweep(_overflowing(), "m", "coupling", [1e54])
        assert str(caught.value) == point.error == message


class TestRateKernelOracle:
    """The batched kernel against the float reference rate, which shares only its cut-off."""

    def test_reference_configurations(self, natural, deuterium):
        for config in (natural, deuterium):
            for mode in config.modes:
                result = nonradiative_rate(config, mode.label)
                reference = reference_rate(config, mode.label, result.n_max_used)
                assert result.total_rate == pytest.approx(reference, rel=1e-14)

    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_sweep_rows(self, natural, parameter):
        for label in ("accepting", "ch-stretch"):
            for point in rate_sweep(natural, label, parameter, _sweep_grid(label, parameter)):
                if point.error is None:
                    varied = _vary(natural, label, parameter, point.value)
                    reference = reference_rate(varied, label, point.n_max)
                    assert point.rate == pytest.approx(reference, rel=1e-14, abs=0.0)

    def test_terms_are_the_gaussian_delta_terms(self, natural):
        mode = natural.mode("accepting")
        result = nonradiative_rate(natural, "accepting")
        assert [term.n for term in result.terms] == list(range(result.n_max_used + 1))
        assert math.fsum(term.contribution for term in result.terms) == result.total_rate
        for term in result.terms:
            weight = gaussian_delta(natural.zpl_energy - term.n * mode.energy_ground, result.sigma)
            assert term.delta_weight == pytest.approx(weight, rel=1e-15)
            assert type(term.contribution) is float


@pytest.mark.parametrize("call", [
    lambda nat, deu, pair: nonradiative_rate(nat, "accepting", moment_reference="initial"),
    lambda nat, deu, pair: isotope_rate_ratio(nat, deu, "accepting", moment_reference="initial"),
    lambda nat, deu, pair: rate_sweep(nat, "accepting", "coupling", [0.58], moment_reference="initial"),
    lambda nat, deu, pair: transition_moments(pair, 4, reference="initial"),
    lambda nat, deu, pair: transition_moment(1, pair, reference="initial"),
], ids=["nonradiative_rate", "isotope_rate_ratio", "rate_sweep", "transition_moments",
        "transition_moment"])
def test_moments_have_one_convention_and_no_reference_keyword(call, natural, deuterium):
    # Positions are measured from the initial-state equilibrium only; the
    # keywords that once chose a convention are not accepted.
    with pytest.raises(TypeError, match="unexpected keyword argument"):
        call(natural, deuterium, OscillatorPair(33.0, 33.0, 0.7))


def _kernel_total(config, mode_label, n_max):
    """The total of ``rates._rate_rows``, which ``nonradiative_rate`` may refuse to return."""
    mode = config.mode(mode_label)
    row = {**vars(mode), "zpl_energy": config.zpl_energy}
    return rates._rate_rows(mode.energy_excited, row, n_max)[1]


def _deep(displacement):
    """ħΩ_e 400, ħΩ_g 26 meV and W 9.23 meV at E_ZPL 5000 meV: S₀₀ nears the subnormals."""
    mode = VibrationalMode("m", 26.0, 400.0, displacement, 9.23)
    return DefectConfiguration("deep", 5000.0, (mode,))


class TestUnderflow:
    """A W > 0 rate is refused when terms flushed below the normal range could
    move it by more than eps, or when its overlaps start from a subnormal S₀₀;
    the accepting mode crosses the first edge between ΔQ = 14 and 14.5 (the
    bound is 15 % of the total at 14.5)."""

    @pytest.mark.parametrize("displacement", [14.5, 14.8, 15.0, 20.0])
    def test_large_huang_rhys_factor_refused(self, natural, displacement):
        config = _vary(natural, "accepting", "displacement", displacement)
        with pytest.raises(CapabilityError, match="underflows"):
            nonradiative_rate(config, "accepting")

    def test_certified_side_of_the_edge_is_unchanged(self, natural):
        config = _vary(natural, "accepting", "displacement", 14.0)
        assert nonradiative_rate(config, "accepting").total_rate == 3.245519206819825e-269

    def test_refusals_guard_real_errors(self, natural):
        # At ΔQ = 14 the float64 rate agrees with 40 digits to the accuracy
        # of the recurrence; at 14.8, which is refused, the kernel's own
        # total is off in the fifth digit.
        certified = _vary(natural, "accepting", "displacement", 14.0)
        result = nonradiative_rate(certified, "accepting")
        exact = mpmath_rate(certified, "accepting", result.n_max_used, 40)
        assert abs(result.total_rate - exact) < 1e-12 * exact
        refused = _vary(natural, "accepting", "displacement", 14.8)  # ΔQ does not change n_max
        exact = mpmath_rate(refused, "accepting", result.n_max_used, 40)
        assert abs(_kernel_total(refused, "accepting", result.n_max_used) - exact) > 1e-6 * exact

    def test_sweep_reports_underflow_per_row(self, natural):
        grid = [12.0, 14.0, 14.5, 14.8, 15.0, 20.0, 0.734]
        points = rate_sweep(natural, "accepting", "displacement", grid)
        assert 0.0 < points[0].rate < 1e-150
        assert points[1].rate == 3.245519206819825e-269
        for point in points[2:6]:
            assert point.rate is None and "underflows" in point.error
        for point in points:
            assert _ROW(point) == _direct(natural, "accepting", "displacement", point.value)
        assert points[6].rate == nonradiative_rate(natural, "accepting").total_rate

    def test_subnormal_overlap_start_refused(self):
        # S₀₀ turns subnormal between ΔQ = 15.5 (1.4e-305) and 15.6 (1.6e-309);
        # the flush bound alone would accept both totals (it is ~1e-27 of them).
        assert nonradiative_rate(_deep(15.5), "m").total_rate == 3.501453114025851e-249
        for displacement in (15.6, 15.7):
            with pytest.raises(CapabilityError, match="subnormal S₀₀"):
                nonradiative_rate(_deep(displacement), "m")
        points = rate_sweep(_deep(15.5), "m", "displacement", [15.5, 15.6, 15.7])
        assert points[0].rate == 3.501453114025851e-249
        assert [point.error is None for point in points] == [True, False, False]
        for point in points:
            assert _ROW(point) == _direct(_deep(15.5), "m", "displacement", point.value)

    def test_message_in_full(self):
        # Refused for its subnormal S₀₀; the total is printed as a plain float repr.
        message = re.escape(
            "the rate through mode 'm' underflows double precision: flushed terms or a "
            "subnormal S₀₀ could move it by > eps (got "
        ) + r"\d\.\d+e-\d+ s⁻¹, W > 0\)"
        with pytest.raises(CapabilityError) as caught:
            nonradiative_rate(_deep(15.6), "m")
        (point,) = rate_sweep(_deep(15.6), "m", "displacement", [15.6])
        assert re.fullmatch(message, str(caught.value))
        assert point.error == str(caught.value)

    def test_subnormal_overlap_start_refusal_guards_a_real_error(self):
        # At ΔQ = 15.7 (S₀₀ = 1.75e-313) the kernel's own total is off by
        # ~3e-11 relative, far beyond eps, though every term is normal.
        n_max = nonradiative_rate(_deep(15.5), "m").n_max_used  # ΔQ does not change it
        exact = mpmath_rate(_deep(15.7), "m", n_max, 40)
        assert abs(_kernel_total(_deep(15.7), "m", n_max) - exact) > 1e-11 * exact

    def test_zero_coupling_still_exactly_zero(self, natural):
        for displacement in (14.8, 15.0):
            config = _vary(natural, "accepting", "displacement", displacement)
            silent = config.with_mode(replace(config.mode("accepting"), coupling=0.0))
            assert nonradiative_rate(silent, "accepting").total_rate == 0.0
            points = rate_sweep(config, "accepting", "coupling", [0.0, 9.23])
            assert points[0].rate == 0.0 and points[1].error is not None


# At 60 digits the sums to n = 400 and to 512 agree; the 10σ cut-off stops at n = 270 and 58.
@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the 10σ cut-off bounds the Gaussian weight only, "
                          "and these terms keep growing past it (4.96e6x and 455x short)")
@pytest.mark.parametrize("config", [
    _deep(15.5), DefectConfiguration("wide", 100.0, (VibrationalMode("m", 33.0, 358.0, 8.0, 1.0),)),
], ids=["deep-15.5", "wide-8"])
def test_rate_is_the_converged_phonon_sum(config):
    converged = mpmath_rate(config, "m", n_max=512, dps=60)
    assert abs(nonradiative_rate(config, "m").total_rate - converged) < 1e-12 * converged


# Non-negative floats from the subnormal range up to ~1e300.
_SPAN = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 997))


def _record_fallbacks(monkeypatch):
    """Record the ``_row_totals`` calls and the terms of each ``math.fsum`` call inside them."""
    calls = {"chunks": 0, "fallbacks": []}
    row_totals, fsum = rates._row_totals, math.fsum

    def recording_fsum(terms):
        calls["fallbacks"].append(terms)
        return fsum(terms)

    def recorded(contribution, n_max):
        calls["chunks"] += 1
        math.fsum = recording_fsum
        try:
            return row_totals(contribution, n_max)
        finally:
            math.fsum = fsum

    monkeypatch.setattr(rates, "_row_totals", recorded)
    return calls


class TestRowTotals:
    """Sweep rows are summed by a certified tree, with ``math.fsum`` where it cannot
    certify; a correctly rounded sum is order-free, so both give the same bits."""

    @given(values=st.lists(st.one_of(_SPAN, st.just(0.0)), min_size=1, max_size=60),
           ties=st.integers(0, 20))
    # Exact ties: a sum halfway between two floats, rounded to even.
    @example(values=[1.0, 2.0**-53], ties=0)
    @example(values=[1.0 + 2.0**-52, 2.0**-53], ties=0)
    @example(values=[1.0, 2.0**-53, 5e-324], ties=0)
    @example(values=[5e-324, 1e300, 5e-324], ties=2)
    @settings(max_examples=300, deadline=None)
    def test_reversed_fsum_equals_natural_order(self, values, ties):
        values = values + values[:ties]  # repeated terms
        column = np.array(values)[:, None]
        for k in {0, len(values) // 2, len(values) - 1}:
            assert rates._row_totals(column, [k]) == [math.fsum(values[: k + 1])]
        assert math.fsum(values[::-1]) == math.fsum(values)

    @given(columns=st.lists(
        st.tuples(st.lists(st.one_of(_SPAN, st.just(0.0)), min_size=1, max_size=40),
                  st.integers(0, 20), st.integers(0, 60)),
        min_size=1, max_size=8,
    ))
    @example(columns=[([1.0, 2.0**-53], 0, 1), ([0.1, 0.2, 0.3], 2, 60), ([0.0], 0, 0),
                      ([5e-324, 1e300, 5e-324], 2, 4), ([1.0, 3 * 2.0**-55], 0, 1)])
    @settings(max_examples=300, deadline=None)
    def test_chunk_totals_equal_fsum_per_column(self, columns):
        # Each column: its terms, some repeated, and its own n_max.
        terms = [values + values[:ties] for values, ties, _ in columns]
        n_max = [cut % len(column) for column, (_, _, cut) in zip(terms, columns)]
        chunk = np.full((max(map(len, terms)), len(terms)), math.inf)  # past every n_max
        for j, column in enumerate(terms):
            chunk[: len(column), j] = column
        expected = [math.fsum(column[: k + 1]) for column, k in zip(terms, n_max)]
        assert rates._row_totals(chunk, n_max).tolist() == expected

    @pytest.mark.parametrize("terms, total", [
        ([1.0, 2.0**-53], 1.0),
        ([1.0 + 2.0**-52, 2.0**-53], 1.0 + 2.0**-51),
        ([1.0, 3 * 2.0**-55], 1.0),
        ([0.0, 0.0, 0.0], 0.0),
        ([5e-324, 2.0**-1050, 5e-324], 2.0**-1050 + 1e-323),
        ([1.0, math.inf, 2.0], math.inf),
        ([1.0, math.nan, 2.0], math.nan),
        ([1.7e308, 1.7e308, 1.0], math.inf),
    ], ids=["tie-to-even-down", "tie-to-even-up", "power-of-two", "all-zero", "subnormal",
            "inf-term", "nan-term", "finite-overflow"])
    def test_uncertified_columns_fall_back_to_fsum(self, monkeypatch, terms, total):
        # Beside a column the tree certifies, only the uncertified one calls math.fsum,
        # from its top term down.
        calls, fsum = [], math.fsum
        certified = [math.pi / (k + 1) for k in range(len(terms))]
        chunk = np.array([terms, certified]).T
        monkeypatch.setattr(math, "fsum", lambda values: calls.append(values) or fsum(values))
        with np.errstate(over="ignore", invalid="ignore"):
            totals = rates._row_totals(chunk, [len(terms) - 1] * 2)
        assert [list(map(float.hex, values)) for values in calls] == [
            list(map(float.hex, terms[::-1]))
        ]
        assert np.array_equal(totals, [total, fsum(certified)], equal_nan=True)

    @pytest.mark.parametrize("mode_label", ["accepting", "ch-stretch"])
    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_sweep_grids_need_no_fallback(self, natural, monkeypatch, parameter, mode_label):
        # The grids and chunk budget of TestSweepExactness: the tree certifies every
        # nonzero total.  The all-zero rows (W = 0, or every term underflowed) fall back.
        monkeypatch.setattr(rates, "_SWEEP_CHUNK_CELLS", 97)
        calls = _record_fallbacks(monkeypatch)
        rate_sweep(natural, mode_label, parameter, _sweep_grid(mode_label, parameter))
        assert calls["chunks"] > 1
        assert [terms for terms in calls["fallbacks"] if any(terms)] == []
        assert len(calls["fallbacks"]) <= 2

    def test_mixed_n_max_grid_needs_no_fallback(self, natural, monkeypatch):
        calls = _record_fallbacks(monkeypatch)
        points = rate_sweep(natural, "accepting", "energy_ground", _mixed_n_max_grid())
        assert sum(point.error is None for point in points) == 200
        assert calls["chunks"] > 1 and calls["fallbacks"] == []


class TestSweepPoint:
    """Sweep rows are frozen dataclasses: callers copy them with ``dataclasses.replace``."""

    FIELDS = ("parameter", "value", "rate", "n_max", "sigma", "error")

    def test_field_names_order_and_default(self):
        assert tuple(field.name for field in fields(SweepPoint)) == self.FIELDS
        assert SweepPoint("coupling", 1.0, 2.0, 3, 4.0).error is None

    def test_repr_text(self, natural):
        good, bad = rate_sweep(natural, "accepting", "zpl_energy", [935.0, "x"])
        assert repr(good) == (
            "SweepPoint(parameter='zpl_energy', value=935.0, rate=2.715965451055058e-07, "
            "n_max=34, sigma=16.5, error=None)"
        )
        assert repr(bad) == (
            "SweepPoint(parameter='zpl_energy', value='x', rate=None, n_max=None, "
            "sigma=None, error=\"zpl_energy must be a real number, got 'x'\")"
        )

    def test_constructor_row_is_frozen_and_skips_no_post_init(self):
        # The own __init__ stores into the instance dict: a __post_init__ would never run.
        assert not hasattr(SweepPoint, "__post_init__")
        values = ("coupling", 1.0, 2.0, 3, 4.0, None)
        keywords = dict(zip(self.FIELDS, values))
        for point in (SweepPoint(*values[:5]), SweepPoint(*values), SweepPoint(**keywords)):
            assert list(vars(point).items()) == list(zip(self.FIELDS, values))
            with pytest.raises(FrozenInstanceError):
                point.rate = 5.0
        generated = make_dataclass("SweepPoint", [(name, object) for name in self.FIELDS], frozen=True)
        assert list(vars(generated(*values)).items()) == list(vars(point).items())

    # Rows rate_sweep builds: resolved, refused (n_max 733 > 512) and a non-real entry.
    ROWS = [("zpl_energy", 935.0), ("energy_ground", 1.5), ("zpl_energy", "x")]

    @pytest.mark.parametrize("parameter, entry", ROWS)
    @pytest.mark.parametrize("name", ["rate", "error", "new_attribute"])
    def test_immutable(self, natural, parameter, entry, name):
        point = rate_sweep(natural, "accepting", parameter, [entry])[0]
        with pytest.raises(FrozenInstanceError):
            setattr(point, name, 1.0)
        with pytest.raises(FrozenInstanceError):
            delattr(point, name)

    @pytest.mark.parametrize("parameter, entry", ROWS)
    def test_replace_and_equality(self, natural, parameter, entry):
        first, second = rate_sweep(natural, "accepting", parameter, [entry, entry])
        assert (first.error is None) == (entry == 935.0)
        assert first == second and hash(first) == hash(second)
        # Indistinguishable from the constructor's row, also once pickled or copied.
        built = SweepPoint(*(getattr(first, name) for name in self.FIELDS))
        for row in (first, pickle.loads(pickle.dumps(first)), copy.copy(first)):
            assert type(row) is SweepPoint and row == built and hash(row) == hash(built)
            assert list(vars(row).items()) == list(vars(built).items())
            assert asdict(row) == asdict(built)
        changed = replace(first, rate=2.0)
        assert changed != first and changed.rate == 2.0
        assert replace(changed, rate=first.rate) == first
