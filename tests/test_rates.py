import math
from dataclasses import fields, replace

import mpmath
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
    fc_overlap_matrix,
    gaussian_delta,
    ho_length_scale,
    isotope_rate_ratio,
    nonradiative_rate,
    rate_sweep,
    sweep_grid,
    transition_moments,
    VibrationalMode,
)
from multiphonon import rates
from multiphonon.constants import HBAR_MEV_S, HBAR_SQ_MEV_AMU_A2
from multiphonon.rates import SWEEP_PARAMETERS, SweepPoint

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
            mode = natural.mode(label)
            result = nonradiative_rate(natural, label)
            pair = OscillatorPair(mode.energy_excited, mode.energy_ground, mode.displacement)
            moments = transition_moments(pair, result.n_max_used + 64)
            prefactor = 2.0 * math.pi / HBAR_MEV_S * mode.coupling**2
            extended = math.fsum(
                prefactor
                * float(moments[n]) ** 2
                * gaussian_delta(natural.zpl_energy - n * mode.energy_ground, result.sigma)
                for n in range(result.n_max_used + 65)
            )
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


def _direct(config, mode_label, parameter, value, reference):
    """(rate, n_max, sigma, error) of one grid value through nonradiative_rate."""
    try:
        varied = _vary(config, mode_label, parameter, value)
        result = nonradiative_rate(varied, mode_label, moment_reference=reference)
    except MultiphononError as exc:
        return None, None, None, str(exc)
    return result.total_rate, result.n_max_used, result.sigma, None


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


def _seed_rate(config, mode_label, reference="initial"):
    """The rate by the scalar formula: table moments and a gaussian_delta loop."""
    mode = config.mode(mode_label)
    pair = OscillatorPair(mode.energy_excited, mode.energy_ground, mode.displacement)
    sigma = mode.energy_excited / 2.0
    n_max = int(math.ceil((config.zpl_energy + 10.0 * sigma) / mode.energy_ground))
    rows = fc_overlap_matrix(pair, 1, n_max)
    moments = ho_length_scale(mode.energy_excited) * rows[1]
    if reference == "final":
        moments = moments - mode.displacement * rows[0]
    prefactor = 2.0 * math.pi / HBAR_MEV_S * mode.coupling**2
    return math.fsum(
        prefactor
        * float(moments[n]) ** 2
        * gaussian_delta(config.zpl_energy - n * mode.energy_ground, sigma)
        for n in range(n_max + 1)
    )


class TestSweepExactness:
    """Every sweep row equals nonradiative_rate of its own configuration."""

    @pytest.mark.parametrize("reference", ["initial", "final"])
    @pytest.mark.parametrize("mode_label", ["accepting", "ch-stretch"])
    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_rows_equal_direct_rate_across_chunks(
        self, natural, monkeypatch, parameter, mode_label, reference
    ):
        # A small cell budget splits every grid into many chunks.
        monkeypatch.setattr(rates, "_SWEEP_CHUNK_CELLS", 97)
        grid = _sweep_grid(mode_label, parameter)
        points = rate_sweep(natural, mode_label, parameter, grid, moment_reference=reference)
        assert np.array_equal([p.value for p in points], grid, equal_nan=True)
        resolved = 0
        for point in points:
            expected = _direct(natural, mode_label, parameter, point.value, reference)
            assert (point.rate, point.n_max, point.sigma, point.error) == expected
            resolved += point.error is None
        assert resolved >= 40

    def test_mixed_n_max_grid_at_default_budget(self, natural):
        # Accepting-mode ħΩ_g from 2.2 to 140 meV needs n_max from 500 down
        # to 8; below ~2.148 meV the phonon sum needs n > 512.
        in_range = list(np.geomspace(2.2, 140.0, 200))
        refused = list(np.linspace(1.0, 2.14, 20))
        grid = [float(v) for v in np.random.default_rng(5).permutation(in_range + refused)]
        points = rate_sweep(natural, "accepting", "energy_ground", grid)
        assert [p.value for p in points] == grid
        n_max = {p.n_max for p in points if p.error is None}
        assert min(n_max) == 8 and max(n_max) == 500
        for point in points:
            expected = _direct(natural, "accepting", "energy_ground", point.value, "initial")
            assert (point.rate, point.n_max, point.sigma, point.error) == expected
            if point.value < 2.148:
                assert "exceeds the certified recursion range" in point.error
            else:
                assert point.error is None and point.rate > 0.0

    def test_long_zpl_sweep_spans_several_chunks(self, natural):
        grid = [float(v) for v in np.linspace(500.0, 1200.0, 2000)]
        points = rate_sweep(natural, "accepting", "zpl_energy", grid)
        assert sum(p.n_max + 1 for p in points) > 3 * rates._SWEEP_CHUNK_CELLS
        for point in points[::97] + points[-1:]:
            assert (point.rate, point.n_max, point.sigma, None) == _direct(
                natural, "accepting", "zpl_energy", point.value, "initial"
            )

    def test_empty_grid(self, natural):
        for parameter in SWEEP_PARAMETERS:
            assert rate_sweep(natural, "accepting", parameter, []) == []

    def test_unknown_reference_fails_every_row(self, natural):
        points = rate_sweep(natural, "ch-stretch", "coupling", [0.58, 1.0], moment_reference="mid")
        assert all(p.rate is None and "reference" in p.error for p in points)

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
                expected = _direct(natural, "ch-stretch", parameter, float(entry), "initial")
                assert (point.rate, point.n_max, point.sigma, point.error) == expected

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
            expected = _direct(natural, mode_label, parameter, point.value, "initial")
            assert (point.rate, point.n_max, point.sigma, point.error) == expected
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
                expected = _direct(config, "accepting", parameter, point.value, "initial")
                assert (point.rate, point.n_max, point.sigma, point.error) == expected
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
            expected = _direct(natural, "accepting", parameter, point.value, "initial")
            assert (point.rate, point.n_max, point.sigma, point.error) == expected


class TestRateKernelOracle:
    """The batched kernel against the scalar formula it replaced."""

    def test_reference_configurations(self, natural, deuterium):
        for config in (natural, deuterium):
            for mode in config.modes:
                for reference in ("initial", "final"):
                    total = nonradiative_rate(config, mode.label, reference).total_rate
                    assert total == pytest.approx(
                        _seed_rate(config, mode.label, reference), rel=1e-14
                    )

    @pytest.mark.parametrize("parameter", SWEEP_PARAMETERS)
    def test_sweep_rows(self, natural, parameter):
        for label in ("accepting", "ch-stretch"):
            for point in rate_sweep(natural, label, parameter, _sweep_grid(label, parameter)):
                if point.error is None:
                    seed = _seed_rate(_vary(natural, label, parameter, point.value), label)
                    assert point.rate == pytest.approx(seed, rel=1e-14, abs=0.0)

    def test_terms_are_the_gaussian_delta_terms(self, natural):
        mode = natural.mode("accepting")
        result = nonradiative_rate(natural, "accepting")
        assert [term.n for term in result.terms] == list(range(result.n_max_used + 1))
        assert math.fsum(term.contribution for term in result.terms) == result.total_rate
        for term in result.terms:
            weight = gaussian_delta(natural.zpl_energy - term.n * mode.energy_ground, result.sigma)
            assert term.delta_weight == pytest.approx(weight, rel=1e-15)
            assert type(term.contribution) is float


def _high_precision_rate(config, mode_label, dps=40):
    """The initial-reference rate by the m <= 1 recurrence and the sum, in mpmath."""
    mode = config.mode(mode_label)
    with mpmath.workdps(dps):
        a_i = mpmath.mpf(mode.energy_excited) / HBAR_SQ_MEV_AMU_A2
        a_f = mpmath.mpf(mode.energy_ground) / HBAR_SQ_MEV_AMU_A2
        dq, total = mpmath.mpf(mode.displacement), a_i + a_f
        b, c = 2 * dq * mpmath.sqrt(a_i) * a_f / total, (a_f - a_i) / total
        d, e = -2 * dq * mpmath.sqrt(a_f) * a_i / total, 4 * mpmath.sqrt(a_i * a_f) / total
        sigma = mpmath.mpf(mode.energy_excited) / 2
        n_max = int(math.ceil((config.zpl_energy + 10.0 * float(sigma)) / mode.energy_ground))
        s0 = [mpmath.sqrt(e / 2) * mpmath.exp(b * d / (2 * e))]
        for n in range(1, n_max + 1):
            s0.append(d / mpmath.sqrt(2 * n) * s0[-1]
                      + (c * mpmath.sqrt(mpmath.mpf(n - 1) / n) * s0[-2] if n >= 2 else 0))
        length_sq = HBAR_SQ_MEV_AMU_A2 / (2 * mpmath.mpf(mode.energy_excited))
        prefactor = 2 * mpmath.pi / HBAR_MEV_S * mpmath.mpf(mode.coupling) ** 2
        rate = 0
        for n in range(n_max + 1):
            s1 = b / mpmath.sqrt(2) * s0[n] + (e / 2 * mpmath.sqrt(n) * s0[n - 1] if n else 0)
            z = (config.zpl_energy - n * mpmath.mpf(mode.energy_ground)) / sigma
            weight = mpmath.exp(-z * z / 2) / (sigma * mpmath.sqrt(2 * mpmath.pi))
            rate += prefactor * length_sq * s1**2 * weight
        return rate


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
        exact = _high_precision_rate(certified, "accepting")
        assert abs(nonradiative_rate(certified, "accepting").total_rate - exact) < 1e-12 * exact
        mode = _vary(natural, "accepting", "displacement", 14.8).mode("accepting")
        n_max = nonradiative_rate(certified, "accepting").n_max_used  # ΔQ does not change it
        moments, _ = rates._moments(mode.energy_excited, mode.energy_ground, mode.displacement,
                                 n_max, "initial")
        _, _, terms = rates._rate_terms(moments, mode.energy_excited, mode.energy_ground,
                                        mode.coupling, natural.zpl_energy)
        exact = _high_precision_rate(_vary(natural, "accepting", "displacement", 14.8), "accepting")
        assert abs(math.fsum(terms[:, 0].tolist()) - exact) > 1e-6 * exact

    def test_sweep_reports_underflow_per_row(self, natural):
        grid = [12.0, 14.0, 14.5, 14.8, 15.0, 20.0, 0.734]
        points = rate_sweep(natural, "accepting", "displacement", grid)
        assert 0.0 < points[0].rate < 1e-150
        assert points[1].rate == 3.245519206819825e-269
        for point in points[2:6]:
            assert point.rate is None and "underflows" in point.error
        for point in points:
            expected = _direct(natural, "accepting", "displacement", point.value, "initial")
            assert (point.rate, point.n_max, point.sigma, point.error) == expected
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
            expected = _direct(_deep(15.5), "m", "displacement", point.value, "initial")
            assert (point.rate, point.n_max, point.sigma, point.error) == expected

    def test_subnormal_overlap_start_refusal_guards_a_real_error(self):
        # At ΔQ = 15.7 (S₀₀ = 1.75e-313) the kernel's own total is off by
        # ~3e-11 relative, far beyond eps, though every term is normal.
        mode = _deep(15.7).mode("m")
        n_max = nonradiative_rate(_deep(15.5), "m").n_max_used  # ΔQ does not change it
        moments, _ = rates._moments(mode.energy_excited, mode.energy_ground, mode.displacement,
                                 n_max, "initial")
        _, _, terms = rates._rate_terms(moments, mode.energy_excited, mode.energy_ground,
                                        mode.coupling, 5000.0)
        exact = _high_precision_rate(_deep(15.7), "m")
        assert abs(math.fsum(terms[:, 0].tolist()) - exact) > 1e-11 * exact

    def test_zero_coupling_still_exactly_zero(self, natural):
        for displacement in (14.8, 15.0):
            config = _vary(natural, "accepting", "displacement", displacement)
            silent = config.with_mode(replace(config.mode("accepting"), coupling=0.0))
            assert nonradiative_rate(silent, "accepting").total_rate == 0.0
            points = rate_sweep(config, "accepting", "coupling", [0.0, 9.23])
            assert points[0].rate == 0.0 and points[1].error is not None


# Non-negative floats from the subnormal range up to ~1e300.
_SPAN = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 997))


class TestRowTotals:
    """Rows are summed from the top term down; a correctly rounded sum is order-free."""

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

    @pytest.mark.parametrize("name", ["rate", "error", "new_attribute"])
    def test_immutable(self, natural, name):
        point = rate_sweep(natural, "accepting", "zpl_energy", [935.0])[0]
        with pytest.raises(AttributeError):
            setattr(point, name, 1.0)

    def test_replace_and_equality(self, natural):
        first, second = rate_sweep(natural, "accepting", "zpl_energy", [935.0, 935.0])
        assert first == second and hash(first) == hash(second)
        doubled = replace(first, rate=2 * first.rate)
        assert doubled != first and doubled.rate == 2 * first.rate
        assert replace(doubled, rate=first.rate) == first
