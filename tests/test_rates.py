import math
from dataclasses import replace

import numpy as np
import pytest

from multiphonon import (
    CapabilityError,
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
)
from multiphonon import rates
from multiphonon.constants import HBAR_MEV_S
from multiphonon.rates import SWEEP_PARAMETERS

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


class TestUnderflow:
    """With W > 0 the rate is strictly positive; float64 underflow is refused."""

    @pytest.mark.parametrize("displacement", [15.0, 20.0])
    def test_large_huang_rhys_factor_refused(self, natural, displacement):
        config = _vary(natural, "accepting", "displacement", displacement)
        with pytest.raises(CapabilityError, match="underflows"):
            nonradiative_rate(config, "accepting")

    def test_sweep_reports_underflow_per_row(self, natural):
        points = rate_sweep(natural, "accepting", "displacement", [12.0, 15.0, 20.0, 0.734])
        assert 0.0 < points[0].rate < 1e-150
        for point in points[1:3]:
            assert point.rate is None and "underflows" in point.error
        assert points[3].rate == nonradiative_rate(natural, "accepting").total_rate

    def test_zero_coupling_still_exactly_zero(self, natural):
        config = _vary(natural, "accepting", "displacement", 15.0)
        silent = config.with_mode(replace(config.mode("accepting"), coupling=0.0))
        assert nonradiative_rate(silent, "accepting").total_rate == 0.0
        points = rate_sweep(config, "accepting", "coupling", [0.0, 9.23])
        assert points[0].rate == 0.0 and points[1].error is not None
