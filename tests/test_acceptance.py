"""Acceptance suite: the shipped performance criteria, one test each.

Every test prints a ``[criterion N] PASS/FAIL`` line (run with ``-s`` to
see them on success) and enforces its runtime budget.  Criterion 5's
ratio clause is expected to fail; see its docstring.
"""

import io
import math
import time
from contextlib import contextmanager, redirect_stdout

import numpy as np
import pytest

import multiphonon as mp
from multiphonon.cli import run_command
from references import noiseless_histogram

RECORDS, CONFIGS = mp.load_reference_dataset()
NATURAL, DEUTERIUM = CONFIGS
EXPERIMENT_RATE = 1.0 / 0.885e-6


@contextmanager
def criterion(number, label, budget_s):
    start = time.perf_counter()
    status = "FAIL"
    try:
        yield
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget"
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:>2}] {status} {label} ({elapsed:.2f}s)")


def test_criterion_01_isotope_rate_ratio():
    with criterion(1, "C-H stretch isotope rate ratio in [142, 570]", 1.0):
        ratio = mp.isotope_rate_ratio(NATURAL, DEUTERIUM, "ch-stretch")
        assert 142.0 <= ratio <= 570.0, f"ratio {ratio:.1f} outside [142, 570]"


def test_criterion_02_absolute_rate_within_one_decade():
    with criterion(2, "C-H stretch rate within one decade of experiment", 1.0):
        rate = mp.nonradiative_rate(NATURAL, "ch-stretch").total_rate
        assert EXPERIMENT_RATE / 10.0 <= rate <= EXPERIMENT_RATE * 10.0, (
            f"rate {rate:.3e} s^-1 vs experiment {EXPERIMENT_RATE:.3e} s^-1"
        )


def test_criterion_03_accepting_mode_failure():
    with criterion(3, "accepting mode >= 8 decades below experiment, isotope-blind", 5.0):
        rate_natural = mp.nonradiative_rate(NATURAL, "accepting").total_rate
        rate_deuterium = mp.nonradiative_rate(DEUTERIUM, "accepting").total_rate
        assert rate_natural <= 1e-2, f"accepting rate {rate_natural:.3e} s^-1 above 1e-2"
        assert rate_natural == pytest.approx(rate_deuterium, rel=1e-6)


def test_criterion_04_kinetics_inference():
    with criterion(4, "radiative lifetime and efficiency inference", 0.1):
        result = mp.infer_radiative_rate(0.885e-6, 4.807e-6, 285.0)
        assert abs(result.radiative_lifetime_us - 4.88) <= 0.05
        assert abs(100 * result.efficiency_a - 18.1) <= 0.3
        assert abs(100 * result.efficiency_b - 98.4) <= 0.2
        frac_a = mp.zpl_emission_fraction(result.efficiency_a, 0.23)
        frac_b = mp.zpl_emission_fraction(result.efficiency_b, 0.23)
        assert abs(100 * frac_a - 4.2) <= 0.3
        assert abs(100 * frac_b - 22.6) <= 0.5


def test_criterion_05a_cyclicity_ratio_matches_rounded_target():
    """Expected to FAIL: the 278 target cannot coexist with these inputs.

    The high-Purcell cyclicity ratio between efficiencies eta_b and eta_a
    is algebraically [eta_b/(1-eta_b)] / [eta_a/(1-eta_a)]; for
    eta = 0.9844 and 0.1812 that is 285.15 (it equals the nonradiative
    rate ratio that produced those efficiencies, 285).  The target value
    278 is reproducible only by first rounding the efficiencies to three
    digits (0.984/0.016 / (0.181/0.819) = 278.28), and 285.15 misses it
    by 2.57% -- outside the pinned 2% tolerance.  The assertion is kept
    as specified rather than widened.
    """
    with criterion(5, "cyclicity ratio at P=1e6 equals 278 within 2%", 0.1):
        ratio = mp.cyclicity(0.9844, 1e6) / mp.cyclicity(0.1812, 1e6)
        assert abs(ratio - 278.0) / 278.0 <= 0.02, (
            f"cyclicity ratio {ratio:.2f} is not within 2% of 278"
        )


def test_criterion_05b_cyclicity_closed_form_at_unit_purcell():
    with criterion(5, "cyclicity(eta0, 1) = 2/(1 - eta0) exactly", 0.1):
        for eta0 in (0.0, 0.1812, 0.5, 0.9844, 0.999):
            assert mp.cyclicity(eta0, 1.0) == 2.0 / (1.0 - eta0)


def test_criterion_06_isotope_scaling():
    with criterion(6, "C-H -> C-D diatomic scaling of 359 meV", 0.1):
        mu_ch = mp.reduced_mass(12.0, 1.00783)
        mu_cd = mp.reduced_mass(12.0, 2.01410)
        scaled = mp.isotope_scale_energy(359.0, mu_ch, mu_cd)
        assert abs(scaled - 263.6) <= 1.5
        assert abs(scaled - 263.0) / 263.0 < 5e-3  # consistent with the tabulated 263


def test_criterion_07_oracle_equivalence():
    # Documented certification grid: all energy pairs from
    # {20, 33, 100, 359, 400} meV with displacements {0, 0.1, 0.5, 0.734, 1},
    # quantum numbers m in {0, 1}, n <= 30.  Where float64 quadrature
    # resolves an overlap to 1e-8 relative, the routes must agree at that
    # level; unresolvable entries (deep-tail cancellation) must agree
    # within the oracle's certified error and be tiny on both routes.  One
    # deep-tail point is additionally certified at 30 significant digits.
    with criterion(7, "analytic vs quadrature overlap equivalence", 60.0):
        energies = (20.0, 33.0, 100.0, 359.0, 400.0)
        displacements = (0.0, 0.1, 0.5, 0.734, 1.0)
        resolved_checks = 0
        for e_i in energies:
            for e_f in energies:
                for dq in displacements:
                    pair = mp.OscillatorPair(e_i, e_f, dq)
                    analytic = mp.fc_overlap_matrix(pair, 1, 30)
                    values, errors = mp.quadrature_overlap_table(pair, 1, 30)
                    resolvable = errors <= 1e-8 * np.abs(values)
                    deviation = np.abs(analytic - values)
                    bad = deviation[resolvable] > 1e-8 * np.abs(values[resolvable])
                    assert not np.any(bad), (
                        f"pair ({e_i}, {e_f}, {dq}): {int(bad.sum())} overlaps "
                        "deviate beyond 1e-8 relative"
                    )
                    assert np.all(deviation[~resolvable] <= errors[~resolvable])
                    assert np.all(np.abs(analytic[~resolvable]) < 1e-6)
                    resolved_checks += int(resolvable.sum())
        # 125 parameter triples x 62 overlaps each; most must be resolved
        # at full relative precision for the comparison to mean anything.
        assert resolved_checks > 5_000

        # Equal-frequency displaced case against the Poisson closed form.
        accepting = mp.OscillatorPair(33.0, 33.0, 0.734)
        s_factor = mp.huang_rhys_factor(accepting)
        assert s_factor == pytest.approx(2.1266, abs=2e-4)
        row = mp.fc_overlap_matrix(accepting, 0, 30)[0]
        for n in range(31):
            poisson = math.exp(-s_factor) * s_factor**n / math.factorial(n)
            assert row[n] ** 2 == pytest.approx(poisson, rel=1e-10, abs=0.0)

        # Deep-tail certification beyond the float64 cancellation floor.
        tail = mp.quadrature_overlap_oracle(
            1, 28, accepting, mp.GridSpec(abs_tol=1e-19, dps=30)
        )
        analytic_tail = mp.fc_overlap(1, 28, accepting)
        assert abs(tail - analytic_tail) <= 1e-8 * abs(analytic_tail)


def test_criterion_08_sum_rules():
    with criterion(8, "transition-moment and completeness sum rules", 5.0):
        hsq = mp.CONSTANTS.hbar_sq_mev_amu_a2
        for config in (NATURAL, DEUTERIUM):
            for mode in config.modes:
                pair = mp.OscillatorPair(
                    mode.energy_excited, mode.energy_ground, mode.displacement
                )
                moments = mp.transition_moments(pair, 256)
                assert np.sum(moments**2) == pytest.approx(
                    hsq / (2 * mode.energy_excited), rel=1e-8
                )
        # Completeness for Huang-Rhys factors up to 5.
        for s_target in (0.5, 2.1266, 5.0):
            dq = math.sqrt(2.0 * s_target * hsq / 33.0)
            pair = mp.OscillatorPair(33.0, 33.0, dq)
            row = mp.fc_overlap_matrix(pair, 0, 256)[0]
            assert np.sum(row**2) == pytest.approx(1.0, abs=1e-10)


def test_criterion_09_fitter_closure():
    with criterion(9, "lifetime fitter closure on synthetic transients", 30.0):
        for lifetime, t_max in ((0.885, 10.0), (4.807, 50.0)):
            fit = mp.fit_lifetime(noiseless_histogram(lifetime, 1e4, 10.0, 500, t_max))
            assert fit.lifetime_us == pytest.approx(lifetime, rel=1e-6)

            taus, sigmas = [], []
            for seed in range(20):
                hist = mp.simulate_transient(lifetime, 1e4, 10.0, 500, t_max, seed=seed)
                noisy = mp.fit_lifetime(hist)
                taus.append(noisy.lifetime_us)
                sigmas.append(noisy.lifetime_uncertainty_us)
            taus, sigmas = np.array(taus), np.array(sigmas)
            assert np.all(np.abs(taus - lifetime) <= 3 * sigmas)
            standard_error = taus.std(ddof=1) / math.sqrt(taus.size)
            assert abs(taus.mean() - lifetime) <= 3 * standard_error


def test_criterion_10_dataset_fidelity():
    with criterion(10, "dataset export reproduces every tabulated decimal", 0.1):
        csv_buffer = io.StringIO()
        with redirect_stdout(csv_buffer):
            assert run_command(["dataset", "--format", "csv"]) == 0
        csv_rows = csv_buffer.getvalue().strip().splitlines()
        assert csv_rows[0] == "variant,c_s,c_w,h,zpl_shift_uev,lifetime_us,lifetime_err_us"
        assert csv_rows[1:] == [
            "natural,12,12,1,,0.885,0.004",
            "strong-13c,13,12,1,+78.04,0.904,0.001",
            "weak-13c,12,13,1,-3.47,0.921,0.001",
            "double-13c,13,13,1,+75.28,0.929,0.001",
            "deuterium,12,12,2,+745,4.807,0.018",
        ]

        config_buffer = io.StringIO()
        with redirect_stdout(config_buffer):
            assert run_command(["dataset", "--format", "config"]) == 0
        config_text = config_buffer.getvalue()
        for token in (
            '"zpl_energy_mev": 935',
            '"delta_q": 0.734',
            '"hbar_omega_g_mev": 33.0',
            '"hbar_omega_e_mev": 33.0',
            '"w_eg": 9.23',
            '"delta_q": 0.001',
            '"hbar_omega_g_mev": 359',
            '"hbar_omega_e_mev": 358',
            '"w_eg": 0.58',
            '"delta_q": 0.002',
            '"hbar_omega_g_mev": 263',
            '"hbar_omega_e_mev": 262',
            '"w_eg": 0.70',
        ):
            assert token in config_text, f"missing tabulated decimal: {token}"
