import contextlib
import hashlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphonon import (
    CapabilityError,
    DegeneracyError,
    DomainError,
    InfeasibleKineticsError,
    KineticsResult,
    cyclicity,
    infer_radiative_rate,
    purcell_radiative_efficiency,
    total_lifetime,
    zpl_emission_fraction,
)
from multiphonon.cli import run_command

TAU_A = 0.885e-6
TAU_B = 4.807e-6
NR_RATIO = 285.0


def solve_2x2_oracle(tau_a, tau_b, ratio):
    """Independent route: solve the linear system with numpy."""
    matrix = np.array([[1.0, ratio], [1.0, 1.0]])
    rhs = np.array([1.0 / tau_a, 1.0 / tau_b])
    gamma_r, gamma_nr_b = np.linalg.solve(matrix, rhs)
    return float(gamma_r), float(gamma_nr_b)


class TestTotalLifetime:
    def test_single_channel(self):
        assert total_lifetime(1e6, 0.0) == pytest.approx(1e-6, rel=1e-15, abs=0.0)

    def test_symmetric_in_rates(self):
        assert total_lifetime(3e5, 7e4) == total_lifetime(7e4, 3e5)

    def test_round_trip_with_inference(self):
        result = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        assert total_lifetime(result.radiative_rate, result.nonradiative_rate_a) == pytest.approx(
            TAU_A, rel=1e-10
        )
        assert total_lifetime(result.radiative_rate, result.nonradiative_rate_b) == pytest.approx(
            TAU_B, rel=1e-10
        )

    def test_degenerate(self):
        with pytest.raises(DegeneracyError):
            total_lifetime(0.0, 0.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            total_lifetime(-1.0, 1.0)


class TestInferRadiativeRate:
    def test_against_linear_solver_oracle(self):
        gamma_r, gamma_nr_b = solve_2x2_oracle(TAU_A, TAU_B, NR_RATIO)
        result = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        assert result.radiative_rate == pytest.approx(gamma_r, rel=1e-12)
        assert result.nonradiative_rate_b == pytest.approx(gamma_nr_b, rel=1e-12)
        assert result.nonradiative_rate_a == pytest.approx(NR_RATIO * gamma_nr_b, rel=1e-12)

    def test_reference_solution(self):
        # Frozen from the exact 2x2 solve at 30-digit precision.
        result = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        assert result.radiative_lifetime_us == pytest.approx(4.88319920135, rel=1e-9)
        assert result.efficiency_a == pytest.approx(0.181233646941, rel=1e-9)
        assert result.efficiency_b == pytest.approx(0.984395639373, rel=1e-9)

    def test_consistency_invariant(self):
        result = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        assert result.efficiency_a / TAU_A == pytest.approx(result.radiative_rate, rel=1e-10)
        assert result.efficiency_b / TAU_B == pytest.approx(result.radiative_rate, rel=1e-10)
        assert 0.0 <= result.efficiency_a <= 1.0
        assert 0.0 <= result.efficiency_b <= 1.0

    def test_equal_lifetimes_unit_ratio(self):
        result = infer_radiative_rate(2e-6, 2e-6, 1.0)
        assert result.nonradiative_rate_a == 0.0
        assert result.nonradiative_rate_b == 0.0
        assert result.radiative_rate == pytest.approx(5e5, rel=1e-15)
        assert result.efficiency_a == pytest.approx(1.0, rel=1e-12)

    def test_infinite_ratio_limit(self):
        tau = 1.3e-6
        result = infer_radiative_rate(tau, 2 * tau, 1e9)
        assert result.radiative_rate == pytest.approx(1.0 / (2 * tau), rel=1e-6)
        assert result.efficiency_b == pytest.approx(1.0, abs=1e-6)

    def test_infeasible_ordering(self):
        with pytest.raises(InfeasibleKineticsError):
            infer_radiative_rate(TAU_B, TAU_A, NR_RATIO)

    def test_non_positive_radiative_rate(self):
        # Lifetimes 1 and 2 µs with a ratio of 1.5: Γ_R = 1e6 − 1.5e6 s⁻¹ < 0.
        with pytest.raises(InfeasibleKineticsError, match="radiative rate is not positive"):
            infer_radiative_rate(1e-6, 2e-6, 1.5)

    def test_unit_ratio_with_unequal_lifetimes(self):
        with pytest.raises(InfeasibleKineticsError):
            infer_radiative_rate(TAU_A, TAU_B, 1.0)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            infer_radiative_rate(-1e-6, TAU_B, NR_RATIO)
        with pytest.raises(DomainError):
            infer_radiative_rate(TAU_A, TAU_B, 0.0)


class TestZplEmissionFraction:
    def test_reference_values(self):
        assert zpl_emission_fraction(0.181, 0.23) == pytest.approx(0.04163, rel=1e-3)
        assert zpl_emission_fraction(0.984, 0.23) == pytest.approx(0.22632, rel=1e-3)

    def test_identity(self):
        assert zpl_emission_fraction(0.37, 1.0) == 0.37

    def test_domain(self):
        with pytest.raises(DomainError):
            zpl_emission_fraction(1.2, 0.23)
        with pytest.raises(DomainError):
            zpl_emission_fraction(0.5, -0.1)


class TestPurcellEfficiency:
    def test_no_enhancement(self):
        for eta0 in (0.1, 0.5, 0.9844):
            assert purcell_radiative_efficiency(eta0, 1.0) == pytest.approx(eta0, rel=1e-15)

    def test_direct_substitution(self):
        assert purcell_radiative_efficiency(0.5, 3.0) == pytest.approx(0.75, rel=1e-15)

    def test_exact_limits(self):
        assert purcell_radiative_efficiency(0.0, 100.0) == 0.0
        assert purcell_radiative_efficiency(1.0, 100.0) == 1.0

    def test_monotone_in_purcell_and_bounded(self):
        values = [purcell_radiative_efficiency(0.3, p) for p in np.geomspace(1e-2, 1e8, 30)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)

    @given(eta0=st.floats(0.001, 0.999), purcell=st.floats(0.0, 1e6))
    @settings(max_examples=80, deadline=None)
    def test_cyclicity_composition_identity(self, eta0, purcell):
        # C = 2/(1 - eta(P)) must equal the closed form up to roundoff; the
        # 1 - eta(P) subtraction is ill-conditioned as eta(P) -> 1, so the
        # tolerance carries that amplification factor.
        eta_p = purcell_radiative_efficiency(eta0, purcell)
        rel = max(1e-12, 20 * np.finfo(float).eps / (1.0 - eta_p))
        assert cyclicity(eta0, purcell) == pytest.approx(2.0 / (1.0 - eta_p), rel=rel)


class TestCyclicity:
    def test_unit_purcell_closed_form(self):
        for eta0 in (0.0, 0.1812, 0.5, 0.9844):
            assert cyclicity(eta0, 1.0) == 2.0 / (1.0 - eta0)

    def test_no_radiative_channel(self):
        for purcell in (0.0, 1.0, 1e6):
            assert cyclicity(0.0, purcell) == 2.0

    def test_high_purcell_ratio_analytic_limit(self):
        eta_a, eta_b = 0.1812, 0.9844
        ratio = cyclicity(eta_b, 1e9) / cyclicity(eta_a, 1e9)
        limit = (eta_b / (1 - eta_b)) / (eta_a / (1 - eta_a))
        assert ratio == pytest.approx(limit, rel=1e-6)

    def test_high_purcell_ratio_equals_nr_ratio_for_inferred_etas(self):
        # eta/(1-eta) = Gamma_R/Gamma_NR, so the high-P cyclicity ratio of a
        # shared-radiative-rate pair is exactly the nonradiative rate ratio.
        result = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        ratio = cyclicity(result.efficiency_b, 1e9) / cyclicity(result.efficiency_a, 1e9)
        assert ratio == pytest.approx(NR_RATIO, rel=1e-6)

    def test_strictly_increasing_in_both_arguments(self):
        etas = np.linspace(0.0, 0.99, 25)
        values = [cyclicity(float(e), 7.0) for e in etas]
        assert all(a < b for a, b in zip(values, values[1:]))
        purcells = np.linspace(0.0, 1e4, 25)
        values = [cyclicity(0.4, float(p)) for p in purcells]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_divergence_at_unit_efficiency(self):
        with pytest.raises(DegeneracyError):
            cyclicity(1.0, 10.0)


class TestResultsPastTheFloatRange:
    """A result that is not finite is refused, without a warning; finite ones are unchanged."""

    @pytest.mark.parametrize("call, what", [
        (lambda: total_lifetime(5e-324, 5e-324), "the lifetime"),  # 1/1e-323
        (lambda: infer_radiative_rate(5e-324, 5e-324, 5e-324), "the rate budget"),  # inf - inf
        (lambda: infer_radiative_rate(1.7e308, 1.7e308, 1.0), "the rate budget"),  # 1e6/5.9e-309
        (lambda: cyclicity(0.5, 1.7e308), "the cyclicity"),
    ], ids=["total_lifetime", "infer_radiative_rate-nan", "infer_radiative_rate-inf", "cyclicity"])
    def test_refused(self, call, what):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CapabilityError, match=f"^{what} is not finite in double precision"):
                call()

    def test_largest_finite_values_are_returned(self):
        assert total_lifetime(1e-308, 0.0) == 1e308
        assert cyclicity(0.5, 8e307) == 2.0 * (1.0 + 0.5 * (8e307 - 1.0)) / 0.5
        result = infer_radiative_rate(1e300, 1e300, 1.0)
        assert result.radiative_lifetime_us == 1e306 and result.efficiency_a == 1.0


class TestKineticsResult:
    """The value type keeps the contract it had as a frozen dataclass."""

    FIELDS = ("radiative_rate", "nonradiative_rate_a", "nonradiative_rate_b",
              "radiative_lifetime_us", "efficiency_a", "efficiency_b")

    def test_field_names_and_order(self):
        assert KineticsResult._fields == self.FIELDS
        result = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        assert tuple(getattr(result, name) for name in self.FIELDS) == tuple(result)

    def test_repr_text(self):
        assert repr(infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)) == (
            "KineticsResult(radiative_rate=204783.78185416287, "
            "nonradiative_rate_a=925159.720970696, nonradiative_rate_b=3246.1744595463015, "
            "radiative_lifetime_us=4.883199201351559, efficiency_a=0.18123364694093413, "
            "efficiency_b=0.9843956393729608)"
        )

    @pytest.mark.parametrize("name", ["radiative_rate", "efficiency_b", "new_attribute"])
    def test_immutable(self, name):
        result = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        with pytest.raises(AttributeError):
            setattr(result, name, 1.0)

    def test_equal_inputs_equal_and_hash_alike(self):
        first = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        second = infer_radiative_rate(TAU_A, TAU_B, NR_RATIO)
        assert first == second and hash(first) == hash(second)
        assert first._replace(efficiency_a=0.5) != first

    def test_cli_stdout_bytes_unchanged(self):
        # A cli-session kinetics call; the digest is that of the output
        # when KineticsResult was a frozen dataclass.
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = run_command(["kinetics", "--tau-a", "0.885", "--tau-b", "4.807",
                                "--nr-ratio", "243.54943560314564",
                                "--debye-waller", "0.18466528979451513"])
        assert code == 0
        assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
            "d571471799646b20b19a9ea357c203694ce28235c8edc6a27b087d5c77f897fe"
        )
