"""Radiative/nonradiative rate budgets, quantum efficiency, and cyclicity.

The excited-state lifetime decomposes as 1/τ = Γ_R + Γ_NR.  Given the
lifetimes of two variants that share the same radiative rate and whose
nonradiative rates stand in a known ratio, the 2×2 system solves exactly
for Γ_R and both Γ_NR, and with them the quantum efficiencies
η = Γ_R·τ.  A Purcell factor P rescales the radiative channel only,
boosting the efficiency to η(P) = η₀P/(1 + η₀(P-1)); with a fully
spin-mixing nonradiative channel the optical cyclicity is
C = 2/(1 - η(P)) = 2(1 + η₀(P-1))/(1 - η₀).  A result past the float range (the
inverse of a subnormal lifetime, say) raises ``CapabilityError``.
"""

from collections import namedtuple

from .errors import DegeneracyError, InfeasibleKineticsError, _finite_result, _number


class KineticsResult(namedtuple("KineticsResult", (
    "radiative_rate nonradiative_rate_a nonradiative_rate_b radiative_lifetime_us "
    "efficiency_a efficiency_b"))):
    """Solved rate budget for a pair of variants sharing Γ_R.

    Rates are in s⁻¹.  An immutable named tuple, not a dataclass, so that
    the ``kinetics`` subcommand never imports ``dataclasses``; copy with
    changes by ``_replace``.
    """

    __slots__ = ()


def total_lifetime(radiative_rate, nonradiative_rate):
    """Excited-state lifetime 1/(Γ_R + Γ_NR) in seconds."""
    radiative_rate = _number(radiative_rate, "radiative_rate", ge=0.0)
    total = radiative_rate + _number(nonradiative_rate, "nonradiative_rate", ge=0.0)
    if total == 0.0:
        raise DegeneracyError("both decay rates are zero; the lifetime diverges")
    return _finite_result(1.0 / total, "the lifetime")


def infer_radiative_rate(lifetime_a, lifetime_b, nr_ratio):
    """Solve the shared-radiative-rate system for two variants.

    With Γ_NR,a = nr_ratio · Γ_NR,b and a common Γ_R:

        Γ_NR,b = (1/τ_a - 1/τ_b) / (nr_ratio - 1),
        Γ_R    = 1/τ_b - Γ_NR,b.

    Parameters
    ----------
    lifetime_a, lifetime_b : float
        Measured lifetimes in seconds.
    nr_ratio : float
        Γ_NR,a / Γ_NR,b, positive.  Equal to 1 only if the lifetimes are
        equal, in which case the unique consistent solution Γ_NR = 0 is
        returned.

    Returns
    -------
    KineticsResult

    Raises
    ------
    InfeasibleKineticsError
        If the inputs force a negative radiative or nonradiative rate.
    """
    lifetime_a = _number(lifetime_a, "lifetime_a", gt=0.0)
    lifetime_b = _number(lifetime_b, "lifetime_b", gt=0.0)
    nr_ratio = _number(nr_ratio, "nr_ratio", gt=0.0)
    rate_total_a = 1.0 / lifetime_a
    rate_total_b = 1.0 / lifetime_b
    if nr_ratio == 1.0:
        if lifetime_a != lifetime_b:
            raise InfeasibleKineticsError(
                "nr_ratio = 1 with unequal lifetimes "
                f"({lifetime_a!r} s vs {lifetime_b!r} s) has no solution"
            )
        nr_b = 0.0
        radiative = rate_total_b
    else:
        nr_b = (rate_total_a - rate_total_b) / (nr_ratio - 1.0)
        radiative = rate_total_b - nr_b
        if nr_b < 0.0:
            raise InfeasibleKineticsError(
                f"inferred nonradiative rate is negative ({nr_b:.6e} s⁻¹); "
                "check the lifetime ordering against nr_ratio"
            )
        if radiative <= 0.0:
            raise InfeasibleKineticsError(
                f"inferred radiative rate is not positive ({radiative:.6e} s⁻¹)"
            )
    nr_a = nr_ratio * nr_b
    return _finite_result(KineticsResult(
        radiative_rate=radiative,
        nonradiative_rate_a=nr_a,
        nonradiative_rate_b=nr_b,
        radiative_lifetime_us=1e6 / radiative,
        efficiency_a=radiative * lifetime_a,
        efficiency_b=radiative * lifetime_b,
    ), "the rate budget")  # 1/τ = inf leaves NaN, which passes the checks above


def zpl_emission_fraction(efficiency, debye_waller):
    """Fraction of all decays that emit into the zero-phonon line.

    The product of the quantum efficiency and the Debye-Waller factor
    (the fraction of radiative emission in the ZPL).
    """
    efficiency = _number(efficiency, "efficiency", ge=0.0, le=1.0)
    return efficiency * _number(debye_waller, "debye_waller", ge=0.0, le=1.0)


def _purcell_inputs(eta0, purcell):
    return _number(eta0, "eta0", ge=0.0, le=1.0), _number(purcell, "purcell", ge=0.0)


def purcell_radiative_efficiency(eta0, purcell):
    """Radiative efficiency under Purcell enhancement of the radiative rate.

    η(P) = η₀·P / (1 + η₀·(P - 1)).  Equals η₀ at P = 1 and tends to 1 as
    P grows.  η₀ of exactly 0 or 1 is treated as the corresponding exact
    limit rather than an error.
    """
    eta0, purcell = _purcell_inputs(eta0, purcell)
    if eta0 == 0.0:  # +0.0: the general expression gives −0.0 for η₀ = −0.0 or P = −0.0
        return 0.0
    if eta0 == 1.0:  # at P = 0 the general expression is 0/0
        return 1.0
    return eta0 * purcell / (1.0 + eta0 * (purcell - 1.0))


def cyclicity(eta0, purcell):
    """Optical cyclicity with a fully spin-mixing nonradiative channel.

    C = 2·(1 + η₀·(P - 1)) / (1 - η₀); at P = 1 this is 2/(1 - η₀).

    Raises
    ------
    DegeneracyError
        For η₀ = 1 (no nonradiative channel; the cyclicity diverges).
    """
    eta0, purcell = _purcell_inputs(eta0, purcell)
    if eta0 == 1.0:
        raise DegeneracyError("cyclicity diverges at unit intrinsic efficiency")
    return _finite_result(2.0 * (1.0 + eta0 * (purcell - 1.0)) / (1.0 - eta0), "the cyclicity")
