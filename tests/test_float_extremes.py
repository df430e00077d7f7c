"""Property tests at the float extremes: one ``@given`` test per scalar public function.

Each function returns finite floats or raises a ``MultiphononError``, never a warning
(warnings are errors here), for inputs drawn from ±0, the subnormals and the whole
positive range to 1.7e308, plus a fixed list of extremes.  ``reduced_mass`` and
``isotope_scale_energy`` must also lie within 2 ulp of the 60-digit mpmath value: their
plain paths round three times, and their over- and underflow paths are exact to that.  A
positive result must be > 0.0: they may refuse one only where its exact value is at most
half the smallest subnormal, where it would round to 0.0.
"""

import math
import sys
import warnings

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from multiphonon import (
    MultiphononError,
    cyclicity,
    gaussian_delta,
    ho_length_scale,
    infer_radiative_rate,
    isotope_scale_energy,
    purcell_radiative_efficiency,
    reduced_mass,
    total_lifetime,
    zpl_emission_fraction,
)

EXTREMES = [0.0, -0.0, 5e-324, 1e-320, 1e-310, sys.float_info.min, 1e-300, 1e-200, 1e-160,
            1e-12, 0.5, 1.0 - 2.0**-53, 1.0, 2.0, 1e12, 1e160, 1e200, 1e300, 1.7e308,
            sys.float_info.max, -1.0]
FLOATS = st.one_of(st.sampled_from(EXTREMES), st.floats(0.0, sys.float_info.max))
PROPERTY = settings(max_examples=300, deadline=None)
# Half the smallest subnormal: a positive result at or below it may round to 0.0, which
# the mass formulas refuse with CapabilityError rather than return.
HALF_SUBNORMAL = mpmath.mpf(2) ** -1075


def _contract(function, *args):
    """*function(*args)* under warnings-as-errors: its result, or None if refused."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = function(*args)
        except MultiphononError:
            return None
    values = result if isinstance(result, tuple) else (result,)
    assert all(type(value) is float and math.isfinite(value) for value in values), result
    return result


def _ulps(result, exact):
    """|result − exact| in units of the last place of *exact* rounded to a double."""
    return abs(mpmath.mpf(result) - exact) / math.ulp(float(exact))


@PROPERTY
@given(FLOATS, FLOATS)
def test_total_lifetime(radiative, nonradiative):
    _contract(total_lifetime, radiative, nonradiative)


@PROPERTY
@given(FLOATS, FLOATS, FLOATS)
def test_infer_radiative_rate(lifetime_a, lifetime_b, nr_ratio):
    _contract(infer_radiative_rate, lifetime_a, lifetime_b, nr_ratio)


@PROPERTY
@given(FLOATS, FLOATS)
def test_zpl_emission_fraction(efficiency, debye_waller):
    _contract(zpl_emission_fraction, efficiency, debye_waller)


@PROPERTY
@given(FLOATS, FLOATS)
def test_purcell_radiative_efficiency(eta0, purcell):
    _contract(purcell_radiative_efficiency, eta0, purcell)
    for no_radiation in (0.0, -0.0):  # +0.0, also at P = −0.0
        zero = _contract(purcell_radiative_efficiency, no_radiation, purcell)
        assert zero is None or (zero == 0.0 and math.copysign(1.0, zero) == 1.0)


@PROPERTY
@given(FLOATS, FLOATS)
def test_cyclicity(eta0, purcell):
    _contract(cyclicity, eta0, purcell)


@PROPERTY
@given(FLOATS, FLOATS)
def test_reduced_mass(mass_a, mass_b):
    result = _contract(reduced_mass, mass_a, mass_b)
    if not (mass_a > 0.0 and mass_b > 0.0):  # a DomainError, for a mass that is not > 0
        assert result is None
        return
    with mpmath.workdps(60):
        exact = mpmath.mpf(mass_a) * mass_b / (mpmath.mpf(mass_a) + mass_b)
        if result is None:  # refused only where the reduced mass is at most half of 5e-324
            assert exact <= HALF_SUBNORMAL
            return
        assert result > 0.0 and _ulps(result, exact) <= 2
    assert result == _contract(reduced_mass, mass_b, mass_a)


@PROPERTY
@given(FLOATS, FLOATS, FLOATS)
def test_isotope_scale_energy(energy, mu_old, mu_new):
    result = _contract(isotope_scale_energy, energy, mu_old, mu_new)
    if not (energy > 0.0 and mu_old > 0.0 and mu_new > 0.0):
        assert result is None
        return
    with mpmath.workdps(60):
        exact = mpmath.mpf(energy) * mpmath.sqrt(mpmath.mpf(mu_old) / mu_new)
        if result is None:  # refused only within an ulp of overflow or past it, or at most half of 5e-324
            assert exact > sys.float_info.max - math.ulp(sys.float_info.max) or exact <= HALF_SUBNORMAL
        else:
            assert result > 0.0 and _ulps(result, exact) <= 2


@PROPERTY
@given(FLOATS, FLOATS)
def test_gaussian_delta(detuning, sigma):
    _contract(gaussian_delta, detuning, sigma)
    _contract(gaussian_delta, -detuning, sigma)


@PROPERTY
@given(FLOATS)
def test_ho_length_scale(phonon_energy):
    _contract(ho_length_scale, phonon_energy)

