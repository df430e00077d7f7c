"""Vibrational overlaps between two displaced harmonic oscillators.

Everything here works in mass-weighted coordinates Q (units amu^(1/2)·Å),
where a harmonic oscillator with phonon energy E = ħΩ has the normalized
eigenfunctions

    chi_n(Q) = (A/pi)^(1/4) / sqrt(2^n n!) * H_n(sqrt(A) (Q-Q_c)) * exp(-A (Q-Q_c)^2 / 2),

with Gaussian exponent A = E/ħ² (1/(amu·Å²)) and equilibrium position Q_c.
The initial and final oscillators of a transition may differ both in
frequency and in equilibrium position; the overlap integrals
<chi_initial_m | chi_final_n> are generated by a two-index recurrence
(no factorials, no binomial sums).  Its m <= 1 rows are certified to
n = 512 against an independent Gauss-Hermite quadrature oracle (see
``quadrature``, n <= 30), the position-operator sum rule and completeness;
rows m > 1 only where that oracle agrees with them.  A table or moment row
is refused with ``CapabilityError`` if it is not finite (inf or NaN), or if
S₀₀ or A_i·A_f is below the normal range, where either one loses digits.
Transition moments measure positions from the initial-state equilibrium.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_SQ_MEV_AMU_A2
from .errors import CapabilityError, _number

# Rows m <= 1 certified against the quadrature oracle (n <= 30), the sum
# rule and completeness (n <= 512); refuse beyond 512 rather than risk error.
MAX_CERTIFIED_N = 512


@dataclass(frozen=True)
class OscillatorPair:
    """Two 1D harmonic oscillators linked by one vibronic transition.

    Parameters
    ----------
    energy_initial : float
        Phonon energy ħΩ of the initial-state oscillator, meV.
    energy_final : float
        Phonon energy ħΩ of the final-state oscillator, meV.
    displacement : float
        Mass-weighted offset ΔQ of the final-state minimum relative to the
        initial-state minimum, amu^(1/2)·Å.  The sign is physically
        meaningful, but every squared observable is invariant under its
        negation.
    """

    energy_initial: float
    energy_final: float
    displacement: float

    def __post_init__(self):
        for name, lower in (("energy_initial", 0.0), ("energy_final", 0.0), ("displacement", None)):
            object.__setattr__(self, name, _number(getattr(self, name), name, gt=lower))


def ho_length_scale(phonon_energy):
    """Zero-point length sqrt(ħ/(2Ω)) of a harmonic oscillator.

    Parameters
    ----------
    phonon_energy : float
        ħΩ in meV.

    Returns
    -------
    float
        sqrt(ħ² / (2 ħΩ)) in amu^(1/2)·Å.  Strictly decreasing in the
        phonon energy.

    Raises
    ------
    CapabilityError
        If the length overflows double precision (ħΩ below about 1.2e-308).
    """
    length = _zero_point_length(_number(phonon_energy, "phonon_energy", gt=0.0))
    if math.isinf(length):
        raise CapabilityError(f"the zero-point length of ħΩ = {phonon_energy!r} meV "
                              "is not finite in double precision")
    return length


def _zero_point_length(phonon_energy):
    """:func:`ho_length_scale` unchecked: inf where it overflows, for callers that refuse inf."""
    return math.sqrt(HBAR_SQ_MEV_AMU_A2 / (2.0 * phonon_energy))


def _recurrence_coefficients(energy_initial, energy_final, displacement):
    """The five constants driving the two-oscillator overlap recurrence.

    With Gaussian exponents A_i, A_f and displacement ΔQ (final minimum at
    +ΔQ relative to the initial), the overlaps S[m, n] satisfy

        S[0, 0] = sqrt(e/2) * exp(b d / (2 e))
        S[m, n] = b/sqrt(2m) S[m-1, n] + a sqrt((m-1)/m) S[m-2, n]
                  + (e/2) sqrt(n/m) S[m-1, n-1]

    and the transpose-symmetric relation in n with (c, d) in place of
    (a, b).  All coefficients are dimensionless and bounded (|a| = |c| < 1),
    yet the forward recursion in m is not stable in general: only the
    m <= 1 rows are certified to n = 512.  The arguments may be floats or
    arrays that broadcast together (one pair per element).
    """
    a_i = energy_initial / HBAR_SQ_MEV_AMU_A2
    a_f = energy_final / HBAR_SQ_MEV_AMU_A2
    total = a_i + a_f
    a = (a_i - a_f) / total
    b = 2.0 * displacement * np.sqrt(a_i) * a_f / total
    c = -a
    d = -2.0 * displacement * np.sqrt(a_f) * a_i / total
    e = 4.0 * np.sqrt(a_i * a_f) / total
    return a, b, c, d, e


def _check_quantum_numbers(m, n):
    """The quantum-number check: *m* and *n* as non-negative ints in range."""
    m, n = _number(m, "m", integer=True, ge=0), _number(n, "n", integer=True, ge=0)
    if max(m, n) > MAX_CERTIFIED_N:
        raise CapabilityError(
            f"quantum number {max(m, n)} exceeds the certified recursion "
            f"range (n <= {MAX_CERTIFIED_N})"
        )
    return m, n


def _finite(values, pair, s00):
    """*values*, or :class:`CapabilityError` if one is inf or NaN or they lost digits.

    Below the normal range, *s00*, the recurrence's start, and A_i·A_f, inside e,
    would pass their rounding error into every entry (or flush them to zero).
    """
    if not np.isfinite(values).all():
        raise CapabilityError(f"the overlaps of {pair} are not finite in double precision")
    product = pair.energy_initial / HBAR_SQ_MEV_AMU_A2 * (pair.energy_final / HBAR_SQ_MEV_AMU_A2)
    if not (s00 >= sys.float_info.min and product >= sys.float_info.min):
        raise CapabilityError(
            f"the overlaps of {pair} underflow double precision: S₀₀ = {float(s00)!r} and "
            f"A_i·A_f = {product!r} must both reach {sys.float_info.min!r}"
        )
    return values


def fc_overlap_matrix(pair, m_max, n_max):
    """Overlap table S[m, n] = <chi_initial_m | chi_final_n>.

    Parameters
    ----------
    pair : OscillatorPair
    m_max, n_max : int
        Highest initial and final quantum numbers (inclusive).

    Returns
    -------
    numpy.ndarray
        Shape ``(m_max + 1, n_max + 1)``.

    Raises
    ------
    CapabilityError
        If ``m_max`` or ``n_max`` exceeds 512, rows m <= 1 are not finite,
        or S₀₀ or A_i·A_f is below the normal range (2.2e-308).
    """
    m_max, n_max = _check_quantum_numbers(m_max, n_max)
    args = (pair.energy_initial, pair.energy_final, pair.displacement)
    s = np.empty((m_max + 1, n_max + 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN are refused
        rows = np.hstack(_moment_rows(*args, n_max)).T
        s[:2] = _finite(rows[: m_max + 1], pair, rows[0, 0])
    a, b, _, _, e = map(float, _recurrence_coefficients(*args))
    # Whole rows, each entry by the operations of the entry-wise recurrence, in order.
    diagonal = 0.5 * e * np.sqrt(np.arange(1.0, n_max + 1.0) / np.arange(2.0, m_max + 1.0)[:, None])
    for m in range(2, m_max + 1):
        np.multiply(b / math.sqrt(2.0 * m), s[m - 1], out=s[m])
        s[m] += a * math.sqrt((m - 1.0) / m) * s[m - 2]
        s[m, 1:] += diagonal[m - 2] * s[m - 1, :-1]
    return s


def fc_overlap(m, n, pair):
    """Franck-Condon overlap <chi_initial_m | chi_final_n>.

    Parameters
    ----------
    m : int
        Initial-oscillator quantum number, 0 or 1.
    n : int
        Final-oscillator quantum number, 0 <= n <= 512.
    pair : OscillatorPair

    Returns
    -------
    float
        The overlap; |result| <= 1.

    Raises
    ------
    DomainError
        If ``m`` is not 0 or 1, or ``n`` is not a non-negative integer.
    CapabilityError
        If ``n`` exceeds the certified recursion range, the overlap is not
        finite, or S₀₀ or A_i·A_f is below the normal range.
    """
    m, n = _check_quantum_numbers(_number(m, "m", integer=True, le=1), n)
    return float(fc_overlap_matrix(pair, m, n)[m, n])


def _moment_rows(energy_initial, energy_final, displacement, n_max):
    """Rows m = 0 and m = 1 of :func:`fc_overlap_matrix` for G pairs at once.

    The arguments are floats or arrays that broadcast to G oscillator pairs (G = 1 for
    three floats).  Each entry comes from the same IEEE operations, in the same order,
    for any G, so column g equals ``fc_overlap_matrix(pair_g, 1, n_max)`` bit for bit
    (the table takes these two rows from here); for G = 1 the n-loop runs on Python
    floats, sparing numpy's per-call cost.
    The recurrence runs forward in n, so the first k + 1 rows do not depend on ``n_max``.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        S[0, n] and S[1, n], each of shape ``(n_max + 1, G)``.
    """
    _, n_max = _check_quantum_numbers(1, n_max)
    _, b, c, d, e = _recurrence_coefficients(energy_initial, energy_final, displacement)
    b, d = np.atleast_1d(b, d)  # both carry every argument's shape
    n = np.arange(1.0, n_max + 1.0)[:, None]
    step = d / np.sqrt(2.0 * n)
    back = c * np.sqrt((n - 1.0) / n)
    # S[0, 0] through math.exp: np.exp may differ by 1 ulp, and S₀₀ must stay bit-identical.
    exponent = (b * d / (2.0 * e)).tolist()
    rows = [np.sqrt(e / 2.0) * np.array([math.exp(x) for x in exponent])]
    if len(exponent) == 1:  # one pair: the same operations on Python floats
        step, back, rows = step.ravel().tolist(), back.ravel().tolist(), rows[0].tolist()
    if n_max >= 1:
        rows.append(step[0] * rows[0])
    for step_n, back_n in zip(step[1:], back[1:]):
        rows.append(step_n * rows[-1] + back_n * rows[-2])
    s0 = np.array(rows).reshape(n_max + 1, -1)
    s1 = b / math.sqrt(2.0) * s0
    s1[1:] += 0.5 * e * np.sqrt(n) * s0[:-1]
    return s0, s1


def _moments(energy_initial, energy_final, displacement, n_max):
    """Transition moments of G pairs at once, shape ``(n_max + 1, G)``, and their S₀₀.

    Arguments as for :func:`_moment_rows`, except that ``energy_initial``
    is a float; see :func:`transition_moments`.  S₀₀, shape ``(G,)``, is the
    value the overlap recurrence started from.
    """
    s0, s1 = _moment_rows(energy_initial, energy_final, displacement, n_max)
    return _zero_point_length(energy_initial) * s1, s0[0]


def transition_moments(pair, n_max):
    """All transition moments M_n = <chi_initial_0 | Q - Q_initial | chi_final_n>.

    Positions are measured from the initial-state equilibrium, so the
    position operator acting on the initial ground state is a single
    ladder step:

        M_n = sqrt(ħ/(2 Ω_initial)) * <chi_initial_1 | chi_final_n>.

    Parameters
    ----------
    pair : OscillatorPair
    n_max : int
        Highest final quantum number (inclusive).

    Returns
    -------
    numpy.ndarray
        M_0 .. M_n_max in amu^(1/2)·Å; refused as :func:`fc_overlap_matrix` refuses.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN are refused
        moments, s00 = _moments(pair.energy_initial, pair.energy_final, pair.displacement, n_max)
        return _finite(moments[:, 0], pair, s00.item())


def transition_moment(n, pair):
    """Single transition moment M_n; see :func:`transition_moments`."""
    _, n = _check_quantum_numbers(0, n)
    return float(transition_moments(pair, n)[n])


def huang_rhys_factor(pair):
    """Huang-Rhys factor S = Ω_final ΔQ² / (2ħ) of the pair, dimensionless.

    Raises :class:`CapabilityError` if S overflows double precision.
    """
    # In this order only an S beyond the float range overflows, not an intermediate product.
    factor = pair.energy_final / (2.0 * HBAR_SQ_MEV_AMU_A2) * pair.displacement * pair.displacement
    if math.isinf(factor):
        raise CapabilityError(f"the Huang-Rhys factor of {pair} is not finite in double precision")
    return factor
