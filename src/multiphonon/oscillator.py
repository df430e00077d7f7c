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
n = 512 against an independent dense-grid quadrature oracle (see
``quadrature``, n <= 30), the position-operator sum rule and completeness;
rows m > 1 only where that oracle agrees with them.  A table or moment row
that is not finite (inf or NaN) is refused with ``CapabilityError``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_SQ_MEV_AMU_A2
from .errors import CapabilityError, DomainError, _number

# Rows m <= 1 certified against the quadrature oracle (n <= 30), the sum
# rule and completeness (n <= 512); refuse beyond 512 rather than risk error.
MAX_CERTIFIED_N = 512

# Distinguishes the two conventions for the reference position subtracted
# from the position operator in transition moments.
REFERENCE_INITIAL = "initial"
REFERENCE_FINAL = "final"


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
    """
    phonon_energy = _number(phonon_energy, "phonon_energy", gt=0.0)
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


def _finite(overlaps, pair):
    """*overlaps*, or :class:`CapabilityError` if an entry is inf or NaN."""
    if not np.isfinite(overlaps).all():
        raise CapabilityError(f"the overlaps of {pair} are not finite in double precision")
    return overlaps


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
    """
    m_max, n_max = _check_quantum_numbers(m_max, n_max)
    args = (pair.energy_initial, pair.energy_final, pair.displacement)
    s = np.empty((m_max + 1, n_max + 1))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN are refused
        s[:2] = _finite(np.hstack(_moment_rows(*args, n_max)).T[: m_max + 1], pair)
    a, b, _, _, e = map(float, _recurrence_coefficients(*args))
    n = np.arange(1.0, n_max + 1.0)
    # Whole rows, each entry by the operations of the entry-wise recurrence, in order.
    for m in range(2, m_max + 1):
        np.multiply(b / math.sqrt(2.0 * m), s[m - 1], out=s[m])
        s[m] += a * math.sqrt((m - 1.0) / m) * s[m - 2]
        s[m, 1:] += 0.5 * e * np.sqrt(n / m) * s[m - 1, :-1]
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
        If ``n`` exceeds the certified recursion range, or the overlap is not finite.
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


def _moments(energy_initial, energy_final, displacement, n_max, reference):
    """Transition moments of G pairs at once, shape ``(n_max + 1, G)``, and their S₀₀.

    Arguments as for :func:`_moment_rows`, except that ``energy_initial``
    is a float; see :func:`transition_moments`.  S₀₀, shape ``(G,)``, is the
    value the overlap recurrence started from.
    """
    if reference not in (REFERENCE_INITIAL, REFERENCE_FINAL):
        raise DomainError(f"reference must be 'initial' or 'final', got {reference!r}")
    s0, s1 = _moment_rows(energy_initial, energy_final, displacement, n_max)
    moments = ho_length_scale(energy_initial) * s1
    if reference == REFERENCE_FINAL:
        moments -= displacement * s0
    return moments, s0[0]


def transition_moments(pair, n_max, reference=REFERENCE_INITIAL):
    """All transition moments M_n = <chi_initial_0 | Q - Q_ref | chi_final_n>.

    With the reference position fixed at the initial-state equilibrium
    (the default), the position operator acting on the initial ground state
    is a single ladder step, so

        M_n = sqrt(ħ/(2 Ω_initial)) * <chi_initial_1 | chi_final_n>.

    The alternative ``reference="final"`` measures positions from the
    final-state equilibrium instead:

        M_n = sqrt(ħ/(2 Ω_initial)) * <1_i | n_f> - ΔQ * <0_i | n_f>.

    Parameters
    ----------
    pair : OscillatorPair
    n_max : int
        Highest final quantum number (inclusive).
    reference : str
        ``"initial"`` or ``"final"``.

    Returns
    -------
    numpy.ndarray
        M_0 .. M_n_max in amu^(1/2)·Å.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN are refused
        return _finite(_moments(
            pair.energy_initial, pair.energy_final, pair.displacement, n_max, reference
        )[0][:, 0], pair)


def transition_moment(n, pair, reference=REFERENCE_INITIAL):
    """Single transition moment M_n; see :func:`transition_moments`."""
    _, n = _check_quantum_numbers(0, n)
    return float(transition_moments(pair, n, reference=reference)[n])


def huang_rhys_factor(pair):
    """Huang-Rhys factor S = Ω_final ΔQ² / (2ħ) of the pair, dimensionless."""
    return pair.energy_final * pair.displacement**2 / (2.0 * HBAR_SQ_MEV_AMU_A2)
