"""Vibrational overlaps between two displaced harmonic oscillators.

Everything here works in mass-weighted coordinates Q (units amu^(1/2)·Å),
where a harmonic oscillator with phonon energy E = ħΩ has the normalized
eigenfunctions

    chi_n(Q) = (A/pi)^(1/4) / sqrt(2^n n!) * H_n(sqrt(A) (Q-Q_c)) * exp(-A (Q-Q_c)^2 / 2),

with Gaussian exponent A = E/ħ² (1/(amu·Å²)) and equilibrium position Q_c.
The initial and final oscillators of a transition may differ both in
frequency and in equilibrium position; the overlap integrals
<chi_initial_m | chi_final_n> are generated by a numerically stable
two-index recurrence (no factorials, no binomial sums), certified against
an independent dense-grid quadrature oracle (see ``quadrature``) and the
position-operator sum rule.
"""

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_SQ_MEV_AMU_A2
from .errors import CapabilityError, DomainError

# Forward recursion certified against the quadrature oracle (n <= 30) and
# the sum rule (n <= 256); refuse beyond 512 rather than risk silent error.
MAX_CERTIFIED_N = 512

# Distinguishes the two conventions for the reference position subtracted
# from the position operator in transition moments.
REFERENCE_INITIAL = "initial"
REFERENCE_FINAL = "final"


def _require_positive_energy(value, name):
    if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
        raise DomainError(f"{name} must be a positive finite energy in meV, got {value!r}")


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
        _require_positive_energy(self.energy_initial, "energy_initial")
        _require_positive_energy(self.energy_final, "energy_final")
        if not math.isfinite(self.displacement):
            raise DomainError(f"displacement must be finite, got {self.displacement!r}")


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
    _require_positive_energy(phonon_energy, "phonon_energy")
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
    which keeps the forward recursion contractive.  The arguments may be
    floats or arrays that broadcast together (one pair per element).
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


def _check_quantum_numbers(m_max, n_max):
    if m_max < 0 or n_max < 0:
        raise DomainError("quantum numbers must be non-negative")
    if max(m_max, n_max) > MAX_CERTIFIED_N:
        raise CapabilityError(
            f"quantum number {max(m_max, n_max)} exceeds the certified recursion "
            f"range (n <= {MAX_CERTIFIED_N})"
        )


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
    _check_quantum_numbers(m_max, n_max)
    coefficients = _recurrence_coefficients(
        pair.energy_initial, pair.energy_final, pair.displacement
    )
    a, b, c, d, e = map(float, coefficients)
    s = np.zeros((m_max + 1, n_max + 1))
    s[0, 0] = math.sqrt(e / 2.0) * math.exp(b * d / (2.0 * e))
    for n in range(1, n_max + 1):
        s[0, n] = d / math.sqrt(2.0 * n) * s[0, n - 1]
        if n >= 2:
            s[0, n] += c * math.sqrt((n - 1.0) / n) * s[0, n - 2]
    for m in range(1, m_max + 1):
        s[m, 0] = b / math.sqrt(2.0 * m) * s[m - 1, 0]
        if m >= 2:
            s[m, 0] += a * math.sqrt((m - 1.0) / m) * s[m - 2, 0]
        for n in range(1, n_max + 1):
            s[m, n] = b / math.sqrt(2.0 * m) * s[m - 1, n]
            if m >= 2:
                s[m, n] += a * math.sqrt((m - 1.0) / m) * s[m - 2, n]
            s[m, n] += 0.5 * e * math.sqrt(n / m) * s[m - 1, n - 1]
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
        If ``m`` is not 0 or 1, or ``n`` is negative.
    CapabilityError
        If ``n`` exceeds the certified recursion range.
    """
    if m not in (0, 1):
        raise DomainError(f"initial quantum number m must be 0 or 1, got {m!r}")
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"final quantum number n must be a non-negative integer, got {n!r}")
    if n > MAX_CERTIFIED_N:
        raise CapabilityError(
            f"n = {n} exceeds the certified recursion range (n <= {MAX_CERTIFIED_N})"
        )
    return float(fc_overlap_matrix(pair, m, int(n))[m, n])


def _moment_rows(energy_initial, energy_final, displacement, n_max):
    """Rows m = 0 and m = 1 of :func:`fc_overlap_matrix` for G pairs at once.

    The arguments are floats or arrays that broadcast to G oscillator
    pairs (G = 1 for three floats).  Each entry comes from the same IEEE
    operations, in the same order, as the scalar table, so column g equals
    ``fc_overlap_matrix(pair_g, 1, n_max)`` bit for bit.  The recurrence
    runs forward in n, so the first k + 1 rows do not depend on ``n_max``.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        S[0, n] and S[1, n], each of shape ``(n_max + 1, G)``.
    """
    _check_quantum_numbers(1, n_max)
    _, b, c, d, e = _recurrence_coefficients(energy_initial, energy_final, displacement)
    b, d = np.atleast_1d(b, d)  # both carry every argument's shape
    n = np.arange(1.0, n_max + 1.0)[:, None]
    step = d / np.sqrt(2.0 * n)
    back = c * np.sqrt((n - 1.0) / n)
    # S[0, 0] through math.exp, as in the scalar table (np.exp may differ by 1 ulp).
    exponent = (b * d / (2.0 * e)).tolist()
    rows = [np.sqrt(e / 2.0) * np.array([math.exp(x) for x in exponent])]
    if n_max >= 1:
        rows.append(step[0] * rows[0])
    for step_n, back_n in zip(step[1:], back[1:]):
        rows.append(step_n * rows[-1] + back_n * rows[-2])
    s0 = np.array(rows)
    s1 = b / math.sqrt(2.0) * s0
    s1[1:] += 0.5 * e * np.sqrt(n) * s0[:-1]
    return s0, s1


def _moments(energy_initial, energy_final, displacement, n_max, reference):
    """Transition moments of G pairs at once, shape ``(n_max + 1, G)``.

    Arguments as for :func:`_moment_rows`, except that ``energy_initial``
    is a float; see :func:`transition_moments`.
    """
    if reference not in (REFERENCE_INITIAL, REFERENCE_FINAL):
        raise DomainError(f"reference must be 'initial' or 'final', got {reference!r}")
    s0, s1 = _moment_rows(energy_initial, energy_final, displacement, n_max)
    moments = ho_length_scale(energy_initial) * s1
    if reference == REFERENCE_FINAL:
        moments -= displacement * s0
    return moments


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
    return _moments(
        pair.energy_initial, pair.energy_final, pair.displacement, n_max, reference
    )[:, 0]


def transition_moment(n, pair, reference=REFERENCE_INITIAL):
    """Single transition moment M_n; see :func:`transition_moments`."""
    if not isinstance(n, (int, np.integer)) or n < 0:
        raise DomainError(f"final quantum number n must be a non-negative integer, got {n!r}")
    if n > MAX_CERTIFIED_N:
        raise CapabilityError(
            f"n = {n} exceeds the certified recursion range (n <= {MAX_CERTIFIED_N})"
        )
    return float(transition_moments(pair, int(n), reference=reference)[n])


def huang_rhys_factor(pair):
    """Huang-Rhys factor S = Ω_final ΔQ² / (2ħ) of the pair, dimensionless."""
    return pair.energy_final * pair.displacement**2 / (2.0 * HBAR_SQ_MEV_AMU_A2)
