"""Vibrational overlaps between two displaced harmonic oscillators.

Everything here works in mass-weighted coordinates Q (units amu^(1/2)·Å),
where a harmonic oscillator with phonon energy E = ħΩ has the normalized
eigenfunctions

    chi_n(Q) = (A/pi)^(1/4) / sqrt(2^n n!) * H_n(sqrt(A) (Q-Q_c)) * exp(-A (Q-Q_c)^2 / 2),

with Gaussian exponent A = E/ħ² (1/(amu·Å²)) and equilibrium position Q_c.
The initial and final oscillators of a transition may differ both in
frequency and in equilibrium position.  The overlap integrals
<chi_initial_m | chi_final_n> of rows m <= 1 come from a recurrence in n
(no factorials, no binomial sums), with its relative accuracy, certified to
n = 512 against the independent Gauss-Hermite quadrature oracle (see
``quadrature``), the position-operator sum rule and completeness.  Rows
m >= 2 are that oracle's values, accurate to its absolute error.  A table or
moment row is refused with ``CapabilityError`` if it is not finite (inf or
NaN), or if S₀₀ or A_i·A_f is below the normal range, where either one loses digits.
Transition moments measure positions from the initial-state equilibrium.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .constants import HBAR_SQ_MEV_AMU_A2
from .errors import CapabilityError, _finite_result, _number

# One limit for m and n, in the oscillator and the oracle: rows m <= 1 are certified
# entry by entry to 512; refuse beyond rather than risk error.
MAX_CERTIFIED_N = 512

# sqrt(n), sqrt(2n), sqrt((n-1)/n) and sqrt(2/n), n = 1..512, for both recurrences: each entry
# is one correctly rounded operation, so a prefix has the bits a call would compute itself.
_N = np.arange(1.0, MAX_CERTIFIED_N + 1.0)
_SQRT_N, _SQRT_2N, _SQRT_BACK, _SQRT_2_OVER_N = map(np.sqrt, (_N, 2.0 * _N, (_N - 1.0) / _N, 2.0 / _N))
for _table in _SQRT_N, _SQRT_2N, _SQRT_BACK, _SQRT_2_OVER_N:
    _table.setflags(write=False)
_SQRT_BACK_TUPLE = tuple(_SQRT_BACK.tolist())  # for loops over Python floats


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
    return _finite_result(_zero_point_length(_number(phonon_energy, "phonon_energy", gt=0.0)),
                          f"the zero-point length of ħΩ = {phonon_energy!r} meV")


def _zero_point_length(phonon_energy):
    """:func:`ho_length_scale` unchecked: inf where it overflows, for callers that refuse inf."""
    return math.sqrt(HBAR_SQ_MEV_AMU_A2 / (2.0 * phonon_energy))


def _check_quantum_numbers(m, n):
    """The quantum-number check: *m* and *n* as non-negative ints in range."""
    m, n = _number(m, "m", integer=True, ge=0), _number(n, "n", integer=True, ge=0)
    if max(m, n) > MAX_CERTIFIED_N:
        raise CapabilityError(
            f"quantum number {max(m, n)} exceeds the certified recursion "
            f"range (n <= {MAX_CERTIFIED_N})"
        )
    return m, n


def _exponents(pair):
    """The exponents (A_i, A_f) = E/ħ² of *pair*, or :class:`CapabilityError` before any
    division by A_i + A_f (maybe 0) if A_i·A_f, inside e, is below the normal range,
    where its rounding error would pass into every overlap."""
    a_i, a_f = pair.energy_initial / HBAR_SQ_MEV_AMU_A2, pair.energy_final / HBAR_SQ_MEV_AMU_A2
    if not a_i * a_f >= sys.float_info.min:
        raise CapabilityError(f"the overlaps of {pair} underflow double precision: "
                              f"A_i·A_f = {a_i * a_f!r} must reach {sys.float_info.min!r}")
    return a_i, a_f


def _finite(values, pair, s00=None):
    """*values*, or :class:`CapabilityError` if one is inf or NaN or if *s00*, the recurrence's
    start, is below the normal range, where its rounding error passes into every entry."""
    if not np.isfinite(values).all():
        raise CapabilityError(f"the overlaps of {pair} are not finite in double precision")
    if s00 is not None and not s00 >= sys.float_info.min:
        raise CapabilityError(f"the overlaps of {pair} underflow double precision: "
                              f"S₀₀ = {float(s00)!r} must reach {sys.float_info.min!r}")
    return values


def fc_overlap_matrix(pair, m_max, n_max):
    """Overlap table S[m, n] = <chi_initial_m | chi_final_n>: rows m <= 1 from :func:`_moment_rows`,
    rows m >= 2 the K-node values of ``quadrature_overlap_table``, without its error estimate.

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
        If ``m_max`` or ``n_max`` exceeds 512, an entry is not finite,
        or S₀₀ or A_i·A_f is below the normal range (2.2e-308).
    """
    m_max, n_max = _check_quantum_numbers(m_max, n_max)
    a_i, a_f = _exponents(pair)  # refuses A_i·A_f before the recurrence divides by A_i + A_f
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # inf and NaN are refused
        rows = _moment_rows(pair.energy_initial, pair.energy_final, pair.displacement, n_max)
        rows = _finite(np.concatenate([row.T for row in rows])[: m_max + 1], pair, rows[0][0, 0])
        if m_max <= 1:
            return rows
        from .quadrature import _gauss_hermite, _weighted_rows  # only here: rates never load quadrature

        count = (m_max + n_max) // 2 + 1  # the table's K nodes, without its K + 1 and error terms
        rows_i, rows_f, _, _ = _weighted_rows(pair, a_i, a_f, m_max, n_max, *_gauss_hermite(count))
        table = _finite(rows_i @ rows_f.T, pair)
    table[:2] = rows
    return table


def fc_overlap(m, n, pair):
    """Franck-Condon overlap <chi_initial_m | chi_final_n>.

    Parameters
    ----------
    m : int
        Initial-oscillator quantum number, 0 <= m <= 512; rows m >= 2 carry
        the quadrature oracle's absolute accuracy (see :func:`fc_overlap_matrix`).
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
        If ``m`` or ``n`` is not a non-negative integer.
    CapabilityError
        If ``m`` or ``n`` exceeds the certified range, the overlap is not
        finite, or S₀₀ or A_i·A_f is below the normal range.
    """
    return float(fc_overlap_matrix(pair, m, n)[m, n])  # the table checks m and n


def _moment_rows(energy_initial, energy_final, displacement, n_max):
    """Rows m = 0 and m = 1 of :func:`fc_overlap_matrix` for G pairs at once.

    From the exponents A_i, A_f and the displacement ΔQ (final minimum at +ΔQ), the
    coefficients b, c, d and e below (dimensionless, |c| < 1) give

        S[0, 0] = sqrt(e/2) * exp(b d / (2 e))
        S[0, n] = d/sqrt(2n) S[0, n-1] + c sqrt((n-1)/n) S[0, n-2]
        S[1, n] = b/sqrt(2) S[0, n] + (e/2) sqrt(n) S[0, n-1],

    run forward in n, so the first k + 1 rows do not depend on ``n_max`` (the forward
    recursion in m is not stable in general, so rows m >= 2 are not run here).
    The arguments are floats or arrays that broadcast to G oscillator pairs (G = 1 for
    three floats), and *n_max* an int the caller checked (at most 512).  Each entry comes
    from the same IEEE operations, in the same order, for any G, so column g equals
    ``fc_overlap_matrix(pair_g, 1, n_max)`` bit for bit (the table takes these two rows
    from here).  sqrt(2n), sqrt((n-1)/n) and sqrt(n) are prefixes of the import-time
    tables.  Three floats with A_i·A_f > 0 get b, c, d, e and S₀₀ from ``math``, and
    step and back as one division and one product against the tables; for G = 1 the
    n-loop runs on Python floats.  So one pair pays no numpy set-up on scalars.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray)
        S[0, n] and S[1, n], each of shape ``(n_max + 1, G)``.
    """
    a_i, a_f = energy_initial / HBAR_SQ_MEV_AMU_A2, energy_final / HBAR_SQ_MEV_AMU_A2
    # One pair on Python floats, unless A_i·A_f = 0: then e = 0 and Python would raise
    # ZeroDivisionError where numpy gives the inf or NaN that callers refuse.
    one = isinstance(a_i * a_f * displacement, float) and a_i * a_f > 0.0
    sqrt, n = (math.sqrt, np.s_[:n_max]) if one else (np.sqrt, np.s_[:n_max, None])
    displacement = displacement if one else np.atleast_1d(displacement)  # b, d: the broadcast shape G
    total = a_i + a_f
    b = 2.0 * displacement * sqrt(a_i) * a_f / total
    c = -(a_i - a_f) / total  # −0.0 at equal energies
    d = -2.0 * displacement * sqrt(a_f) * a_i / total
    e = 4.0 * sqrt(a_i * a_f) / total
    # S[0, 0] through math.exp: np.exp may differ by 1 ulp, and S₀₀ must stay bit-identical.
    exponent = b * d / (2.0 * e)
    exp = math.exp(exponent) if one else np.array([math.exp(x) for x in exponent.tolist()])
    rows = [sqrt(e / 2.0) * exp]
    step, back = d / _SQRT_2N[n], c * _SQRT_BACK[n]
    if one:
        step, back = step.tolist(), back.tolist()
    elif d.size == 1:  # one pair as arrays of one: the loop runs on Python floats too
        step, back, rows = step.ravel().tolist(), back.ravel().tolist(), rows[0].tolist()
    if n_max >= 1:
        rows.append(step[0] * rows[0])
    low, prev, append = rows[0], rows[-1], rows.append
    for step_n, back_n in zip(step[1:], back[1:]):
        low, prev = prev, step_n * prev + back_n * low
        append(prev)
    s0 = np.array(rows, dtype=float).reshape(n_max + 1, -1)  # a dtype spares its discovery
    s1 = b / math.sqrt(2.0) * s0
    s1[1:] += 0.5 * e * _SQRT_N[:n_max, None] * s0[:-1]
    return s0, s1


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
        M_0 .. M_n_max in amu^(1/2)·Å, the zero-point length times row 1 of
        ``fc_overlap_matrix(pair, 1, n_max)``; refused as it is, and where M_n is not finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN are refused
        rows = fc_overlap_matrix(pair, 1, n_max)
        return _finite(_zero_point_length(pair.energy_initial) * rows[1], pair)


def transition_moment(n, pair):
    """Single transition moment M_n; see :func:`transition_moments`."""
    return float(transition_moments(pair, n)[n])


def huang_rhys_factor(pair):
    """Huang-Rhys factor S = Ω_final ΔQ² / (2ħ) of the pair, dimensionless.

    Raises :class:`CapabilityError` if S overflows double precision.
    """
    # In this order only an S beyond the float range overflows, not an intermediate product.
    factor = pair.energy_final / (2.0 * HBAR_SQ_MEV_AMU_A2) * pair.displacement * pair.displacement
    return _finite_result(factor, f"the Huang-Rhys factor of {pair}")
