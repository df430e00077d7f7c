"""Independent references for the tests, one per quantity.

pytest does not collect this module (its name does not start with ``test_``); test
modules import it from this directory.  Each reference writes its arithmetic out here
and calls no numeric function of ``multiphonon``: the Hermite rows of the quadrature
oracle, the m <= 1 overlap recurrence on Python floats, the overlap recurrence in
mpmath, a rate on each of those two, and the noiseless transient.  A rate reference
sums to the cut-off its caller passes, so where a test passes the library's own
``n_max_used`` the truncation it shares with the code shows at the call.

Reference table: for each public numeric function, what the tests compare it with
[in which ``test_`` module], over which range, and whether that reference shares a
truncation, node set or recurrence with the function.  SHARED marks a comparison that
cannot see a fault in the shared part; those are listed here, not mended.

ho_length_scale            30-digit values at 33 and 359 meV [oscillator]; overflow edge; no
huang_rhys_factor          30-digit value of the accepting mode [oscillator]; overflow
                             edges; no
fc_overlap_matrix, m <= 1  reference_moment_rows, bit for bit [overlap_references]; seeded
  (and fc_overlap)           ħΩ 20-400 meV, ΔQ 0-1, n <= 512; SHARED: the recurrence in n
                           mpmath_overlap_table at 60 and 110 digits; n <= 512; SHARED: the
                             recurrence in n, in exact arithmetic
                           quadrature_overlap_table, 1e-8 relative [quadrature]; 27 pairs
                             to n = 30, 8 to n = 512; no
                           Poisson |S₀ₙ|² = e^-S Sⁿ/n! at equal ħΩ [oscillator, acceptance];
                             n <= 30; no
fc_overlap_matrix, m >= 2  quadrature_overlap_table, bit for bit; m, n <= 512; SHARED: the
                             K Gauss-Hermite nodes, whose sums these rows are
                           mpmath_overlap_table within the oracle's error, 80 and 110
                             digits; m, n <= 512; no (a recurrence in m the code never runs)
transition_moments         zero-point length x row 1 of fc_overlap_matrix, bit for bit
  (transition_moment)        [oscillator]; n <= 64; SHARED: the overlap table itself
                           sum rule Σ M_n² = ħ²/(2ħΩ_e); dataset modes and three pairs,
                             n <= 512; no
quadrature_overlap_table   mpmath_overlap_table within the reported error, 60 digits
                             [overlap_references]; 55 pairs to 30 x 30, ΔQ to 19.6; no
                           reference_hermite_rows per oscillator and rule, bit for bit
                             [quadrature]; 12 pairs to 30 x 30; SHARED: the nodes and the
                             Hermite recurrence
                           K + 1 and K + 2 nodes; 13 pairs to 30 x 30; SHARED: the node rule
quadrature_overlap_oracle, mpmath_overlap_table at dps + 20 [overlap_references]; decimal
  _with_error                backend at 15, 30 and 50 digits, m, n <= 30; no
gaussian_delta             30-digit peak, trapezoid normalization [rates]; σ = 16.5; no
nonradiative_rate          reference_rate, 1e-14 relative [rates]; the four dataset modes;
                             SHARED: the 10σ cut-off (and 64 terms past it, 1e-10)
                           mpmath_rate, 40 digits; ΔQ = 14, and the kernel's refused totals
                             at 14.8 and 15.7; SHARED: the 10σ cut-off
                           mpmath_rate to n = 512, 60 digits; two large-ΔQ modes; no (a
                             strict xfail until ROADMAP item 1 certifies the cut-off)
rate_sweep                 nonradiative_rate of each row's configuration, bit for bit
                             [rates]; four parameters x two modes; SHARED: the whole kernel
                           reference_rate, 1e-14 relative; the 327 resolved rows of those
                             grids; SHARED: the 10σ cut-off
isotope_rate_ratio         the band [142, 570] [acceptance, rates]; the C-H stretch;
                             SHARED: the 10σ cut-off, through nonradiative_rate
sweep_grid                 numpy.linspace [rates]; five grids and one past 1.8e308;
                             SHARED: the linspace call
reduced_mass               60-digit mpmath within 2 ulp [float_extremes]; whole float range; no
isotope_scale_energy       60-digit mpmath within 2 ulp [float_extremes]; whole float range; no
total_lifetime,            numpy 2 x 2 linear solve [kinetics]; the paper's lifetimes; no
  infer_radiative_rate
zpl_emission_fraction      4-digit values, the identity at Debye-Waller 1 [kinetics]; no
purcell_radiative_         closed forms at P = 1 and 3, the limits 0 and 1 [kinetics]; no
  efficiency
cyclicity                  2/(1 - η(P)) and the high-P limit [kinetics]; η 0.001-0.999; no
simulate_transient         no value reference: seeded determinism, counts >= 0 [transient]
fit_lifetime               noiseless_histogram, 1e-6 relative; 3σ closure over 20 seeds and
                             1σ coverage over 100 [transient, acceptance]; no
"""

import math

import mpmath
import numpy as np

from multiphonon import OscillatorPair, TransientHistogram
from multiphonon.constants import HBAR_MEV_S, HBAR_SQ_MEV_AMU_A2


def reference_hermite_rows(y, n_max):
    """``quadrature._hermite_rows`` as four ufunc calls a step, sqrt(2/k) and sqrt((k-1)/k)
    from ``math.sqrt``: the same correctly rounded operations, one k at a time."""
    rows = np.zeros((n_max + 2, y.size))
    rows[1] = math.pi**-0.25 * np.exp(-0.5 * y * y)
    scratch, low, prev = np.empty(y.size), rows[0], rows[1]
    for k, row in zip(range(1, n_max + 1), rows[2:]):
        np.multiply(np.multiply(math.sqrt(2.0 / k), y, out=scratch), prev, out=row)
        row -= np.multiply(math.sqrt((k - 1.0) / k), low, out=scratch)
        low, prev = prev, row
    return rows[1:]


def reference_moment_rows(pair, n_max):
    """Rows m = 0 and m = 1 of ``fc_overlap_matrix``'s recurrence, one entry at a time,
    with the coefficients written out here on Python floats."""
    a_i = pair.energy_initial / HBAR_SQ_MEV_AMU_A2
    a_f = pair.energy_final / HBAR_SQ_MEV_AMU_A2
    dq, total = pair.displacement, a_i + a_f
    b, c = 2.0 * dq * math.sqrt(a_i) * a_f / total, (a_f - a_i) / total
    d, e = -2.0 * dq * math.sqrt(a_f) * a_i / total, 4.0 * math.sqrt(a_i * a_f) / total
    s = np.zeros((2, n_max + 1))
    s[0, 0] = math.sqrt(e / 2.0) * math.exp(b * d / (2.0 * e))
    for n in range(1, n_max + 1):
        s[0, n] = d / math.sqrt(2.0 * n) * s[0, n - 1]
        if n >= 2:
            s[0, n] += c * math.sqrt((n - 1.0) / n) * s[0, n - 2]
    s[1, 0] = b / math.sqrt(2.0) * s[0, 0]
    for n in range(1, n_max + 1):
        s[1, n] = b / math.sqrt(2.0) * s[0, n] + 0.5 * e * math.sqrt(n) * s[0, n - 1]
    return s


def mpmath_overlap_table(pair, m_max, n_max, dps):
    """The overlap recurrence in exact form, evaluated in mpmath at *dps* digits."""
    with mpmath.workdps(dps):
        a_i = mpmath.mpf(pair.energy_initial) / mpmath.mpf(HBAR_SQ_MEV_AMU_A2)
        a_f = mpmath.mpf(pair.energy_final) / mpmath.mpf(HBAR_SQ_MEV_AMU_A2)
        dq, total = mpmath.mpf(pair.displacement), a_i + a_f
        a, b = (a_i - a_f) / total, 2 * dq * mpmath.sqrt(a_i) * a_f / total
        d, e = -2 * dq * mpmath.sqrt(a_f) * a_i / total, 4 * mpmath.sqrt(a_i * a_f) / total
        s = [[mpmath.mpf(0)] * (n_max + 2) for _ in range(m_max + 2)]  # index -1 reads 0
        s[0][0] = mpmath.sqrt(e / 2) * mpmath.exp(b * d / (2 * e))
        for n in range(1, n_max + 1):
            s[0][n] = d / mpmath.sqrt(2 * n) * s[0][n - 1] - a * mpmath.sqrt((n - 1) / mpmath.mpf(n)) * s[0][n - 2]
        for m in range(1, m_max + 1):
            for n in range(n_max + 1):
                s[m][n] = (b / mpmath.sqrt(2 * m) * s[m - 1][n]
                           + a * mpmath.sqrt((m - 1) / mpmath.mpf(m)) * s[m - 2][n]
                           + e / 2 * mpmath.sqrt(n / mpmath.mpf(m)) * s[m - 1][n - 1])
        return [row[: n_max + 1] for row in s[: m_max + 1]]


def reference_rate(config, mode_label, n_max):
    """(2π/ħ) W² Σ_{n <= n_max} M_n² G(E_ZPL − n ħΩ_g; ħΩ_e/2) on Python floats, summed by
    ``math.fsum``: M_n is the zero-point length times row 1 of :func:`reference_moment_rows`,
    and the length and the Gaussian are written out with ``math``."""
    mode = config.mode(mode_label)
    pair = OscillatorPair(mode.energy_excited, mode.energy_ground, mode.displacement)
    length = math.sqrt(HBAR_SQ_MEV_AMU_A2 / (2.0 * mode.energy_excited))
    sigma = mode.energy_excited / 2.0
    prefactor = 2.0 * math.pi / HBAR_MEV_S * mode.coupling**2
    terms = []
    for n, s1 in enumerate(reference_moment_rows(pair, n_max)[1].tolist()):
        z = (config.zpl_energy - n * mode.energy_ground) / sigma
        weight = math.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))
        terms.append(prefactor * (length * s1) ** 2 * weight)
    return math.fsum(terms)


def mpmath_rate(config, mode_label, n_max, dps):
    """:func:`reference_rate` in mpmath at *dps* digits, M_n from row 1 of
    :func:`mpmath_overlap_table`."""
    mode = config.mode(mode_label)
    pair = OscillatorPair(mode.energy_excited, mode.energy_ground, mode.displacement)
    overlaps = mpmath_overlap_table(pair, 1, n_max, dps)[1]
    with mpmath.workdps(dps):
        length_sq = HBAR_SQ_MEV_AMU_A2 / (2 * mpmath.mpf(mode.energy_excited))
        sigma = mpmath.mpf(mode.energy_excited) / 2
        prefactor = 2 * mpmath.pi / HBAR_MEV_S * mpmath.mpf(mode.coupling) ** 2
        rate = 0
        for n, s1 in enumerate(overlaps):
            z = (config.zpl_energy - n * mpmath.mpf(mode.energy_ground)) / sigma
            weight = mpmath.exp(-z * z / 2) / (sigma * mpmath.sqrt(2 * mpmath.pi))
            rate += prefactor * length_sq * s1**2 * weight
        return rate


def noiseless_histogram(lifetime, amplitude, background, n_bins, t_max):
    """Expectation-valued transient: the model means used as counts."""
    edges = np.linspace(0.0, t_max, n_bins + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    means = background + amplitude * np.exp(-centers / lifetime)
    return TransientHistogram(bin_edges=edges, counts=means)
