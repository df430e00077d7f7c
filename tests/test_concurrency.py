"""The package is safe for concurrent use: threads reproduce the serial results."""

import decimal
import sys
import threading

import pytest

from multiphonon import (
    GridSpec,
    OscillatorPair,
    fc_overlap_matrix,
    fit_lifetime,
    nonradiative_rate,
    parse_defect_config,
    quadrature_overlap_table,
    quadrature_overlap_with_error,
    rate_sweep,
    read_histogram_csv,
    serialize_defect_config,
    simulate_transient,
    sweep_grid,
    write_histogram_csv,
)
from multiphonon import quadrature

THREADS = 8
ROUNDS = 10


def _work(config, document, seed, path):
    """One seeded unit of work: rates, sweeps, overlaps and both oracles, configs, histogram I/O, fits."""
    histogram = simulate_transient(0.885 + 0.01 * seed, 1e4, 10.0, 500, 10.0, seed=seed)
    write_histogram_csv(histogram, path)
    back = read_histogram_csv(path)
    mode = config.mode("accepting")
    pair = OscillatorPair(mode.energy_excited, mode.energy_ground, mode.displacement + 0.01 * seed)
    values, errors = quadrature_overlap_table(pair, 30, 30)
    return (
        path.read_bytes(),
        back.bin_edges.tolist(),
        back.counts.tolist(),
        nonradiative_rate(config, "accepting"),
        nonradiative_rate(config, "ch-stretch"),
        rate_sweep(config, "ch-stretch", "zpl_energy", sweep_grid(500.0, 1200.0, 29)),
        rate_sweep(config, "accepting", "displacement", sweep_grid(0.5, 1.0, 9)),
        values.tolist(),
        errors.tolist(),
        fc_overlap_matrix(pair, 30, 30).tolist(),
        quadrature_overlap_with_error(seed % 2, seed // 2 % 2, pair, GridSpec(dps=30)),
        parse_defect_config(document),
        fit_lifetime(histogram),
    )


def test_threads_reproduce_the_serial_results(natural, deuterium, tmp_path):
    configs = [natural, deuterium]
    documents = [serialize_defect_config(config) for config in configs]
    # Each thread writes and reads back its own histogram file.
    jobs = [[(configs[(t + r) % 2], documents[(t + r) % 2], THREADS * r + t,
              tmp_path / f"thread{t}.csv") for r in range(ROUNDS)] for t in range(THREADS)]
    serial = [[_work(*job) for job in thread_jobs] for thread_jobs in jobs]

    results = _run_threads(lambda index: [_work(*job) for job in jobs[index]])
    assert results == serial


def _run_threads(target):
    """Start THREADS threads on *target(index)* behind a barrier, with a tiny switch interval."""
    results, errors = [None] * THREADS, []
    barrier = threading.Barrier(THREADS)

    def run(index):
        try:
            barrier.wait(timeout=60)
            results[index] = target(index)
        except Exception as exc:  # reported below, not lost in the thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(index,)) for index in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    return results


# Table shapes and 30-digit entries whose node counts K = (m + n)//2 + 1 run from 1 to 31.
SHAPES = [(0, 0), (1, 30), (30, 30), (5, 17), (12, 3), (1, 1), (0, 9)]
ENTRIES = [(0, 0), (1, 1), (0, 26), (3, 8), (1, 28), (7, 2)]


def _node_work(pair, index):
    """Tables and 30-digit entries in an order that differs per thread."""
    tables = [quadrature_overlap_table(pair, *SHAPES[(index + k) % len(SHAPES)]) for k in range(len(SHAPES))]
    entries = [quadrature_overlap_with_error(*ENTRIES[(index + k) % len(ENTRIES)], pair, GridSpec(dps=30))
               for k in range(len(ENTRIES))]
    return [(values.tolist(), errors.tolist()) for values, errors in tables], entries


def test_threads_fill_the_node_caches_from_cold():
    pair = OscillatorPair(47.0, 151.0, 0.42)
    serial = [_node_work(pair, index) for index in range(THREADS)]
    quadrature._gauss_hermite.cache_clear()
    quadrature._decimal_rule.cache_clear()
    assert _run_threads(lambda index: _node_work(pair, index)) == serial
    # Every caller shares the cached arrays, so none may write to them.
    for array in quadrature._gauss_hermite(9):
        with pytest.raises(ValueError):
            array[0] = 0.0


def _context_state(context):
    return (context.prec, context.Emax, context.Emin, context.rounding,
            dict(context.traps), dict(context.flags))


def test_dps_oracle_leaves_the_callers_decimal_context_alone(natural):
    mode = natural.mode("accepting")
    pair = OscillatorPair(mode.energy_excited, mode.energy_ground, mode.displacement)
    expected = quadrature_overlap_with_error(1, 1, pair, GridSpec(dps=30))
    with decimal.localcontext() as caller:
        # Five digits, and every signal trapped: any arithmetic of the
        # oracle in this context would change its result or raise.
        caller.prec = 5
        for signal in caller.traps:
            caller.traps[signal] = True
        caller.clear_flags()
        before = _context_state(caller)
        assert quadrature_overlap_with_error(1, 1, pair, GridSpec(dps=30)) == expected
        assert decimal.getcontext() is caller
        assert _context_state(caller) == before
