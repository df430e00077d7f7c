"""Measurement primitives shared by the benchmark's workloads.

``Tracer`` records a span around each public library call the benchmark
makes (spans are taken from outside the package only) and keeps counters.
``Recorder`` runs a closed loop of timed ops with one client and does the
op accounting: latency, results delivered, attempted and failed ops.

Machine-speed calibration: the reference machine (a shared 2-vCPU VM)
alternates every few seconds between a fast phase and one up to ~1.5x
slower, which moves every wall-clock figure by more than the regressions
the benchmark must catch.  A fixed calibration loop is timed next to each
op, and each block's op times are scaled by the loop's fast-phase time
over the block's median loop time, i.e. to the machine's fast phase.
Each workload names the loop that tracks its own code best: an
allocation loop (dicts, tuples, strings) for Python-object-heavy work, an
arithmetic loop for numpy-heavy work.  Raw figures are reported beside the
scaled ones.
"""

import math
import statistics
import time

# Tail latency is the highest percentile with at least this many samples
# beyond it.
TAIL_BEYOND = 10
_PACKAGE_PREFIX = "multiphonon."


def _arithmetic_loop():
    sum(i * i for i in range(50_000))


def _allocation_loop():
    table = {}
    for i in range(8_000):
        table[i] = (i, 0.5 * i, str(i))
    return sum(1 for value in table.values() if value[0] % 3)


# name -> (loop, its time on the reference machine in its fast phase, s)
CALIBRATIONS = {
    "arithmetic": (_arithmetic_loop, 2.5e-3),
    "allocation": (_allocation_loop, 2.1e-3),
}


def speed_factor(calibration, repeats):
    """Fast-phase time of the named loop over its median time now."""
    loop, reference = CALIBRATIONS[calibration]
    return reference / statistics.median(_timed(loop) for _ in range(repeats))


def _timed(loop):
    start = time.perf_counter()
    loop()
    return time.perf_counter() - start


def span_name(fn):
    """``<module>.<function>`` of a library callable, without the package prefix."""
    module = getattr(fn, "__module__", "") or ""
    if module.startswith(_PACKAGE_PREFIX):
        module = module[len(_PACKAGE_PREFIX):]
    return f"{module}.{fn.__qualname__}"


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    def __init__(self, tracer, name, group):
        self.tracer, self.name, self.group = tracer, name, group

    def __enter__(self):
        tracer = self.tracer
        self.parent = tracer.stack[-1] if tracer.stack else None
        self.index = len(tracer.spans)
        tracer.spans.append(None)
        tracer.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tracer = self.tracer
        tracer.stack.pop()
        tracer.spans[self.index] = (
            self.name, self.group, self.start, end, self.parent, tracer.op_id
        )
        return False


class Tracer:
    """Spans around library calls, kept in memory; a no-op when disabled.

    A span is ``(name, group, start, end, parent_index, op_id)``.  ``group``
    is the per-layer metric prefix the span's time is booked to.
    """

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.op_id = 0
        self.counts = {}

    def span(self, name, group):
        return _Span(self, name, group) if self.enabled else _NULL_SPAN

    def call(self, group, fn, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` inside a span named after ``fn``."""
        if not self.enabled:
            return fn(*args, **kwargs)
        with _Span(self, span_name(fn), group):
            return fn(*args, **kwargs)

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def self_times(self):
        """Per-span self time: duration minus the time covered by child spans."""
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return [end - start - covered[i] for i, (_, _, start, end, _, _) in enumerate(self.spans)]

    def layer_metrics(self):
        """Per-layer metrics and per-case call times from the spans.

        A group ``<layer>`` or ``<layer>/<case>`` books its spans to
        ``<layer>.calls``, ``<layer>.busy_s`` (self time) and
        ``<layer>.ms_p50``; a case also gets its own calls, self time and
        median.
        """
        busy, durations = {}, {}
        for span, self_time in zip(self.spans, self.self_times()):
            _, group, start, end, _, _ = span
            busy[group] = busy.get(group, 0.0) + self_time
            durations.setdefault(group, []).append(end - start)
        layers = {}
        for group, values in durations.items():
            layer = layers.setdefault(group.split("/")[0], ([], []))
            layer[0].extend(values)
            layer[1].append(busy[group])
        metrics = dict(self.counts)
        for layer, (values, busy_parts) in layers.items():
            metrics[f"{layer}.calls"] = len(values)
            metrics[f"{layer}.busy_s"] = math.fsum(busy_parts)
            metrics[f"{layer}.ms_p50"] = 1e3 * statistics.median(values)
        metrics["trace.spans"] = len(self.spans)
        cases = {
            group: {"calls": len(values), "busy_s": busy[group],
                    "ms_p50": 1e3 * statistics.median(values)}
            for group, values in sorted(durations.items()) if "/" in group
        }
        return metrics, cases


class Recorder:
    """Closed-loop op accounting with one client.

    ``op`` times one op and returns its value.  Checks on that value follow
    through ``check``; the op is booked (latency and results if it passed,
    a failure otherwise) when the next op starts or ``finish`` is called.
    An op fails when it raises, or when a check on its value fails (a
    workload checks that a typed refusal was raised where one was due).
    ``close_block``
    groups the ops booked since its last call into one block and scales
    their times by the block's calibration.
    """

    def __init__(self, tracer, calibration):
        self.tracer = tracer
        self.loop, self.reference = CALIBRATIONS[calibration]
        self.latencies = []  # raw seconds
        self.scaled = []  # seconds at the reference machine speed
        self.calibrations = []
        self.results = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.block_busy_s = []  # scaled op time per block
        self._pending = None
        self._block_start = (0, 0)

    def op(self, kind, fn, results=1):
        self.finish()
        tracer = self.tracer
        tracer.op_id += 1
        self.attempted += 1
        self.calibrations.append(_timed(self.loop))
        outcome = None
        with tracer.span(f"op.{kind}", "harness.op"):
            start = time.perf_counter()
            try:
                value = fn()
            except Exception as exc:  # noqa: BLE001 - any raise is a booked failure
                value, outcome = None, f"{kind}: raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        self._pending = [kind, elapsed, results, outcome]
        return None if outcome else value

    def check(self, condition, reason):
        """Fail the current op unless ``condition`` holds."""
        pending = self._pending
        if not condition and pending is not None and pending[3] is None:
            pending[3] = f"{pending[0]}: {reason}"
        return bool(condition)

    def setup_check(self, condition, reason):
        """A check made during set-up, booked as one untimed op."""
        self.finish()
        self.attempted += 1
        if not condition:
            self._fail(f"setup: {reason}")

    def finish(self):
        pending, self._pending = self._pending, None
        if pending is None:
            return
        _, elapsed, results, outcome = pending
        if outcome is None:
            self.latencies.append(elapsed)
            self.results += results
        else:
            self._fail(outcome)

    def _fail(self, reason):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)

    def close_block(self):
        self.finish()
        ops, calibrations = self._block_start
        factor = self.reference / statistics.median(self.calibrations[calibrations:])
        scaled = [latency * factor for latency in self.latencies[ops:]]
        self.scaled.extend(scaled)
        self.block_busy_s.append(math.fsum(scaled))
        self._block_start = (len(self.latencies), len(self.calibrations))

    def summary(self):
        self.finish()
        busy = math.fsum(self.block_busy_s)
        raw_busy = math.fsum(self.latencies)
        p50 = statistics.median(self.scaled) if self.scaled else float("nan")
        tail_pct, tail = tail_percentile(self.scaled)
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "ops": len(self.latencies),
            "results": self.results,
            "results_per_s": self.results / busy if busy > 0 else 0.0,
            "block_busy_s": self.block_busy_s,
            "op_ms_p50": 1e3 * p50,
            "op_ms_tail": 1e3 * tail,
            "op_tail_pct": tail_pct,
            "raw": {
                "results_per_s": self.results / raw_busy if raw_busy > 0 else 0.0,
                "op_ms_p50": 1e3 * statistics.median(self.latencies) if self.latencies else None,
                "op_ms_tail": 1e3 * tail_percentile(self.latencies)[1] if self.latencies else None,
                "calibration_ms_p50": 1e3 * statistics.median(self.calibrations)
                if self.calibrations else None,
            },
        }


def tail_percentile(samples):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    if not samples:
        return 100.0, float("nan")
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - TAIL_BEYOND - 1, 0)
    return 100.0 * (index + 1) / n, ordered[index]


def stratified(rng, count, lo, hi, log=False):
    """``count`` seeded values, one uniform draw per equal stratum of [lo, hi], shuffled.

    One draw per stratum keeps the spread of a run's inputs, and so its
    cost, nearly the same from seed to seed.
    """
    unit = (rng.permutation(count) + rng.random(count)) / count
    if log:
        values = [lo * (hi / lo) ** float(u) for u in unit]
    else:
        values = [lo + (hi - lo) * float(u) for u in unit]
    return values
