"""One workload run in a fresh interpreter; started by ``run.py``.

Usage: ``python child.py '<json spec>'`` with the keys ``workload``,
``seed``, ``seconds``, ``trace``, ``setup_only`` and ``workdir``.  Prints
one JSON object.  Timestamps are ``time.perf_counter`` values, which on
Linux read the system-wide monotonic clock, so the parent can subtract
its own spawn time from them.
"""

import time

STARTED_AT = time.perf_counter()

import sys  # noqa: E402

_import_start = time.perf_counter()
import multiphonon  # noqa: E402,F401

IMPORT_S = time.perf_counter() - _import_start

import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402

from harness import Recorder, Tracer, speed_factor  # noqa: E402
from workloads import WORKLOADS, inputs_digest  # noqa: E402


SETUP_CALIBRATIONS = 9


def peak_rss_mb():
    """Peak resident memory of this process or of any child it waited for, MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def run(spec):
    tracer = Tracer(spec["trace"])
    workload_class = WORKLOADS[spec["workload"]]
    recorder = Recorder(tracer, workload_class.calibration)
    os.makedirs(spec["workdir"], exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{spec['workload']}-", dir=spec["workdir"])
    try:
        workload = workload_class(spec["seed"], tracer, recorder, workdir)
        first_op_at = time.perf_counter()
        report = {
            "started_at": STARTED_AT,
            "import_s": IMPORT_S,
            "first_op_at": first_op_at,
            # Machine speed just after set-up, to scale the set-up time.
            "setup_speed": speed_factor(workload_class.calibration, SETUP_CALIBRATIONS),
            "inputs_sha256": inputs_digest(workload),
        }
        if spec["setup_only"]:
            report.update(recorder.summary())
            return report
        while not recorder.block_busy_s or time.perf_counter() - first_op_at < spec["seconds"]:
            workload.run_block()
            recorder.close_block()
        report.update(recorder.summary())
        report.update(
            blocks=len(recorder.block_busy_s),
            wall_s=time.perf_counter() - first_op_at,
            peak_rss_mb=peak_rss_mb(),
            layers=tracer.layer_metrics() if tracer.enabled else ({}, {}),
            counts=tracer.counts,
            versions={"python": platform.python_version(), "numpy": numpy.__version__,
                      "mpmath": mpmath.__version__, "multiphonon": multiphonon.__version__},
        )
        worst = getattr(workload, "worst", None)
        if worst is not None:
            report["table_worst_rel"], report["table_worst_m"] = worst
        return report
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
