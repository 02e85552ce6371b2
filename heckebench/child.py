"""One repetition of a workload in a fresh interpreter; prints one JSON line.

    python3 heckebench/child.py WORKLOAD SEED MODE TRACE

MODE is ``setup`` (import and construction only) or ``full`` (setup, then
every check).  TRACE is 0 or 1.  The clock starts before ``import
heckekit``, so caches inside the package start cold, as for one CLI call.
Run it with ``src`` on PYTHONPATH; run.py does.

Untraced, the times reported as ``setup_s``, ``verify_s`` and ``verdict_s``
are normalized to a reference host speed by the calibration samples of
clock.py; the ``wall_*`` keys hold the same intervals in wall time, less
the calibration passes.  Traced, no calibration runs (its passes would land
inside wrapped entries), and every time is wall time.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time


def main(argv: list[str]) -> dict:
    workload, seed, mode, trace = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    if mode not in ("setup", "full"):
        raise SystemExit(f"unknown mode {mode!r}")
    clock = None
    if not trace:
        from clock import Clock

        clock = Clock()
        clock.start()
    start = time.perf_counter()
    if clock is not None:
        clock.sample()  # so that even a set-up shorter than the timer interval holds a sample
    import heckekit  # noqa: F401  (timed: import is part of set-up)

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(start)
        tracer.install()
    import workloads  # binds the traced entry points when tracing

    setup, verify = workloads.WORKLOADS[workload]
    state = setup(random.Random(seed))
    out = {"workload": workload, "seed": seed, "mode": mode, "trace": trace}
    if mode == "setup":
        first = last = time.perf_counter()
    else:
        oracle = workloads.Oracle()
        verify(state, oracle)
        first, last = oracle.first_check_at, oracle.last_verdict_at
        out.update(checks=oracle.checks, wrong=oracle.wrong)
    if clock is not None:
        clock.stop()
    intervals = {"setup_s": (start, first)}
    if mode == "full":
        intervals.update(verify_s=(first, last), verdict_s=(start, last))
    for name, (a, b) in intervals.items():
        if clock is None:
            out[name] = b - a
        else:
            out[name] = clock.normalized_s(a, b)
            out["wall_" + name] = clock.work_s(a, b)
    if clock is not None:
        out["speed"] = clock.speed(start, last)
        out["calibration_samples"] = len(clock.samples)
    # ru_maxrss is in KiB on Linux
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["module_self_s"] = tracer.module_self_times()
        out["spans"] = tracer.spans
    return out


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
