"""heckekit benchmark: time to verdict on exact-verification workloads.

    python3 heckebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every repetition is a fresh interpreter
(child.py) with ``src`` on PYTHONPATH, so the package's caches start cold,
as for one ``heckekit`` CLI call.  The load is a closed loop: one client,
one thread, each repetition waiting for the previous one.

--trace 0 starts full repetitions until S seconds have passed (at least
one; a repetition is never cut short), then set-up-only repetitions, and
reports the end-to-end metrics as medians; their times are normalized to a
reference host speed by the calibration clock of clock.py, because the
host's CPU speed drifts by more than a regression bound.  --trace 1 runs
one untraced and one traced repetition and reports
the per-layer metrics, trace.overhead_ratio and each module's share of
self time.  Every verdict is checked against its known answer.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the run's environment and raw repetitions
are written to heckebench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_specs  # run.py's own directory is first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("generic_rank2", "metaplectic_gl3", "demazure_cs", "smoke")
END_TO_END = (("verdict_s", "s"), ("setup_s", "s"), ("verify_s", "s"), ("peak_rss_mb", "MB"), ("checks", "count"))
PER_LAYER = tuple((name, unit) for name, unit, _ in metric_specs()) + (("trace.overhead_ratio", "ratio"),)
JOBS_ENV = "HECKEKIT_JOBS"
RUN_LIMIT_S = 175  # every child is killed once the whole run reaches this
SETUP_SAMPLES = (3, 5)  # at least 3, at most 5 set-up times per run


class RunError(Exception):
    pass


class Runner:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.started = time.perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def child(self, mode: str, trace: bool) -> dict:
        """One repetition in a fresh interpreter; waits for it to end."""
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed), mode, "1" if trace else "0"]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(1.0, RUN_LIMIT_S - self.elapsed()),
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"{mode} repetition did not finish within the run limit") from None
        if proc.returncode != 0:
            raise RunError(f"{mode} repetition exited with {proc.returncode}:\n{proc.stderr.strip()[-3000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_untraced(runner: Runner, seconds: float) -> tuple[dict, list[dict]]:
    reps = [runner.child("full", False)]
    while runner.elapsed() < seconds:
        reps.append(runner.child("full", False))
    setups = [r["setup_s"] for r in reps]
    setup_start = runner.elapsed()
    least, most = SETUP_SAMPLES
    # cheap set-ups fill all slots; costly ones stop after a quarter of the run
    while len(setups) < most and (len(setups) < least or runner.elapsed() - setup_start < seconds / 4):
        setups.append(runner.child("setup", False)["setup_s"])
    metrics = {
        "verdict_s": statistics.median(r["verdict_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "verify_s": statistics.median(r["verify_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "checks": statistics.median_low(r["checks"] for r in reps),
    }
    return metrics, reps + [{"mode": "setup", "setup_s": s} for s in setups[len(reps):]]


def run_traced(runner: Runner) -> tuple[dict, list[dict]]:
    plain = runner.child("full", False)
    traced = runner.child("full", True)
    metrics = dict(traced["layers"])
    # both in wall time: tracing runs without calibration
    metrics["trace.overhead_ratio"] = traced["verdict_s"] / plain["wall_verdict_s"]
    return metrics, [plain, traced]


def print_layer_summary(workload: str, traced: dict) -> None:
    """Each module's share of the traced verdict_s, then the slowest checks: names the hot layer."""
    total = traced["verdict_s"]
    print(f"module share of self time on {workload} (traced verdict_s {total:.3f} s)")
    shares = sorted(traced["module_self_s"].items(), key=lambda kv: -kv[1])
    # time in no wrapped entry: workload glue and unwrapped helpers
    shares.append(("(outside)", total - sum(traced["module_self_s"].values())))
    for module, self_s in shares:
        print(f"  {module:<12} {self_s:10.3f} s {100 * self_s / total:6.1f} %")
    checks = sorted((end - start, label) for _, _, name, label, start, end in traced["spans"] if name == "reports.run")
    print("slowest checks (traced)")
    for elapsed, label in checks[:-6:-1]:
        print(f"  {elapsed:10.3f} s  {label}")


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if JOBS_ENV in os.environ:
        print(f"heckebench: refusing to run with {JOBS_ENV} set; unset it", file=sys.stderr)
        return 2
    if not (SRC / "heckekit" / "__init__.py").is_file():
        print(f"heckebench: no heckekit sources under {SRC}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no repetition pays for it
    if not (compileall.compile_dir(SRC, quiet=1) and compileall.compile_dir(HERE, quiet=1)):
        print("heckebench: byte-compiling the sources failed", file=sys.stderr)
        return 2

    env = {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        JOBS_ENV: os.environ.get(JOBS_ENV),
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    print("env", json.dumps(env))
    runner = Runner(args.workload, args.seed)
    try:
        metrics, reps = run_traced(runner) if args.trace else run_untraced(runner, args.seconds)
    except RunError as exc:
        print(f"heckebench: {exc}", file=sys.stderr)
        return 1

    full = [r for r in reps if r["mode"] == "full"]
    wrong = [w for r in full for w in r["wrong"]]
    units = dict(PER_LAYER if args.trace else END_TO_END)
    print(f"{args.workload}: {len(full)} full repetition(s), {len(reps) - len(full)} set-up-only"
          + (", the second traced" if args.trace else ""))
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    if args.trace:
        print_layer_summary(args.workload, full[-1])
    print(f"wrong_verdicts {len(wrong)} count")
    for w in wrong:
        print(f"wrong verdict: {w}")

    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"env": env, "metrics": metrics, "repetitions": reps}, indent=1))
    print(f"results: {out_file.relative_to(ROOT)}")

    print(json.dumps({
        "correct": not wrong,
        "attempted": sum(r["checks"] for r in full),
        "failed": len(wrong),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
