"""Alternating parent/change benchmark pairs for heckekit.

    python3 tools/pairs.py --parent REV [--workloads NAME,...] [--pairs 10]
                           [--seed 31] [--seconds 10] [--trace 0] [--out BENCH_<pr>.json]

Run from anywhere inside the repository.  The parent side is the committed
tree of REV, extracted with ``git archive``; the change side is a copy of
the working tree's ``src/`` and ``heckebench/``.  Both go to one temporary
directory that is deleted at the end, so the tool writes nothing into the
repository (``heckebench/run.py`` writes its results and byte-code inside
each copy).  For every workload, pair k runs ``heckebench/run.py --seed
SEED+k`` on both sides, the parent first in even pairs and the change first
in odd ones.  Then it prints, per metric, the median [first, third
quartile] of each side, the change/parent ratio of the medians, the pairs
the change wins (ties count for neither side) and whether a gain claim
holds: wins in at least 9 of 10 pairs and medians further apart than the
parent's interquartile range.  Every end-to-end metric with a bound in
BENCHMARK.json also gets a no-regression verdict (see ``regression``).  It
prints the wrong-verdict (failed) count of each side out of the operations
(checks) it attempted, with the failed share, and ends with one JSON line
holding all runs.  With --out it also writes a trajectory record to that
path (and only then writes a file): the git sha of both sides, the Python
version, the core count, the pairs and seeds, and per workload the wrong
verdicts, the attempted operations and the failed share, and the
quartiles and the no-regression verdict of every end-to-end metric.
Standard library only.

--workloads defaults to every workload that BENCHMARK.json declares.  A name
it does not declare, a --parent that git cannot resolve to a commit and a
run outside a git checkout are usage errors (exit 2), raised before any
tree is extracted.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

SIDES = ("parent", "change")


def repo_root() -> Path | None:
    """The top of the git checkout holding the working directory, or None outside one."""
    out = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True)
    return Path(out.stdout.strip()) if out.returncode == 0 else None


def commit_sha(root: Path, rev: str) -> str | None:
    """The sha of the commit rev names in the checkout at root, or None if git cannot resolve it to one."""
    cmd = ["git", "-C", str(root), "rev-parse", "--verify", "--quiet", "--end-of-options", f"{rev}^{{commit}}"]
    out = subprocess.run(cmd, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def extract_revision(root: Path, rev: str, dest: Path) -> None:
    """The committed files of rev, as the benchmark sees a commit."""
    archive = subprocess.run(["git", "-C", str(root), "archive", "--format=tar", rev], capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")


def copy_working_tree(root: Path, dest: Path) -> None:
    """src/ and heckebench/ of the working tree, without results or byte-code."""
    skip = shutil.ignore_patterns("__pycache__", "results", "*.pyc")
    for name in ("src", "heckebench"):
        shutil.copytree(root / name, dest / name, ignore=skip)


def benchmark(root: Path) -> dict:
    """The benchmark declaration, BENCHMARK.json at the root of the repository."""
    return json.loads((root / "BENCHMARK.json").read_text())


def workloads(root: Path) -> list[str]:
    """The workload names BENCHMARK.json declares, in its order."""
    return [w["name"] for w in benchmark(root)["workloads"]]


def directions(root: Path) -> dict[str, str]:
    """'lower' or 'higher' for every metric BENCHMARK.json declares."""
    spec = benchmark(root)
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in spec.get(key, [])}


def end_to_end(root: Path) -> list[str]:
    """The end-to-end metric names BENCHMARK.json declares."""
    return [m["name"] for m in benchmark(root)["end_to_end"]]


def bounds(root: Path) -> dict[str, float]:
    """The bound of every end-to-end metric BENCHMARK.json gives one: the relative worsening it allows."""
    return {m["name"]: m["bound"] for m in benchmark(root)["end_to_end"] if "bound" in m}


def git(root: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True, check=True).stdout.strip()


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One heckebench run on tree: its final JSON object, or an error record.

    A run is an error when it exits nonzero, prints nothing, or prints a last
    line that is not a JSON object with metrics, failed and attempted.
    """
    cmd = [sys.executable, "heckebench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or not {"metrics", "failed", "attempted"} <= result.keys():
        return {"error": f"exit 0 without a JSON result on its last line: {lines[-1][-2000:]}"}
    return {
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed": result["failed"],
        "attempted": result["attempted"],
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def regression(parent: list[float], change: list[float], lower: bool, bound: float) -> str:
    """The no-regression verdict of one metric with a relative bound.

    "worse" if the change's median is worse than the parent's by more than
    bound times the parent median; else "unresolved" if the parent's
    interquartile range exceeds bound times its median, so a worsening
    within the bound could not be told from noise, unless every change run
    beats every parent run; else "ok".
    """
    (p1, p2, p3), c2 = quartiles(parent), quartiles(change)[1]
    if (c2 - p2 if lower else p2 - c2) > bound * abs(p2):
        return "worse"
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if p3 - p1 > bound * abs(p2) and not beats_all:
        return "unresolved"
    return "ok"


def summarize(runs: list[dict[str, dict]], better: dict[str, str], limits: dict[str, float] | None = None) -> list[dict]:
    """Per metric: each side's quartiles, the ratio of medians, the change's wins and the claim verdict,
    and for a metric with a bound in limits the no-regression verdict (None without one).

    runs holds one {"parent": run, "change": run} per pair; a pair in which
    either side failed to run is left out.
    """
    limits = limits or {}
    pairs = [p for p in runs if all("metrics" in p[side] for side in SIDES)]
    if not pairs:
        return []
    rows = []
    for name in pairs[0]["parent"]["metrics"]:
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        lower = better.get(name, "lower") == "lower"
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        gain = (qc[1] < qp[1]) if lower else (qc[1] > qp[1])
        rows.append({
            "metric": name,
            "parent": qp,
            "change": qc,
            "ratio": qc[1] / qp[1] if qp[1] else None,
            "wins": wins,
            "pairs": len(pairs),
            "claim_met": gain and wins >= 0.9 * len(pairs) and abs(qc[1] - qp[1]) > qp[2] - qp[0],
            "regression": regression(parent, change, lower, limits[name]) if name in limits else None,
        })
    return rows


def operations(runs: list[dict[str, dict]], side: str) -> dict:
    """The operations (checks) one side attempted over its finished runs, those that failed (its wrong
    verdicts) and the failed share."""
    attempted = sum(p[side].get("attempted", 0) for p in runs)
    failed = sum(p[side].get("failed", 0) for p in runs)
    return {"attempted": attempted, "failed": failed, "failed_share": failed / attempted if attempted else None}


def trajectory(sides: dict[str, dict], args, report: dict[str, dict], metrics: list[str]) -> dict:
    """The record --out writes: where and how the pairs ran, and per workload the
    wrong verdicts and operations of each side and the quartiles of each end-to-end metric."""
    workloads = {}
    for workload, result in report.items():
        rows = {r["metric"]: r for r in result["summary"]}
        ops = {side: operations(result["runs"], side) for side in SIDES}
        workloads[workload] = {
            "wrong_verdicts": {side: ops[side]["failed"] for side in SIDES},
            "operations": {side: {"attempted": ops[side]["attempted"], "failed_share": ops[side]["failed_share"]}
                           for side in SIDES},
            "runs_not_finished": {side: sum("error" in p[side] for p in result["runs"]) for side in SIDES},
            "metrics": {
                name: {
                    **{side: dict(zip(("q1", "median", "q3"), rows[name][side])) for side in SIDES},
                    "ratio": rows[name]["ratio"],
                    "wins": rows[name]["wins"],
                    "pairs": rows[name]["pairs"],
                    "claim_met": rows[name]["claim_met"],
                    "regression": rows[name]["regression"],
                }
                for name in metrics if name in rows
            },
        }
    return {
        "sides": sides,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pairs": args.pairs,
        "seeds": [args.seed + k for k in range(args.pairs)],
        "seconds": args.seconds,
        "trace": args.trace,
        "workloads": workloads,
    }


def print_summary(workload: str, runs: list[dict[str, dict]], rows: list[dict]) -> None:
    print(f"== {workload}: {len(runs)} pair(s)")
    for side in SIDES:
        errors = [p[side]["error"] for p in runs if "error" in p[side]]
        ops = operations(runs, side)
        share = f"{ops['failed_share']:.4g}" if ops["failed_share"] is not None else "-"
        print(f"  {side}: wrong verdicts {ops['failed']} of {ops['attempted']} operations (failed share {share}), "
              f"runs that did not finish {len(errors)}")
        for error in errors:
            print(f"    {error}")
    for r in rows:
        (p1, p2, p3), (c1, c2, c3) = r["parent"], r["change"]
        ratio = f"{r['ratio']:.3f}" if r["ratio"] is not None else "-"
        verdict = f"  regression {r['regression']}" if r["regression"] else ""
        print(f"  {r['metric']:<40} {p2:.6g} [{p1:.6g}, {p3:.6g}] -> {c2:.6g} [{c1:.6g}, {c3:.6g}]"
              f"  x{ratio}  wins {r['wins']}/{r['pairs']}  claim {'met' if r['claim_met'] else 'not met'}{verdict}")


def parse_args(argv: list[str] | None, root: Path | None) -> argparse.Namespace:
    """The options, with parent_sha the commit --parent names; root is the checkout's top, None outside one."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--workloads", help="comma-separated workload names (default: every workload of BENCHMARK.json)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload")
    parser.add_argument("--seed", type=int, default=31, help="seed of the first pair; pair k uses seed + k")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the trajectory record (BENCH_<pr>.json) to this path")
    args = parser.parse_args(argv)
    if root is None:
        parser.error("not inside a git checkout; run it from inside the repository")
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    declared = workloads(root)
    args.workloads = args.workloads or ",".join(declared)
    unknown = [name for name in args.workloads.split(",") if name not in declared]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; BENCHMARK.json declares {', '.join(declared)}")
    args.parent_sha = commit_sha(root, args.parent)
    if args.parent_sha is None:
        parser.error(f"unknown --parent revision {args.parent!r}: git cannot resolve it to a commit in {root}")
    return args


def main(argv: list[str] | None = None) -> int:
    root = repo_root()
    args = parse_args(argv, root)
    better = directions(root)
    sides = {
        "parent": {"rev": args.parent, "sha": args.parent_sha},
        # the change side is the working tree: its commit, and whether src/ or heckebench/ differ from it
        "change": {"sha": git(root, "rev-parse", "HEAD"),
                   "uncommitted": bool(git(root, "status", "--porcelain", "--", "src", "heckebench"))},
    }
    scratch = Path(tempfile.mkdtemp(prefix="heckekit-pairs-"))
    report = {}
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        extract_revision(root, args.parent, trees["parent"])
        copy_working_tree(root, trees["change"])
        for workload in args.workloads.split(","):
            runs = []
            for k in range(args.pairs):
                pair = {}
                for side in (SIDES if k % 2 == 0 else SIDES[::-1]):
                    pair[side] = run_once(trees[side], workload, args.seed + k, args.seconds, args.trace)
                    print(f"{workload} pair {k + 1}/{args.pairs} {side}: {pair[side]}", file=sys.stderr)
                runs.append(pair)
            rows = summarize(runs, better, bounds(root))
            print_summary(workload, runs, rows)
            report[workload] = {"runs": runs, "summary": rows}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"parent": args.parent, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "workloads": report}))
    if args.out:
        args.out.write_text(json.dumps(trajectory(sides, args, report, end_to_end(root)), indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
