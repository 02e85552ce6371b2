"""The benchmark's own test: repeatable counts, every metric printed, oracle scoring.

    python3 -m pytest heckebench/test_heckebench.py

Uses the ``smoke`` workload, which takes about a second per repetition.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from tracer import EXACT_STATS  # noqa: E402


def _env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "HECKEKIT_JOBS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(extra)
    return env


def _run(*args, **env):
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "3", "--seconds", "1", *args],
        cwd=ROOT, env=_env(**env), capture_output=True, text=True, timeout=300,
    )


def _traced_child(seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "smoke", str(seed), "full", "1"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_for_one_seed():
    # the two interpreters get different string-hash seeds
    first, second = _traced_child(5)["layers"], _traced_child(5)["layers"]
    counts = [name for name in first if name.rsplit(".", 1)[1] in EXACT_STATS]
    assert {"algebra.poly_mul.term_pairs", "linalg.mat_mul.cells", "algebra.rf_equal.max_num_terms"} <= set(counts)
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    proc = _run("--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    assert [m["name"] for m in declared] == list(result["metrics"])
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert f"{metric['name']} {printed['value']} {metric['unit']}" in lines
    assert "wrong_verdicts 0 count" in lines


def test_refuses_to_run_with_jobs_env_set():
    proc = _run("--trace", "0", HECKEKIT_JOBS="1")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_scores_raising_checks_and_negative_controls():
    from heckekit.reports import Report
    from workloads import Oracle

    def boom():
        raise ValueError("boom")

    failing = Report("t")
    failing.add("quadratic", False, "block (e, e) entry (0, 0): 2  !=  1", "rhs")
    unlocalized = Report("t")
    unlocalized.add("quadratic", False, "not scalar", "rhs")
    oracle = Oracle()
    oracle.check("raises", boom)
    oracle.check("negative control", lambda: failing, expect=False, localized=True)
    oracle.check("negative control without an entry", lambda: unlocalized, expect=False, localized=True)
    oracle.check("genuine report", lambda: failing)
    oracle.check("unequal", lambda: False, expect=False)
    assert oracle.checks == 5
    assert [w.split(":")[0] for w in oracle.wrong] == ["raises", "negative control without an entry", "genuine report"]


def test_clock_normalizes_by_interleaved_samples():
    from clock import REFERENCE_S, Clock

    clock = Clock()
    # passes at half the reference speed, one stretched by a stall
    clock.samples = [(1.0, 2 * REFERENCE_S), (2.0, 2 * REFERENCE_S), (3.0, 1000 * REFERENCE_S), (9.0, REFERENCE_S)]
    passes = 1004 * REFERENCE_S
    assert clock.work_s(0.0, 4.0) == pytest.approx(4.0 - passes)
    assert clock.normalized_s(0.0, 4.0) == pytest.approx((4.0 - passes) * (0.5 + 0.5 + 0.001) / 3)
    assert clock.speed(0.0, 10.0) == pytest.approx(0.5)
    with pytest.raises(RuntimeError):
        clock.normalized_s(4.0, 8.0)
