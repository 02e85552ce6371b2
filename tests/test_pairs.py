"""tools/pairs.py: the summary of alternating parent/change benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

PAIRS = Path(__file__).resolve().parent.parent / "tools" / "pairs.py"
spec = importlib.util.spec_from_file_location("pairs", PAIRS)
pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(pairs)


def run(**metrics):
    return {"metrics": metrics, "failed": 0, "attempted": 1}


def test_summary_counts_wins_and_checks_the_claim():
    runs = [{"parent": run(t=2.0 + k / 100, checks=5), "change": run(t=1.0 + k / 100, checks=5)} for k in range(10)]
    runs[3]["change"] = run(t=2.5, checks=5)  # one lost pair still leaves 9/10
    rows = {r["metric"]: r for r in pairs.summarize(runs, {"t": "lower", "checks": "higher"})}
    assert rows["t"]["wins"] == 9 and rows["t"]["pairs"] == 10 and rows["t"]["claim_met"]
    assert rows["t"]["parent"][1] == pytest.approx(2.045) and rows["t"]["change"][1] == pytest.approx(1.055)
    assert rows["checks"]["wins"] == 0 and not rows["checks"]["claim_met"]


def test_summary_needs_nine_wins_in_ten_and_skips_failed_pairs():
    runs = [{"parent": run(t=2.0), "change": run(t=1.0 if k < 8 else 3.0)} for k in range(10)]
    assert not pairs.summarize(runs, {})[0]["claim_met"]  # 8/10
    runs.append({"parent": {"error": "exit 1"}, "change": run(t=1.0)})
    assert pairs.summarize(runs, {})[0]["pairs"] == 10


def test_trajectory_record_shape():
    from types import SimpleNamespace

    runs = [{"parent": run(verdict_s=2.0 + k / 10, checks=5), "change": run(verdict_s=1.0 + k / 10, checks=5)}
            for k in range(4)]
    runs.append({"parent": {"error": "exit 1"}, "change": run(verdict_s=1.0, checks=5)})
    report = {"demazure_cs": {"runs": runs, "summary": pairs.summarize(runs, {"checks": "higher"})}}
    args = SimpleNamespace(pairs=5, seed=31, seconds=10.0, trace=0)
    sides = {"parent": {"rev": "HEAD", "sha": "a" * 40}, "change": {"sha": "b" * 40, "uncommitted": True}}
    record = pairs.trajectory(sides, args, report, ["verdict_s", "checks", "setup_s"])
    assert record["sides"] == sides and record["seeds"] == [31, 32, 33, 34, 35] and record["pairs"] == 5
    assert isinstance(record["python"], str) and record["nproc"] >= 1
    workload = record["workloads"]["demazure_cs"]
    assert workload["wrong_verdicts"] == {"parent": 0, "change": 0}
    assert workload["runs_not_finished"] == {"parent": 1, "change": 0}
    assert set(workload["metrics"]) == {"verdict_s", "checks"}  # setup_s was never measured
    verdict = workload["metrics"]["verdict_s"]
    assert verdict["parent"]["median"] == pytest.approx(2.15) and verdict["change"]["median"] == pytest.approx(1.15)
    assert verdict["parent"]["q1"] <= verdict["parent"]["median"] <= verdict["parent"]["q3"]
    assert verdict["wins"] == 4 and verdict["pairs"] == 4 and verdict["claim_met"]
    assert verdict["regression"] is None  # summarized without bounds
    json.dumps(record)  # the record is what --out writes


def test_regression_verdict_is_ok_worse_or_unresolved():
    steady = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    assert pairs.regression(steady, [1.1] * 10, True, 0.2) == "ok"  # 10% slower, within the bound
    assert pairs.regression(steady, [1.3] * 10, True, 0.2) == "worse"
    assert pairs.regression([82] * 10, [82] * 10, False, 0.05) == "ok"
    assert pairs.regression([82] * 10, [74] * 10, False, 0.05) == "worse"  # higher is better: 10% fewer
    noisy = [1.0, 2.0] * 5  # interquartile range 1.0 against 0.2 * median 1.5
    assert pairs.regression(noisy, [1.5] * 10, True, 0.2) == "unresolved"
    assert pairs.regression(noisy, [0.9] * 10, True, 0.2) == "ok"  # beats every parent run
    assert pairs.regression(noisy, [2.5] * 10, True, 0.2) == "worse"


def test_summary_and_record_carry_the_regression_verdict(capsys):
    from types import SimpleNamespace

    runs = [{"parent": run(verdict_s=1.0, checks=82, t=1.0), "change": run(verdict_s=1.5, checks=82, t=9.0)}
            for _ in range(10)]
    rows = pairs.summarize(runs, {"checks": "higher"}, {"verdict_s": 0.2, "checks": 0.05})
    assert {r["metric"]: r["regression"] for r in rows} == {"verdict_s": "worse", "checks": "ok", "t": None}
    pairs.print_summary("demazure_cs", runs, rows)
    out = capsys.readouterr().out
    assert "regression worse" in out and "regression ok" in out and out.count("regression") == 2
    args = SimpleNamespace(pairs=10, seed=31, seconds=10.0, trace=0)
    record = pairs.trajectory({}, args, {"demazure_cs": {"runs": runs, "summary": rows}}, ["verdict_s", "checks"])
    assert record["workloads"]["demazure_cs"]["metrics"]["verdict_s"]["regression"] == "worse"


def test_bounds_are_those_of_the_benchmark_file():
    root = Path(__file__).resolve().parent.parent
    declared = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    assert pairs.bounds(root) == {m["name"]: m["bound"] for m in declared}


def test_default_workloads_are_those_of_the_benchmark_file(tmp_path, monkeypatch):
    root = Path(__file__).resolve().parent.parent
    declared = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    assert pairs.parse_args(["--parent", "HEAD"], root).workloads.split(",") == declared
    # a workload added to the file is run without naming it; tmp_path is no checkout, so HEAD resolves by stub
    monkeypatch.setattr(pairs, "commit_sha", lambda root, rev: "a" * 40)
    spec = {"workloads": [{"name": "generic_rank2"}, {"name": "reach"}], "end_to_end": [{"name": "verdict_s", "better": "lower"}]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    assert pairs.parse_args(["--parent", "HEAD"], tmp_path).workloads == "generic_rank2,reach"
    assert pairs.parse_args(["--parent", "HEAD", "--workloads", "reach"], tmp_path).workloads == "reach"
    assert pairs.directions(tmp_path) == {"verdict_s": "lower"} and pairs.end_to_end(tmp_path) == ["verdict_s"]


def no_tree_is_extracted(monkeypatch):
    def extract(*args):
        raise AssertionError("a tree was extracted")

    monkeypatch.setattr(pairs, "extract_revision", extract)
    monkeypatch.setattr(pairs, "copy_working_tree", extract)


def test_an_undeclared_workload_is_a_usage_error(monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    declared = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    no_tree_is_extracted(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", "HEAD", "--workloads", f"{declared[0]},generic_rank3"])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "unknown workload(s) generic_rank3;" in err and f"declares {', '.join(declared)}" in err


def test_an_unknown_parent_revision_is_a_usage_error(monkeypatch, capsys):
    no_tree_is_extracted(monkeypatch)
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", "no_such_rev", "--pairs", "1"])
    assert exit_info.value.code == 2
    assert "unknown --parent revision 'no_such_rev': git cannot resolve it to a commit" in capsys.readouterr().err


def test_the_parent_revision_is_resolved_to_its_commit():
    root = Path(__file__).resolve().parent.parent
    args = pairs.parse_args(["--parent", "HEAD"], root)
    assert args.parent_sha == pairs.git(root, "rev-parse", "HEAD") and len(args.parent_sha) == 40


def test_a_run_outside_a_git_checkout_is_a_usage_error(tmp_path, monkeypatch, capsys):
    no_tree_is_extracted(monkeypatch)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path.parent))  # git looks no higher than tmp_path
    monkeypatch.delenv("GIT_DIR", raising=False)
    assert pairs.repo_root() is None
    with pytest.raises(SystemExit) as exit_info:
        pairs.main(["--parent", "HEAD"])
    assert exit_info.value.code == 2
    assert "not inside a git checkout; run it from inside the repository" in capsys.readouterr().err


@pytest.mark.parametrize("last_line, parsed", [
    ("done", False),
    ('{"failed": 0, "attempted": 1}', False),
    ("[1, 2]", False),
    ('{"metrics": {"verdict_s": {"value": 0.5}}, "failed": 0, "attempted": 3}', True),
], ids=["plain-text", "json-without-metrics", "json-list", "result"])
def test_a_run_without_a_json_result_is_an_error_record(tmp_path, last_line, parsed):
    # a tree whose benchmark exits 0: only a JSON result on its last line is a run with metrics
    (tmp_path / "heckebench").mkdir()
    (tmp_path / "heckebench" / "run.py").write_text(f"print('starting')\nprint({last_line!r})\n")
    record = pairs.run_once(tmp_path, "demazure_cs", 31, 1.0, 0)
    if parsed:
        assert record == {"metrics": {"verdict_s": 0.5}, "failed": 0, "attempted": 3}
    else:
        assert set(record) == {"error"} and last_line in record["error"]


def test_summary_and_record_show_each_sides_operations_and_failed_share(capsys):
    from types import SimpleNamespace

    runs = [{"parent": {"metrics": {"t": 1.0}, "failed": 0, "attempted": 40},
             "change": {"metrics": {"t": 0.5}, "failed": 1 if k == 0 else 0, "attempted": 40}} for k in range(4)]
    runs.append({"parent": run(t=1.0), "change": {"error": "exit 1"}})  # a run that did not finish attempted nothing
    assert pairs.operations(runs, "parent") == {"attempted": 161, "failed": 0, "failed_share": 0.0}
    assert pairs.operations(runs, "change") == {"attempted": 160, "failed": 1, "failed_share": 1 / 160}
    assert pairs.operations([{"parent": {"error": "exit 1"}}], "parent")["failed_share"] is None
    rows = pairs.summarize(runs, {})
    pairs.print_summary("metaplectic_gl3", runs, rows)
    out = capsys.readouterr().out
    assert "parent: wrong verdicts 0 of 161 operations (failed share 0), runs that did not finish 0" in out
    assert "change: wrong verdicts 1 of 160 operations (failed share 0.00625), runs that did not finish 1" in out
    args = SimpleNamespace(pairs=5, seed=31, seconds=10.0, trace=0)
    record = pairs.trajectory({}, args, {"metaplectic_gl3": {"runs": runs, "summary": rows}}, ["t"])
    workload = record["workloads"]["metaplectic_gl3"]
    assert workload["operations"] == {"parent": {"attempted": 161, "failed_share": 0.0},
                                      "change": {"attempted": 160, "failed_share": 1 / 160}}
    assert workload["wrong_verdicts"] == {"parent": 0, "change": 1}
    json.dumps(record)
