import subprocess
import sys
from pathlib import Path

import pytest

from heckekit.reports import Report

SRC = Path(__file__).resolve().parent.parent / "src"


def test_raising_check_is_recorded_as_failure():
    report = Report("t")
    report.run("boom", lambda: 1 / 0)
    report.run("fine", lambda: (True, None, None))
    assert [c.name for c in report.checks] == ["boom", "fine"]
    assert report.status == "fail"
    boom, fine = report.checks
    assert not boom.passed and boom.lhs.startswith("ZeroDivisionError: ")
    assert "test_reports.py" in boom.rhs
    assert fine.passed
    assert Report.from_json(report.to_json()).status == "fail"


def test_a_raising_check_names_the_file_line_and_function_it_raised_in():
    def broken():
        return {}["missing"]

    report = Report("t")
    report.run("boom", broken)
    boom = report.checks[0]
    assert boom.lhs == "KeyError: 'missing'"
    assert boom.rhs == f"raised at test_reports.py:{broken.__code__.co_firstlineno + 1} in broken"


def test_importing_heckekit_does_not_load_traceback():
    # a fresh interpreter: traceback (and textwrap with it) is imported only when a check raises
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import heckekit; print('traceback' in sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_serialized_status_must_agree_with_its_checks():
    report = Report("t")
    report.run("fine", lambda: (True, None, None))
    with pytest.raises(ValueError, match="^inconsistent serialized status$"):
        Report.from_json(report.to_json().replace('"status": "pass"', '"status": "fail"'))


def test_add_records_a_computed_check_that_first_failure_and_json_keep():
    report = Report("t")
    report.add("fine", True)
    report.add("broken", False, "lhs", "rhs", 0.5)
    broken = report.checks[1]
    assert (broken.name, broken.passed, broken.lhs, broken.rhs) == ("broken", False, "lhs", "rhs")
    assert report.first_failure() is broken
    back = Report.from_json(report.to_json())
    assert [(c.name, c.passed, c.lhs, c.rhs, c.elapsed) for c in back.checks] == [
        ("fine", True, None, None, 0.0), ("broken", False, "lhs", "rhs", 0.5)]
