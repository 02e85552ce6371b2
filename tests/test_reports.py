import pytest

from heckekit.reports import Report


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


def test_serialized_status_must_agree_with_its_checks():
    report = Report("t")
    report.run("fine", lambda: (True, None, None))
    with pytest.raises(ValueError, match="^inconsistent serialized status$"):
        Report.from_json(report.to_json().replace('"status": "pass"', '"status": "fail"'))
