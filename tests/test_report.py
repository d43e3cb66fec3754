from treeramsey.demo import Outcome
from treeramsey.report import Check, Report


def test_checks_keep_their_order_and_the_first_failure():
    report = Report()
    assert report.ok and report.failed is None
    report.add("first", 1, "kept")
    report.add("second", 0, "broken")
    report.add("third", False)
    assert not report.ok
    assert report.failed == Check("second", False, "broken")
    assert [c.passed for c in report.checks] == [True, False, False]


def test_json_puts_fields_between_the_version_and_the_checks():
    report = Report()
    report.add("only", True)
    doc = report.to_json(construction="demo")
    assert list(doc) == ["schema_version", "construction", "ok", "checks"]
    assert doc["checks"] == [{"name": "only", "passed": True, "detail": ""}]


def test_outcome_json_leaves_out_the_timing():
    assert Outcome("ramsey-constant", True, "ok", 1.5).to_json() == \
        {"name": "ramsey-constant", "passed": True, "detail": "ok"}
