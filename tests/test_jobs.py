"""Jobs: the spark-submit entrypoint and its session helper."""
import importlib.util
import pathlib
import sys

import pytest

JOBS = pathlib.Path(__file__).resolve().parent.parent / "jobs"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, JOBS / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(JOBS))
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.path.pop(0)
    return mod


@pytest.mark.parametrize("table", ["table2", "table4", "table5", "table6"])
def test_job_importable_with_main(table, monkeypatch):
    """jobs/tables.py runs the named table on a session it stops, and
    exits with the table's status."""
    mod = _load("tables")
    calls = []

    class FakeSpark:
        def stop(self):
            calls.append("stop")

    monkeypatch.setattr(mod, "get_spark", FakeSpark)
    monkeypatch.setattr(
        mod.tables, "main", lambda spark, name: calls.append(name) or 0
    )
    monkeypatch.setattr(sys, "argv", ["tables.py", table])
    assert mod.main() == 0
    assert calls == [table, "stop"]


def test_job_rejects_unknown_table(monkeypatch):
    mod = _load("tables")
    monkeypatch.setattr(sys, "argv", ["tables.py", "table3"])
    with pytest.raises(SystemExit, match="usage"):
        mod.main()


def test_session_helper_returns_running_spark(spark):
    # when a session exists, get_spark returns it (no second JVM)
    mod = _load("_session")
    s = mod.get_spark()
    assert s is spark
