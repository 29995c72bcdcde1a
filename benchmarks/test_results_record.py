"""The ``record`` fixture rewrites a pinned result file only when a
pinned field moved — a tier-1 run must leave ``git status`` clean."""

import json

import pytest


@pytest.fixture
def results_dir(tmp_path):
    return tmp_path


def test_timing_only_change_keeps_file_bytes(record, results_dir):
    path = results_dir / "demo.json"
    record("demo", [{"rf": 2.5, "elapsed_seconds": 1.0}])
    first = path.read_bytes()
    record("demo", [{"rf": 2.5, "elapsed_seconds": 9.9}])
    assert path.read_bytes() == first


def test_pinned_change_and_fresh_or_torn_files_are_written(record,
                                                           results_dir):
    path = results_dir / "demo.json"
    record("demo", [{"rf": 2.5, "elapsed_seconds": 1.0}])
    record("demo", [{"rf": 2.6, "elapsed_seconds": 1.0}])
    assert json.loads(path.read_text())[0]["rf"] == 2.6
    path.write_text("{torn")
    record("demo", [{"rf": 2.6}])
    assert json.loads(path.read_text()) == [{"rf": 2.6}]
