"""The ``repro bench`` harness: gates, rounding and the written point."""

from __future__ import annotations

import json

import pytest

from repro.benchutil import SUITES, Suite, render_point, run_suite


def _suite(measured, gates):
    return Suite("fake", lambda quick: dict(measured), gates,
                 (("x", "x", "%.2f"), ("absent", "gone", "%d")))


@pytest.mark.parametrize("gates, ok, gate_applied", [
    ({"a": (True, True), "b": (True, True)}, True, True),
    ({"a": (True, True), "b": (False, False)}, True, False),   # skipped
    ({"a": (True, True), "b": (False, True)}, False, True),    # failing
    ({"a": (False, True), "b": (False, False)}, False, False),
])
def test_ok_counts_only_applied_gates(gates, ok, gate_applied):
    point = run_suite(_suite({"x": 1.0}, lambda p: gates))
    assert point["ok"] is ok
    assert point["gate_applied"] is gate_applied
    assert point["gates"] == {
        name: ("pass" if passed else "fail") if applied else "skip"
        for name, (passed, applied) in gates.items()
    }


def test_gates_see_the_rounded_point():
    seen = {}

    def gates(point):
        seen.update(point)
        return {"at_least_one": (point["x"] >= 1.0, True)}

    point = run_suite(_suite({"x": 0.99999999, "n": 3}, gates))
    assert seen["x"] == 1.0 and point["x"] == 1.0
    assert point["n"] == 3 and isinstance(point["n"], int)
    assert point["ok"] is True


def test_written_point_shape(tmp_path):
    out = tmp_path / "BENCH_fake.json"
    point = run_suite(_suite({"x": 2.0}, lambda p: {"g": (True, True)}),
                      quick=True, out_path=str(out))
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(point, indent=2, sort_keys=True) + "\n"
    assert set(point) == {"bench", "quick", "x", "gates", "gate_applied",
                          "ok", "timestamp"}
    assert point["bench"] == "fake" and point["quick"] is True
    rendered = render_point(_suite({}, None), point)
    assert "x              2.00" in rendered and "gone           -" in rendered
    assert "gate g: pass" in rendered


def test_every_suite_names_its_point_file():
    assert list(SUITES) == ["kernels", "mp", "spec", "pipeline",
                            "megacohort", "faults", "sched"]
    assert SUITES["faults"].filename == "BENCH_faults.json"
