"""The reachability census's bookkeeping, on synthetic data.

``tools/reach.py`` runs every product command under a profiler; these
tests cover the parts that do not need a run: how the ``ast`` walk names
functions and attributes lines, how a census becomes a report, and the
``--check`` comparison.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

SOURCE = '''\
import functools


@functools.lru_cache
def cached(x):
    return x


class Box:
    @property
    def value(self):
        return 1

    @value.setter
    def value(self, v):
        pass


def outer():
    def inner():
        return 2
    return inner
'''


def _report(unreached: dict[str, list[str]]) -> dict:
    return {"modules": {
        name: {"unreached": len(names), "unreached_functions": names}
        for name, names in unreached.items()}}


def test_functions_are_named_and_start_at_their_first_decorator():
    table = reach.functions_in(SOURCE)
    assert [(fn["name"], fn["first"]) for fn in table] == [
        ("cached", 4), ("Box.value", 10), ("Box.value#2", 14),
        ("outer", 19), ("outer.<locals>.inner", 20),
    ]


def test_each_line_belongs_to_its_innermost_function():
    lines = {fn["name"]: fn["lines"] for fn in reach.functions_in(SOURCE)}
    assert lines["outer.<locals>.inner"] == 2
    assert lines["outer"] == 2          # its def line and its return
    assert lines["cached"] == 3         # decorator, def, body


def test_report_counts_what_the_census_did_not_start():
    table = {"repro.m": {"path": "/m.py",
                         "functions": reach.functions_in(SOURCE)}}
    report = reach.build_report(table, {("/m.py", 4), ("/m.py", 19)},
                                inputs=3)
    row = report["modules"]["repro.m"]
    assert row["unreached_functions"] == [
        "Box.value", "Box.value#2", "outer.<locals>.inner"]
    assert (row["functions"], row["unreached"]) == (5, 3)
    assert report["totals"]["unreached_lines"] == row["unreached_lines"] == 8
    assert report["inputs"] == 3


def test_a_rise_in_any_module_is_a_regression():
    old = _report({"repro.a": ["f"], "repro.b": []})
    new = _report({"repro.a": ["f", "g"], "repro.b": []})
    assert reach.regressions(old, new) == ["repro.a: 1 -> 2 unreached (new: g)"]


def test_a_new_module_with_unreached_functions_is_a_regression():
    old = _report({"repro.a": []})
    new = _report({"repro.a": [], "repro.c": ["h"]})
    assert reach.regressions(old, new) == ["repro.c: 0 -> 1 unreached (new: h)"]


def test_fewer_or_equal_unreached_is_not_a_regression():
    old = _report({"repro.a": ["f", "g"], "repro.gone": ["x"]})
    assert reach.regressions(old, _report({"repro.a": ["g"]})) == []
    assert reach.regressions(old, old) == []
    # A rename at the same count is not a rise either.
    assert reach.regressions(old, _report({"repro.a": ["f", "k"]})) == []
