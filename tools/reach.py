"""Reachability census: which functions in ``src/repro`` do product commands run?

Runs a fixed list of product inputs in one process under
``sys.setprofile``/``threading.setprofile`` and records every code object
that starts.  The inputs are the CLI commands in :func:`cli_commands`
(every ``repro bench <suite> --quick`` among them, counted as reached
whatever its exit code), a read of the study's course-program outputs
and team artifacts, and the job service over HTTP on a loopback port
(:class:`~repro.serve.http.BackgroundServer`).
Tests are not inputs: a function that only a test calls is unreached.
Functions that run only inside process-pool children are unreached too,
since the children's calls are not seen by this process.

Every ``def`` in ``src/repro`` (methods and nested functions included,
found with :mod:`ast`) is one function; a source line belongs to the
innermost function that contains it.  ``REACH.json`` lists, per module,
the function and line totals and the unreached functions by name.  It
holds no timing and no path, so a rerun of an unchanged tree writes it
byte for byte.

Usage (from the repository root, no install needed)::

    python tools/reach.py            # run the census, write REACH.json
    python tools/reach.py --check    # rerun it; exit 1 if any module's
                                     # unreached-function count rose

A change that deletes code or reaches more of it reruns the census and
commits the smaller ``REACH.json``; ``--check`` then holds the next
change to it.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "repro"
REACH_PATH = ROOT / "REACH.json"

class CensusError(RuntimeError):
    """A census input did not run as a product run must."""


# -- the function table -------------------------------------------------------


def module_name(path: Path, src: Path = SRC) -> str:
    """``src/repro/a/b.py`` -> ``repro.a.b`` (``__init__`` is the package)."""
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def functions_in(source: str) -> list[dict]:
    """Every ``def`` in ``source``: name, first line, and owned lines.

    The first line is the first decorator's, which is what a code
    object's ``co_firstlineno`` holds.  A line is owned by the innermost
    function containing it, so nested functions are not counted twice.
    Repeated qualified names (a property's getter and setter) get a
    ``#2``, ``#3`` suffix in source order.
    """
    found: list[tuple[str, int, int]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                found.append((prefix + child.name, first, child.end_lineno))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(source), "")
    owner: dict[int, int] = {}
    # Outer spans first, inner spans overwrite: innermost wins.
    for index, (_, first, last) in sorted(
            enumerate(found), key=lambda item: (item[1][1], -item[1][2])):
        for line in range(first, last + 1):
            owner[line] = index
    lines = [0] * len(found)
    for index in owner.values():
        lines[index] += 1
    seen: dict[str, int] = {}
    table = []
    for index, (name, first, _) in enumerate(found):
        seen[name] = seen.get(name, 0) + 1
        label = name if seen[name] == 1 else f"{name}#{seen[name]}"
        table.append({"name": label, "first": first, "lines": lines[index]})
    return table


def function_table(src: Path = SRC) -> dict[str, dict]:
    """Module name -> {"path": resolved file, "functions": [...]}."""
    table = {}
    for path in sorted((src / PACKAGE).rglob("*.py")):
        table[module_name(path, src)] = {
            "path": os.path.realpath(path),
            "functions": functions_in(path.read_text(encoding="utf-8")),
        }
    return table


# -- the product inputs -------------------------------------------------------


def cli_commands(tmp: str) -> list[list[str]]:
    """The CLI half of the census; every file a command writes is in ``tmp``."""
    from repro import workloads
    from repro.benchutil import SUITES
    from repro.cli import PATTERNLETS, _register_patternlets

    _register_patternlets()
    out = os.path.join(tmp, "out.json")
    cache = os.path.join(tmp, "cache")
    commands = [
        ["reproduce"], ["study"], ["experiments"], ["timeline"],
        *(["quiz", str(n)] for n in range(1, 6)),
        ["drugdesign", "--ligands", "24"],
        *(["patternlet", name] for name in sorted(PATTERNLETS)),
        ["trace", "--list"],
    ]
    for mode, extra in (("trace", ["--out", out]), ("chaos", []),
                        ("sched", [])):
        names = [entry.name for entry in workloads.entries()
                 if mode in entry.modes]
        commands += [[mode, name, *extra] for name in names]
    commands += [
        ["sched", "drugdesign", "--mode", "mp", "--workers", "2"],
        ["sched", "drugdesign", "--speculate"],
        ["sched", "mapreduce", "--trace", out],
        ["sched", "drugdesign", "--cache-dir", cache],
        ["sched", "drugdesign", "--cache-dir", cache],
        ["sched", "--cache-evict", "--cache-dir", cache,
         "--cache-max-entries", "0"],
        ["pipeline", "drugdesign", "--db", os.path.join(tmp, "p.db"),
         "--out", out],
        ["megacohort", "--check-identity"],
        ["megacohort", "--n", "20000", "--tables"],
        ["megacohort", "--n", "20000", "--mode", "mp", "--json"],
    ]
    commands += [["bench", name, "--quick", "--out",
                  os.path.join(tmp, suite.filename)]
                 for name, suite in SUITES.items()]
    commands.append(["bench", "--trajectory"])
    return commands


def run_cli(argv: list[str]) -> int:
    """One CLI command in this process, its output discarded."""
    from repro.cli import main

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 1


def read_study() -> None:
    """The study's lazily built parts: course programs and team artifacts."""
    from repro.core.study import PBLStudy

    result = PBLStudy().run()
    if not (result.program_outputs and result.artifacts):
        raise CensusError("the study built no program outputs or artifacts")


def drive_service() -> None:
    """The job service over HTTP on a loopback port: sched jobs, a batch,
    a callback chain and a pipeline job; status, result and stream reads;
    a cache hit, ``/workloads``, ``/metrics`` and ``/healthz``; a drain."""
    import http.client

    from repro.serve.http import BackgroundServer
    from repro.serve.service import JobService

    server = BackgroundServer(JobService(workers=2, backlog=16)).start()

    def call(method: str, path: str, body: dict | None = None):
        conn = http.client.HTTPConnection("127.0.0.1", server.port, timeout=60)
        try:
            conn.request(method, path,
                         body=None if body is None else json.dumps(body))
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    try:
        spec = {"workers": 2, "seed": 7}
        call("POST", "/jobs", {"workload": "mapreduce", "params": spec,
                               "on_complete": {"workload": "drugdesign",
                                               "params": spec}})
        call("POST", "/jobs/batch", {"jobs": [
            {"workload": "openmp", "params": spec},
            {"workload": "stencil_sched", "params": spec},
        ]})
        call("POST", "/jobs", {"workload": "drugdesign", "mode": "pipeline",
                               "params": spec})
        deadline = time.monotonic() + 60
        # Four jobs and the callback's follow-up, all terminal.
        while True:
            jobs = json.loads(call("GET", "/jobs")[1])
            if len(jobs) == 5 and all(job["state"] in ("done", "failed")
                                      for job in jobs):
                break
            if time.monotonic() > deadline:
                raise CensusError(f"service jobs did not finish: {jobs}")
            time.sleep(0.01)
        for job in jobs:
            call("GET", f"/jobs/{job['id']}")
            call("GET", f"/jobs/{job['id']}/result")
        call("GET", f"/jobs/{jobs[0]['id']}?follow=1")
        status, _ = call("POST", "/jobs", {"workload": "mapreduce",
                                           "params": spec})
        if status != 200:                                # a cache hit
            raise CensusError(f"repeated job answered {status}, not 200")
        for path in ("/workloads", "/metrics", "/healthz"):
            call("GET", path)
        states = [job["state"] for job in json.loads(call("GET", "/jobs")[1])]
        if states != ["done"] * 6:
            raise CensusError(f"service job states: {states}")
    finally:
        server.stop()


# -- the census ---------------------------------------------------------------


def run_census() -> tuple[set[tuple[str, int]], int]:
    """Run every input under the profiler; return the started functions
    as ``(resolved file, first line)`` pairs, and the input count."""
    started: set = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    sys.path.insert(0, str(SRC))
    previous = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        os.chdir(tmp)          # bench --trajectory reads BENCH_*.json here
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            commands = cli_commands(tmp)
            for argv in commands:
                code = run_cli(argv)
                # A bench suite's speedup gate may fail on a multi-core
                # box (its exit code is 1); it still ran.
                if code != 0 and argv[0] != "bench":
                    raise CensusError(f"census input failed (exit {code}): "
                                      f"repro {' '.join(argv)}")
            read_study()
            drive_service()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(previous)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno)
               for code in started}
    return reached, len(commands) + 2


def build_report(table: dict[str, dict], reached: set[tuple[str, int]],
                 inputs: int) -> dict:
    """The ``REACH.json`` document for one census."""
    modules = {}
    totals = {"functions": 0, "unreached": 0, "function_lines": 0,
              "unreached_lines": 0}
    for name, entry in sorted(table.items()):
        missed = [fn for fn in entry["functions"]
                  if (entry["path"], fn["first"]) not in reached]
        row = {
            "functions": len(entry["functions"]),
            "unreached": len(missed),
            "function_lines": sum(fn["lines"] for fn in entry["functions"]),
            "unreached_lines": sum(fn["lines"] for fn in missed),
            "unreached_functions": [fn["name"] for fn in missed],
        }
        for key in totals:
            totals[key] += row[key]
        modules[name] = row
    return {"inputs": inputs, "totals": totals, "modules": modules}


def dumps(report: dict) -> str:
    return json.dumps(report, indent=1, sort_keys=True) + "\n"


def regressions(old: dict, new: dict) -> list[str]:
    """Modules whose unreached-function count rose from ``old`` to ``new``.

    A module missing from ``old`` counts as having had none unreached.
    """
    problems = []
    for name, row in sorted(new["modules"].items()):
        before = old["modules"].get(name, {}).get("unreached", 0)
        if row["unreached"] > before:
            added = sorted(set(row["unreached_functions"])
                           - set(old["modules"].get(name, {})
                                 .get("unreached_functions", ())))
            problems.append(f"{name}: {before} -> {row['unreached']} unreached"
                            + (f" (new: {', '.join(added)})" if added else ""))
    return problems


def summary(report: dict) -> str:
    totals = report["totals"]
    return (f"{totals['functions'] - totals['unreached']} of "
            f"{totals['functions']} functions reached; "
            f"{totals['unreached']} unreached "
            f"({totals['unreached_lines']} of {totals['function_lines']} "
            f"function lines)")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed REACH.json instead "
                             "of writing it; exit 1 if any count rose")
    args = parser.parse_args(argv)
    began = time.perf_counter()
    reached, inputs = run_census()
    report = build_report(function_table(), reached, inputs)
    elapsed = time.perf_counter() - began
    print(f"census: {inputs} inputs in {elapsed:.1f} s; {summary(report)}")
    if not args.check:
        REACH_PATH.write_text(dumps(report), encoding="utf-8")
        print(f"wrote {REACH_PATH.name}")
        return 0
    committed = json.loads(REACH_PATH.read_text(encoding="utf-8"))
    problems = regressions(committed, report)
    for line in problems:
        print(f"unreached count rose: {line}")
    if problems:
        print("Reach the new code from a product path, delete it, or rerun "
              "`python tools/reach.py` and commit REACH.json with a reason.")
        return 1
    if dumps(report) != dumps(committed):
        print(f"note: the census differs from {REACH_PATH.name} without a "
              f"rise (committed: {summary(committed)}); rerun "
              f"`python tools/reach.py` to ratchet it down")
    print("reach check: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
