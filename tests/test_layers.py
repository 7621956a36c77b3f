"""The layer rule (DESIGN.md §2): which package may import which.

Four layers, each allowed to import at module level only the layers
listed in :data:`ALLOWED`:

- paper — the survey evidence behind Tables 1–6 and H1–H3;
- hooks — configuration, the version, and the telemetry and fault hooks
  the runtimes report to;
- runtimes — the course's parallel runtimes and simulators;
- infrastructure — everything else: the scheduler, process pool,
  service, pipeline, mega-cohort, registry, CLI, benches, and the
  modules inside runtime packages that drive them.

The ``ast`` walk checks every module under ``src/repro``; the
fresh-interpreter checks pin what a bare import actually loads.  When a
new import fails here, ``python -X importtime -c "from repro.core import *"``
shows which edge pulled it in.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"

PAPER = {"cohort", "survey", "simulation", "stats", "core", "course",
         "reporting"}
RUNTIMES = {"openmp", "mpi", "mapreduce", "drugdesign", "kernels",
            "patternlets", "arch", "rpi", "teamtech"}
HOOKS = {"config", "_version", "telemetry", "faults"}
#: Modules inside runtime or hooks packages that drive the scheduler,
#: the bench harness or the workload registry.
INFRASTRUCTURE = {"kernels.bench", "kernels.mpbench",
                  "mapreduce.stragglers", "mpi.stencil_sched", "faults.chaos",
                  "faults.bench", "telemetry.workloads"}

ALLOWED = {
    "paper": {"paper"},
    "hooks": {"hooks"},
    "runtimes": {"paper", "hooks", "runtimes"},
    "infrastructure": {"paper", "hooks", "runtimes", "infrastructure"},
}


def layer(module: str) -> str:
    """The layer of ``repro.<...>``; the root package is infrastructure."""
    rel = module.removeprefix("repro.")
    top = rel.split(".")[0]
    if module == "repro" or rel in INFRASTRUCTURE:
        return "infrastructure"
    if top in PAPER:
        return "paper"
    if top in RUNTIMES:
        return "runtimes"
    if top in HOOKS:
        return "hooks"
    return "infrastructure"


def _module_names() -> dict[str, Path]:
    names = {}
    for path in PACKAGE.rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        names[".".join(parts)] = path
    return names


MODULES = _module_names()


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _module_level_imports(tree: ast.Module):
    """Import statements that run on import: everything outside function
    bodies and ``if TYPE_CHECKING:`` blocks (class bodies included)."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        elif isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
        else:
            stack.extend(child for child in ast.iter_child_nodes(node)
                         if isinstance(child, ast.stmt))


def _with_packages(module: str) -> set[str]:
    """``a.b.c`` also runs ``a.b/__init__``; the root package is exempt."""
    parts = module.split(".")
    return {".".join(parts[:i]) for i in range(2, len(parts) + 1)}


def imported_modules(module: str, path: Path) -> set[str]:
    """Every ``repro`` module importing ``module`` runs, packages included."""
    is_package = path.name == "__init__.py"
    targets: set[str] = set()
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    for node in _module_level_imports(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            base = node.module or ""
            if node.level:
                anchor = module.split(".")
                if not is_package:
                    anchor = anchor[:-1]
                anchor = anchor[: len(anchor) - (node.level - 1)]
                base = ".".join(anchor + ([base] if base else []))
            # ``from repro import kernels`` imports the submodule.
            names = [f"{base}.{alias.name}" if f"{base}.{alias.name}" in MODULES
                     else base for alias in node.names]
        for name in names:
            if name == "repro" or name.startswith("repro."):
                targets |= _with_packages(name)
    return targets


def test_layer_table_names_only_existing_modules():
    stale = sorted(rel for rel in PAPER | RUNTIMES | HOOKS | INFRASTRUCTURE
                   if f"repro.{rel}" not in MODULES)
    assert not stale, f"layer table names missing modules: {stale}"


def test_module_level_imports_follow_the_layer_rule():
    violations = []
    for module, path in sorted(MODULES.items()):
        source = layer(module)
        for target in sorted(imported_modules(module, path)):
            if target != module and layer(target) not in ALLOWED[source]:
                violations.append(
                    f"{module} ({source}) imports {target} ({layer(target)})")
    assert not violations, "layer rule violated:\n" + "\n".join(violations)


def _loaded_by(statement: str) -> list[str]:
    """The ``repro`` modules a fresh interpreter holds after ``statement``."""
    script = (f"import json, sys\n{statement}\n"
              "print(json.dumps(sorted(m for m in sys.modules "
              "if m == 'repro' or m.startswith('repro.'))))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _under(modules: list[str], packages) -> list[str]:
    prefixes = tuple(f"repro.{p}" for p in packages)
    return [m for m in modules
            if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_import_core_loads_only_the_paper_layer():
    # ``repro.core`` loads its submodules on first use; the star import
    # loads every one it exports.
    loaded = _loaded_by("from repro.core import *")
    stack = _under(loaded, (
        "sched", "procpool", "faults", "telemetry", "serve", "pipeline",
        "megacohort", "workloads", "kernels", "drugdesign", "openmp", "mpi",
        "mapreduce", "teamtech"))
    assert not stack, f"repro.core loads {stack}"
    assert len(loaded) <= 45, f"repro.core loads {len(loaded)} modules"


#: Modules no product command reaches (``tools/reach.py``) that are kept
#: for a stated reason: the study must not load them.
UNREACHED_KEPT = ("openmp.env",)
#: Modules deleted because no product command reached them.
DELETED = ("arch.isa", "arch.memory", "arch.pipeline", "arch.gpu",
           "teamtech.workflows", "rpi.thermal", "openmp.locks",
           "mapreduce.counters", "mpi.programs", "stats.anova",
           "survey.administration", "simulation.sensitivity", "course.rubrics",
           "sched.tune", "kernels.mp", "stats.power", "stats.reliability",
           "survey.reliability", "stats.composite")


def test_study_loads_no_unreached_module():
    loaded = _loaded_by("import repro.core.study, repro.core.report")
    unreached = _under(loaded, UNREACHED_KEPT + DELETED)
    assert not unreached, f"the study loads {unreached}"
    assert len(loaded) == 40, f"the study loads {len(loaded)} modules"


@pytest.mark.parametrize("runtime", ["openmp", "mpi", "mapreduce", "drugdesign"])
def test_import_runtime_loads_no_infrastructure(runtime):
    loaded = _loaded_by(f"import repro.{runtime}")
    stack = _under(loaded, ("faults.chaos", "workloads", "sched", "procpool"))
    assert not stack, f"import repro.{runtime} loads {stack}"


def test_import_megacohort_loads_no_study():
    """The mega-cohort needs only ``core.analysis``; ``repro.core`` loads
    its other submodules on first use, so the workload registry's import
    of ``repro.megacohort`` in every serve and pipeline process stays
    free of the study, course, cohort and reporting code."""
    loaded = _loaded_by("import repro.megacohort")
    study = _under(loaded, ("course", "cohort", "reporting", "core.study"))
    assert not study, f"import repro.megacohort loads {study}"
