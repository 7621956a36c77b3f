"""Computer-architecture substrate for Assignments 2–3.

- :mod:`repro.arch.flynn` — executable models of Flynn's taxonomy
  (Assignment 2: "multi-processor computer architectures (e.g. SISD,
  SIMD, MISD, and MIMD)"; Assignment 3: "Classify parallel computers
  based on Flynn's taxonomy").
"""

from repro.arch.flynn import (
    MIMDMachine,
    MISDMachine,
    SIMDMachine,
    SISDMachine,
    classify,
)

__all__ = [
    "MIMDMachine",
    "MISDMachine",
    "SIMDMachine",
    "SISDMachine",
    "classify",
]
