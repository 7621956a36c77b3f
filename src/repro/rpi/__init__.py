"""Simulated Raspberry Pi 3 Model B+.

The paper gives each team a Raspberry Pi kit as "a uniform work
environment" because "components such as the processor, memory unit,
storage device, and others are clearly visible".  We cannot ship silicon,
so this package is the executable substitute:

- :mod:`repro.rpi.soc` — the BCM2837B0 SoC and board inventory
  (Assignment 2: "Identify the components on the Raspberry PI B+.  How
  many cores does the Raspberry Pi's B+ CPU have?").
- :mod:`repro.rpi.machine` — a deterministic multicore timing model.
  Parallel constructs from :mod:`repro.openmp` can be *costed* on it:
  region time = fork overhead + max per-core busy time + join overhead,
  with per-chunk scheduling overhead that differs between static and
  dynamic schedules.  Every performance-shaped experiment (speedup
  curves, schedule comparison, the drug-design timing table) runs on this
  model, the way the paper's numbers come from its physical Pi.
- :mod:`repro.rpi.setup` — the Assignment-2 bring-up procedure (flash
  RASPBIAN to microSD, boot, connect a display) as a checked state
  machine.
"""

from repro.rpi.cache import Cache, CacheConfig, MemoryHierarchy
from repro.rpi.machine import CostedLoop, SimulatedPi, TimingModel
from repro.rpi.setup import BootError, PiSetup, SetupStep
from repro.rpi.soc import BCM2837B0, Component, RaspberryPi3BPlus

__all__ = [
    "BCM2837B0",
    "BootError",
    "Cache",
    "CacheConfig",
    "Component",
    "MemoryHierarchy",
    "CostedLoop",
    "PiSetup",
    "RaspberryPi3BPlus",
    "SetupStep",
    "SimulatedPi",
    "TimingModel",
]
