"""Vectorized bit-parallel simulation engine: every simulation runs here.

The package packs the good machine plus every faulty machine of a run
into contiguous machine words and evaluates levelized gates as bitwise
operations over *all* fault copies and (for batched screening) several
weighted sequences at once.  A fault-free program on a one-lane word is
the good machine alone: :class:`~repro.sim.logicsim.LogicSimulator`
runs that.  Two interchangeable kernels implement the same word-level
semantics:

* :class:`~repro.sim.vector.kernels.IntKernel` — pure stdlib; one
  arbitrary-precision integer per net spans every lane, so the bitwise
  ops run in CPython's C bignum loops.  Always available.
* :class:`~repro.sim.vector.kernels.NumpyKernel` — ``uint64`` planes of
  shape ``(n_nets, n_words)`` with gather + reduce per levelized batch;
  opt-in through ``REPRO_SIM_PACKING=numpy``.

Both kernels execute the same :class:`~repro.sim.vector.program.VectorProgram`
and are proven bit-identical to the pure-Python oracle in
``repro.sim.faultsim`` (the simulators' ``oracle`` flag), and the good
machine to an interpreted per-gate reference, by the differential test
suites.
"""

from repro.sim.vector.packing import (
    WORD_BITS,
    choose_packing,
    numpy_available,
)
from repro.sim.vector.program import VectorProgram, build_program
from repro.sim.vector.kernels import IntKernel, NumpyKernel, make_kernel
from repro.sim.vector.engine import VectorEngine, VectorIncremental

__all__ = [
    "WORD_BITS",
    "choose_packing",
    "numpy_available",
    "VectorProgram",
    "build_program",
    "IntKernel",
    "NumpyKernel",
    "make_kernel",
    "VectorEngine",
    "VectorIncremental",
]
