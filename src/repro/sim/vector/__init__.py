"""Vectorized bit-parallel fault-simulation engine.

The package packs the good machine plus every faulty machine of a run
into contiguous machine words and evaluates levelized gates as bitwise
operations over *all* fault copies and (for batched screening) several
weighted sequences at once.  Two interchangeable kernels implement the
same word-level semantics:

* :class:`~repro.sim.vector.kernels.IntKernel` — pure stdlib; one
  arbitrary-precision integer per net spans every lane, so the bitwise
  ops run in CPython's C bignum loops.  Always available.
* :class:`~repro.sim.vector.kernels.NumpyKernel` — ``uint64`` planes of
  shape ``(n_nets, n_words)`` with gather + reduce per levelized batch.
  Used automatically when numpy is importable (and not disabled via
  ``REPRO_NO_NUMPY``) and the lane count spans multiple words.

Both kernels execute the same :class:`~repro.sim.vector.program.VectorProgram`
and are proven bit-identical to the pure-Python oracle in
``repro.sim.faultsim`` (the simulators' ``oracle`` flag) by the
differential test suite.
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
