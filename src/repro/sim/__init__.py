"""Simulation substrate: 3-valued logic simulation and stuck-at fault
simulation for synchronous sequential circuits.

The fault simulator is bit-parallel *across faults* (PROOFS-style): up
to 63 faulty machines plus the fault-free machine share one arbitrary-
precision integer word per net, and gates are evaluated once per word
with bitwise operations.  Detection uses the standard conservative
criterion for circuits without reset — a fault is detected at time ``u``
iff some primary output carries a *binary* good value and the
complementary binary faulty value.
"""

from repro.sim.values import V0, V1, VX, Value, invert, resolve_char, to_char
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.logicsim import LogicSimulator, SimTrace
from repro.sim.faults import Fault, all_faults, fault_name
from repro.sim.collapse import collapse_faults
from repro.sim.faultsim import (
    FaultSimResult,
    FaultSimulator,
    IncrementalFaultSimulator,
    detection_times,
)
from repro.sim.transition import (
    TransitionFault,
    TransitionFaultSimulator,
    all_transition_faults,
)

__all__ = [
    "V0",
    "V1",
    "VX",
    "Value",
    "invert",
    "to_char",
    "resolve_char",
    "CompiledCircuit",
    "compile_circuit",
    "LogicSimulator",
    "SimTrace",
    "Fault",
    "all_faults",
    "fault_name",
    "collapse_faults",
    "FaultSimulator",
    "FaultSimResult",
    "IncrementalFaultSimulator",
    "detection_times",
    "TransitionFault",
    "TransitionFaultSimulator",
    "all_transition_faults",
]
