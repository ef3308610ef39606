"""Fault-free 3-valued sequential simulation on the vector kernel.

:class:`LogicSimulator` runs the good machine alone: a fault-free
:class:`~repro.sim.vector.program.VectorProgram` stepped by a one-lane
:class:`~repro.sim.vector.kernels.IntKernel`, the same generated step
the fault simulator uses, with the dual-rail rows decoded back to
ternary values.  It serves everything that needs only fault-free
behaviour: replay verification of a synthesized test pattern
generator, MISR grading, closure, diagnosis and the transition-fault
good machine.  The test suite checks it against an interpreted
per-gate reference simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.values import V0, V1, VX, Value
from repro.sim.vector.kernels import IntKernel
from repro.sim.vector.program import build_program

#: Ternary value of a one-lane dual-rail pair, indexed by ``o | z << 1``.
_DECODE = (VX, V1, V0)


@dataclass(frozen=True)
class SimTrace:
    """Result of simulating an input sequence.

    Attributes
    ----------
    outputs:
        Per time unit, the ternary values of the primary outputs
        (port order).
    states:
        Per time unit, the ternary values of the flip-flop outputs at
        the *start* of the cycle (i.e. the present state that cycle).
    nets:
        Per time unit, the ternary values of every net (dense index
        order); only populated when ``record_nets=True``.
    """

    outputs: Tuple[Tuple[Value, ...], ...]
    states: Tuple[Tuple[Value, ...], ...]
    nets: Tuple[Tuple[Value, ...], ...] = ()

    def __len__(self) -> int:
        return len(self.outputs)


class LogicSimulator:
    """3-valued sequential simulator for one circuit's good machine.

    Each :meth:`run` starts from the given initial state (all-X by
    default, matching the no-reset assumption of the reproduced paper).
    The kernel is built on the first run and reused by later ones.
    """

    def __init__(self, circuit: Circuit, compiled: CompiledCircuit | None = None) -> None:
        self.circuit = circuit
        self.compiled = compiled or compile_circuit(circuit)
        self._kernel: IntKernel | None = None

    def run(
        self,
        stimulus: Sequence[Sequence[Value]],
        initial_state: Sequence[Value] | None = None,
        record_nets: bool = False,
    ) -> SimTrace:
        """Simulate ``stimulus`` and return the trace.

        Parameters
        ----------
        stimulus:
            One entry per time unit; each entry gives the ternary value
            of every primary input in port order.
        initial_state:
            Flip-flop values at time 0 (``circuit.flops`` order);
            defaults to all X.
        record_nets:
            When true, the trace includes every net's value at every
            time unit (used by observability analysis and debugging).
        """
        comp = self.compiled
        n_pi = len(comp.pi_indices)
        if self._kernel is None:
            self._kernel = IntKernel(build_program(comp, {}, ()), word_bits=1)
        kern = self._kernel
        if initial_state is None:
            kern.reset_state()
        else:
            if len(initial_state) != len(comp.ff_indices):
                raise SimulationError(
                    f"initial state has {len(initial_state)} values, "
                    f"circuit has {len(comp.ff_indices)} flip-flops"
                )
            kern.S_O = [int(v == V1) for v in initial_state]
            kern.S_Z = [int(v == V0) for v in initial_state]

        O, Z = kern.O, kern.Z
        po_rows = comp.po_indices
        outputs: List[Tuple[Value, ...]] = []
        states: List[Tuple[Value, ...]] = []
        net_trace: List[Tuple[Value, ...]] = []
        for u, pattern in enumerate(stimulus):
            if len(pattern) != n_pi:
                raise SimulationError(
                    f"time {u}: pattern has {len(pattern)} values, "
                    f"circuit has {n_pi} primary inputs"
                )
            for value in pattern:
                if value not in (V0, V1, VX):
                    raise SimulationError(f"time {u}: bad ternary value {value!r}")
            states.append(
                tuple(_DECODE[o | z << 1] for o, z in zip(kern.S_O, kern.S_Z))
            )
            kern.step((pattern,))
            outputs.append(tuple(_DECODE[O[i] | Z[i] << 1] for i in po_rows))
            if record_nets:
                net_trace.append(
                    tuple(_DECODE[o | z << 1] for o, z in zip(O, Z))
                )

        return SimTrace(
            outputs=tuple(outputs),
            states=tuple(states),
            nets=tuple(net_trace),
        )
