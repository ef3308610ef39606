"""Interpreted scalar reference for the fault-free simulator.

One ternary value per net, one gate at a time, in the compiled
topological order: the plainest reading of the 3-valued semantics.
:class:`~repro.sim.logicsim.LogicSimulator` runs the good machine on the
vector kernel instead; the differential tests prove the two return the
same :class:`~repro.sim.logicsim.SimTrace`, and the fault-simulator
cross-checks use this reference so the kernel is never checked against
itself.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.circuit.netlist import Circuit
from repro.errors import SimulationError
from repro.sim.compile import (
    CompiledCircuit,
    OP_AND,
    OP_BUF,
    OP_NAND,
    OP_NOR,
    OP_NOT,
    OP_OR,
    OP_XNOR,
    OP_XOR,
    compile_circuit,
)
from repro.sim.logicsim import SimTrace
from repro.sim.values import (
    V0,
    V1,
    VX,
    Value,
    and_reduce,
    invert,
    or_reduce,
    xor_reduce,
)


class ScalarLogicSimulator:
    """Levelized, interpreted 3-valued sequential simulator."""

    def __init__(self, circuit: Circuit, compiled: CompiledCircuit | None = None) -> None:
        self.circuit = circuit
        self.compiled = compiled or compile_circuit(circuit)

    def run(
        self,
        stimulus: Sequence[Sequence[Value]],
        initial_state: Sequence[Value] | None = None,
        record_nets: bool = False,
    ) -> SimTrace:
        """Same contract as :meth:`repro.sim.logicsim.LogicSimulator.run`."""
        comp = self.compiled
        n_pi = len(comp.pi_indices)
        n_ff = len(comp.ff_indices)
        if initial_state is None:
            state: List[Value] = [VX] * n_ff
        else:
            if len(initial_state) != n_ff:
                raise SimulationError(
                    f"initial state has {len(initial_state)} values, "
                    f"circuit has {n_ff} flip-flops"
                )
            state = list(initial_state)

        values: List[Value] = [VX] * comp.n_nets
        outputs: List[Tuple[Value, ...]] = []
        states: List[Tuple[Value, ...]] = []
        net_trace: List[Tuple[Value, ...]] = []

        for u, pattern in enumerate(stimulus):
            if len(pattern) != n_pi:
                raise SimulationError(
                    f"time {u}: pattern has {len(pattern)} values, "
                    f"circuit has {n_pi} primary inputs"
                )
            for idx, value in zip(comp.pi_indices, pattern):
                if value not in (V0, V1, VX):
                    raise SimulationError(f"time {u}: bad ternary value {value!r}")
                values[idx] = value
            for idx, value in zip(comp.ff_indices, state):
                values[idx] = value
            for idx in comp.const0_indices:
                values[idx] = V0
            for idx in comp.const1_indices:
                values[idx] = V1

            for opcode, out, fanins in comp.ops:
                values[out] = _eval_op(opcode, fanins, values)

            outputs.append(tuple(values[idx] for idx in comp.po_indices))
            states.append(tuple(state))
            if record_nets:
                net_trace.append(tuple(values))
            state = [values[idx] for idx in comp.ff_next_indices]

        return SimTrace(
            outputs=tuple(outputs),
            states=tuple(states),
            nets=tuple(net_trace),
        )


def _eval_op(opcode: int, fanins: Tuple[int, ...], values: List[Value]) -> Value:
    """Evaluate one compiled gate in scalar ternary logic."""
    ins = [values[f] for f in fanins]
    if opcode == OP_AND:
        return and_reduce(ins)
    if opcode == OP_NAND:
        return invert(and_reduce(ins))
    if opcode == OP_OR:
        return or_reduce(ins)
    if opcode == OP_NOR:
        return invert(or_reduce(ins))
    if opcode == OP_XOR:
        return xor_reduce(ins)
    if opcode == OP_XNOR:
        return invert(xor_reduce(ins))
    if opcode == OP_NOT:
        return invert(ins[0])
    if opcode == OP_BUF:
        return ins[0]
    raise SimulationError(f"unknown opcode {opcode}")
