"""Static compaction of sequential test sequences.

Implements omission-based static compaction in the spirit of the
vector-omission/restoration techniques of Pomeranz & Reddy: time units
are tentatively removed and the shortened sequence is re-fault-simulated;
the removal is kept only if the target fault set stays fully detected.
Block sizes shrink geometrically (delta-debugging style), so large
useless stretches go quickly while single-vector omission still runs at
the end.

The paper applies exactly this kind of static compaction to the
STRATEGATE/SEQCOM sequences before mining weights from them; shorter
``T`` directly shortens the mined subsequences.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.circuit.netlist import Circuit
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultSimulator
from repro.tgen.sequence import TestSequence
from repro.trace import traced


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of static compaction.

    Attributes
    ----------
    sequence:
        The compacted sequence (detects the full target set).
    original_length / compacted_length:
        Lengths before and after.
    n_simulations:
        Fault simulations spent.
    """

    sequence: TestSequence
    original_length: int
    compacted_length: int
    n_simulations: int

    @property
    def reduction(self) -> float:
        """Fractional length reduction achieved."""
        if not self.original_length:
            return 0.0
        return 1.0 - self.compacted_length / self.original_length


def compact_sequence(
    circuit: Circuit,
    sequence: TestSequence,
    target_faults: Sequence[Fault],
    max_simulations: int = 200,
    compiled: CompiledCircuit | None = None,
    runtime=None,
) -> CompactionResult:
    """Statically compact ``sequence`` while preserving detection of
    every fault in ``target_faults``.

    Parameters
    ----------
    circuit:
        The circuit under test.
    sequence:
        A sequence known to detect all of ``target_faults``.
    target_faults:
        The faults that must remain detected.
    max_simulations:
        Budget of fault-simulation checks; compaction stops early when
        it is exhausted (the current best sequence is returned).
    compiled:
        Optional pre-compiled circuit to reuse.
    runtime:
        Optional :class:`~repro.runtime.context.RuntimeContext` for
        cached / parallel fault simulation.
    """
    comp = compiled or compile_circuit(circuit)
    sim = FaultSimulator(circuit, comp, runtime=runtime)
    faults = list(target_faults)
    checks = 0

    def detects_all(candidate: TestSequence) -> bool:
        nonlocal checks
        checks += 1
        result = sim.run(candidate.patterns, faults)
        return not result.undetected

    original_length = len(sequence)
    if not faults or not len(sequence):
        return CompactionResult(sequence, original_length, len(sequence), 0)

    with traced(
        runtime,
        "static_compaction",
        length=original_length,
        budget=max_simulations,
    ):
        # Free truncation: nothing after the last detection time is useful.
        result = sim.run(sequence.patterns, faults)
        checks += 1
        if result.undetected:
            raise ValueError(
                f"sequence does not detect {len(result.undetected)} of the "
                "target faults"
            )
        last_needed = max(result.detection_time.values())
        current = sequence.prefix(last_needed + 1)

        block = max(1, len(current) // 2)
        while block >= 1 and checks < max_simulations:
            start = len(current) - block
            progressed = False
            while start >= 0 and checks < max_simulations:
                candidate = TestSequence(
                    current.patterns[:start] + current.patterns[start + block :]
                )
                if len(candidate) and detects_all(candidate):
                    current = candidate
                    progressed = True
                    start -= block
                else:
                    start -= max(1, block // 2) if block > 1 else 1
            if block == 1 and not progressed:
                break
            block //= 2

    return CompactionResult(
        sequence=current,
        original_length=original_length,
        compacted_length=len(current),
        n_simulations=checks,
    )
