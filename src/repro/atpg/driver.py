"""ATPG drivers: per-fault generation and whole-sequence assembly.

``deterministic_atpg`` targets each fault with PODEM at growing frame
counts and concatenates the resulting subsequences into one test
sequence, dropping collaterally detected faults along the way (each
PODEM test is valid from any circuit state — the unrolled model starts
from an unknown state — so concatenation in any order is sound).

``hybrid_test_sequence`` is the STRATEGATE-class substitute the flows
use when asked for maximum coverage: a fast random-walk phase first,
then deterministic targeting of the leftovers.

Every PODEM test is re-verified with the bit-parallel fault simulator
before acceptance; a test that fails verification (impossible unless
the two engines disagree) raises, so inconsistencies cannot silently
skew experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.atpg.podem import podem
from repro.atpg.unroll import unroll
from repro.circuit.netlist import Circuit
from repro.errors import ReproError
from repro.sim.compile import CompiledCircuit, compile_circuit
from repro.sim.collapse import collapse_faults
from repro.sim.faults import Fault
from repro.sim.faultsim import FaultSimulator
from repro.sim.values import V0, Value
from repro.tgen.random_tgen import GeneratedTest, generate_test_sequence
from repro.tgen.sequence import TestSequence


@dataclass(frozen=True)
class AtpgConfig:
    """Deterministic-phase knobs.

    Attributes
    ----------
    frame_schedule:
        Unrolling depths tried per fault, in order.
    backtrack_limit:
        PODEM backtrack budget per (fault, depth) attempt.
    x_fill:
        Value for unassigned PIs in extracted tests (0 keeps sequences
        deterministic; the assigned bits alone already guarantee
        detection).
    use_scoap_guidance:
        Attach SCOAP controllability to the unrolled models so PODEM's
        backtrace picks the easiest-to-justify inputs.
    """

    frame_schedule: Tuple[int, ...] = (2, 4, 8)
    backtrack_limit: int = 300
    x_fill: Value = V0
    use_scoap_guidance: bool = True


@dataclass
class AtpgResult:
    """Outcome of the deterministic phase.

    Attributes
    ----------
    sequence:
        Concatenation of all accepted per-fault subsequences.
    detected:
        Target faults the final sequence detects (re-simulated).
    aborted:
        Faults PODEM gave up on (backtrack limit or frame limit).
    exhausted:
        Faults whose decision tree was fully exhausted at the deepest
        unrolling tried (untestable *at that depth*; possibly testable
        with more frames).
    n_podem_runs:
        Total PODEM invocations.
    """

    sequence: TestSequence
    detected: Tuple[Fault, ...]
    aborted: Tuple[Fault, ...]
    exhausted: Tuple[Fault, ...]
    n_podem_runs: int


def generate_for_fault(
    circuit: Circuit,
    fault: Fault,
    config: AtpgConfig | None = None,
    compiled: CompiledCircuit | None = None,
) -> Optional[TestSequence]:
    """Generate a test subsequence detecting ``fault``, or None.

    Tries each unrolling depth in the schedule; the first PODEM success
    is extracted (frame-by-frame PI patterns, X-filled) and verified
    against the fault simulator.
    """
    cfg = config or AtpgConfig()
    comp = compiled or compile_circuit(circuit)
    sim = FaultSimulator(circuit, comp)
    scoap = _guidance(circuit, cfg)
    for n_frames in cfg.frame_schedule:
        model = unroll(comp, fault, n_frames, scoap)
        result = podem(model, cfg.backtrack_limit)
        if not result.success:
            continue
        patterns: List[Tuple[Value, ...]] = []
        for frame in range(n_frames):
            row = tuple(
                result.assignments.get(idx, cfg.x_fill)
                for idx in model.pi_of_frame(frame)
            )
            patterns.append(row)
        sequence = TestSequence(patterns)
        check = sim.run(sequence.patterns, [fault])
        if fault not in check.detection_time:
            raise ReproError(
                f"PODEM test for {fault} fails fault-simulation "
                "verification; ATPG/simulator disagreement"
            )
        return sequence
    return None


def deterministic_atpg(
    circuit: Circuit,
    faults: Sequence[Fault] | None = None,
    config: AtpgConfig | None = None,
    compiled: CompiledCircuit | None = None,
) -> AtpgResult:
    """Target every fault of ``faults`` deterministically."""
    cfg = config or AtpgConfig()
    comp = compiled or compile_circuit(circuit)
    if faults is None:
        faults = collapse_faults(circuit)
    sim = FaultSimulator(circuit, comp)

    pending = list(faults)
    accepted: List[Tuple[Value, ...]] = []
    aborted: List[Fault] = []
    exhausted: List[Fault] = []
    n_runs = 0
    scoap = _guidance(circuit, cfg)

    while pending:
        fault = pending.pop(0)
        n_runs += 1
        subsequence = None
        was_aborted = False
        for n_frames in cfg.frame_schedule:
            model = unroll(comp, fault, n_frames, scoap)
            result = podem(model, cfg.backtrack_limit)
            if result.success:
                rows = [
                    tuple(
                        result.assignments.get(idx, cfg.x_fill)
                        for idx in model.pi_of_frame(frame)
                    )
                    for frame in range(n_frames)
                ]
                subsequence = TestSequence(rows)
                break
            was_aborted = was_aborted or result.aborted
        if subsequence is None:
            (aborted if was_aborted else exhausted).append(fault)
            continue
        check = sim.run(subsequence.patterns, [fault] + pending)
        if fault not in check.detection_time:
            raise ReproError(
                f"PODEM test for {fault} fails fault-simulation "
                "verification; ATPG/simulator disagreement"
            )
        accepted.extend(subsequence.patterns)
        # Drop collateral detections (the subsequence is state-agnostic,
        # so what it detects standalone it detects in concatenation).
        detected_now = set(check.detection_time)
        pending = [f for f in pending if f not in detected_now]

    sequence = TestSequence(accepted)
    final = sim.run(sequence.patterns, list(faults)) if accepted else None
    detected = tuple(sorted(final.detection_time)) if final else ()
    return AtpgResult(
        sequence=sequence,
        detected=detected,
        aborted=tuple(aborted),
        exhausted=tuple(exhausted),
        n_podem_runs=n_runs,
    )


def _guidance(circuit: Circuit, cfg: AtpgConfig):
    """SCOAP measures for backtrace guidance, when enabled."""
    if not cfg.use_scoap_guidance:
        return None
    from repro.analysis.scoap import compute_scoap

    return compute_scoap(circuit)


def hybrid_test_sequence(
    circuit: Circuit,
    faults: Sequence[Fault] | None = None,
    seed: int = 1,
    random_max_len: int = 2000,
    atpg_config: AtpgConfig | None = None,
    compiled: CompiledCircuit | None = None,
) -> GeneratedTest:
    """Random walk first, deterministic ATPG on the leftovers.

    The STRATEGATE-class substitute: simulation-based search covers the
    random-testable bulk cheaply; PODEM mops up targetable stragglers.
    Returns the same :class:`GeneratedTest` shape the random generator
    does, so it drops into every flow unchanged.
    """
    comp = compiled or compile_circuit(circuit)
    if faults is None:
        faults = collapse_faults(circuit)
    random_phase = generate_test_sequence(
        circuit, faults, seed=seed, max_len=random_max_len, compiled=comp
    )
    if not random_phase.undetected:
        return random_phase

    det_phase = deterministic_atpg(
        circuit, list(random_phase.undetected), atpg_config, comp
    )
    combined = random_phase.sequence.concat(det_phase.sequence)
    final = FaultSimulator(circuit, comp).run(
        combined.patterns, list(faults)
    )
    return GeneratedTest(
        sequence=combined,
        detected=tuple(sorted(final.detection_time)),
        undetected=tuple(sorted(final.undetected)),
    )
