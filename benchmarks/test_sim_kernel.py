"""E22: word-packed fault-simulation kernel — speedup over the oracle.

The vector kernel packs all faults of a run into machine words and
evaluates the levelized netlist once per word instead of once per
fault group, with compiled straight-line stepping and event-driven
compaction.  This benchmark measures the single-process speedup on the
largest library circuit (g1488, full uncollapsed fault universe, a
50-cycle random binary sequence) and gates it at ≥10× — the headline
claim of the kernel.

A second row times the good machine: :class:`LogicSimulator` (a
fault-free program on the one-lane kernel) against the interpreted
per-gate reference of ``tests/logic_oracle.py``, replaying the g208
TPG that ``repro flow g208`` synthesizes, in cycles per second, gated
at ≥4×.

Correctness gate: the kernel and the oracle (``oracle=True``) return
identical detection times for every fault, and the two good machines
identical traces, before any timing is recorded.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

from repro.circuit import load_circuit
from repro.core import ProcedureConfig
from repro.flows import FlowConfig, run_full_flow
from repro.sim import FaultSimulator, LogicSimulator, V0, V1, all_faults
from repro.util.tables import format_table

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
from tests.logic_oracle import ScalarLogicSimulator  # noqa: E402

#: Required single-process speedup of the vector kernel on g1488.
SPEEDUP_GATE = 10.0

#: Required good-machine speedup over the interpreted reference.
GOOD_MACHINE_GATE = 4.0

CIRCUIT = "g1488"
CYCLES = 50
REPS = 3


def _best_of(reps, fn):
    best = None
    result = None
    for _ in range(reps):
        t0 = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_sim_kernel(benchmark, record_table):
    circuit = load_circuit(CIRCUIT)
    faults = all_faults(circuit)
    rng = random.Random(1)
    stimulus = [
        [rng.randint(0, 1) for _ in circuit.inputs] for _ in range(CYCLES)
    ]

    oracle = FaultSimulator(circuit, oracle=True)
    vector = FaultSimulator(circuit)
    run = lambda sim: sim.run(stimulus, faults, stop_when_all_detected=False)

    t_python, r_python = _best_of(REPS, lambda: run(oracle))
    t_vector, r_vector = _best_of(REPS, lambda: run(vector))

    # Identical results first; speed claims mean nothing without them.
    assert r_python.detection_time == r_vector.detection_time
    assert r_python.undetected == r_vector.undetected

    speedup = t_python / t_vector
    good = _good_machine_row()
    json_rows = [{
        "circuit": CIRCUIT,
        "n_faults": len(faults),
        "cycles": CYCLES,
        "python_s": round(t_python, 4),
        "vector_s": round(t_vector, 4),
        "speedup": round(speedup, 2),
        "detected": len(r_vector.detection_time),
    }, good]
    text = format_table(
        ["row", "circuit", "size", "cycles", "reference/s", "kernel/s",
         "speedup"],
        [["fault sim", CIRCUIT, f"{len(faults)} faults", CYCLES,
          f"{t_python:.3f}", f"{t_vector:.3f}", f"{speedup:.1f}x"],
         ["good machine", good["circuit"], f"{good['n_gates']} gates",
          good["cycles"], f"{good['reference_s']:.3f}",
          f"{good['kernel_s']:.3f}", f"{good['speedup']:.1f}x"]],
        title="E22: word-packed simulation kernel (single process)",
    )
    record_table("sim_kernel", text, rows=json_rows)

    assert good["speedup"] >= GOOD_MACHINE_GATE, (
        f"good machine {good['speedup']:.1f}x over the interpreted "
        f"reference; gate is {GOOD_MACHINE_GATE:.0f}x"
    )
    assert speedup >= SPEEDUP_GATE, (
        f"vector kernel {speedup:.1f}x over python; gate is "
        f"{SPEEDUP_GATE:.0f}x"
    )

    result = benchmark(lambda: run(vector))
    assert result.detection_time == r_python.detection_time


def _good_machine_row():
    """Replay the TPG of ``repro flow g208`` on both good machines."""
    flow = run_full_flow(
        "g208",
        FlowConfig(
            seed=1, procedure=ProcedureConfig(l_g=512),
            synthesize_hardware=True,
        ),
    )
    design = flow.tpg
    stimulus = [(V1,)] + [(V0,)] * design.total_cycles
    t_ref, r_ref = _best_of(
        1, lambda: ScalarLogicSimulator(design.circuit).run(stimulus)
    )
    # A fresh simulator per repetition: kernel construction is timed too.
    t_kernel, r_kernel = _best_of(
        REPS, lambda: LogicSimulator(design.circuit).run(stimulus)
    )
    assert r_kernel == r_ref
    return {
        "kind": "good_machine",
        "circuit": "g208 TPG",
        "n_gates": len(design.circuit.gates),
        "cycles": len(stimulus),
        "reference_s": round(t_ref, 4),
        "kernel_s": round(t_kernel, 4),
        "reference_cycles_per_s": round(len(stimulus) / t_ref),
        "kernel_cycles_per_s": round(len(stimulus) / t_kernel),
        "speedup": round(t_ref / t_kernel, 2),
    }
