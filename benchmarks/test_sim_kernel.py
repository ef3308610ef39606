"""E22: word-packed fault-simulation kernel — speedup over the oracle.

The vector kernel packs all faults of a run into machine words and
evaluates the levelized netlist once per word instead of once per
fault group, with compiled straight-line stepping and event-driven
compaction.  This benchmark measures the single-process speedup on the
largest library circuit (g1488, full uncollapsed fault universe, a
50-cycle random binary sequence) and gates it at ≥10× — the headline
claim of the kernel.

Correctness gate: the kernel and the oracle (``oracle=True``) return
identical detection times for every fault before any timing is
recorded.
"""

from __future__ import annotations

import random
import time

from repro.circuit import load_circuit
from repro.sim import FaultSimulator, all_faults
from repro.util.tables import format_table

#: Required single-process speedup of the vector kernel on g1488.
SPEEDUP_GATE = 10.0

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
    json_rows = [{
        "circuit": CIRCUIT,
        "n_faults": len(faults),
        "cycles": CYCLES,
        "python_s": round(t_python, 4),
        "vector_s": round(t_vector, 4),
        "speedup": round(speedup, 2),
        "detected": len(r_vector.detection_time),
    }]
    text = format_table(
        ["circuit", "faults", "cycles", "python/s", "vector/s", "speedup"],
        [[CIRCUIT, len(faults), CYCLES, f"{t_python:.3f}",
          f"{t_vector:.3f}", f"{speedup:.1f}x"]],
        title="E22: word-packed fault-simulation kernel (single process)",
    )
    record_table("sim_kernel", text, rows=json_rows)

    assert speedup >= SPEEDUP_GATE, (
        f"vector kernel {speedup:.1f}x over python; gate is "
        f"{SPEEDUP_GATE:.0f}x"
    )

    result = benchmark(lambda: run(vector))
    assert result.detection_time == r_python.detection_time
