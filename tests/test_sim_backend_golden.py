"""Golden oracle identity: the word-packed fault-simulation kernel is
invisible in every deliverable.

``fixtures/s27_oracle_golden.json`` holds what the pure-Python
``_GroupSim`` oracle produced for s27 at the config below (once with
the static pre-prune off, once on): the Table-6 row, Ω, the final
sequence, the detected set, the reverse-order outcome and the
normalized trace.  Every flow runs on the kernel, so the same flow —
serially, with ``--jobs 4``, against a warm cache, under chaos
injection, and with the static pre-prune armed — must reproduce that
projection exactly.  Execution strategy may only show up in the parts
normalization strips.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.core.procedure import ProcedureConfig
from repro.flows.experiments import clear_cache, flow_for
from repro.flows.full_flow import FlowConfig, run_full_flow
from repro.runtime import RuntimeContext
from repro.sim.faults import fault_name
from repro.trace import normalized_json

CHAOS = "crash=0.3,seed=7"

GOLDEN = json.loads(
    (Path(__file__).parent / "fixtures" / "s27_oracle_golden.json").read_text()
)


def _cfg(**overrides):
    kwargs = dict(
        seed=1,
        tgen_max_len=500,
        compaction_sims=30,
        procedure=ProcedureConfig(l_g=100),
        synthesize_hardware=True,
    )
    kwargs.update(overrides)
    return FlowConfig(**kwargs)


def _names(faults):
    return [fault_name(f) for f in faults]


def _projection(result, trace):
    """The fixture's shape: every deliverable, byte-comparable."""
    return {
        "table6": asdict(result.table6),
        "omega": [
            {
                "assignment": str(e.assignment),
                "detected": _names(e.detected),
                "u": e.u,
                "l_s": e.l_s,
                "row": e.row,
            }
            for e in result.procedure.omega
        ],
        "sequence": list(result.sequence.to_strings()),
        "detected": _names(result.generated.detected),
        "reverse_order": {
            "kept": [str(a) for a in result.reverse_order.kept],
            "detected_by": [_names(d) for d in result.reverse_order.detected_by],
            "dropped": [str(a) for a in result.reverse_order.dropped],
        },
        "n_pruned": None if result.pruned is None else result.pruned.n_pruned,
        "trace": json.loads(trace),
    }


def _traced_flow(circuit, cfg_overrides=None, **runtime_kwargs):
    cfg = _cfg(**(cfg_overrides or {}))
    with RuntimeContext(trace=True, **runtime_kwargs) as rt:
        result = run_full_flow(circuit, cfg, runtime=rt)
        root = rt.tracer.finish()
        return _projection(result, normalized_json(root, rt.tracer.events))


def test_vector_serial_matches_python(s27):
    assert _traced_flow(s27) == GOLDEN["plain"]


def test_vector_jobs4_matches_python(s27):
    assert _traced_flow(s27, jobs=4) == GOLDEN["plain"]


def test_vector_warm_cache_matches_python(s27, tmp_path):
    cache = tmp_path / "cache"
    assert _traced_flow(s27, cache_dir=cache) == GOLDEN["plain"]
    assert _traced_flow(s27, cache_dir=cache) == GOLDEN["plain"]


def test_vector_chaos_matches_python(s27):
    assert _traced_flow(s27, jobs=2, chaos=CHAOS) == GOLDEN["plain"]


def test_static_prune_backend_identity(s27):
    golden = GOLDEN["static_prune"]
    assert _traced_flow(s27, {"static_prune": True}) == golden
    # Pruning shows up in the trace and the prune report only.
    assert golden["n_pruned"] is not None
    assert dict(golden, trace=None, n_pruned=None) == dict(
        GOLDEN["plain"], trace=None
    )


def test_table6_row_backend_identity():
    clear_cache()
    try:
        row = flow_for("s27", l_g=100).table6
    finally:
        clear_cache()
    assert asdict(row) == GOLDEN["flow_for_table6"]
