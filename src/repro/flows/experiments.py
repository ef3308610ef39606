"""Experiment drivers shared by the benchmark harness.

Flows are expensive (pure-Python fault simulation), so results are
cached per (circuit, configuration) within the process: the Table-6
bench, the Tables-7-16 bench and the Figure-1 bench all reuse one flow
per circuit instead of recomputing it.

Suites
------
``DEFAULT_SUITE`` holds the circuits the benchmarks run by default;
``FULL_SUITE`` adds the larger synthetic stand-ins (set the environment
variable ``REPRO_FULL_SUITE=1`` to make the benches use it — runtimes
grow to tens of minutes in pure Python).

``L_G`` defaults: the paper uses ``L_G = 2000`` everywhere.  The
benches use 2000 for the tiny ``s27`` and scale down to 512 for the
synthetic stand-ins to bound runtime; EXPERIMENTS.md records the values
used.  Override per call if desired.
"""

from __future__ import annotations

import os
from dataclasses import asdict, fields
from typing import Dict, List, Optional, Tuple

from repro.core.procedure import ProcedureConfig
from repro.core.report import Table6Row
from repro.flows.full_flow import FlowConfig, FlowResult, run_full_flow
from repro.obs.tradeoff import TradeoffRow, observation_point_tradeoff
from repro.resilience.journal import flow_journal_key
from repro.trace import trace_event, traced

DEFAULT_SUITE: Tuple[str, ...] = ("s27", "g208", "g298", "g344", "g386")
FULL_SUITE: Tuple[str, ...] = DEFAULT_SUITE + (
    "g382",
    "g400",
    "g420",
    "g444",
    "g526",
    "g641",
)

#: L_G per circuit (paper value for s27; bounded for the stand-ins).
LG_BY_CIRCUIT: Dict[str, int] = {"s27": 2000}
DEFAULT_LG = 512

_FLOW_CACHE: Dict[Tuple, FlowResult] = {}


def active_suite() -> Tuple[str, ...]:
    """The benchmark suite, honouring ``REPRO_FULL_SUITE``."""
    # Selects *which* circuits run, never their results.
    if os.environ.get("REPRO_FULL_SUITE"):  # lint: ignore[D104]
        return FULL_SUITE
    return DEFAULT_SUITE


def flow_config_for(circuit_name: str, l_g: int | None = None) -> FlowConfig:
    """The benchmark configuration for one circuit."""
    if l_g is None:
        l_g = LG_BY_CIRCUIT.get(circuit_name, DEFAULT_LG)
    return FlowConfig(
        seed=1,
        tgen_max_len=2000,
        compaction_sims=60,
        procedure=ProcedureConfig(l_g=l_g),
    )


def flow_for(
    circuit_name: str,
    l_g: int | None = None,
    runtime=None,
) -> FlowResult:
    """Run (or fetch from cache) the full flow for ``circuit_name``.

    ``runtime`` (a :class:`~repro.runtime.context.RuntimeContext`) is
    only consulted on a cache miss; results are runtime-independent so
    the in-process cache stays valid either way.
    """
    cfg = flow_config_for(circuit_name, l_g)
    key = (circuit_name, cfg.procedure.l_g, cfg.seed)
    if key not in _FLOW_CACHE:
        _FLOW_CACHE[key] = run_full_flow(circuit_name, cfg, runtime=runtime)
    return _FLOW_CACHE[key]


def _checkpointed_row(circuit_name: str, runtime) -> Optional[Table6Row]:
    """The circuit's journaled Table-6 row, if resumable.

    Only consulted when ``runtime`` carries a checkpoint journal *and*
    was built with ``resume=True``.  The payload is validated field by
    field — a stale, corrupt or foreign checkpoint is ignored and the
    circuit recomputed.
    """
    if runtime is None or not getattr(runtime, "resume", False):
        return None
    journal = getattr(runtime, "journal", None)
    if journal is None:
        return None
    cfg = flow_config_for(circuit_name)
    payload = journal.get(flow_journal_key(circuit_name, asdict(cfg)))
    if not isinstance(payload, dict) or payload.get("kind") != "flow":
        return None
    raw = payload.get("table6")
    if not isinstance(raw, dict):
        return None
    expected = [f.name for f in fields(Table6Row)]
    if sorted(raw) != sorted(expected):
        return None
    row = Table6Row(**raw)
    if row.circuit != circuit_name:
        return None
    return row


def table6_rows(
    circuit_names: Tuple[str, ...] | None = None,
    runtime=None,
) -> List[Table6Row]:
    """Regenerate the paper's Table 6 over ``circuit_names``.

    With a resuming runtime (``RuntimeContext(resume=True)`` / the
    CLI's ``--resume``), circuits already checkpointed by an earlier —
    possibly interrupted — sweep are skipped and their journaled rows
    returned as-is; the final table is identical to an uninterrupted
    run because each checkpoint is the completed row itself.
    """
    names = circuit_names or active_suite()
    rows: List[Table6Row] = []
    with traced(runtime, "table6_sweep", circuits=len(names)):
        for name in names:
            row = _checkpointed_row(name, runtime)
            if row is not None:
                runtime.stats.journal_skips += 1
                trace_event(runtime, "journal_skip", circuit=name)
                rows.append(row)
                continue
            rows.append(flow_for(name, runtime=runtime).table6)
    return rows


def tradeoff_for(
    circuit_name: str, max_prefix: int | None = None, runtime=None
) -> List[TradeoffRow]:
    """Regenerate a Tables-7-16 style tradeoff table for one circuit."""
    flow = flow_for(circuit_name, runtime=runtime)
    return observation_point_tradeoff(
        flow.circuit, flow.procedure, max_prefix=max_prefix, runtime=runtime
    )


def clear_cache() -> None:
    """Drop all cached flow results (mainly for tests)."""
    _FLOW_CACHE.clear()
