"""Per-layer probes: call counts and busy time at each layer's public API.

The probes wrap public callables of the program from outside — no
program file is edited.  :func:`install` replaces every probed
function or method with a timing wrapper, in its defining module and in
every already-imported ``repro`` module that bound it by name, so
``from x import f`` call sites are covered too.  Timing is inclusive
and counts only the outermost call of a probe, so recursion and
``run_batch`` calling ``run`` are not double counted.

Counters live in one :class:`Probes` object per process.  Worker
processes forked by the runtime's process pool inherit the wrappers; an
after-fork hook zeroes their counters and registers an exit finalizer,
so each worker writes its own counts to the trace directory when the
pool shuts it down.  :func:`merge_dumps` adds every file up.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

#: (metric prefix, module, attribute path) for every probed callable.
#: Several targets may share one prefix (both kernel packings are "the
#: kernel step"; ``run_batch`` is a batched full run).
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("sim.build_program", "repro.sim.vector.program", "build_program"),
    ("sim.make_kernel", "repro.sim.vector.kernels", "make_kernel"),
    ("sim.kernel_step", "repro.sim.vector.kernels", "IntKernel.step"),
    ("sim.kernel_step", "repro.sim.vector.kernels", "NumpyKernel.step"),
    ("sim.faultsim.run", "repro.sim.faultsim", "FaultSimulator.run"),
    ("sim.faultsim.run", "repro.sim.faultsim", "FaultSimulator.run_batch"),
    ("sim.faultsim.screen", "repro.sim.faultsim", "FaultSimulator.detects_any"),
    ("sim.faultsim.screen", "repro.sim.faultsim",
     "FaultSimulator.detects_any_batch"),
    ("sim.logicsim.run", "repro.sim.logicsim", "LogicSimulator.run"),
    ("hw.synthesize_tpg", "repro.hw.tpg", "synthesize_tpg"),
    ("hw.qm.minimize", "repro.hw.qm", "minimize"),
    ("hw.verify_tpg", "repro.hw.verify", "verify_tpg"),
    ("tgen.generate_test_sequence", "repro.tgen.random_tgen",
     "generate_test_sequence"),
    ("tgen.compact_sequence", "repro.tgen.compaction", "compact_sequence"),
    ("core.select_weight_assignments", "repro.core.procedure",
     "select_weight_assignments"),
    ("core.candidate_sets", "repro.core.candidates", "candidate_sets"),
    ("core.reverse_order_simulation", "repro.core.postprocess",
     "reverse_order_simulation"),
    ("runtime.cache.get", "repro.runtime.cache", "ArtifactCache.get"),
    ("runtime.cache.put", "repro.runtime.cache", "ArtifactCache.put"),
)

#: Modules imported before wrapping, so that by-name bindings exist.
_ROOT_MODULES = ("repro.flows.experiments", "repro.serve", "repro.cli")


class Probes:
    """Counters of one process: ``<prefix>.calls``/``.s`` plus extras."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        self.depth: Dict[str, int] = defaultdict(int)
        self.runtime_stats: List[Any] = []

    def reset(self) -> None:
        self.counts.clear()
        self.depth.clear()
        self.runtime_stats.clear()

    def snapshot(self) -> Dict[str, float]:
        """Counts so far, with the runtime contexts' executor counters."""
        out = dict(self.counts)
        for stats in self.runtime_stats:
            out["runtime.executor.tasks"] = (
                out.get("runtime.executor.tasks", 0.0) + stats.tasks_dispatched
            )
            out["runtime.executor.s"] = (
                out.get("runtime.executor.s", 0.0) + stats.parallel_wall_s
            )
            out["runtime.executor.busy_s"] = (
                out.get("runtime.executor.busy_s", 0.0) + stats.worker_busy_s
            )
            out["runtime.executor.capacity_s"] = (
                out.get("runtime.executor.capacity_s", 0.0)
                + stats.parallel_wall_s * max(stats.jobs, 1)
            )
            out["runtime.executor.speculative_discards"] = (
                out.get("runtime.executor.speculative_discards", 0.0)
                + stats.speculative_discards
            )
        return out

    def dump(self, directory: Path) -> None:
        path = directory / f"probe-{os.getpid()}.json"
        path.write_text(json.dumps(self.snapshot(), sort_keys=True))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, prefix: str, fn: Callable) -> Callable:
        counts = self.counts
        depth = self.depth
        extra = _EXTRAS.get(prefix)

        @functools.wraps(fn)
        def probe(*args: Any, **kwargs: Any) -> Any:
            if depth[prefix]:
                return fn(*args, **kwargs)
            depth[prefix] += 1
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                counts[prefix + ".s"] += time.perf_counter() - t0
                counts[prefix + ".calls"] += 1
                depth[prefix] -= 1
            if extra is not None:
                extra(counts, args, kwargs, result)
            return result

        return probe


# -- per-probe extra counters ------------------------------------------------


def _kernel_step_extra(counts, args, _kwargs, _result) -> None:
    kernel = args[0]
    program = kernel.program
    counts["sim.kernel_step.gate_lane_cycles"] += (
        len(program.flat_ops) * program.lanes * kernel.n_blocks
    )


def _logicsim_extra(counts, args, kwargs, _result) -> None:
    stimulus = args[1] if len(args) > 1 else kwargs["stimulus"]
    counts["sim.logicsim.cycles"] += len(stimulus)


def _procedure_extra(counts, _args, _kwargs, result) -> None:
    counts["core.omega"] += len(result.omega)
    counts["core.sample_screens"] += result.stats.sample_screens


def _cache_get_extra(counts, _args, _kwargs, result) -> None:
    if result is not None:
        counts["runtime.cache.get.hits"] += 1


def _cache_put_extra(counts, args, _kwargs, _result) -> None:
    cache, key = args[0], args[1]
    try:
        counts["runtime.cache.put.bytes"] += cache._path(key).stat().st_size
    except OSError:
        pass  # an unusable cache root skips the store; nothing was written


_EXTRAS: Dict[str, Callable[..., None]] = {
    "sim.kernel_step": _kernel_step_extra,
    "sim.logicsim.run": _logicsim_extra,
    "core.select_weight_assignments": _procedure_extra,
    "runtime.cache.get": _cache_get_extra,
    "runtime.cache.put": _cache_put_extra,
}


# -- installation ------------------------------------------------------------


def install(trace_dir: Path) -> Probes:
    """Wrap every target in this process; return the live counters.

    Forked workers zero their counters and write them to ``trace_dir``
    when they exit; the calling process writes its own with
    :meth:`Probes.dump`.
    """
    import multiprocessing.util as mp_util

    for name in _ROOT_MODULES:
        importlib.import_module(name)
    probes = Probes()
    for prefix, module_name, attr_path in TARGETS:
        module = importlib.import_module(module_name)
        owner: Any = module
        *owners, attr = attr_path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        wrapped = probes.wrap(prefix, original)
        setattr(owner, attr, wrapped)
        if owner is module:
            _rebind(original, wrapped)

    from repro.runtime.context import RuntimeContext

    original_init = RuntimeContext.__init__

    @functools.wraps(original_init)
    def init(self: Any, *args: Any, **kwargs: Any) -> None:
        original_init(self, *args, **kwargs)
        probes.runtime_stats.append(self.stats)

    RuntimeContext.__init__ = init  # type: ignore[method-assign]

    def after_fork(p: Probes) -> None:
        p.reset()
        mp_util.Finalize(None, p.dump, args=(trace_dir,), exitpriority=10)

    mp_util.register_after_fork(probes, after_fork)
    return probes


def _rebind(original: Callable, wrapped: Callable) -> None:
    """Point every ``repro`` module's by-name binding of ``original``
    at ``wrapped``."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def merge_dumps(trace_dir: Path) -> Dict[str, float]:
    """Sum every process's dump in ``trace_dir``."""
    total: Dict[str, float] = defaultdict(float)
    for path in sorted(trace_dir.glob("probe-*.json")):
        for key, value in json.loads(path.read_text()).items():
            total[key] += value
    return dict(total)
