"""The system under test, one cold process per operation.

``run.py`` starts this script once per measured operation, with a fresh
artifact-cache (or serve state) directory, so every operation pays the
imports, kernel codegen and cold cache writes a user pays on each
``repro`` invocation.  Modes:

``flow CIRCUIT``
    What ``repro flow CIRCUIT`` runs: ``run_full_flow`` with the CLI's
    configuration (``L_G`` 512, hardware synthesis and replay
    verification, one job).
``table6 CIRCUIT...``
    The Table-6 sweep at the benchmark configurations
    (``flow_config_for``) with two worker processes.
``serve``
    ``repro serve`` at its defaults on an ephemeral port.

The flow modes print one JSON line: ``ready`` and ``done`` timestamps
on the system-wide monotonic clock (the parent started its clock just
before spawning this process), the CPU time and peak RSS of this
process and its reaped pool workers at ``done``, and per flow its
Table-6 row, an output digest and self-consistency checks.  With
``--trace-dir`` the layer probes are installed first and their counts
written to that directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path


def _usage() -> dict:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return {
        "cpu_s": me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime,
        "rss_kb": max(me.ru_maxrss, kids.ru_maxrss),
    }


def flow_outputs(flow) -> dict:
    """Row, digest and self-consistency verdicts of one finished flow."""
    from repro.circuit.bench import write_bench
    from repro.sim.collapse import collapse_faults
    from repro.sim.faultsim import FaultSimulator

    row = asdict(flow.table6)
    omega = flow.procedure.assignments
    identity = {
        "table6": row,
        "omega": [str(a) for a in omega],
        "sequence": list(flow.sequence.to_strings()),
        "tpg": write_bench(flow.tpg.circuit) if flow.tpg is not None else None,
        "tpg_verified": flow.tpg_verified,
    }
    digest = hashlib.sha256(
        json.dumps(identity, sort_keys=True).encode("utf-8")
    ).hexdigest()
    # Independent re-simulation of T over the collapsed fault list.
    resim = FaultSimulator(flow.circuit).run(
        flow.sequence, collapse_faults(flow.circuit)
    )
    checks = {
        "det_matches_resimulation": len(resim.detected) == row["given_det"],
        "kept_subset_of_omega": all(a in omega for a in flow.reverse_order.kept),
    }
    if flow.tpg is not None or flow.tpg_verified is not None:
        checks["tpg_verified"] = flow.tpg_verified is True
    return {"row": row, "l_g": flow.procedure.l_g, "digest": digest,
            "checks": checks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("flow", "table6", "serve"))
    parser.add_argument("circuits", nargs="*")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--dir", type=Path, required=True,
                        help="fresh cache (flow modes) or state (serve) dir")
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true",
                        help="exit once ready, without running the operation")
    args = parser.parse_args(argv)

    probes = None
    if args.trace_dir is not None:
        from probes import install

        probes = install(args.trace_dir)

    if args.mode == "serve":
        import atexit

        from repro.cli import main as repro_main

        if probes is not None:
            atexit.register(probes.dump, args.trace_dir)
        return repro_main(
            ["serve", "--port", "0", "--state-dir", str(args.dir)]
        )

    from repro.core.procedure import ProcedureConfig
    from repro.flows.experiments import flow_config_for
    from repro.flows.full_flow import FlowConfig, run_full_flow
    from repro.runtime import RuntimeContext

    names = tuple(args.circuits)
    if args.mode == "flow":
        jobs = 1
        configs = [
            # repro flow's configuration (cli._cmd_flow at its defaults).
            FlowConfig(
                seed=args.seed,
                tgen_mode="random",
                procedure=ProcedureConfig(l_g=512),
                synthesize_hardware=True,
            )
        ] * len(names)
    else:
        jobs = 2
        configs = [replace(flow_config_for(n), seed=args.seed) for n in names]

    runtime = RuntimeContext(jobs=jobs, cache_dir=args.dir)
    ready = time.monotonic()
    if args.setup_only:
        runtime.close()
        print(json.dumps({"ready": ready}))
        return 0
    with runtime:
        flows = [
            run_full_flow(name, config, runtime=runtime)
            for name, config in zip(names, configs)
        ]
    done = time.monotonic()
    report = {"ready": ready, "done": done, **_usage()}
    if probes is not None:
        probes.dump(args.trace_dir)
    report["flows"] = [flow_outputs(flow) for flow in flows]
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
