"""The repository benchmark: cold flows, a parallel Table-6 sweep and serve.

Run one workload::

    python3 perfbench/run.py --workload flow_g208_hw --seed 1 --seconds 30 --trace 0

or every workload, printing each end-to-end metric by name and unit::

    python3 perfbench/run.py --workload all

Workloads (why each was chosen is in ``BENCHMARK.json``):

``flow_g208_hw``
    ``repro flow g208``: one cold process per operation, one job, two
    operations at a time (one per core).
``table6_jobs2``
    The Table-6 sweep over ``DEFAULT_SUITE`` in one cold process with
    two pool workers.
``serve_s27_closed``
    ``repro serve`` at its defaults, driven by two closed-loop client
    threads submitting small distinct-seed s27 jobs; every fourth
    submission repeats a finished spec so the dedup path runs too.

Every operation runs in a fresh process with a fresh artifact-cache or
serve state directory, so nothing warms across operations or runs; the
child environment drops every ``REPRO_*`` variable.  A run measures
operations for about ``--seconds`` (at least one operation), checks
every output, and prints as its last line one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record of the run (samples, digests, checks, host facts) is
written as a schema-v2 benchmark envelope under ``.perfbench/results``,
which ``repro campaign ingest`` accepts.

Inputs and checks.  The measured flow operations run at flow seed 1,
the CLI default, and their Table-6 rows must equal the committed
``benchmarks/results/table6.txt`` rows; all measured operations of a
run must produce the same output digest (Table-6 row, Omega, ``T``,
TPG netlist and verdict).  The workload seed derives the flow seed of
one untimed held-out operation per run, which must pass the
self-consistency checks (TPG replay verified, ``det`` equal to a fresh
fault simulation of ``T``, reverse-order keep-set inside Omega), and
the seeds of the serve jobs, whose result bytes must be self-consistent,
identical on every dedup repeat, and (for the first two jobs) identical
to a direct ``run_full_flow``.  A failed check counts the operation as
failed; it does not stop the run.

End-to-end metrics (tracing off).  Times are host seconds scaled to a
reference core speed: each run times a fixed pure-Python calibration
loop before and after its work, and divides every time (multiplies
``jobs_per_s``) by the ratio of that loop's median time to its time on
the reference core.  On a 2-vCPU KVM guest the host's core speed swung
1.6x between half-hour periods (a g208 flow took 7.4 s in one and 11.9 s
in another; the loop 25 ms and 40 ms); scaling removes that shift from
the gate.  The report and the artifact also carry the raw host values.

``wall_s``
    Median latency of one operation as its caller sees it: the flow
    process from spawn to result, the sweep process likewise, a serve
    job from submit to fetched result.  It is also ``latency_p50_s``.
``jobs_per_s``
    Operations completed per second of the measured window.
``cpu_s``
    User+system CPU seconds per operation of the system's process tree
    (pool workers included; for serve, the server over the window).
``peak_rss_mb``
    Largest resident set of any process of the system.
``setup_s``
    Median time from process start to ready (imports and runtime
    context, or the server listening) over twelve set-up-only launches,
    half before and half after the measured window.

The report also prints ``latency_p50_s``, ``latency_p90_s`` (exact,
nearest rank, with the sample count) and ``failed_frac`` (failed,
refused or wrong operations over attempted).  They are not gated:
``failed_frac`` is the result line's ``failed``/``attempted`` pair,
and a p90 over the few operations of a flow run is its maximum.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.util
import json
import math
import os
import queue
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from probes import merge_dumps

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
SUT = HERE / "sut.py"
SPEC = ROOT / "BENCHMARK.json"
"""Workload reasons and metric names and units."""

ARTIFACT_SCHEMA_VERSION = 2
"""The envelope version ``benchmarks/conftest.py`` writes."""

#: Seed-1 Table-6 rows, keyed by (circuit, L_G), as committed in
#: benchmarks/results/table6.txt.  The flow workload's g208 row uses the
#: same configuration as the sweep's.
REFERENCE_ROWS: Dict[Tuple[str, int], Tuple[int, ...]] = {
    ("s27", 2000): (15, 32, 4, 9, 3, 3, 8),
    ("g208", 512): (96, 317, 21, 30, 6, 5, 22),
    ("g298", 512): (51, 274, 2, 6, 42, 2, 6),
    ("g344", 512): (222, 483, 19, 32, 6, 5, 27),
    ("g386", 512): (12, 271, 7, 6, 2, 2, 4),
}
ROW_FIELDS = ("given_len", "given_det", "n_sequences", "n_subsequences",
              "max_length", "n_fsms", "n_fsm_outputs")

SETUP_ROUNDS = 3
"""Rounds of two simultaneous set-up-only launches (one per core), made
before and again after the measured window: set-up time is short and
follows the cores' speed, so ``setup_s`` is the median of all twelve."""

CHILD_TIMEOUT_S = 150.0

CALIBRATION_REPS = 40
"""Calibration repetitions made before and again after each run."""

REFERENCE_REP_S = 0.0125
"""Time of one calibration repetition on the reference core: a 2-vCPU
Xeon KVM guest in its fast state (measured median 13.4 ms)."""

# -- small helpers -------------------------------------------------------------


def quantile(values: List[float], q: float) -> float:
    """Exact nearest-rank quantile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def calibration_rep() -> float:
    """Time one fixed pure-Python loop of big-int, list and dict work,
    the operations the simulators spend their time in."""
    t0 = time.perf_counter()
    acc = 0
    x = (1 << 200) - 12345
    table: Dict[int, int] = {}
    lanes = list(range(64))
    for i in range(50_000):
        acc ^= (x >> (i & 63)) & ((acc | i) << 3)
        lanes[i & 63] = acc & 0xFF
        if i & 7 == 0:
            table[i & 1023] = lanes[(i >> 3) & 63]
    return time.perf_counter() - t0


def calibrated(raw: Dict[str, float], slowdown: float) -> Dict[str, float]:
    """End-to-end metrics scaled to the reference core's speed."""
    out = {k: v / slowdown for k, v in raw.items()}
    out["jobs_per_s"] = raw["jobs_per_s"] * slowdown
    out["peak_rss_mb"] = raw["peak_rss_mb"]
    return out


def child_env() -> Dict[str, str]:
    """The environment of every system process: no ``REPRO_*`` knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def host_facts() -> Dict[str, Any]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=10,
        )
        describe = proc.stdout.strip() if proc.returncode == 0 else ""
    except (OSError, subprocess.SubprocessError):
        describe = ""
    return {
        "host_cpus": os.cpu_count() or 1,
        "python": sys.version.split()[0],
        "numpy": importlib.util.find_spec("numpy") is not None,
        "git_describe": describe,
    }


class Run:
    """One benchmark run: its settings and its scratch directory."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, tiny: bool, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tiny = tiny
        self.work = work
        self._n = 0
        self._lock = threading.Lock()

    def fresh_dir(self, label: str) -> Path:
        with self._lock:
            self._n += 1
            path = self.work / f"{self._n:04d}-{label}"
        path.mkdir(parents=True)
        return path


class Phase:
    """The operations of one measured window."""

    def __init__(self) -> None:
        self.latencies: List[float] = []
        self.cpu: List[float] = []  # per operation
        self.rss_kb: List[int] = []
        self.attempted = 0
        self.failed = 0
        self.window_s = 0.0
        self.samples: List[Dict[str, Any]] = []
        self.layers: List[Dict[str, float]] = []
        self.extra: Dict[str, Any] = {}


def setup_samples(probe: Callable[[], float]) -> List[float]:
    """``SETUP_ROUNDS`` rounds of two simultaneous ``probe`` calls."""
    out: List[float] = []
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(SETUP_ROUNDS):
            futures = [pool.submit(probe), pool.submit(probe)]
            out += [future.result() for future in futures]
    return out


def fail(sample: Dict[str, Any], reason: str) -> None:
    """Mark one operation failed (it still counts as attempted)."""
    sample.setdefault("errors", []).append(reason)


# -- flow workloads --------------------------------------------------------------

#: The flow seed of every measured flow operation: ``repro flow`` and the
#: Table-6 benches default to it, and the reference rows are its output.
#: Fixing it keeps the measured work identical across workload seeds (a
#: g208 flow takes 6-12 s depending on the flow seed, a sweep 25-30 s);
#: the workload seed drives the held-out check operation instead.
MEASURED_FLOW_SEED = 1

#: Circuits of the sweep's held-out check: its three smallest, which
#: bounds the check's run time.
SWEEP_HELD_OUT = ["s27", "g208", "g386"]


def held_out_seed(seed: int) -> int:
    """The flow seed of a run's held-out check; never the reference seed."""
    return random.Random(seed).randrange(2, 1_000_000)


def launch(run: Run, mode: str, circuits: List[str], flow_seed: int,
           setup_only: bool = False,
           trace_dir: Optional[Path] = None) -> Dict[str, Any]:
    """Start one cold system process; return its report plus timings."""
    cmd = [sys.executable, str(SUT), mode, *circuits, "--seed", str(flow_seed),
           "--dir", str(run.fresh_dir("cache"))]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    report["flow_seed"] = flow_seed
    report["setup_s"] = report["ready"] - t0
    if not setup_only:
        report["wall_s"] = report["done"] - t0
    return report


def check_flows(sample: Dict[str, Any]) -> List[str]:
    """Self-consistency and, at the reference seed, reference-row verdicts."""
    errors = []
    for flow in sample["flows"]:
        row = flow["row"]
        for name, ok in sorted(flow["checks"].items()):
            if not ok:
                errors.append(f"{row['circuit']}: check {name} failed")
        key = (row["circuit"], flow["l_g"])
        if sample["flow_seed"] == 1 and key in REFERENCE_ROWS:
            got = tuple(row[f] for f in ROW_FIELDS)
            if got != REFERENCE_ROWS[key]:
                errors.append(
                    f"{row['circuit']}: row {got} != reference "
                    f"{REFERENCE_ROWS[key]}"
                )
    return errors


def flow_phase(run: Run, mode: str, circuits: List[str], traced: bool,
               concurrent: int) -> Phase:
    """Rounds of ``concurrent`` simultaneous cold operations."""
    phase = Phase()
    digests = set()
    durations: List[float] = []
    start = time.monotonic()
    with ThreadPoolExecutor(max_workers=concurrent) as pool:
        while True:
            trace_dirs = [run.fresh_dir("trace") if traced else None
                          for _ in range(concurrent)]
            t0 = time.monotonic()
            futures = [
                pool.submit(launch, run, mode, circuits, MEASURED_FLOW_SEED,
                            trace_dir=trace_dir)
                for trace_dir in trace_dirs
            ]
            samples = [future.result() for future in futures]
            durations.append(time.monotonic() - t0)
            for sample, trace_dir in zip(samples, trace_dirs):
                phase.attempted += 1
                if "error" in sample:
                    fail(sample, sample.pop("error"))
                else:
                    phase.latencies.append(sample["wall_s"])
                    phase.cpu.append(sample["cpu_s"])
                    phase.rss_kb.append(sample["rss_kb"])
                    for error in check_flows(sample):
                        fail(sample, error)
                    digests.add(tuple(f["digest"] for f in sample["flows"]))
                    if len(digests) > 1:
                        fail(sample, "output digest differs from the run's "
                                     "first operation")
                    if trace_dir is not None:
                        phase.layers.append(merge_dumps(trace_dir))
                phase.failed += bool(sample.get("errors"))
                phase.samples.append(sample)
            # Start another round only if it should end within the run,
            # so a run takes about --seconds whatever one operation
            # costs (always at least one round).
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(durations) > run.seconds:
                break
    phase.window_s = time.monotonic() - start
    return phase


def held_out_check(run: Run, mode: str, circuits: List[str]) -> Phase:
    """One untimed operation at the run's held-out flow seed."""
    phase = Phase()
    sample = launch(run, mode, circuits, held_out_seed(run.seed))
    phase.attempted = 1
    if "error" in sample:
        fail(sample, sample.pop("error"))
    else:
        for error in check_flows(sample):
            fail(sample, error)
    phase.failed = int(bool(sample.get("errors")))
    phase.samples.append(sample)
    return phase


def run_flow_workload(run: Run, mode: str, circuits: List[str],
                      held_out: List[str], concurrent: int) -> Dict:
    def probe() -> float:
        report = launch(run, mode, circuits, MEASURED_FLOW_SEED,
                        setup_only=True)
        if "error" in report:
            raise RuntimeError(f"set-up launch failed: {report['error']}")
        return report["setup_s"]

    setups = setup_samples(probe)
    phases = {"measured": flow_phase(run, mode, circuits, False, concurrent)}
    if run.trace:
        phases["traced"] = flow_phase(run, mode, circuits, True, concurrent)
    phases["held_out"] = held_out_check(run, mode, held_out)
    setups += setup_samples(probe)
    return {"setup_probes": setups, "phases": phases}


# -- serve workload ---------------------------------------------------------------


class Server:
    """A ``repro serve`` process on an ephemeral port and fresh state."""

    LISTENING = re.compile(r"listening on (http://\S+)")

    def __init__(self, run: Run, trace_dir: Optional[Path]) -> None:
        cmd = [sys.executable, str(SUT), "serve",
               "--dir", str(run.fresh_dir("state"))]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        self._stderr = open(run.fresh_dir("log") / "stderr.txt", "w")
        self._lines: "queue.Queue[str]" = queue.Queue()
        t0 = time.monotonic()
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.url = self._wait_listening(t0 + 60.0)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - t0

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put("")

    def _wait_listening(self, deadline: float) -> str:
        while True:
            try:
                line = self._lines.get(timeout=max(deadline - time.monotonic(),
                                                   0.01))
            except queue.Empty:
                raise RuntimeError("server did not start listening") from None
            if not line:
                raise RuntimeError("server exited before listening")
            match = self.LISTENING.search(line)
            if match:
                return match.group(1)

    def cpu_s(self) -> float:
        """CPU seconds the server (and its reaped children) used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text()
        ticks = fields.rsplit(")", 1)[1].split()[11:15]
        return sum(int(t) for t in ticks) / os.sysconf("SC_CLK_TCK")

    def stop(self) -> int:
        """Drain the server (SIGTERM); return its peak RSS in KiB."""
        rss_kb = 0
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            deadline = time.monotonic() + 60.0
            while self.proc.returncode is None:
                pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
                if pid:
                    self.proc.returncode = os.waitstatus_to_exitcode(status)
                    rss_kb = usage.ru_maxrss
                elif time.monotonic() > deadline:
                    self.proc.kill()
                    self.proc.wait()
                else:
                    time.sleep(0.02)
        except ChildProcessError:
            self.proc.wait()
        finally:
            self._reader.join(timeout=10.0)
            if self.proc.stdout is not None:
                self.proc.stdout.close()
            self._stderr.close()
        return rss_kb


def serve_spec(run: Run, index: int, client: str):
    from repro.serve.job import JobSpec

    # The small s27 job of benchmarks/test_serve_throughput.py.
    return JobSpec(circuit="s27", seed=run.seed * 1_000_000 + index,
                   tgen_max_len=256, compaction_sims=4, l_g=64, client=client)


def result_errors(data: bytes) -> List[str]:
    """Self-consistency of one serve flow result."""
    try:
        payload = json.loads(data.decode("utf-8"))
    except ValueError as exc:
        return [f"result: not JSON ({exc})"]
    row = payload.get("table6", {})
    errors = []
    if row.get("given_len") != len(payload.get("sequence", [])):
        errors.append("result: len differs from the sequence length")
    if not row.get("given_det"):
        errors.append("result: no fault detected")
    if payload.get("kept_assignments", 0) > payload.get("omega_size", -1):
        errors.append("result: more kept assignments than |Omega|")
    return errors


def serve_phase(run: Run, traced: bool) -> Phase:
    from repro.errors import RateLimited, ServeError
    from repro.serve import ServeClient

    phase = Phase()
    trace_dir = run.fresh_dir("trace") if traced else None
    server = Server(run, trace_dir)
    lock = threading.Lock()
    counter = [0]
    finished: List[Any] = []
    first_bytes: Dict[str, str] = {}
    rng = random.Random(run.seed)
    rss_kb = 0
    try:
        cpu0 = server.cpu_s()
        start = time.monotonic()
        deadline = start + run.seconds

        def client_loop(name: str) -> None:
            client = ServeClient(server.url, timeout_s=60.0, client_id=name)
            while time.monotonic() < deadline:
                with lock:
                    index = counter[0]
                    counter[0] += 1
                    dedup = index % 4 == 3 and bool(finished)
                    spec = (rng.choice(finished) if dedup
                            else serve_spec(run, index, name))
                sample: Dict[str, Any] = {"seed": spec.seed, "dedup": dedup}
                t0 = time.monotonic()
                try:
                    record = client.submit(spec)
                    t_sub = time.monotonic()
                    key = str(record["key"])
                    sample["created"] = bool(record.get("created"))
                    events = {}
                    for event in client.watch(key, timeout_s=120.0):
                        events.setdefault(event.get("kind"), time.monotonic())
                    t_fetch = time.monotonic()
                    data = client.result_bytes(key)
                    t_end = time.monotonic()
                except RateLimited as exc:
                    sample["refused"] = True
                    fail(sample, f"refused: {exc}")
                except ServeError as exc:
                    fail(sample, f"serve error: {exc}")
                except Exception as exc:  # keep the load running; record it
                    fail(sample, f"client error: {exc!r}")
                else:
                    digest = hashlib.sha256(data).hexdigest()
                    sample.update(
                        key=key, digest=digest, latency_s=t_end - t0,
                        submit_s=t_sub - t0, fetch_s=t_end - t_fetch,
                    )
                    # The result fetch succeeding is the job's success.
                    # The feed can close (job terminal in the queue)
                    # before the job_done event is posted; count that
                    # and end the run at the feed's close instead.
                    sample["done_event_missed"] = "job_done" not in events
                    if not dedup:
                        running = events.get("job_running", t_sub)
                        sample.update(
                            queue_wait_s=running - t0,
                            run_s=events.get("job_done", t_fetch) - running,
                        )
                    for error in result_errors(data):
                        fail(sample, error)
                    with lock:
                        if first_bytes.setdefault(key, digest) != digest:
                            fail(sample, "dedup result bytes differ")
                        if not dedup and not sample.get("errors"):
                            finished.append(spec)
                with lock:
                    phase.samples.append(sample)

        threads = [threading.Thread(target=client_loop, args=(f"perfbench-{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        phase.window_s = time.monotonic() - start
        window_cpu = server.cpu_s() - cpu0
        bounds = ServeClient(server.url).metrics()["latency"]
        phase.extra["server_histogram_upper_bounds"] = {
            "submit_to_complete_p50_s": bounds["submit_to_complete"]["p50_s"],
            "submit_to_complete_p99_s": bounds["submit_to_complete"]["p99_s"],
            "count": bounds["submit_to_complete"]["count"],
        }
    finally:
        rss_kb = server.stop()
    phase.rss_kb.append(rss_kb)
    verify_serve_results(run, phase)
    for sample in phase.samples:
        phase.attempted += 1
        phase.failed += bool(sample.get("errors"))
        if not sample.get("errors"):
            phase.latencies.append(sample["latency_s"])
    phase.cpu = [window_cpu / max(len(phase.latencies), 1)]
    if trace_dir is not None:
        phase.layers.append(merge_dumps(trace_dir))
    return phase


def verify_serve_results(run: Run, phase: Phase, n: int = 2) -> None:
    """Recompute the first ``n`` fresh jobs directly; bytes must match."""
    from repro.flows.full_flow import run_full_flow
    from repro.serve.results import flow_result_payload, render_result

    fresh = [s for s in phase.samples
             if not s["dedup"] and "digest" in s and not s.get("errors")]
    for sample in sorted(fresh, key=lambda s: s["seed"])[:n]:
        spec = serve_spec(run, sample["seed"] - run.seed * 1_000_000, "check")
        expected = render_result(flow_result_payload(
            run_full_flow(spec.circuit, spec.flow_config())))
        sample["verified"] = (
            hashlib.sha256(expected).hexdigest() == sample["digest"]
        )
        if not sample["verified"]:
            fail(sample, "result differs from a direct run_full_flow")


def run_serve_workload(run: Run) -> Dict:
    def probe() -> float:
        server = Server(run, None)
        server.stop()
        return server.setup_s

    setups = setup_samples(probe)
    phases = {"measured": serve_phase(run, traced=False)}
    if run.trace:
        phases["traced"] = serve_phase(run, traced=True)
    setups += setup_samples(probe)
    return {"setup_probes": setups, "phases": phases}


# -- metrics ------------------------------------------------------------------------


def end_to_end(phase: Phase, setup_probes: List[float]) -> Dict[str, float]:
    """End-to-end metrics of one phase (``latency_p90_s`` is report-only)."""
    if not phase.latencies:
        raise RuntimeError("no operation succeeded")
    n_ok = len(phase.latencies)
    return {
        "wall_s": statistics.median(phase.latencies),
        "latency_p90_s": quantile(phase.latencies, 0.9),
        "jobs_per_s": n_ok / phase.window_s,
        "cpu_s": statistics.median(phase.cpu),
        "peak_rss_mb": max(phase.rss_kb) / 1024.0,
        "setup_s": statistics.median(setup_probes),
    }


def per_layer(names: List[str], phases: Dict[str, Phase],
              untraced_wall: float, traced_wall: float) -> Dict[str, float]:
    """Per-layer metrics of the traced phase.

    Probe values are per operation (a flow run, a sweep or a serve job);
    probe times are inclusive busy seconds summed over the system's
    processes, pool workers included.  ``serve.*.s`` are medians over
    the traced jobs and the ``serve`` counts are totals over the traced
    window.
    """
    traced = phases["traced"]
    n_ops = max(len(traced.latencies), 1)
    totals: Dict[str, float] = {}
    for layer in traced.layers:
        for key, value in layer.items():
            totals[key] = totals.get(key, 0.0) + value
    out = {name: totals.get(name, 0.0) / n_ops for name in names}

    def ratio(num: str, den: str, scale: float = 1.0) -> float:
        return scale * totals[num] / totals[den] if totals.get(den) else 0.0

    out["sim.kernel_step.ns_per_gate_lane_cycle"] = ratio(
        "sim.kernel_step.s", "sim.kernel_step.gate_lane_cycles", 1e9)
    out["sim.logicsim.cycles_per_s"] = ratio(
        "sim.logicsim.cycles", "sim.logicsim.run.s")
    out["core.omega_accept_ratio"] = ratio("core.omega", "core.sample_screens")
    out["runtime.executor.utilization"] = ratio(
        "runtime.executor.busy_s", "runtime.executor.capacity_s")
    fresh = [s for s in traced.samples if "run_s" in s and not s.get("errors")]
    ok = [s for s in traced.samples if "latency_s" in s and not s.get("errors")]
    if ok:
        out["serve.submit.s"] = statistics.median(s["submit_s"] for s in ok)
        out["serve.result_fetch.s"] = statistics.median(s["fetch_s"] for s in ok)
    if fresh:
        out["serve.queue_wait.s"] = statistics.median(
            s["queue_wait_s"] for s in fresh)
        out["serve.run.s"] = statistics.median(s["run_s"] for s in fresh)
        out["serve.overhead.s"] = statistics.median(
            s["latency_s"] - s["run_s"] for s in fresh)
    out["serve.dedup_hits"] = float(sum(
        1 for s in traced.samples if s.get("created") is False))
    out["serve.refused"] = float(sum(
        1 for s in traced.samples if s.get("refused")))
    out["serve.done_event_missed"] = float(sum(
        1 for s in traced.samples if s.get("done_event_missed")))
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
    return out


# -- workloads ----------------------------------------------------------------------


#: Workload name -> runner; why each was chosen is in BENCHMARK.json.
#: The g208 flow is single-threaded, so two run at a time, one per core.
#: On a 2-vCPU KVM guest the cores' speeds drift independently by up to a
#: quarter over minutes; sampling both in every round narrowed the
#: ten-seed spread (IQR/median) of ``wall_s`` from about 0.25 to 0.12-0.16.
#: The sweep already keeps both cores busy with its two pool workers.
WORKLOADS: Dict[str, Callable[[Run], Dict]] = {
    "flow_g208_hw": lambda run: run_flow_workload(
        run, "flow", circuits_of(run), circuits_of(run), concurrent=2),
    "table6_jobs2": lambda run: run_flow_workload(
        run, "table6", circuits_of(run),
        ["s27"] if run.tiny else SWEEP_HELD_OUT, concurrent=1),
    "serve_s27_closed": run_serve_workload,
}


def circuits_of(run: Run) -> List[str]:
    """The circuits one operation of ``run`` simulates."""
    from repro.flows.experiments import DEFAULT_SUITE

    if run.tiny or run.workload == "serve_s27_closed":
        return ["s27"]
    if run.workload == "table6_jobs2":
        return list(DEFAULT_SUITE)
    return ["g208"]


def envelope(run: Run, spec: Dict[str, Any], host: Dict[str, Any],
             outcome: Dict, raw: Dict[str, float], metrics: Dict,
             correct: bool, attempted: int, failed: int,
             calibration: List[float], slowdown: float) -> Dict[str, Any]:
    """The schema-v2 benchmark artifact for this run."""
    from dataclasses import asdict

    from repro.circuit import circuit_stats, load_circuit

    circuits = {}
    for name in circuits_of(run):
        stats = asdict(circuit_stats(load_circuit(name)))
        stats.pop("name", None)
        stats.pop("gate_mix", None)
        circuits[name] = stats
    measured = outcome["phases"]["measured"]
    rows = []
    for sample in measured.samples:
        if "flows" in sample:
            rows = [flow["row"] for flow in sample["flows"]]
            break
    payload: Dict[str, Any] = {
        "name": f"perfbench_{run.workload}",
        "workload": run.workload,
        "why": next(w["why"] for w in spec["workloads"]
                    if w["name"] == run.workload),
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": run.trace,
        "tiny": run.tiny,
        "wall_time_s": measured.window_s,
        "rows": rows,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 0.0,
        "metrics": metrics,
        "raw_host_metrics": raw,
        "latency": {
            "p50_s": raw["wall_s"],
            "p90_s": raw["latency_p90_s"],
            "samples": len(measured.latencies),
        },
        "calibration_rep_s": calibration,
        "slowdown": slowdown,
        "host": host,
        "setup_probes_s": outcome["setup_probes"],
        "phases_detail": {
            name: {
                "window_s": phase.window_s,
                "samples": phase.samples,
                "layers": phase.layers,
                **phase.extra,
            }
            for name, phase in outcome["phases"].items()
        },
    }
    if run.trace:
        payload["phases"] = {
            name: value["value"] for name, value in metrics.items()
            if value["unit"] == "s"
        }
    return {
        "schema_version": ARTIFACT_SCHEMA_VERSION,
        "host_cpus": host["host_cpus"],
        "git_describe": host["git_describe"],
        "circuits": circuits,
        "payload": payload,
    }


def run_workload(name: str, spec: Dict[str, Any], seed: int, seconds: float,
                 trace: bool, tiny: bool, out_dir: Path) -> Dict[str, Any]:
    work = OUT_DIR / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(name, seed, seconds, trace, tiny, work)
    calibration = [calibration_rep() for _ in range(CALIBRATION_REPS)]
    try:
        outcome = WORKLOADS[name](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    calibration += [calibration_rep() for _ in range(CALIBRATION_REPS)]
    slowdown = statistics.median(calibration) / REFERENCE_REP_S
    phases = outcome["phases"]
    measured = phases["measured"]
    raw = end_to_end(measured, outcome["setup_probes"])
    e2e = calibrated(raw, slowdown)
    attempted = sum(p.attempted for p in phases.values())
    failed = sum(p.failed for p in phases.values())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    if trace:
        traced_wall = statistics.median(phases["traced"].latencies)
        values = per_layer(list(units), phases, raw["wall_s"], traced_wall)
    else:
        values = e2e
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    correct = failed == 0
    host = host_facts()
    out_dir.mkdir(parents=True, exist_ok=True)
    artifact = out_dir / f"{name}-seed{seed}-trace{int(trace)}.json"
    artifact.write_text(json.dumps(
        envelope(run, spec, host, outcome, raw, metrics, correct, attempted,
                 failed, calibration, slowdown),
        indent=2, sort_keys=True, default=str) + "\n")
    report_lines(name, seed, metrics, raw, slowdown, attempted, failed,
                 phases)
    print(f"  artifact {artifact}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def report_lines(name: str, seed: int, metrics: Dict, raw: Dict[str, float],
                 slowdown: float, attempted: int, failed: int,
                 phases: Dict[str, Phase]) -> None:
    measured = phases["measured"]
    print(f"workload {name} seed {seed}: {attempted} operations, "
          f"{failed} failed, {len(measured.latencies)} latency samples, "
          f"core {slowdown:.3f}x slower than the reference")
    for key, value in metrics.items():
        print(f"  {key:42s} {value['value']:.6g} {value['unit']}")
    print(f"  {'latency_p50_s (= raw wall_s)':42s} {raw['wall_s']:.6g} s")
    print(f"  {'latency_p90_s':42s} {raw['latency_p90_s']:.6g} s "
          f"({len(measured.latencies)} samples)")
    print(f"  {'failed_frac':42s} {failed / attempted:.6g} ratio")
    print("  raw host values: " + ", ".join(
        f"{k} {raw[k]:.6g}" for k in ("wall_s", "jobs_per_s", "cpu_s",
                                      "setup_s")))
    for phase_name, phase in phases.items():
        digests = sorted({
            ",".join(f["digest"][:16] for f in sample["flows"])
            if "flows" in sample else sample.get("digest", "-")[:16]
            for sample in phase.samples
        })
        shown = " ".join(digests) if len(digests) <= 4 else (
            f"{len(digests)} distinct (one per job seed; see the artifact)")
        print(f"  {phase_name} output digests: {shown}")
    bounds = measured.extra.get("server_histogram_upper_bounds")
    if bounds:
        print(f"  server /metrics submit_to_complete histogram bucket upper "
              f"bounds (not the metric): p50 <= {bounds['submit_to_complete_p50_s']} s, "
              f"p99 <= {bounds['submit_to_complete_p99_s']} s, "
              f"count {bounds['count']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark (see the module docstring).")
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="s27-only configuration for the self-test")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "results",
                        help="directory for the envelope artifacts")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))

    spec = json.loads(SPEC.read_text())
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, spec, args.seed, args.seconds,
                                  bool(args.trace), args.tiny, args.out)
               for name in names}
    if len(names) == 1:
        line = results[names[0]]
    else:
        line = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
