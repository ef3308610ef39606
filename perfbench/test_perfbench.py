"""Self-test of the benchmark on its tiny s27-only configuration.

Run with ``python3 -m pytest perfbench/test_perfbench.py`` (under half
a minute on two cores).  It checks that the one command runs every workload and prints
every metric by name with its unit, that the result line and the
metric list agree with ``BENCHMARK.json``, that ``repro campaign
ingest`` accepts the envelopes unchanged, that the traced run reports
every per-layer metric with the layer predictions holding, and that
the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in _spec()[kind]}


def test_spec_names_every_workload():
    assert [w["name"] for w in _spec()["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def all_workloads(tmp_path_factory):
    out = tmp_path_factory.mktemp("envelopes")
    proc = _bench("--workload", "all", "--tiny", "--seconds", "1",
                  "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, out


def test_one_command_prints_every_metric(all_workloads):
    stdout, _ = all_workloads
    lines = stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = _units("end_to_end")
    names["latency_p50_s (= raw wall_s)"] = "s"
    names["latency_p90_s"] = "s"
    names["failed_frac"] = "ratio"
    for workload in run.WORKLOADS:
        start = lines.index(next(
            line for line in lines if line.startswith(f"workload {workload} ")
        ))
        block = lines[start + 1:start + 1 + len(names)]
        printed = {}
        for line in block:
            name, value, unit = re.fullmatch(
                r"\s+(.+?)\s+(\S+) (\S+)(?: \(\d+ samples\))?", line
            ).groups()
            printed[name] = unit
            assert float(value) >= 0.0
        assert printed == names
        for metric in _units("end_to_end"):
            value = result["metrics"][f"{workload}.{metric}"]["value"]
            assert value > 0.0, (workload, metric)


def test_campaign_ingest_accepts_envelopes(all_workloads, tmp_path):
    _, out = all_workloads
    envelopes = sorted(out.glob("*.json"))
    assert len(envelopes) == len(run.WORKLOADS)
    for path in envelopes:
        envelope = json.loads(path.read_text())
        assert envelope["schema_version"] == run.ARTIFACT_SCHEMA_VERSION
        assert set(envelope["payload"]["host"]) >= {
            "host_cpus", "python", "numpy", "git_describe"
        }
    store = tmp_path / "campaign.db"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "ingest", str(out),
         "--store", str(store)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "unrecognized" not in proc.stdout

    from repro.campaign import CampaignStore

    db = CampaignStore(store)
    names = {b["name"] for b in db.query_benchmarks()}
    assert names == {f"perfbench_{w}" for w in run.WORKLOADS}
    assert {r["circuit"] for r in db.query_table6()} == {"s27"}


def test_traced_run_reports_layers(tmp_path):
    proc = _bench("--workload", "flow_g208_hw", "--tiny", "--seconds", "1",
                  "--trace", "1", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == (
        _units("per_layer"))
    for name in ("hw.verify_tpg.s", "hw.qm.minimize.calls",
                 "sim.logicsim.run.calls", "sim.kernel_step.calls",
                 "sim.make_kernel.calls", "runtime.cache.put.calls"):
        assert metrics[name] > 0, name
    assert metrics["runtime.executor.tasks"] == 0
    assert all(v == 0 for k, v in metrics.items() if k.startswith("serve."))


def test_refuses_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "flow_g208_hw", "--seed", "1", "--seconds",
                  "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
