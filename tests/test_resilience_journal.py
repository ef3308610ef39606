"""Checkpoint/resume: the journal, the flow integration, and signals.

The resume guarantee under test: a multi-circuit sweep interrupted at
any circuit boundary can be rerun with ``resume=True`` and produces
the *identical* final report, skipping every circuit already
checkpointed.  Checkpoints are never trusted: stale, corrupt or
foreign entries are recomputed.
"""

from __future__ import annotations

import json
import signal

import pytest

from repro.core import ProcedureConfig
from repro.errors import SweepInterrupted
from repro.flows import experiments
from repro.flows.full_flow import FlowConfig, run_full_flow
from repro.resilience import (
    CheckpointJournal,
    flow_journal_key,
    handle_termination,
)
from repro.resilience.journal import JOURNAL_FORMAT, CheckpointWarning
from repro.runtime import RuntimeContext, RuntimeStats


@pytest.fixture(autouse=True)
def _fresh_flow_cache():
    """Tests here reason about *recomputation*, so the in-process flow
    memo must not leak results between tests."""
    experiments.clear_cache()
    yield
    experiments.clear_cache()


# -- the journal itself -------------------------------------------------------


def test_record_get_roundtrip(tmp_path):
    journal = CheckpointJournal(tmp_path / "j.json")
    assert journal.get("a") is None
    journal.record("a", {"x": 1})
    journal.record("b", {"y": 2})
    assert journal.get("a") == {"x": 1}
    assert journal.keys() == ["a", "b"]
    assert len(journal) == 2
    # A fresh instance reads the same state back from disk.
    reloaded = CheckpointJournal(tmp_path / "j.json")
    assert reloaded.get("b") == {"y": 2}


def test_record_is_atomic_and_versioned(tmp_path):
    path = tmp_path / "j.json"
    journal = CheckpointJournal(path, stats=(stats := RuntimeStats()))
    journal.record("k", {"v": 1})
    body = json.loads(path.read_text())
    assert body["format"] == JOURNAL_FORMAT
    assert body["entries"] == {"k": {"v": 1}}
    assert list(tmp_path.iterdir()) == [path], "no tmp file left behind"
    assert stats.journal_records == 1


def test_records_merge_with_concurrent_writer(tmp_path):
    path = tmp_path / "j.json"
    ours = CheckpointJournal(path)
    theirs = CheckpointJournal(path)
    ours.record("ours", {"v": 1})
    theirs.record("theirs", {"v": 2})
    # Neither sweep erased the other's checkpoint.
    merged = CheckpointJournal(path)
    assert merged.keys() == ["ours", "theirs"]


def test_corrupt_journal_warns_and_is_treated_as_empty(tmp_path):
    path = tmp_path / "j.json"
    path.write_text("{ not json")
    journal = CheckpointJournal(path)
    with pytest.warns(CheckpointWarning, match="unreadable or corrupt"):
        assert journal.get("k") is None


def test_unknown_format_version_warns_and_is_ignored(tmp_path):
    path = tmp_path / "j.json"
    path.write_text(json.dumps({"format": 999, "entries": {"k": {"v": 1}}}))
    journal = CheckpointJournal(path)
    with pytest.warns(CheckpointWarning, match="unknown format"):
        assert journal.get("k") is None


def test_unwritable_journal_warns_but_never_fails_the_sweep(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    stats = RuntimeStats()
    journal = CheckpointJournal(blocker / "j.json", stats=stats)
    # Two warnings fire: the unreadable location on load, then the
    # failed write itself.
    with pytest.warns(CheckpointWarning) as caught:
        journal.record("k", {"v": 1})
    assert any("not be resumable" in str(w.message) for w in caught)
    assert stats.journal_records == 0
    # The record is still visible in-memory for this process.
    assert journal.get("k") == {"v": 1}


def test_clear_removes_everything(tmp_path):
    journal = CheckpointJournal(tmp_path / "j.json")
    journal.record("a", {})
    journal.record("b", {})
    assert journal.clear() == 2
    assert len(CheckpointJournal(tmp_path / "j.json")) == 0


def test_flow_journal_key_sensitivity():
    from dataclasses import asdict

    cfg = asdict(FlowConfig(procedure=ProcedureConfig(l_g=128)))
    other = asdict(FlowConfig(procedure=ProcedureConfig(l_g=256)))
    assert flow_journal_key("s27", cfg) == flow_journal_key("s27", cfg)
    assert flow_journal_key("s27", cfg) != flow_journal_key("g208", cfg)
    assert flow_journal_key("s27", cfg) != flow_journal_key("s27", other)


# -- flow integration ---------------------------------------------------------


def test_run_full_flow_checkpoints_its_table6_row(tmp_path):
    from dataclasses import asdict

    cfg = FlowConfig(procedure=ProcedureConfig(l_g=128))
    with RuntimeContext(cache_dir=tmp_path / "cache") as rt:
        flow = run_full_flow("s27", cfg, runtime=rt)
    assert rt.stats.journal_records == 1
    journal = CheckpointJournal(
        tmp_path / "cache" / "checkpoints" / "journal.json"
    )
    payload = journal.get(flow_journal_key("s27", asdict(cfg)))
    assert payload is not None
    assert payload["kind"] == "flow"
    assert payload["table6"] == asdict(flow.table6)


def test_no_journal_without_cache_or_resume():
    with RuntimeContext(jobs=1) as rt:
        assert rt.journal is None


def test_resume_skips_checkpointed_circuit(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    with RuntimeContext(cache_dir=cache) as rt:
        rows = experiments.table6_rows(("s27",), runtime=rt)
    assert rt.stats.journal_records == 1

    experiments.clear_cache()

    def boom(*args, **kwargs):
        raise AssertionError("flow recomputed despite a valid checkpoint")

    monkeypatch.setattr(experiments, "flow_for", boom)
    with RuntimeContext(cache_dir=cache, resume=True) as resumed:
        resumed_rows = experiments.table6_rows(("s27",), runtime=resumed)
    assert resumed_rows == rows
    assert resumed.stats.journal_skips == 1


def test_checkpoints_are_ignored_without_resume(tmp_path):
    cache = tmp_path / "cache"
    with RuntimeContext(cache_dir=cache) as rt:
        experiments.table6_rows(("s27",), runtime=rt)
    experiments.clear_cache()
    # Same cache dir, but no resume flag: the circuit is recomputed.
    with RuntimeContext(cache_dir=cache) as again:
        experiments.table6_rows(("s27",), runtime=again)
    assert again.stats.journal_skips == 0


@pytest.mark.parametrize(
    "tamper",
    [
        lambda t6: {**t6, "circuit": "imposter"},  # foreign checkpoint
        lambda t6: {k: v for k, v in t6.items() if k != "circuit"},  # torn
        lambda t6: "not a dict",  # wrong shape entirely
    ],
)
def test_tampered_checkpoint_is_recomputed_not_trusted(
    tmp_path, monkeypatch, tamper
):
    cache = tmp_path / "cache"
    with RuntimeContext(cache_dir=cache) as rt:
        rows = experiments.table6_rows(("s27",), runtime=rt)

    journal_path = cache / "checkpoints" / "journal.json"
    body = json.loads(journal_path.read_text())
    (key,) = body["entries"]
    entry = body["entries"][key]
    entry["table6"] = tamper(entry["table6"])
    journal_path.write_text(json.dumps(body))

    experiments.clear_cache()
    calls = []
    real_flow_for = experiments.flow_for

    def counting(name, l_g=None, runtime=None):
        calls.append(name)
        return real_flow_for(name, l_g, runtime=runtime)

    monkeypatch.setattr(experiments, "flow_for", counting)
    with RuntimeContext(cache_dir=cache, resume=True) as resumed:
        resumed_rows = experiments.table6_rows(("s27",), runtime=resumed)
    assert calls == ["s27"], "tampered checkpoint must trigger recompute"
    assert resumed.stats.journal_skips == 0
    assert resumed_rows == rows


def test_interrupted_sweep_resumes_to_the_identical_report(
    tmp_path, monkeypatch
):
    # Bound the runtime of the g208 flows this test really computes.
    monkeypatch.setitem(experiments.LG_BY_CIRCUIT, "g208", 64)
    suite = ("s27", "g208")
    real_flow_for = experiments.flow_for

    # The uninterrupted reference sweep (its own cache dir).
    with RuntimeContext(cache_dir=tmp_path / "ref") as rt:
        reference = experiments.table6_rows(suite, runtime=rt)

    # A sweep killed by SIGTERM after s27 completed.
    experiments.clear_cache()
    cache = tmp_path / "cache"

    def interrupted(name, l_g=None, runtime=None):
        if name == "g208":
            raise SweepInterrupted("SIGTERM")
        return real_flow_for(name, l_g, runtime=runtime)

    monkeypatch.setattr(experiments, "flow_for", interrupted)
    with RuntimeContext(cache_dir=cache) as rt:
        with pytest.raises(SweepInterrupted):
            experiments.table6_rows(suite, runtime=rt)
    assert rt.stats.journal_records == 1, "s27 checkpointed before the kill"

    # The resumed sweep: skips s27, computes only g208, and the final
    # report equals the uninterrupted run's exactly.
    experiments.clear_cache()
    calls = []

    def counting(name, l_g=None, runtime=None):
        calls.append(name)
        return real_flow_for(name, l_g, runtime=runtime)

    monkeypatch.setattr(experiments, "flow_for", counting)
    with RuntimeContext(cache_dir=cache, resume=True) as resumed:
        rows = experiments.table6_rows(suite, runtime=resumed)
    assert calls == ["g208"]
    assert resumed.stats.journal_skips == 1
    assert rows == reference


# -- signal handling ----------------------------------------------------------


def test_handle_termination_converts_sigint():
    with pytest.raises(SweepInterrupted) as excinfo:
        with handle_termination():
            signal.raise_signal(signal.SIGINT)
    assert excinfo.value.signame == "SIGINT"
    assert "--resume" in str(excinfo.value)


def test_handle_termination_converts_sigterm():
    with pytest.raises(SweepInterrupted) as excinfo:
        with handle_termination():
            signal.raise_signal(signal.SIGTERM)
    assert excinfo.value.signame == "SIGTERM"


def test_handle_termination_restores_previous_handlers():
    before_int = signal.getsignal(signal.SIGINT)
    before_term = signal.getsignal(signal.SIGTERM)
    with handle_termination():
        assert signal.getsignal(signal.SIGINT) is not before_int
    assert signal.getsignal(signal.SIGINT) is before_int
    assert signal.getsignal(signal.SIGTERM) is before_term
