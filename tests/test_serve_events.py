"""End-to-end progress feed: ``GET /jobs/<key>/events`` + watch().

Boots a real server, runs a real flow, and follows its event stream.
The stream contract: seq 0 is ``job_queued``, then ``job_running``,
then flow stage events, finally ``job_done`` with the feed closed —
and the *kind sequence* is identical whether the job ran on the
in-process scheduler (workers=1) or a supervised worker pool
(workers=2).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServeError
from repro.serve import ServeClient, ServerConfig, ServerThread
from repro.serve.job import JobSpec
from repro.serve.progress import ProgressBook
from repro.serve.queue import JobQueue

FAST = dict(circuit="s27", tgen_max_len=256, compaction_sims=8, l_g=64)


def fast_spec(seed=1, **overrides):
    return JobSpec(**{**FAST, "seed": seed, **overrides})


def run_and_watch(tmp_path, workers):
    config = ServerConfig(
        state_dir=tmp_path / f"state{workers}", port=0, workers=workers
    )
    with ServerThread(config) as url:
        client = ServeClient(url)
        key = client.submit(fast_spec(seed=5))["key"]
        events = list(client.watch(key, timeout_s=120.0))
        final = client.events(key)
    return key, events, final


def check_stream(events, final):
    assert events, "no events at all"
    kinds = [e["kind"] for e in events]
    seqs = [e["seq"] for e in events]
    assert seqs == list(range(len(events))), "gapless dense cursor"
    assert kinds[0] == "job_queued"
    assert kinds[1] == "job_running"
    assert kinds[-1] == "job_done"
    assert final["closed"] is True
    assert final["state"] == "done"
    assert int(final["next"]) == len(events)
    return kinds


def test_event_stream_contract_single_worker(tmp_path):
    _key, events, final = run_and_watch(tmp_path, workers=1)
    kinds = check_stream(events, final)
    # Real flow stages appear between running and done.
    assert len(kinds) > 3


def test_event_kind_sequence_identical_across_worker_modes(tmp_path):
    _, events_1, final_1 = run_and_watch(tmp_path, workers=1)
    _, events_2, final_2 = run_and_watch(tmp_path, workers=2)
    kinds_1 = check_stream(events_1, final_1)
    kinds_2 = check_stream(events_2, final_2)
    assert kinds_1 == kinds_2


def test_events_cursor_and_error_paths(tmp_path):
    config = ServerConfig(state_dir=tmp_path / "state", port=0)
    with ServerThread(config) as url:
        client = ServeClient(url)
        key = client.submit(fast_spec(seed=6))["key"]
        client.wait(key, timeout_s=60.0)

        # timeout=0 on a closed feed returns everything immediately.
        payload = client.events(key, since=0, timeout_s=0.0)
        total = len(payload["events"])
        assert payload["closed"] is True and total >= 3

        # A mid-stream cursor returns only the suffix.
        tail = client.events(key, since=total - 1)
        assert [e["seq"] for e in tail["events"]] == [total - 1]
        assert tail["next"] == total

        # Past-the-end cursor: no events, still closed.
        empty = client.events(key, since=total)
        assert empty["events"] == [] and empty["closed"] is True

        # Unknown job → 404, negative cursor → 400; both ServeError.
        with pytest.raises(ServeError):
            client.events("no-such-job")
        with pytest.raises(ServeError):
            client.events(key, since=-1)


@pytest.mark.parametrize("workers", [1, 2])
def test_watch_survives_finish_before_done_post(tmp_path, monkeypatch, workers):
    """Both execution paths mark the job terminal in the queue before
    they post ``job_done``.  Hold that window open far longer than one
    long-poll park: every poll landing in it must report the feed
    open, so ``watch()`` still ends on ``job_done``."""
    real_post = ProgressBook.post
    held = []

    def delayed_post(self, key, kind, attrs=None):
        if kind == "job_done":
            held.append(key)
            time.sleep(1.0)
        real_post(self, key, kind, attrs)

    monkeypatch.setattr(ProgressBook, "post", delayed_post)
    config = ServerConfig(
        state_dir=tmp_path / "state", port=0, workers=workers
    )
    with ServerThread(config) as url:
        client = ServeClient(url)
        key = client.submit(fast_spec(seed=7))["key"]
        events = list(client.watch(key, timeout_s=120.0, poll_timeout_s=0.1))
        final = client.events(key)
    assert held == [key], "the window was never opened"
    check_stream(events, final)


@pytest.mark.parametrize("workers", [1, 2])
def test_watch_follows_revived_job(tmp_path, monkeypatch, workers):
    """Cancel a queued job, then resubmit it: admission revives it under
    its old key, and the feed its cancellation closed must reopen, so
    ``watch()`` follows the new run all the way to ``job_done``."""
    gate = threading.Event()
    for name in ("claim_next", "claim"):
        real = getattr(JobQueue, name)

        def held(self, *args, _real=real, **kwargs):
            return _real(self, *args, **kwargs) if gate.is_set() else None

        monkeypatch.setattr(JobQueue, name, held)
    config = ServerConfig(
        state_dir=tmp_path / "state", port=0, workers=workers
    )
    with ServerThread(config) as url:
        client = ServeClient(url)
        spec = fast_spec(seed=8)
        key = client.submit(spec)["key"]
        client.cancel(key)
        revived = client.submit(spec)
        assert revived["key"] == key and revived["created"] is True
        assert client.events(key, timeout_s=0.0)["closed"] is False
        gate.set()
        events = list(client.watch(key, timeout_s=120.0))
        final = client.events(key)
    kinds = [e["kind"] for e in events]
    assert kinds[:4] == ["job_queued", "job_cancelled", "job_queued", "job_running"]
    assert kinds[-1] == "job_done"
    assert final["closed"] is True and final["state"] == "done"
