"""The fleet-scheduler battery: claim order (priority classes + the age-order
FIFO fix), hash-neutral priority/requirement stamping, capability-tag
matching, speculative straggler re-dispatch (first publisher wins, loser
superseded), and elastic fleet sizing against the respawn cap."""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
from dataclasses import dataclass
from typing import Any, ClassVar

import pytest

from repro.config import PipelineConfig
from repro.engine import (
    DurationTracker,
    Engine,
    FileQueueSpool,
    FileQueueTransport,
    FileQueueWorker,
    capabilities_match,
    desired_fleet_size,
    job_priority,
    job_requirements,
    parse_tags,
    register_executor,
    require_tags,
    set_priority,
)
from repro.engine.core import execute_baseline_job
from repro.engine.scheduler import (
    DEFAULT_PRIORITY,
    PendingTask,
    order_pending,
    speculation_threshold,
)
from repro.exceptions import EngineError

# -- a trivial picklable job kind (mirrors test_transports) --------------------------


@dataclass(frozen=True)
class EchoSpec:
    name: str

    # Its own kind name: test_transports registers an executor for "echo",
    # and whichever module is collected last would otherwise win the
    # registry entry for the whole session.
    kind: ClassVar[str] = "sched_echo"

    def content_hash(self) -> str:
        return hashlib.sha256(f"echo/v1\x1f{self.name}".encode("utf-8")).hexdigest()


class _FakeOutcome:
    def __init__(self, payload: dict[str, Any]):
        self._payload = payload

    def to_payload(self) -> dict[str, Any]:
        return self._payload


def _fake_execute(spec: EchoSpec) -> _FakeOutcome:
    return _FakeOutcome({"spec_hash": spec.content_hash(), "schema": "echo/v1", "name": spec.name})


register_executor("sched_echo", lambda spec: _fake_execute(spec), overwrite=True)

BASE_CONFIG = PipelineConfig(seed=5)


def _baseline_spec(method: str = "AF2"):
    from repro.engine import BaselineFoldSpec

    return BaselineFoldSpec(pdb_id="3eax", sequence="RYRDV", method=method, config=BASE_CONFIG)


# -- pure policy ---------------------------------------------------------------------


def test_order_pending_sorts_by_priority_then_age_then_id():
    entries = [
        PendingTask("c", priority=0, age=50.0),
        PendingTask("b", priority=5, age=1.0),
        PendingTask("a", priority=0, age=50.0),
        PendingTask("d", priority=0, age=90.0),
    ]
    assert [t.task_id for t in order_pending(entries)] == ["b", "d", "a", "c"]


def test_parse_tags_and_capabilities_match():
    assert parse_tags(None) is None
    assert parse_tags("") is None
    assert parse_tags(" , ") is None
    assert parse_tags("mps, statevector") == {"mps", "statevector"}
    # Untagged workers claim anything; tagged ones need a superset.
    assert capabilities_match({"fold", "mps"}, None)
    assert capabilities_match({"fold"}, {"fold", "dock"})
    assert not capabilities_match({"fold", "mps"}, {"fold"})
    assert capabilities_match(frozenset(), {"anything"})


def test_job_requirements_cover_kind_and_pinned_backend():
    assert job_requirements(EchoSpec("a")) == {"sched_echo"}
    auto = Engine(config=BASE_CONFIG.with_updates(backend="auto")).spec("2bok", "EDACQ")
    assert job_requirements(auto) == {"fold"}  # auto resolves on the worker
    pinned = Engine(config=BASE_CONFIG.with_updates(backend="mps")).spec("2bok", "EDACQ")
    assert job_requirements(pinned) == {"fold", "mps"}
    tagged = require_tags(EchoSpec("b"), "gpu", "licensed")
    assert job_requirements(tagged) == {"sched_echo", "gpu", "licensed"}


def test_priority_and_requirements_are_hash_neutral_and_survive_pickling():
    plain = _baseline_spec()
    stamped = set_priority(require_tags(_baseline_spec(), "mps"), 7)
    assert job_priority(plain) == DEFAULT_PRIORITY
    assert job_priority(stamped) == 7
    # Orchestration metadata must never split the cache or break equality.
    assert stamped.content_hash() == plain.content_hash()
    assert stamped == plain
    clone = pickle.loads(pickle.dumps(stamped))
    assert job_priority(clone) == 7
    assert "mps" in job_requirements(clone)


def test_duration_tracker_and_speculation_threshold():
    tracker = DurationTracker(window=4)
    assert tracker.median() is None
    for junk in (None, "nan?", -1.0):
        tracker.add(junk)
    assert len(tracker) == 0
    for value in (2.0, 4.0, 100.0, 6.0, 8.0):  # window drops the 2.0
        tracker.add(value)
    assert tracker.median() == pytest.approx(7.0)
    assert speculation_threshold(2.0, 10.0) == 20.0
    assert speculation_threshold(2.0, 0.1) == 1.0  # floored
    assert speculation_threshold(None, 10.0) is None
    assert speculation_threshold(0.0, 10.0) is None
    assert speculation_threshold(2.0, None) is None


def test_desired_fleet_size_clamps_to_floor_and_ceiling():
    assert desired_fleet_size(100, minimum=2, maximum=None) == 2  # elastic off
    assert desired_fleet_size(0, minimum=2, maximum=8) == 2
    assert desired_fleet_size(5, minimum=2, maximum=8) == 5
    assert desired_fleet_size(100, minimum=2, maximum=8) == 8
    assert desired_fleet_size(-3, minimum=0, maximum=8) == 0


# -- spool claim order ---------------------------------------------------------------


def test_two_interleaved_batches_drain_by_age_not_batch_prefix(tmp_path):
    """The FIFO fix: task ids start with a random batch id, so name order
    across concurrent batches is arbitrary — a later batch whose prefix
    sorts first must not starve the earlier one."""
    spool = FileQueueSpool(tmp_path / "spool")
    now = time.time()
    # "zzz" (the older batch) sorts lexicographically *after* "aaa" (the
    # newer one); interleave their enqueue times.
    ages = {"zzz-00000-x": 40, "aaa-00000-x": 30, "zzz-00001-x": 20, "aaa-00001-x": 10}
    for task_id, age in ages.items():
        spool.enqueue(task_id, EchoSpec(task_id))
        stamp = now - age
        os.utime(spool.task_path(task_id), (stamp, stamp))
    assert spool.task_ids() == [
        "zzz-00000-x", "aaa-00000-x", "zzz-00001-x", "aaa-00001-x",
    ]


def test_priority_classes_claim_before_age_under_contention(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    now = time.time()
    for task_id, priority, age in [("low-old", 0, 40), ("high-new", 5, 10), ("mid", 2, 20)]:
        spool.enqueue(task_id, EchoSpec(task_id), priority=priority)
        stamp = now - age
        os.utime(spool.task_path(task_id), (stamp, stamp))
    ran: list[str] = []

    def recording(spec: EchoSpec) -> _FakeOutcome:
        ran.append(spec.name)
        return _fake_execute(spec)

    worker = FileQueueWorker(spool, worker_id="w", execute=recording)
    while worker.run_once():
        pass
    assert ran == ["high-new", "mid", "low-old"]


def test_headerless_task_files_still_load_and_schedule(tmp_path):
    """Back-compat: pre-scheduler spools (and hand-written fixtures) carry no
    scheduling header — they claim at default priority, unrestricted."""
    spool = FileQueueSpool(tmp_path / "spool")
    spool._atomic_write(
        spool.task_path("old-task"),
        pickle.dumps({"task_id": "old-task", "spec": EchoSpec("old")}),
    )
    [task] = spool.pending()
    assert task.priority == DEFAULT_PRIORITY and task.requires == frozenset()
    worker = FileQueueWorker(spool, worker_id="w", execute=_fake_execute)
    assert worker.run_once() == "old-task"
    assert spool.read_result("old-task")["status"] == "completed"


# -- capability tags -----------------------------------------------------------------


def test_tagged_worker_skips_tasks_it_cannot_serve_without_poisoning(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spec = require_tags(EchoSpec("needs-mps"), "mps")
    spool.enqueue("t-00000-x", spec, requires=job_requirements(spec))
    limited = FileQueueWorker(spool, worker_id="limited", tags={"sched_echo"}, execute=_fake_execute)
    assert limited.run_once() is None
    assert limited.skipped == 1 and limited.executed == 0
    # Skipped means *untouched*: still claimable, no claim, no poison result.
    assert spool.task_ids() == ["t-00000-x"]
    assert spool.claim_ids() == []
    assert spool.read_result("t-00000-x") is None
    capable = FileQueueWorker(
        spool, worker_id="capable", tags={"sched_echo", "mps"}, execute=_fake_execute
    )
    assert capable.run_once() == "t-00000-x"
    record = spool.read_result("t-00000-x")
    assert record["status"] == "completed" and record["worker_id"] == "capable"


# -- exclusive publication and speculation -------------------------------------------


def test_publish_result_first_publisher_wins(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    assert spool.publish_result("t1", {"status": "completed", "winner": 1}) is True
    assert spool.publish_result("t1", {"status": "completed", "winner": 2}) is False
    assert spool.read_result("t1")["winner"] == 1
    # No temp-file litter either way.
    assert [p.name for p in spool.results_dir.iterdir()] == ["t1.json"]


def test_losing_publisher_logs_superseded_not_completed(tmp_path):
    spool = FileQueueSpool(tmp_path / "spool")
    spool.enqueue("twin-task", EchoSpec("twin"))
    worker = FileQueueWorker(spool, worker_id="loser", execute=_fake_execute)
    claim = spool.claim("twin-task", owner="loser")
    # The speculative twin resolves the task while this worker executes.
    assert spool.publish_result(
        "twin-task",
        {"task_id": "twin-task", "worker_id": "winner", "status": "completed", "payload": {}},
    )
    worker._process("twin-task", claim)
    assert worker.superseded == 1 and worker.executed == 0 and worker.failed == 0
    records = [
        json.loads(line)
        for line in (spool.log_dir / "loser.jsonl").read_text().splitlines()
    ]
    assert [r["status"] for r in records] == ["superseded"]
    assert spool.read_result("twin-task")["worker_id"] == "winner"


def test_straggler_redispatch_publishes_exactly_one_result(tmp_path):
    transport = FileQueueTransport(
        tmp_path / "spool", workers=0, speculate=2.0, lease_timeout=300.0
    )
    spec = _baseline_spec()
    transport.submit([spec])
    [task_id] = transport._outstanding
    spool = transport.spool
    assert spool.claim(task_id, owner="slowpoke") is not None
    # The fleet knows how long jobs take; this claim is far past 2× median.
    for _ in range(3):
        transport.durations.add(0.05)
    stamp = time.time() - 60
    os.utime(spool.owner_path(task_id), (stamp, stamp))
    transport._speculate_stragglers()
    assert transport.speculated == 1
    assert spool.task_path(task_id).exists()  # the shadow copy, same id
    transport._speculate_stragglers()
    assert transport.speculated == 1  # twins, never triplets
    # A healthy worker claims the shadow and wins the publish race ...
    fast = FileQueueWorker(spool, worker_id="fast", execute=execute_baseline_job)
    assert fast.run_once() == task_id
    assert fast.executed == 1
    # ... so when the straggler finally finishes, its publication is refused.
    loser = {"task_id": task_id, "worker_id": "slowpoke", "status": "completed", "payload": {}}
    assert spool.publish_result(task_id, loser) is False
    assert spool.read_result(task_id)["worker_id"] == "fast"
    [(index, outcome, exc)] = transport.poll(timeout=5.0)
    assert index == 0 and exc is None
    assert transport.stats()["speculated"] == 1
    transport.cancel()


def test_harvest_withdraws_an_unclaimed_shadow_when_the_straggler_finishes(tmp_path):
    transport = FileQueueTransport(
        tmp_path / "spool", workers=0, speculate=2.0, lease_timeout=300.0
    )
    transport.submit([_baseline_spec()])
    [task_id] = transport._outstanding
    spool = transport.spool
    claim = spool.claim(task_id, owner="slowpoke")
    for _ in range(3):
        transport.durations.add(0.05)
    stamp = time.time() - 60
    os.utime(spool.owner_path(task_id), (stamp, stamp))
    transport._speculate_stragglers()
    assert spool.task_path(task_id).exists()
    # The straggler finishes before anyone claims the shadow.
    worker = FileQueueWorker(spool, worker_id="slowpoke", execute=execute_baseline_job)
    worker._process(task_id, claim)
    assert worker.executed == 1
    [(_, _, exc)] = transport.poll(timeout=5.0)
    assert exc is None
    assert not spool.task_path(task_id).exists()  # shadow withdrawn at harvest
    transport.cancel()


def test_result_records_carry_durations_that_arm_the_tracker(tmp_path):
    """Regression: durations must travel on the *result* record, not just the
    worker's log — the submitting transport only reads results, so without
    them its rolling median never arms and straggler re-dispatch silently
    never fires (CI's heterogeneous fleet caught this)."""
    from repro.engine import BaselineFoldSpec

    transport = FileQueueTransport(tmp_path / "spool", workers=0, speculate=2.0)
    transport.submit(
        [
            BaselineFoldSpec(pdb_id=p, sequence="RYRDV", method="AF2", config=BASE_CONFIG)
            for p in ("3eax", "3ckz", "4mo4")
        ]
    )
    worker = FileQueueWorker(
        transport.spool, worker_id="w", execute=execute_baseline_job
    )
    while worker.run_once():
        pass
    for task_id in list(transport._outstanding):
        record = transport.spool.read_result(task_id)
        assert isinstance(record["duration_s"], float)
    completions = transport.poll(timeout=5.0)
    assert len(completions) == 3 and not any(exc for _, _, exc in completions)
    assert len(transport.durations) == 3  # armed: MIN_SPECULATION_SAMPLES reached
    assert transport.durations.median() >= 0.0
    transport.cancel()


# -- elastic fleet sizing ------------------------------------------------------------


class _FakeProc:
    def __init__(self):
        self.returncode = None

    def poll(self):
        return self.returncode


def test_elastic_fleet_grows_retires_and_respects_the_respawn_cap(tmp_path):
    transport = FileQueueTransport(
        tmp_path / "spool", workers=0, max_workers=2, respawn_limit=2
    )
    spawned: list[tuple[_FakeProc, float | None]] = []

    def fake_spawn(idle_exit: float | None = None) -> None:
        proc = _FakeProc()
        spawned.append((proc, idle_exit))
        transport.workers.append(proc)

    transport._spawn_worker = fake_spawn
    transport.submit([EchoSpec("a"), EchoSpec("b"), EchoSpec("c")])
    # Growth: one extra per pass, up to the ceiling, with an idle-exit.
    transport._tend_fleet()
    assert len(transport.workers) == 1 and transport.elastic_spawned == 1
    assert spawned[0][1] is not None
    transport._tend_fleet()
    assert len(transport.workers) == 2 and transport.elastic_spawned == 2
    transport._tend_fleet()
    assert len(transport.workers) == 2  # pinned at max_workers
    # The queue drains; a surplus extra exits cleanly -> retired, not charged.
    for task_id in list(transport._outstanding):
        transport.spool.remove_task(task_id)
    transport.workers[0].returncode = 0
    transport._tend_fleet()
    assert transport.retired == 1 and transport.respawned == 0
    assert len(transport.workers) == 1
    # A crash (nonzero exit) still burns the respawn budget ...
    transport.workers[0].returncode = 1
    transport._tend_fleet()
    assert transport.respawned == 1
    transport.workers[0].returncode = 1
    transport._tend_fleet()
    assert transport.respawned == 2
    # ... and exhausting it raises, exactly like the pre-elastic fleet.
    transport.workers[0].returncode = 1
    with pytest.raises(EngineError, match="died"):
        transport._tend_fleet()
    stats = transport.stats()
    assert stats["retired"] == 1 and stats["elastic_spawned"] == 2


def test_external_fleet_without_elastic_ceiling_is_left_alone(tmp_path):
    transport = FileQueueTransport(tmp_path / "spool", workers=0)  # max_workers=None
    transport.submit([EchoSpec("a"), EchoSpec("b")])
    transport._tend_fleet()
    assert transport.workers == [] and transport.elastic_spawned == 0


# -- transport stats surface through the session -------------------------------------


def test_session_summary_carries_transport_stats(tmp_path):
    config = BASE_CONFIG.with_updates(
        transport="filequeue",
        spool_dir=str(tmp_path / "spool"),
        transport_workers=1,
        transport_lease_timeout=10.0,
        transport_poll_interval=0.02,
    )
    engine = Engine(config=config, cache=None)
    session = engine.submit([_baseline_spec("AF2"), _baseline_spec("AF3")], priority=3)
    results = session.results()
    assert len(results) == 2
    stats = session.summary()["transport"]
    assert stats["outstanding"] == 0
    assert stats["speculated"] == 0  # speculation off by default
    assert {"reclaimed", "respawned", "elastic_spawned", "retired"} <= set(stats)
