"""Unit tests of the worker protocol: messages, transports, and the
supervisor's robustness contract (heartbeats, leases, respawns,
quarantine, degradation).

Chaos coverage over the full D-M2TD pipeline lives in
``tests/faults/test_chaos_workers.py``; here each mechanism is
exercised in isolation with cheap synthetic tasks.
"""

from __future__ import annotations

import os
import pickle
import signal
import time

import pytest

from repro.distributed.workers import (
    ErrorEnvelope,
    InlineTransport,
    ProcessTransport,
    ResultMessage,
    TaskOutcome,
    WorkerConfig,
    WorkerSupervisor,
    checksum,
    flip_bytes,
    make_transport,
)
from repro.exceptions import (
    CorruptReplyError,
    CrashBudgetError,
    FaultInjectionError,
    RemoteTaskError,
    WorkerProtocolError,
)
from repro.faults import FaultInjector, FaultSpec, plan_of, use_injector
from repro.faults.directive import FaultDirective
from repro.observability import Tracer, get_metrics, use_tracer


class Square:
    """A picklable task: returns x**2."""

    def __init__(self, x):
        self.x = x

    def __call__(self):
        return self.x * self.x


class Raises:
    def __init__(self, message="synthetic failure"):
        self.message = message

    def __call__(self):
        raise ValueError(self.message)


class Sleeps:
    def __init__(self, seconds):
        self.seconds = seconds

    def __call__(self):
        time.sleep(self.seconds)
        return "slept"


class SelfKill:
    """SIGKILLs its own process — a genuine mid-task worker death.

    Guarded by the supervisor's pid: when the task ends up running
    inline (quarantine or degraded mode), it must not take the test
    process down with it.
    """

    def __init__(self):
        self.parent_pid = os.getpid()

    def __call__(self):
        if os.getpid() != self.parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return "survived-inline"


def squares(n=6):
    return [(f"t{i}", Square(i)) for i in range(n)]


def expect_squares(outcomes, n=6):
    assert [o.value for o in outcomes] == [i * i for i in range(n)]
    assert all(o.ok for o in outcomes)


# ----------------------------------------------------------------------
# protocol pieces
# ----------------------------------------------------------------------
class TestProtocol:
    def test_result_roundtrip_verifies_checksum(self):
        payload = pickle.dumps({"a": 1})
        message = ResultMessage(
            task_id="t", worker_id="w", payload=payload,
            digest=checksum(payload),
        )
        assert message.value() == {"a": 1}

    def test_corrupt_payload_is_never_unpickled(self):
        payload = pickle.dumps([1, 2, 3])
        message = ResultMessage(
            task_id="t", worker_id="w", payload=flip_bytes(payload),
            digest=checksum(payload),
        )
        with pytest.raises(CorruptReplyError, match="checksum mismatch"):
            message.value()

    def test_flip_bytes_changes_payload(self):
        payload = b"x" * 64
        assert flip_bytes(payload) != payload
        assert len(flip_bytes(payload)) == len(payload)

    def test_envelope_rebuilds_original_exception(self):
        try:
            raise KeyError("missing-key")
        except KeyError as exc:
            envelope = ErrorEnvelope.capture("t", "w", exc)
        rebuilt = pickle.loads(pickle.dumps(envelope)).rebuild()
        assert isinstance(rebuilt, KeyError)
        assert "missing-key" in str(rebuilt)
        assert "KeyError" in rebuilt.remote_traceback

    def test_envelope_preserves_fault_provenance(self):
        exc = FaultInjectionError("mapreduce.map", "map-0", "fault-3",
                                  "note")
        envelope = ErrorEnvelope.capture("t", "w", exc)
        assert envelope.provenance is not None
        rebuilt = envelope.rebuild()
        assert isinstance(rebuilt, FaultInjectionError)
        assert rebuilt.site == "mapreduce.map"
        assert rebuilt.target == "map-0"
        assert rebuilt.fault_id == "fault-3"

    def test_unpicklable_exception_falls_back_to_strings(self):
        class Nasty(Exception):
            def __reduce__(self):
                raise TypeError("no pickling for me")

        envelope = ErrorEnvelope.capture("t", "w", Nasty("the real story"))
        assert envelope.pickled is None
        rebuilt = envelope.rebuild()
        assert isinstance(rebuilt, RemoteTaskError)
        assert rebuilt.type_name == "Nasty"
        assert "the real story" in str(rebuilt)
        assert "Nasty" in rebuilt.remote_traceback

    def test_make_transport_accepts_names_and_instances(self):
        assert make_transport("inline").kind == "inline"
        assert make_transport("process").kind == "process"
        transport = InlineTransport()
        assert make_transport(transport) is transport
        assert make_transport(ProcessTransport).kind == "process"
        with pytest.raises(WorkerProtocolError, match="unknown transport"):
            make_transport("carrier-pigeon")


# ----------------------------------------------------------------------
# supervisor happy paths
# ----------------------------------------------------------------------
@pytest.mark.parametrize("transport", ["inline", "process"])
class TestSupervisorBasics:
    def test_results_in_submission_order(self, transport):
        with WorkerSupervisor(transport=transport, n_workers=3) as sup:
            expect_squares(sup.run_tasks(squares()))

    def test_pool_survives_multiple_batches(self, transport):
        with WorkerSupervisor(transport=transport, n_workers=2) as sup:
            expect_squares(sup.run_tasks(squares()))
            out = sup.run_tasks([("again", Square(9))])
            assert out[0].value == 81

    def test_task_error_is_per_outcome(self, transport):
        with WorkerSupervisor(transport=transport, n_workers=2) as sup:
            outcomes = sup.run_tasks(
                [("good", Square(2)), ("bad", Raises("oops"))]
            )
        assert outcomes[0].value == 4
        assert isinstance(outcomes[1].error, ValueError)
        assert "oops" in str(outcomes[1].error)

    def test_empty_batch(self, transport):
        with WorkerSupervisor(transport=transport, n_workers=2) as sup:
            assert sup.run_tasks([]) == []

    def test_shutdown_refuses_new_batches(self, transport):
        sup = WorkerSupervisor(transport=transport, n_workers=1)
        sup.shutdown()
        with pytest.raises(WorkerProtocolError, match="shut down"):
            sup.run_tasks(squares(2))


class TestSupervisorValidation:
    def test_rejects_bad_parameters(self):
        for kwargs in (
            {"n_workers": 0},
            {"heartbeat_seconds": 0},
            {"lease_seconds": -1.0},
            {"poison_lease_expiries": 0},
            {"crash_budget": -1},
        ):
            with pytest.raises(WorkerProtocolError):
                WorkerSupervisor(transport="inline", **kwargs)


# ----------------------------------------------------------------------
# the robustness contract
# ----------------------------------------------------------------------
class TestRecovery:
    def test_sigkilled_worker_is_replaced_and_task_requeued(self):
        """A real mid-task SIGKILL: the pipe EOF declares the death,
        the lease requeues, the respawned pool finishes the batch."""
        before = get_metrics().counter("worker.respawns").value
        with WorkerSupervisor(
            transport="process", n_workers=2, heartbeat_seconds=0.1,
            lease_seconds=2.0,
        ) as sup:
            tasks = [("kill", SelfKill())] + squares(4)
            outcomes = sup.run_tasks(tasks)
        # The suicide task kills every worker that leases it, consuming
        # the crash budget until it is finally settled inline; the
        # other tasks complete with correct values throughout.
        assert [o.value for o in outcomes[1:]] == [i * i for i in range(4)]
        assert outcomes[0].value == "survived-inline"
        assert get_metrics().counter("worker.respawns").value > before

    def test_lease_expiry_requeues_and_meters(self):
        before = get_metrics().counter("worker.lease_expiries").value
        with WorkerSupervisor(
            transport="process", n_workers=1, heartbeat_seconds=0.05,
            lease_seconds=0.3, poison_lease_expiries=2,
        ) as sup:
            outcomes = sup.run_tasks([("slow", Sleeps(1.0))])
        # First lease expires (requeue + respawn); the second expiry
        # quarantines the task, which then finishes inline.
        assert outcomes[0].value == "slept"
        assert outcomes[0].ran_inline
        assert get_metrics().counter("worker.lease_expiries").value > before

    def test_poison_task_is_quarantined_and_metered(self):
        before = get_metrics().counter("worker.poisoned").value
        with WorkerSupervisor(
            transport="process", n_workers=1, heartbeat_seconds=0.05,
            lease_seconds=0.2, poison_lease_expiries=1, crash_budget=5,
        ) as sup:
            outcomes = sup.run_tasks([("sleepy", Sleeps(0.6))])
        assert outcomes[0].value == "slept"
        assert outcomes[0].ran_inline
        assert get_metrics().counter("worker.poisoned").value > before

    def test_crash_budget_degrades_to_inline(self):
        plan = plan_of(
            [FaultSpec(site="worker.spawn", kind="raise",
                       target="worker-*", times=None)]
        )
        before = get_metrics().counter("worker.inline_fallbacks").value
        with use_injector(FaultInjector(plan)):
            with WorkerSupervisor(
                transport="process", n_workers=2, crash_budget=1,
            ) as sup:
                outcomes = sup.run_tasks(squares())
                assert sup.degraded
        expect_squares(outcomes)
        assert all(o.ran_inline for o in outcomes)
        assert get_metrics().counter("worker.inline_fallbacks").value > before

    def test_degraded_supervisor_stays_inline_for_later_batches(self):
        plan = plan_of(
            [FaultSpec(site="worker.spawn", kind="raise",
                       target="worker-*", times=None)]
        )
        with use_injector(FaultInjector(plan)):
            with WorkerSupervisor(
                transport="process", n_workers=1, crash_budget=0,
            ) as sup:
                sup.run_tasks(squares(2))
                assert sup.degraded
                out = sup.run_tasks([("later", Square(5))])
        assert out[0].value == 25
        assert out[0].ran_inline

    def test_exhausted_budget_raises_when_degradation_disabled(self):
        plan = plan_of(
            [FaultSpec(site="worker.spawn", kind="raise",
                       target="worker-*", times=None)]
        )
        with use_injector(FaultInjector(plan)):
            sup = WorkerSupervisor(
                transport="process", n_workers=1, crash_budget=0,
                degrade_to_inline=False,
            )
            with pytest.raises(CrashBudgetError):
                sup.run_tasks(squares(2))
            sup.shutdown()

    def test_corrupt_reply_is_requeued_never_unpickled(self):
        plan = plan_of(
            [FaultSpec(site="worker.result", kind="corrupt",
                       target="t1", times=1)]
        )
        before = get_metrics().counter("worker.corrupt_replies").value
        with use_injector(FaultInjector(plan)) as injector:
            with WorkerSupervisor(
                transport="process", n_workers=2, heartbeat_seconds=0.1,
            ) as sup:
                expect_squares(sup.run_tasks(squares()))
        assert injector.summary() == {"injected": 1, "recovered": 1}
        assert get_metrics().counter("worker.corrupt_replies").value > before

    def test_unpicklable_task_runs_inline(self):
        with WorkerSupervisor(transport="process", n_workers=1) as sup:
            outcomes = sup.run_tasks([("lam", lambda: 123)])
        assert outcomes[0].value == 123
        assert outcomes[0].ran_inline

    def test_heartbeat_silence_is_detected(self):
        """A worker whose beat loop goes silent while idle accrues
        heartbeat misses and is declared dead past the deadline —
        even though its process is still running."""
        plan = plan_of(
            [FaultSpec(site="worker.heartbeat", kind="delay",
                       target="worker-1", times=1, delay_seconds=30.0)]
        )
        before = get_metrics().counter("worker.heartbeat_misses").value
        with use_injector(FaultInjector(plan)):
            with WorkerSupervisor(
                transport="process", n_workers=2, heartbeat_seconds=0.05,
                heartbeat_misses=2, lease_seconds=5.0,
            ) as sup:
                # worker-0 holds the sleeper, keeping the batch alive
                # long enough for the silent worker-1 to miss beats.
                outcomes = sup.run_tasks(
                    [("slow", Sleeps(0.8)), ("fast", Square(2))]
                )
        assert outcomes[0].value == "slept"
        assert outcomes[1].value == 4
        assert get_metrics().counter("worker.heartbeat_misses").value > before


class TestSupervisorSpans:
    """What happened to the pool is on the trace: deaths carry their
    reason, and every task settled inline runs under an
    ``inline:<task>`` span saying why.  Spawn spans are covered in
    ``test_trace_merge.py``."""

    def test_spawn_fault_without_budget_degrades_on_the_trace(self):
        plan = plan_of(
            [FaultSpec(site="worker.spawn", kind="raise",
                       target="worker-*", times=None)]
        )
        with use_tracer(Tracer()) as tracer, use_injector(
            FaultInjector(plan)
        ):
            with WorkerSupervisor(
                transport="process", n_workers=2, crash_budget=0,
            ) as sup:
                expect_squares(sup.run_tasks(squares()))
        (run,) = [s for s in tracer.iter_spans() if s.name == "supervisor-run"]
        assert run.attrs["degraded"] is True
        assert "crash budget exhausted" in run.attrs["degraded_reason"]
        inline = [s for s in run.walk() if s.name.startswith("inline:")]
        assert sorted(s.name for s in inline) == [
            f"inline:t{i}" for i in range(6)
        ]
        assert {s.attrs["reason"] for s in inline} == {"degraded"}

    def test_unpicklable_closure_runs_under_inline_span(self):
        with use_tracer(Tracer()) as tracer:
            with WorkerSupervisor(transport="process", n_workers=1) as sup:
                sup.run_tasks([("lam", lambda: 123)])
        (span,) = [s for s in tracer.iter_spans() if s.name == "inline:lam"]
        assert span.attrs["reason"] == "unpicklable"

    def test_poison_task_runs_under_quarantined_inline_span(self):
        with use_tracer(Tracer()) as tracer:
            with WorkerSupervisor(
                transport="process", n_workers=1, heartbeat_seconds=0.05,
                lease_seconds=0.2, poison_lease_expiries=1, crash_budget=5,
            ) as sup:
                sup.run_tasks([("sleepy", Sleeps(0.6))])
        (span,) = [
            s for s in tracer.iter_spans() if s.name == "inline:sleepy"
        ]
        assert span.attrs["reason"] == "quarantined"

    def test_mid_task_death_span_names_reason_and_task(self):
        with use_tracer(Tracer()) as tracer:
            with WorkerSupervisor(
                transport="process", n_workers=1, heartbeat_seconds=0.1,
                lease_seconds=2.0, crash_budget=1,
            ) as sup:
                sup.run_tasks([("kill", SelfKill())])
        (run,) = [s for s in tracer.iter_spans() if s.name == "supervisor-run"]
        deaths = [s for s in run.walk() if s.name == "worker-death"]
        assert deaths
        assert deaths[0].attrs["worker"] == "worker-0"
        assert deaths[0].attrs["reason"] == "process died"
        assert deaths[0].attrs["task"] == "kill"


class TestOutcome:
    def test_outcome_ok_property(self):
        assert TaskOutcome(task_id="t", value=1).ok
        assert not TaskOutcome(task_id="t", error=ValueError()).ok


class TestWorkerConfigDirectives:
    def test_heartbeat_crash_directive_kills_inline_worker(self):
        directive = FaultDirective(
            site="worker.heartbeat", target="worker-0",
            fault_id="fault-0", kind="crash-worker",
        )
        handle = InlineTransport().spawn(
            WorkerConfig(worker_id="worker-0",
                         heartbeat_directive=directive)
        )
        assert not handle.alive()
