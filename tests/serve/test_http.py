"""The HTTP front door, end-to-end on a real asyncio server.

Each fixture spins a :class:`BackgroundServer` on an ephemeral port and
talks to it with the stdlib client — the same path curl takes.
"""

import random
import sys
import threading
import time

import pytest

from repro.serve import (
    BackgroundServer,
    Job,
    JobRequest,
    JobRunner,
    ServeClient,
    ServeConfig,
    ServeCore,
    ServeServer,
    WorkerKilled,
)


def make_server(tmp_path, runner_factory=None, **config_overrides):
    config = dict(
        workers=2,
        max_queue_depth=8,
        checkpoint_root=str(tmp_path / "ckpts"),
    )
    config.update(config_overrides)
    server = ServeServer(
        ServeCore(ServeConfig(**config)),
        port=0,
        runner_factory=runner_factory,
        worker_poll_seconds=0.01,
    )
    return BackgroundServer(server)


def job_payload(**overrides):
    body = {
        "tenant": "acme",
        "specs": [{"num_joins": 1}],
        "queries": 8,
        "intervals": 2,
        "seed": 3,
    }
    body.update(overrides)
    return body


@pytest.fixture
def service(tmp_path):
    background = make_server(tmp_path)
    url = background.start()
    client = ServeClient(url)
    yield client, background
    background.drain_and_stop()


class TestProtocol:
    def test_healthz(self, service):
        client, _ = service
        health = client.health()
        assert health["status"] == "ok"
        assert health["workers"] == 2

    def test_submit_and_complete(self, service):
        client, _ = service
        status, body, _headers = client.submit(job_payload())
        assert status == 202
        final = client.wait_for(body["job_id"])
        assert final["state"] == "completed"
        assert final["result"]["queries"] >= 1
        assert len(final["result"]["fingerprint"]) == 64

    def test_job_table_and_single_lookup(self, service):
        client, _ = service
        _, body, _ = client.submit(job_payload())
        client.wait_for(body["job_id"])
        table = client.jobs()
        assert any(j["job_id"] == body["job_id"] for j in table)
        status, one = client.job(body["job_id"])
        assert status == 200
        assert one["tenant"] == "acme"

    def test_unknown_job_is_404(self, service):
        client, _ = service
        status, body = client.job("job-9999")
        assert status == 404

    def test_bad_payload_is_400(self, service):
        client, _ = service
        status, body, _ = client.submit({"tenant": ""})
        assert status == 400
        assert body["error"] == "bad_request"

    def test_unknown_route_is_404_and_wrong_method_405(self, service):
        client, _ = service
        assert client.request("GET", "/nope")[0] == 404
        assert client.request("DELETE", "/v1/jobs")[0] == 405

    def test_stats_exposes_counters(self, service):
        client, _ = service
        stats = client.stats()
        assert "queue_depth" in stats
        assert "rejections" in stats


class TestBackpressure:
    def test_queue_full_sets_retry_after_header(self, tmp_path):
        background = make_server(tmp_path, max_queue_depth=0)
        client = ServeClient(background.start())
        try:
            status, body, headers = client.submit(job_payload())
            assert status == 429
            assert body["code"] == "queue_full"
            assert float(headers["retry-after"]) > 0
        finally:
            background.drain_and_stop()


class TestWorkerCrash:
    def test_killed_worker_requeues_and_another_resumes(self, tmp_path):
        kills = {"remaining": 1}
        lock = threading.Lock()

        def killing_runner(server):
            def factory(worker):
                def on_point(point):
                    with lock:
                        if (
                            point.startswith("checkpoint_save:")
                            and kills["remaining"] > 0
                        ):
                            kills["remaining"] -= 1
                            raise WorkerKilled(point)

                return JobRunner(
                    clock=server.core.clock, on_point=on_point
                )

            return factory

        background = make_server(tmp_path)
        background.server._runner_factory = killing_runner(background.server)
        client = ServeClient(background.start())
        try:
            _, body, _ = client.submit(job_payload())
            final = client.wait_for(body["job_id"], timeout_seconds=90.0)
            assert final["state"] == "completed"
            assert final["attempts"] == 2  # killed once, resumed once
            # Bit-identical to an uninterrupted run of the same request.
            baseline = JobRunner().run(
                Job(
                    job_id="baseline",
                    request=JobRequest.from_payload(job_payload()),
                    checkpoint_dir=str(tmp_path / "baseline"),
                )
            )
            assert (
                final["result"]["fingerprint"]
                == baseline.result["fingerprint"]
            )
        finally:
            background.drain_and_stop()


class TestDrain:
    def test_drain_rejects_new_submissions_with_503(self, service):
        client, _ = service
        summary = client.drain()
        assert summary["draining"] is True
        status, body, headers = client.submit(job_payload())
        assert status == 503
        assert body["code"] == "draining"
        # Deliberately no Retry-After: drain ends in process exit, not
        # freed capacity — the body says to retry after the restart.
        assert "retry-after" not in headers
        assert body["retry_after_seconds"] is None
        assert "restart" in body["reason"]
        assert client.health()["status"] == "draining"

    def test_graceful_stop_accounts_every_job(self, tmp_path):
        background = make_server(tmp_path, workers=1)
        client = ServeClient(background.start())
        for seed in range(3):
            client.submit(job_payload(seed=seed))
        summary = background.drain_and_stop()
        assert summary["draining"] is True
        core = background.server.core
        assert core.audit_lost_jobs() == []
        states = {j.state for j in core.jobs.values()}
        assert states <= {"completed", "checkpointed", "queued"}


class GatedRunner:
    """Finishes each job only once *gate* opens."""

    def __init__(self, gate: threading.Event):
        self.gate = gate

    def attempt(self, core, job):
        self.gate.wait(30.0)
        core.finish(job, {"result": {"fingerprint": "f" * 64}})
        return job


class SleepyRunner:
    """Finishes each job after a random 0–3 ms."""

    def __init__(self, seed: int):
        self.random = random.Random(seed)

    def attempt(self, core, job):
        time.sleep(self.random.uniform(0.0, 0.003))
        core.finish(job, {"result": {"fingerprint": "f" * 64}})
        return job


def gated_service(tmp_path):
    gate = threading.Event()
    background = make_server(tmp_path, runner_factory=lambda worker: GatedRunner(gate))
    client = ServeClient(background.start())
    return gate, client, background


def counting_requests(client):
    """Record the path of every request *client* sends."""
    paths = []
    request = client.request

    def recorded(method, path, body=None):
        paths.append(path)
        return request(method, path, body)

    client.request = recorded
    return paths


class TestLongPoll:
    def test_answer_leaves_when_the_job_turns_terminal(self, tmp_path):
        gate, client, background = gated_service(tmp_path)
        try:
            _, body, _ = client.submit(job_payload())
            answers = []
            poll = threading.Thread(
                target=lambda: answers.append(
                    client.request("GET", f"/v1/jobs/{body['job_id']}?wait=20")
                )
            )
            started = time.monotonic()
            poll.start()
            poll.join(timeout=0.3)
            assert poll.is_alive()  # held while the job runs
            gate.set()
            poll.join(timeout=10.0)
            assert not poll.is_alive()
            assert time.monotonic() - started < 10.0
            status, job, _headers = answers[0]
            assert status == 200
            assert job["state"] == "completed"
        finally:
            gate.set()
            background.drain_and_stop()

    def test_wait_that_runs_out_answers_the_job_as_it_stands(self, tmp_path):
        gate, client, background = gated_service(tmp_path)
        try:
            _, body, _ = client.submit(job_payload())
            started = time.monotonic()
            status, job, _ = client.request(
                "GET", f"/v1/jobs/{body['job_id']}?wait=0.2"
            )
            assert time.monotonic() - started >= 0.2
            assert status == 200
            assert job["state"] in ("queued", "running")
        finally:
            gate.set()
            background.drain_and_stop()

    def test_terminal_job_is_answered_at_once(self, service):
        client, _ = service
        _, body, _ = client.submit(job_payload())
        client.wait_for(body["job_id"])
        started = time.monotonic()
        status, job, _ = client.request(
            "GET", f"/v1/jobs/{body['job_id']}?wait=20"
        )
        assert time.monotonic() - started < 5.0
        assert (status, job["state"]) == (200, "completed")

    @pytest.mark.parametrize("wait", ["abc", "-1", "nan"])
    def test_bad_wait_is_400(self, service, wait):
        client, _ = service
        _, body, _ = client.submit(job_payload())
        status, answer, _ = client.request(
            "GET", f"/v1/jobs/{body['job_id']}?wait={wait}"
        )
        assert status == 400
        assert "wait" in answer["error"]

    def test_unknown_job_is_404(self, service):
        client, _ = service
        assert client.request("GET", "/v1/jobs/job-9999?wait=5")[0] == 404

    def test_stop_answers_a_waiting_poll(self, tmp_path):
        gate, client, background = gated_service(tmp_path)
        try:
            _, body, _ = client.submit(job_payload())
            answers = []
            poll = threading.Thread(
                target=lambda: answers.append(
                    client.request("GET", f"/v1/jobs/{body['job_id']}?wait=20")
                )
            )
            poll.start()
            time.sleep(0.2)
            background.drain_and_stop(timeout_seconds=0.5)
            poll.join(timeout=10.0)
            assert not poll.is_alive()
            status, job, _ = answers[0]
            assert (status, job["state"]) == (200, "running")
        finally:
            gate.set()

    def test_wait_for_is_one_request(self, tmp_path):
        gate, client, background = gated_service(tmp_path)
        try:
            _, body, _ = client.submit(job_payload())
            paths = counting_requests(client)
            threading.Timer(0.3, gate.set).start()
            final = client.wait_for(body["job_id"], poll_seconds=0.01)
            assert final["state"] == "completed"
            assert paths == [f"/v1/jobs/{body['job_id']}?wait=5.000"]
        finally:
            gate.set()
            background.drain_and_stop()

    def test_no_wake_up_is_lost_under_thread_switching(self, tmp_path):
        # A lost wake-up leaves its poll hanging for the whole wait (10 s).
        background = make_server(
            tmp_path,
            runner_factory=lambda worker: SleepyRunner(int(worker[-1])),
        )
        url = background.start()
        waits, errors = [], []

        def client_loop(index):
            client = ServeClient(url, timeout_seconds=20.0)
            for seed in range(10):
                _, body, _ = client.submit(job_payload(seed=index * 10 + seed))
                started = time.monotonic()
                final = client.wait_for(body["job_id"], poll_seconds=0.001)
                waits.append(time.monotonic() - started)
                if final["state"] != "completed":
                    errors.append(final)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client_loop, args=(i,)) for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            background.drain_and_stop()
        assert errors == []
        assert len(waits) == 60
        assert max(waits) < 5.0

    def test_wait_for_paces_a_service_without_long_polls(
        self, tmp_path, monkeypatch
    ):
        # A service that predates long polls answers every lookup at once.
        monkeypatch.setattr(
            ServeServer,
            "_respond",
            lambda self, method, target, body: _answered(
                self._route(method, target, body)
            ),
        )
        gate, client, background = gated_service(tmp_path)
        try:
            _, body, _ = client.submit(job_payload())
            paths = counting_requests(client)
            threading.Timer(0.5, gate.set).start()
            final = client.wait_for(body["job_id"], poll_seconds=0.1)
            assert final["state"] == "completed"
            assert 2 <= len(paths) <= 12
        finally:
            gate.set()
            background.drain_and_stop()


async def _answered(response: bytes) -> bytes:
    return response
