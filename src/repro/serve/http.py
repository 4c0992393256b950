"""The HTTP front door: asyncio + a handwritten HTTP/1.1 exchange.

Stdlib only, by design: ``asyncio.start_server`` moves bytes, ~100 lines
here parse one request and format one response, and every route is a thin
translation onto :class:`~repro.serve.core.ServeCore` — which is where
all behavior (admission, verdicts, drain) actually lives and is tested.

Routes::

    POST /v1/jobs       submit a job        → 202 {job_id} | 400/422/429/503
    GET  /v1/jobs       list jobs           → 200 [ ... ]
    GET  /v1/jobs/<id>  one job             → 200 {...} | 404
    GET  /v1/jobs/<id>?wait=<s>  long poll  → 200 {...} | 400/404
    GET  /v1/stats      service counters    → 200 {...}
    GET  /healthz       liveness/drain      → 200 {"status": ...}
    POST /v1/drain      begin graceful drain→ 200 {...}

Rejections with a ``retry_after_seconds`` hint carry a ``Retry-After``
header, so well-behaved clients back off without parsing the body.

A job lookup with ``?wait=<seconds>`` is a long poll: the answer leaves
the moment the job turns terminal, or once the wait (capped at
``MAX_WAIT_SECONDS``) runs out, or at shutdown.  A client waiting for a
result therefore learns of it when it happens, not up to one poll
interval later.  ``ServeCore.on_job_change`` wakes the waiting requests
from the worker threads.

Execution happens on a pool of worker *threads* (the pipeline is
synchronous CPU-bound Python); the asyncio loop never blocks on a job.
Graceful drain — ``POST /v1/drain`` or SIGTERM via the CLI — stops
admission (503 + Retry-After), lets each in-flight job reach its next
durable checkpoint, records it CHECKPOINTED (resumable), and only then
lets the process exit.  Queued jobs stay queued in the job table: fully
described by their requests, never silently dropped.
"""

from __future__ import annotations

import asyncio
import json
import math
import threading
import time
from urllib.parse import parse_qs

from .core import ServeCore
from .jobs import JobState
from .runner import DrainRequested, JobRunner

_MAX_BODY_BYTES = 1 << 20  # 1 MiB: a spec pack, not a bulk upload
#: The longest a ``GET /v1/jobs/<id>?wait=`` long poll holds its answer.
MAX_WAIT_SECONDS = 30.0
#: How long shutdown waits for the requests it woke to be answered.
_STOP_GRACE_SECONDS = 1.0
_STATUS_TEXT = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def _response(status: int, body: dict, extra_headers: dict | None = None) -> bytes:
    payload = (json.dumps(body, sort_keys=True) + "\n").encode("utf-8")
    headers = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        "Content-Type: application/json",
        f"Content-Length: {len(payload)}",
        "Connection: close",
    ]
    for key, value in (extra_headers or {}).items():
        headers.append(f"{key}: {value}")
    return ("\r\n".join(headers) + "\r\n\r\n").encode("ascii") + payload


class ServeServer:
    """One ServeCore behind an asyncio listener and a worker-thread pool."""

    def __init__(
        self,
        core: ServeCore,
        host: str = "127.0.0.1",
        port: int = 0,
        runner_factory=None,
        worker_poll_seconds: float = 0.02,
        request_timeout_seconds: float = 10.0,
    ):
        self.core = core
        self.host = host
        self.port = port
        self.worker_poll_seconds = worker_poll_seconds
        self.request_timeout_seconds = request_timeout_seconds
        self._runner_factory = runner_factory or self._default_runner
        self._server: asyncio.AbstractServer | None = None
        self._workers: list[threading.Thread] = []
        self._stop = threading.Event()
        self._drain_event = threading.Event()
        self._loop: asyncio.AbstractEventLoop | None = None
        #: The requests inside a long poll, until their answer is sent.
        self._polls: set[asyncio.Task] = set()
        #: job id -> one future per long poll waiting for the job to move.
        self._waiters: dict[str, set[asyncio.Future]] = {}

    # -- worker pool -------------------------------------------------------------------

    def _default_runner(self, worker: str) -> JobRunner:
        return JobRunner(clock=self.core.clock, on_point=self._drain_point)

    def _drain_point(self, point: str) -> None:
        """Drain lands only at durable points: the save just hit disk."""
        if self._drain_event.is_set() and point.startswith("checkpoint_save:"):
            raise DrainRequested(f"drain at {point}")

    def _worker_loop(self, name: str) -> None:
        runner = self._runner_factory(name)
        while not self._stop.is_set():
            job = self.core.claim(name)
            if job is None:
                if self._drain_event.is_set():
                    return  # queue is quiet and no new work is admitted
                time.sleep(self.worker_poll_seconds)
                continue
            if runner.attempt(self.core, job) is None:
                # Drained, or a simulated worker death (chaos/CI): the job
                # is accounted for; stop like the real thing would.
                return

    def _spawn_workers(self) -> None:
        for index in range(self.core.config.workers):
            name = f"worker-{index}"
            thread = threading.Thread(
                target=self._worker_loop, args=(name,), name=name, daemon=True
            )
            thread.start()
            self._workers.append(thread)

    # -- the protocol -------------------------------------------------------------------

    async def _read_request(self, reader) -> tuple[str, str, dict | None]:
        request_line = await reader.readline()
        if not request_line:
            raise ConnectionError("empty request")
        try:
            method, target, _version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except ValueError:
            raise ValueError("malformed request line") from None
        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            key, _, value = line.decode("latin-1").partition(":")
            headers[key.strip().lower()] = value.strip()
        body = None
        length = int(headers.get("content-length", 0) or 0)
        if length > _MAX_BODY_BYTES:
            raise OverflowError(f"body of {length} bytes exceeds limit")
        if length:
            raw = await reader.readexactly(length)
            body = json.loads(raw.decode("utf-8"))
        return method, target, body

    async def _handle(self, reader, writer) -> None:
        try:
            try:
                method, target, body = await asyncio.wait_for(
                    self._read_request(reader),
                    timeout=self.request_timeout_seconds,
                )
            except asyncio.TimeoutError:
                writer.write(_response(408, {"error": "request_timeout"}))
                return
            except OverflowError as error:
                writer.write(_response(413, {"error": str(error)}))
                return
            except (ValueError, json.JSONDecodeError, asyncio.IncompleteReadError):
                writer.write(
                    _response(400, {"error": "malformed HTTP request or body"})
                )
                return
            except ConnectionError:
                return
            writer.write(await self._respond(method, target, body))
        except Exception as error:  # the front door never stack-traces
            try:
                writer.write(
                    _response(500, {"error": f"{type(error).__name__}: {error}"})
                )
            except Exception:
                pass
        finally:
            try:
                await writer.drain()
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._polls.discard(asyncio.current_task())

    async def _respond(self, method: str, target: str, body) -> bytes:
        """A job lookup with ``?wait=`` waits in :meth:`_settled`; every
        other request is answered at once by :meth:`_route`."""
        path, _, query = target.partition("?")
        wait = parse_qs(query).get("wait")
        if not (wait and method == "GET" and path.startswith("/v1/jobs/")):
            return self._route(method, target, body)
        try:
            seconds = float(wait[-1])
        except ValueError:
            seconds = math.nan
        if not seconds >= 0.0:  # also refuses NaN
            return _response(
                400, {"error": "wait must be a non-negative number of seconds"}
            )
        job = await self._settled(
            path.rsplit("/", 1)[1], min(seconds, MAX_WAIT_SECONDS)
        )
        if job is None:
            return _response(404, {"error": "no such job"})
        return _response(200, job.to_dict())

    async def _settled(self, job_id: str, seconds: float):
        """*job_id*'s job once it is terminal, or as it stands when
        *seconds* run out or the server stops (None if there is no such
        job)."""
        loop = asyncio.get_running_loop()
        self._polls.add(asyncio.current_task())
        deadline = loop.time() + seconds
        while True:
            moved = loop.create_future()
            waiters = self._waiters.setdefault(job_id, set())
            waiters.add(moved)
            try:
                # Read after registering: a move committed after this
                # read resolves *moved*.
                job = self.core.job(job_id)
                remaining = deadline - loop.time()
                if (
                    job is None
                    or job.state in JobState.TERMINAL
                    or remaining <= 0.0
                    or self._stop.is_set()
                ):
                    return job
                try:
                    await asyncio.wait_for(moved, remaining)
                except asyncio.TimeoutError:
                    pass  # the next read answers
            finally:
                waiters.discard(moved)
                if not waiters:
                    self._waiters.pop(job_id, None)

    def _job_changed(self, job_id: str) -> None:
        """``ServeCore.on_job_change``: any thread, core lock held."""
        if job_id in self._waiters and self._loop is not None:
            try:
                self._loop.call_soon_threadsafe(self._wake, job_id)
            except RuntimeError:
                pass  # the loop is closed, so no poll is waiting

    def _wake(self, job_id: str) -> None:
        for moved in self._waiters.get(job_id, ()):
            if not moved.done():
                moved.set_result(None)

    def _route(self, method: str, target: str, body) -> bytes:
        target = target.split("?", 1)[0]
        if target == "/healthz" and method == "GET":
            return _response(
                200,
                {
                    "status": "draining" if self.core.draining else "ok",
                    "workers": self.core.config.workers,
                },
            )
        if target == "/v1/jobs" and method == "POST":
            status, payload = self.core.submit(body)
            headers = {}
            retry_after = payload.get("retry_after_seconds")
            if retry_after is not None:
                headers["Retry-After"] = f"{retry_after:g}"
            return _response(status, payload, headers)
        if target == "/v1/jobs" and method == "GET":
            return _response(200, {"jobs": self.core.jobs_snapshot()})
        if target.startswith("/v1/jobs/") and method == "GET":
            job = self.core.job(target.rsplit("/", 1)[1])
            if job is None:
                return _response(404, {"error": "no such job"})
            return _response(200, job.to_dict())
        if target == "/v1/stats" and method == "GET":
            return _response(200, self.core.stats())
        if target == "/v1/drain" and method == "POST":
            summary = self.begin_drain()
            return _response(200, summary)
        if target in ("/healthz", "/v1/jobs", "/v1/stats", "/v1/drain"):
            return _response(405, {"error": f"{method} not allowed here"})
        return _response(404, {"error": f"no route for {target}"})

    # -- lifecycle ---------------------------------------------------------------------

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self.core.on_job_change = self._job_changed
        self._server = await asyncio.start_server(
            self._handle, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._spawn_workers()

    def begin_drain(self) -> dict:
        """Stop admission and ask in-flight jobs to checkpoint (non-blocking)."""
        summary = self.core.drain()
        self._drain_event.set()
        return summary

    async def drain_and_stop(self, timeout_seconds: float = 30.0) -> dict:
        """Graceful shutdown: drain, wait for workers, close the listener."""
        summary = self.begin_drain()
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self._join_workers, timeout_seconds)
        # Workers are quiet: every in-flight job reached CHECKPOINTED or a
        # terminal state.  Journal the terminal `drained` record so the
        # next lifetime knows this one ended cleanly, then let go of the
        # state dir so it can take over without staleness heuristics.
        self.core.mark_drained()
        await self.stop()
        self.core.close()
        summary["drained"] = self.core.drained
        return summary

    def _join_workers(self, timeout_seconds: float) -> None:
        deadline = time.monotonic() + timeout_seconds
        for thread in self._workers:
            thread.join(timeout=max(deadline - time.monotonic(), 0.0))

    async def stop(self) -> None:
        self._stop.set()
        # Answer every waiting long poll before the listener goes.
        for job_id in list(self._waiters):
            self._wake(job_id)
        if self._polls:
            await asyncio.wait(self._polls, timeout=_STOP_GRACE_SECONDS)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def serve_until(self, stop_event: asyncio.Event) -> dict:
        """Run until *stop_event* fires (SIGTERM in the CLI), then drain."""
        await stop_event.wait()
        return await self.drain_and_stop()


class BackgroundServer:
    """A ServeServer on its own event-loop thread (tests, bench, CLI users).

    ``start()`` blocks until the listener is bound and returns the base
    URL; ``drain_and_stop()`` performs the full graceful shutdown from the
    calling thread.
    """

    def __init__(self, server: ServeServer):
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    @property
    def url(self) -> str:
        return f"http://{self.server.host}:{self.server.port}"

    def start(self, timeout_seconds: float = 10.0) -> str:
        started = threading.Event()

        def _run() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            loop.run_until_complete(self.server.start())
            started.set()
            loop.run_forever()
            loop.close()

        self._thread = threading.Thread(
            target=_run, name="serve-loop", daemon=True
        )
        self._thread.start()
        if not started.wait(timeout_seconds):
            raise RuntimeError("serve loop failed to start in time")
        return self.url

    def drain_and_stop(self, timeout_seconds: float = 30.0) -> dict:
        assert self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain_and_stop(timeout_seconds), self._loop
        )
        summary = future.result(timeout=timeout_seconds + 5.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        assert self._thread is not None
        self._thread.join(timeout=5.0)
        return summary
