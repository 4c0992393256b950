"""A minimal stdlib client for the serve API (CLI, bench, tests).

``http.client`` only — the point of the serve layer is that any HTTP
client works (the README quickstart uses curl); this one exists so
``repro submit`` / ``repro jobs`` and the load harness don't each
hand-roll request plumbing.
"""

from __future__ import annotations

import http.client
import json
import time
from urllib.parse import urlsplit


class ServeClientError(Exception):
    """Transport-level failure talking to the service."""


class ServeClient:
    """Thin JSON-over-HTTP wrapper; every call opens one connection."""

    def __init__(self, url: str, timeout_seconds: float = 10.0):
        parts = urlsplit(url if "//" in url else f"http://{url}")
        if parts.scheme != "http" or not parts.hostname:
            raise ServeClientError(f"unsupported service URL {url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout_seconds = timeout_seconds

    def request(
        self, method: str, path: str, body: dict | None = None
    ) -> tuple[int, dict, dict]:
        """One exchange → (status, parsed JSON body, response headers)."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_seconds
        )
        try:
            payload = (
                json.dumps(body).encode("utf-8") if body is not None else None
            )
            headers = (
                {"Content-Type": "application/json"} if payload else {}
            )
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
            return (
                response.status,
                parsed,
                {k.lower(): v for k, v in response.getheaders()},
            )
        except (OSError, json.JSONDecodeError) as error:
            raise ServeClientError(
                f"{method} {path} against {self.host}:{self.port} failed: "
                f"{type(error).__name__}: {error}"
            ) from error
        finally:
            connection.close()

    # -- conveniences ------------------------------------------------------------------

    def health(self) -> dict:
        return self.request("GET", "/healthz")[1]

    def submit(self, job_payload: dict) -> tuple[int, dict, dict]:
        return self.request("POST", "/v1/jobs", job_payload)

    def job(self, job_id: str) -> tuple[int, dict]:
        status, body, _headers = self.request("GET", f"/v1/jobs/{job_id}")
        return status, body

    def jobs(self) -> list[dict]:
        return self.request("GET", "/v1/jobs")[1]["jobs"]

    def stats(self) -> dict:
        return self.request("GET", "/v1/stats")[1]

    def drain(self) -> dict:
        return self.request("POST", "/v1/drain")[1]

    def recovery(self) -> dict | None:
        """The service's recovery report, or None if it started fresh
        (no durable state dir, or nothing to replay)."""
        return self.stats().get("recovery")

    def wait_for(
        self,
        job_id: str,
        timeout_seconds: float = 60.0,
        poll_seconds: float = 0.05,
    ) -> dict:
        """Poll until *job_id* reaches a terminal state.

        Each poll is a long poll (``?wait=``, at most half this client's
        socket timeout): the service answers the moment the job turns
        terminal.  Polls start at least *poll_seconds* apart, so a
        service that answers at once is polled at that pace.
        """
        from .jobs import JobState

        deadline = time.monotonic() + timeout_seconds
        while True:
            asked = time.monotonic()
            wait = min(max(deadline - asked, 0.0), self.timeout_seconds / 2)
            status, body, _headers = self.request(
                "GET", f"/v1/jobs/{job_id}?wait={wait:.3f}"
            )
            if status == 200 and body.get("state") in JobState.TERMINAL:
                return body
            answered = time.monotonic()
            if answered >= deadline:
                raise ServeClientError(
                    f"job {job_id} still {body.get('state')!r} after "
                    f"{timeout_seconds}s"
                )
            time.sleep(max(poll_seconds - (answered - asked), 0.0))
