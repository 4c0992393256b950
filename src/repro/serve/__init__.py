"""A multi-tenant job service around the SQLBarber pipeline.

Layered so every piece is testable without the one above it:

``jobs``           the unit of work (JobRequest validation, Job lifecycle)
``admission``      quota/budget/rate verdicts (TenantQuota, RateLimiter)
``store``          the write-ahead job journal (segments, snapshots, faults)
``core``           the lock-guarded state machine (queue, accounts, recovery)
``runner``         one job through SQLBarber (checkpointed, deadline-bounded)
``http``           the asyncio front door + worker-thread pool
``client``         a stdlib HTTP client (CLI, bench, tests)
``chaos``          the seeded service chaos campaigns: ``serve`` (worker
                   kills, storms, poison) and ``restart`` (kill the whole
                   service at every journaled transition)
"""

from .admission import (
    CONSUMING_REJECTION_CODES,
    AdmissionController,
    RateLimiter,
    Rejection,
    TenantAccount,
    TenantQuota,
)
from .chaos import (
    RestartChaosReport,
    RestartChaosRunner,
    ServeChaosReport,
    ServeChaosRunner,
)
from .client import ServeClient, ServeClientError
from .core import ServeConfig, ServeCore
from .http import BackgroundServer, ServeServer
from .jobs import BadRequest, Job, JobRequest, JobState
from .runner import (
    KILL_POINTS,
    DrainRequested,
    JobOutcome,
    JobRunner,
    WorkerKilled,
)
from .store import JobStore, StoreFaultModel

__all__ = [
    "AdmissionController",
    "BackgroundServer",
    "BadRequest",
    "CONSUMING_REJECTION_CODES",
    "DrainRequested",
    "Job",
    "JobOutcome",
    "JobRequest",
    "JobRunner",
    "JobState",
    "JobStore",
    "KILL_POINTS",
    "RateLimiter",
    "Rejection",
    "RestartChaosReport",
    "RestartChaosRunner",
    "ServeChaosReport",
    "ServeChaosRunner",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeCore",
    "ServeServer",
    "StoreFaultModel",
    "TenantAccount",
    "TenantQuota",
    "WorkerKilled",
]
