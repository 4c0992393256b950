"""Engine fault injection: the failure model of the embedded database.

Mirrors :class:`~repro.llm.faults.TransportFaultModel` one layer down: where
transport faults make LLM *calls* fail the way a remote API does, engine
faults make *query execution* misbehave the way a loaded database does —
operators run slow, storage reads hiccup transiently, and sessions get
cancelled out from under the client.  All rates default to zero, so an
ungoverned engine behaves exactly as before this model existed.

Draws come from a dedicated per-template RNG stream (seeded from
``(config.seed + GOVERNOR_SEED_OFFSET, crc32(template_id))`` by the
profiler), so injecting faults never perturbs the sampling streams and the
fault sequence for a template does not depend on which templates were
profiled before it.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Seed-stream offset for the governor's fault RNG (cf. the transport
#: fault stream's ``seed + 7919``); keeps it disjoint from sampling RNGs.
GOVERNOR_SEED_OFFSET = 31


@dataclass(frozen=True)
class EngineFaultModel:
    """Per-operator fault probabilities for the embedded engine.

    ``slow_operator_rate`` charges a random latency (uniform in
    ``[0, slow_operator_seconds]``) to the governor's timeline — under a
    simulated clock this is how deadline storms are produced without real
    waiting.  ``storage_error_rate`` raises a retryable
    :class:`~repro.sqldb.errors.TransientStorageError` at scan nodes.
    ``cancel_rate`` flips the governor's cancel flag, simulating an
    administrator killing the session.
    """

    slow_operator_rate: float = 0.0
    storage_error_rate: float = 0.0
    cancel_rate: float = 0.0
    # Upper bound on the injected per-operator latency (charged seconds).
    slow_operator_seconds: float = 0.05

    @property
    def active(self) -> bool:
        return (
            self.slow_operator_rate > 0
            or self.storage_error_rate > 0
            or self.cancel_rate > 0
        )

    @staticmethod
    def none() -> "EngineFaultModel":
        """A fault-free engine (the default)."""
        return EngineFaultModel()

    @staticmethod
    def storm(intensity: float = 0.3) -> "EngineFaultModel":
        """A mixed storm splitting *intensity* across the three classes.

        Cancellations are kept an order of magnitude rarer than the other
        two: a spurious cancel costs a whole query (and a strike), so equal
        shares would quarantine everything at moderate intensities.
        """
        share = intensity / 3.0
        return EngineFaultModel(
            slow_operator_rate=share,
            storage_error_rate=share,
            cancel_rate=share / 10.0,
        )
