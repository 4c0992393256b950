"""EXPLAIN result cache: LRU, epoch-invalidated, single-flight.

``Database.explain`` serves repeated statements from this cache: the same
text EXPLAINed again, formatting variants of it, concurrent callers that
share one ``Database``.  SQLBarber's cost-targeted loops do not use it.
Their bindings almost never repeat (a hit ratio of 0.045 over 150
``plan_cost`` requests), so they cost each binding with
:meth:`~repro.fastpath.compiled.CompiledTemplate.estimate`, which reads no
cache.  Estimates are a pure function of (SQL text, catalog statistics),
so they cache perfectly:

* entries are keyed by :func:`normalize_sql` of the statement, so textual
  noise (whitespace, a trailing semicolon) cannot split the cache, and two
  statements that tokenize differently never share an entry;
* the whole cache is keyed to the catalog's *statistics epoch* — any DDL,
  data load, or re-analyze bumps the epoch and the next lookup drops every
  entry, so stale costs are impossible by construction;
* lookups are single-flight: when N threads that share one ``Database``
  miss on the same key at once, one computes and the rest wait, so no cold
  plan is computed twice and the hit/miss counters do not depend on how
  the threads interleave;
* hit/miss/eviction/invalidation counters are exported both through the
  ambient :mod:`repro.obs` telemetry (``sqldb.explain.cache.*``) and through
  :meth:`ExplainCache.stats` for telemetry-free benchmarking.

The cache stores whatever value the compute callback returns (in practice a
frozen :class:`~repro.sqldb.explain.ExplainResult`) and never mutates it, so
shared entries are safe across threads.
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict

from repro.obs import current as current_telemetry

DEFAULT_CACHE_SIZE = 8192


#: The spans the cache key copies verbatim, in the lexer's own terms: a
#: string literal, a quoted identifier, a placeholder, a line comment
#: through its newline, and a block comment.  An unterminated one runs to
#: the end of the text.
_VERBATIM_SPAN = re.compile(
    r"""('[^']*'?|"[^"]*"?|\{[^}]*\}?|--[^\n]*\n?|/\*(?:.*?\*/|.*))""",
    re.DOTALL,
)
_WHITESPACE = re.compile(r"\s+")


def normalize_sql(sql: str) -> str:
    """Canonical cache key: collapse whitespace where the lexer ignores it.

    The key rule: two texts share a key only if they tokenize to the same
    tokens, apart from one trailing semicolon (which the parser accepts and
    ignores), or both fail to tokenize.  So the key copies byte-exact every
    span the lexer reads as one unit: string literals, quoted identifiers,
    placeholders, line comments through their newline, and block comments.
    Inside those a space is content or ends the span, and a quote opens
    nothing.  Elsewhere the key collapses each whitespace run to one space
    and drops leading and trailing whitespace, and it drops one trailing
    semicolon.  Collision-safe by that rule.
    """
    pieces = _VERBATIM_SPAN.split(sql)  # code, span, code, span, ..., code
    pieces[::2] = [_WHITESPACE.sub(" ", code) for code in pieces[::2]]
    text = "".join(pieces).strip()
    if text.endswith(";"):
        text = text[:-1].rstrip()
    return text


class ExplainCache:
    """A bounded, thread-safe, epoch-invalidated cache of EXPLAIN results."""

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE):
        if maxsize <= 0:
            raise ValueError("ExplainCache maxsize must be positive")
        self.maxsize = maxsize
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._inflight: dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self._epoch: int | None = None
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def contains(self, key: str) -> bool:
        """Whether *key* is cached (no LRU touch, no counters)."""
        with self._lock:
            return key in self._entries

    def stats(self) -> dict:
        with self._lock:
            return {
                "size": len(self._entries),
                "maxsize": self.maxsize,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": self.hits / max(self.hits + self.misses, 1),
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    # -- the one lookup path ---------------------------------------------------

    def get_or_compute(self, key: str, epoch: int, compute):
        """Return the cached value for *key*, computing it on a miss.

        *epoch* is the catalog's current statistics epoch; when it differs
        from the epoch the cache last saw, every entry is dropped first.
        Concurrent misses on the same key are single-flighted: exactly one
        caller runs *compute*, the others block and read the stored value.
        Exceptions from *compute* propagate to the computing caller and are
        never cached; the waiters then race to recompute (matching the
        uncached path, where every caller would see the error).
        """
        telemetry = current_telemetry()
        while True:
            with self._lock:
                if self._epoch != epoch:
                    if self._entries:
                        self.invalidations += 1
                        telemetry.count("sqldb.explain.cache.invalidations")
                        self._entries.clear()
                    self._epoch = epoch
                value = self._entries.get(key)
                if value is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    telemetry.count("sqldb.explain.cache.hits")
                    return value
                waiter = self._inflight.get(key)
                if waiter is None:
                    event = threading.Event()
                    self._inflight[key] = event
                    break
            waiter.wait()
        try:
            value = compute()
        except BaseException:
            with self._lock:
                done = self._inflight.pop(key, None)
            if done is not None:
                done.set()
            raise
        with self._lock:
            # A DDL may have landed while we were planning; only store the
            # entry if the epoch we planned under is still current.
            if self._epoch == epoch:
                self._entries[key] = value
                self._entries.move_to_end(key)
                while len(self._entries) > self.maxsize:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    telemetry.count("sqldb.explain.cache.evictions")
            self.misses += 1
            done = self._inflight.pop(key, None)
        if done is not None:
            done.set()
        telemetry.count("sqldb.explain.cache.misses")
        return value
