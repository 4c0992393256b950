"""The fuzz campaign driver.

:class:`FuzzRunner` wires the pieces together: generate ``budget``
statements from :class:`FuzzGrammar`, run every oracle over each one,
shrink failures with :func:`shrink_sql`, append shrunk reproducers to the
regression :class:`Corpus`, and emit a deterministic :class:`FuzzReport`.

Determinism contract (the acceptance bar): two runs with the same
``(seed, budget, schema, grammar version)`` produce byte-identical report
JSON.  The report therefore contains no timestamps or timings — wall-clock
numbers go to telemetry (``fuzz.*`` counters and histograms) instead.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from repro.obs import current as current_telemetry
from repro.sqldb import Database, SqlType, Table
from repro.sqldb.errors import SqlError

from .corpus import Corpus, CorpusEntry
from .grammar import GRAMMAR_VERSION, FuzzGrammar, GeneratedStatement
from .oracles import (
    SKIPPED,
    Disagreement,
    Oracle,
    OracleContext,
    default_oracles,
)
from .shrink import shrink_sql


def build_fuzz_database(seed: int = 0) -> Database:
    """The standard fuzz target: three tables with NULLs, foreign keys,
    dates, text, and skewed doubles — every type and stats shape the
    grammar knows how to exploit.  Deterministic in *seed*."""
    rng = np.random.default_rng(seed + 1729)
    db = Database("fuzzdb")
    n_users, n_orders, n_items = 120, 600, 90
    user_rows, order_rows = np.arange(n_users), np.arange(n_orders)
    users = Table.from_dict(
        "users",
        {
            "user_id": user_rows,
            "name": [f"user_{i % 19}" for i in range(n_users)],
            "age": rng.integers(18, 80, n_users),
            "city": [
                None if i % 11 == 0 else f"city_{i % 5}" for i in range(n_users)
            ],
        },
        {
            "user_id": SqlType.INTEGER,
            "name": SqlType.TEXT,
            "age": SqlType.INTEGER,
            "city": SqlType.TEXT,
        },
        nulls={"age": user_rows % 13 == 0},
    )
    db.create_table(users, primary_key=["user_id"])
    orders = Table.from_dict(
        "orders",
        {
            "order_id": order_rows,
            "user_id": rng.integers(0, n_users, n_orders),
            "item_id": rng.integers(0, n_items, n_orders),
            "amount": rng.exponential(80.0, n_orders).round(2),
            "status": [
                ["new", "paid", "shipped", "done", "void"][i % 5]
                for i in range(n_orders)
            ],
            "order_date": 10800 + order_rows * 7 % 400,
        },
        {
            "order_id": SqlType.INTEGER,
            "user_id": SqlType.INTEGER,
            "item_id": SqlType.INTEGER,
            "amount": SqlType.DOUBLE,
            "status": SqlType.TEXT,
            "order_date": SqlType.DATE,
        },
        nulls={"item_id": order_rows % 29 == 0, "amount": order_rows % 23 == 0},
    )
    db.create_table(orders, primary_key=["order_id"])
    items = Table.from_dict(
        "items",
        {
            "item_id": np.arange(n_items),
            "label": [f"item_{i % 31}" for i in range(n_items)],
            "price": rng.uniform(1.0, 500.0, n_items).round(2),
            "in_stock": np.arange(n_items) % 3 != 0,
        },
        {
            "item_id": SqlType.INTEGER,
            "label": SqlType.TEXT,
            "price": SqlType.DOUBLE,
            "in_stock": SqlType.BOOLEAN,
        },
    )
    db.create_table(items, primary_key=["item_id"])
    db.add_foreign_key("orders", "user_id", "users", "user_id")
    db.add_foreign_key("orders", "item_id", "items", "item_id")
    return db


@dataclass
class FuzzReport:
    """Deterministic summary of one fuzz campaign."""

    seed: int
    budget: int
    grammar_version: str
    database: str
    statements: int = 0
    invalid: int = 0
    shapes: dict = field(default_factory=dict)
    oracles: dict = field(default_factory=dict)  # name -> {checks, skips, fails}
    disagreements: list = field(default_factory=list)  # list[Disagreement]
    corpus_added: list = field(default_factory=list)  # list[str] entry ids

    @property
    def ok(self) -> bool:
        return not self.disagreements and self.invalid == 0

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "grammar_version": self.grammar_version,
            "database": self.database,
            "statements": self.statements,
            "invalid": self.invalid,
            "shapes": dict(sorted(self.shapes.items())),
            "oracles": {
                name: dict(sorted(stats.items()))
                for name, stats in sorted(self.oracles.items())
            },
            "disagreements": [d.to_dict() for d in self.disagreements],
            "corpus_added": sorted(self.corpus_added),
            "ok": self.ok,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


class FuzzRunner:
    """Run a fuzz campaign over one database."""

    def __init__(
        self,
        db: Database | None = None,
        seed: int = 0,
        oracles: list[Oracle] | None = None,
        corpus: Corpus | None = None,
        shrink: bool = True,
        grammar: FuzzGrammar | None = None,
    ):
        self.db = db if db is not None else build_fuzz_database(seed)
        self.seed = seed
        self.oracles = oracles if oracles is not None else default_oracles()
        self.corpus = corpus
        self.shrink = shrink
        self.grammar = grammar or FuzzGrammar(self.db.catalog, seed=seed)
        self.ctx = OracleContext(db=self.db, seed=seed)

    def run(self, budget: int) -> FuzzReport:
        telemetry = current_telemetry()
        report = FuzzReport(
            seed=self.seed,
            budget=budget,
            grammar_version=GRAMMAR_VERSION,
            database=self.db.name,
        )
        with telemetry.span("fuzz.run", seed=self.seed, budget=budget):
            for index in range(budget):
                gen = self.grammar.statement(index)
                report.statements += 1
                report.shapes[gen.shape] = report.shapes.get(gen.shape, 0) + 1
                telemetry.count("fuzz.statements", shape=gen.shape)
                started = time.perf_counter()
                self._check_statement(gen, report)
                telemetry.observe(
                    "fuzz.statement.seconds", time.perf_counter() - started
                )
            for oracle in self.oracles:
                for disagreement in oracle.finish(self.ctx):
                    telemetry.count("fuzz.disagreements", oracle=oracle.name)
                    self._record(disagreement, report)
        telemetry.count("fuzz.runs")
        return report

    # -- internals -------------------------------------------------------------

    def _check_statement(self, gen: GeneratedStatement, report: FuzzReport) -> None:
        telemetry = current_telemetry()
        ok, error = self.db.validate(gen.sql)
        if not ok:
            # Generated statements are valid by construction; a rejection is
            # a grammar/engine disagreement in its own right.
            report.invalid += 1
            telemetry.count("fuzz.invalid")
            self._record(
                Disagreement(
                    oracle="validity",
                    sql=gen.sql,
                    detail=f"generated statement rejected: {error}",
                    index=gen.index,
                ),
                report,
            )
            return
        for oracle in self.oracles:
            if gen.index % oracle.stride != 0:
                continue
            stats = report.oracles.setdefault(
                oracle.name, {"checks": 0, "skips": 0, "fails": 0}
            )
            try:
                outcome = oracle.check(self.ctx, gen)
            except SqlError as exc:
                outcome = f"engine error: {exc}"
            except (
                ArithmeticError,
                AttributeError,
                IndexError,
                KeyError,
                TypeError,
                ValueError,
            ) as exc:
                outcome = f"engine crash: {type(exc).__name__}: {exc}"
            if outcome == SKIPPED:
                stats["skips"] += 1
                telemetry.count("fuzz.skips", oracle=oracle.name)
                continue
            stats["checks"] += 1
            telemetry.count("fuzz.checks", oracle=oracle.name)
            if outcome is None:
                continue
            stats["fails"] += 1
            telemetry.count("fuzz.disagreements", oracle=oracle.name)
            disagreement = Disagreement(
                oracle=oracle.name,
                sql=gen.sql,
                detail=outcome,
                index=gen.index,
            )
            if self.shrink:
                disagreement.shrunk_sql = self._shrink(oracle, gen, disagreement)
            self._record(disagreement, report)

    def _shrink(
        self, oracle: Oracle, gen: GeneratedStatement, disagreement: Disagreement
    ) -> str | None:
        """Reduce ``gen.sql`` to a minimal statement still failing *oracle*.

        Tightening failures are not shrinkable (the failure is a property of
        the (statement, tightened statement) pair, not of one statement)."""
        if "tightening" in disagreement.detail:
            return None

        def still_fails(candidate_sql: str) -> bool:
            ok, _ = self.db.validate(candidate_sql)
            if not ok:
                return False
            candidate = GeneratedStatement(
                index=gen.index, sql=candidate_sql, shape=gen.shape
            )
            try:
                outcome = oracle.check(self.ctx, candidate)
            except SqlError:
                return True  # still blows up: still a reproducer
            except (ArithmeticError, AttributeError, IndexError, KeyError,
                    TypeError, ValueError):
                return True
            return outcome is not None and outcome != SKIPPED

        shrunk = shrink_sql(gen.sql, still_fails)
        current_telemetry().count("fuzz.shrinks")
        return shrunk

    def _record(self, disagreement: Disagreement, report: FuzzReport) -> None:
        report.disagreements.append(disagreement)
        if self.corpus is None:
            return
        entry = CorpusEntry.create(
            disagreement.oracle,
            disagreement.shrunk_sql or disagreement.sql,
            detail=disagreement.detail,
            seed=self.seed,
            index=disagreement.index,
            grammar_version=GRAMMAR_VERSION,
            shrunk_from=(
                disagreement.sql if disagreement.shrunk_sql else None
            ),
        )
        if self.corpus.append(entry) is not None:
            report.corpus_added.append(entry.entry_id)
            current_telemetry().count("fuzz.corpus.appended")


def replay_entry(db: Database, entry: CorpusEntry, seed: int = 0) -> str | None:
    """Re-check one corpus entry; None means the regression stayed fixed.

    Unknown oracle names fail loudly — a renamed oracle must migrate its
    corpus entries."""
    oracle_by_name = {o.name: o for o in default_oracles()}
    if entry.oracle == "validity":
        ok, error = db.validate(entry.sql)
        return None if ok else f"still rejected: {error}"
    oracle = oracle_by_name.get(entry.oracle)
    if oracle is None:
        return f"unknown oracle {entry.oracle!r}"
    gen = GeneratedStatement(
        index=entry.index if entry.index is not None else 0,
        sql=entry.sql,
        shape="corpus",
        tightened_sql=entry.tightened_sql,
    )
    ctx = OracleContext(db=db, seed=seed)
    try:
        outcome = oracle.check(ctx, gen)
    except SqlError as exc:
        return f"engine error: {exc}"
    if outcome is None or outcome == SKIPPED:
        return None
    return outcome


__all__ = [
    "FuzzRunner",
    "FuzzReport",
    "build_fuzz_database",
    "replay_entry",
]
