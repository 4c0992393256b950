"""Concurrency stress: one Database hammered from many threads, DDL mid-run.

The EXPLAIN cache is the only shared mutable state the fastpath adds to
``Database``; these tests drive it from N threads doing mixed
explain/execute work while a DDL lands in the middle, and then verify the
statistics-epoch contract directly: after a data change plus ANALYZE, a
cached estimate must never be served stale.  A compiled template's plan
skeleton is shared too (it memoizes residual filters on first use), so
one test re-costs a single template from many threads at once, and
another executes interleaved bindings of one template from many threads:
each binding's literals ride on its own plan, never on the shared
skeleton, executor, or bound statement.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.datasets import build_tpch
from repro.fastpath import CompiledTemplate
from repro.fuzz.oracles import table_diff
from repro.sqldb.explain import explain_plan
from repro.sqldb.storage import Column, Table
from repro.sqldb.types import SqlType
from repro.workload import SqlTemplate

NUM_THREADS = 8
ITERATIONS = 30

EXPLAIN_QUERIES = [
    "select count(*) from lineitem where l_quantity < 25",
    "select o_orderkey from orders where o_totalprice > 1000.0",
    "select c_name from customer c join orders o on c.c_custkey = o.o_custkey",
    "select n_name from nation where n_regionkey = 2",
    "select s_name from supplier where s_acctbal between 100.0 and 5000.0",
]

EXECUTE_QUERIES = [
    "select count(*) from region",
    "select count(*) from nation where n_regionkey < 3",
]


@pytest.fixture()
def db():
    return build_tpch(scale=0.002, seed=3)


def test_mixed_explain_execute_with_midflight_ddl(db):
    expected_explains = {sql: explain_plan(db.plan(sql)) for sql in EXPLAIN_QUERIES}
    expected_counts = {sql: db.execute(sql).row_count for sql in EXECUTE_QUERIES}
    # Warm the cache so the mid-flight DDL is guaranteed to flush something.
    for sql in EXPLAIN_QUERIES:
        assert db.explain(sql) == expected_explains[sql]
    epoch_before = db.catalog.statistics_epoch
    errors: list[BaseException] = []
    start = threading.Barrier(NUM_THREADS + 1)
    ddl_done = threading.Event()

    def worker(worker_id: int) -> None:
        try:
            start.wait()
            for i in range(ITERATIONS):
                sql = EXPLAIN_QUERIES[(worker_id + i) % len(EXPLAIN_QUERIES)]
                result = db.explain(sql)
                if result != expected_explains[sql]:
                    raise AssertionError(f"corrupted explain for {sql!r}")
                run = EXECUTE_QUERIES[(worker_id + i) % len(EXECUTE_QUERIES)]
                if db.execute(run).row_count != expected_counts[run]:
                    raise AssertionError(f"corrupted execution for {run!r}")
        except BaseException as exc:  # surfaced after join
            errors.append(exc)

    def ddl() -> None:
        start.wait()
        db.create_table(
            Table(
                "stress_extra",
                [
                    Column.from_values(
                        "id", SqlType.INTEGER, list(range(64))
                    ),
                    Column.from_values(
                        "grp", SqlType.INTEGER, [i % 4 for i in range(64)]
                    ),
                ],
            ),
            primary_key=["id"],
        )
        ddl_done.set()

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(NUM_THREADS)
    ]
    threads.append(threading.Thread(target=ddl))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    assert not errors, errors[0]
    assert ddl_done.is_set()
    assert db.catalog.statistics_epoch > epoch_before
    # And the new table is usable afterwards, through the same cache.
    assert db.explain("select count(*) from stress_extra").estimated_rows == 1
    assert db.execute("select count(*) from stress_extra").row_count == 1
    stats = db.explain_cache.stats()
    # The DDL bumped the epoch mid-run, so a flush happened (the cache was
    # warm: workers had been filling it before the DDL landed).
    assert stats["invalidations"] >= 1
    # Counter coherence under concurrency: every cache-routed explain is
    # accounted for as exactly one hit or miss — no lost updates.  Lookups:
    # the warm-up pass, every worker iteration, and the final probe above.
    expected_lookups = len(EXPLAIN_QUERIES) + NUM_THREADS * ITERATIONS + 1
    assert stats["hits"] + stats["misses"] == expected_lookups


def test_epoch_bump_invalidates_stale_costs(db):
    sql = "select l_orderkey from lineitem where l_quantity < 10"
    before = db.explain(sql)
    hits_before = db.explain_cache.stats()["hits"]
    assert db.explain(sql) == before
    assert db.explain_cache.stats()["hits"] == hits_before + 1

    # A "data load": shift the column's distribution in place, then ANALYZE.
    column = db.catalog.data("lineitem").column("l_quantity")
    column.data[:] = column.data + 100.0
    db.analyze("lineitem")

    after = db.explain(sql)
    uncached = explain_plan(db.plan(sql))
    assert after == uncached, "cache served a result inconsistent with cold plan"
    assert after != before, "estimate did not react to the new statistics"
    assert after.estimated_rows < before.estimated_rows
    assert db.explain_cache.stats()["invalidations"] >= 1


def test_single_flight_counts_concurrent_misses_once(db):
    sql = "select count(*) from orders where o_totalprice > 500.0"
    db.explain_cache.clear()
    # Force a fresh epoch observation, then race 6 threads on one cold key.
    barrier = threading.Barrier(6)
    results = []
    lock = threading.Lock()

    def probe() -> None:
        barrier.wait()
        result = db.explain(sql)
        with lock:
            results.append(result)

    threads = [threading.Thread(target=probe) for _ in range(6)]
    stats_before = db.explain_cache.stats()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    stats_after = db.explain_cache.stats()
    assert len(results) == 6
    assert all(r == results[0] for r in results)
    # Exactly one miss for the cold key; the other five threads either
    # waited on the in-flight computation or arrived after it finished.
    assert stats_after["misses"] == stats_before["misses"] + 1
    assert stats_after["hits"] == stats_before["hits"] + 5


def test_shared_template_skeleton_recosts_identically_across_threads(db):
    template = SqlTemplate(
        "stress_residual",
        "select c_name from customer c join orders o on c.c_custkey = o.o_custkey "
        "where o.o_totalprice > c.c_acctbal * {v1} and o.o_totalprice < {v2}",
    )
    compiled = CompiledTemplate(
        db, template, {"v1": SqlType.INTEGER, "v2": SqlType.DOUBLE}
    )
    bindings = [{"v1": k, "v2": 1000.0 * (k + 4)} for k in range(-3, 5)]
    expected = [explain_plan(db.plan(template.instantiate(b))) for b in bindings]
    errors: list[BaseException] = []
    start = threading.Barrier(NUM_THREADS)

    def worker() -> None:
        try:
            start.wait()
            for _ in range(ITERATIONS):
                assert compiled.explain_many(bindings) == expected
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(NUM_THREADS)]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    db.set_explain_cache(False)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
        db.set_explain_cache(True)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_shared_template_executes_interleaved_bindings_across_threads(db):
    template = SqlTemplate(
        "stress_prepared",
        "select c.c_name, o.o_totalprice - {v2} as over from customer c "
        "join orders o on c.c_custkey = o.o_custkey "
        "where o.o_totalprice > c.c_acctbal * {v1} and o.o_totalprice < {v2} "
        "and c.c_nationkey in "
        "(select n_nationkey from nation where n_regionkey <> {v1})",
    )
    compiled = CompiledTemplate(
        db, template, {"v1": SqlType.INTEGER, "v2": SqlType.DOUBLE}
    )
    bindings = [{"v1": k, "v2": 1000.0 * (k + 4)} for k in range(-3, 5)]
    expected = [db.execute(template.instantiate(b)).table for b in bindings]
    assert len({t.row_count for t in expected}) > 1  # bindings differ
    errors: list[BaseException] = []
    start = threading.Barrier(NUM_THREADS)
    cold_plans: list[str] = []
    plan = db.plan
    db.plan = lambda sql: cold_plans.append(sql) or plan(sql)

    def worker(worker_id: int) -> None:
        try:
            start.wait()
            for i in range(ITERATIONS):
                # Each thread walks the bindings from its own offset, so
                # different bindings run through the skeleton at once.
                index = (worker_id + i) % len(bindings)
                table = compiled.execute(bindings[index]).table
                detail = table_diff(str(bindings[index]), table, expected[index])
                assert detail is None, detail
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    threads = [
        threading.Thread(target=worker, args=(i,)) for i in range(NUM_THREADS)
    ]
    switch_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(switch_interval)
        del db.plan
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert cold_plans == []  # every binding ran from the skeleton
