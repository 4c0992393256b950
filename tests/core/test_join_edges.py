"""Join-path sampling reads the FK edges without building a networkx graph.

``join_edges`` must list the edges exactly as
``join_graph(db).edges(data=True)`` does, because ``sample_join_path``
indexes that list with its RNG: a different order would sample different
paths.  The graph is kept as the reference.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.join_paths import join_edges, join_graph
from repro.datasets import build_imdb, build_tpch
from repro.fuzz import build_fuzz_database
from repro.sqldb.catalog import ForeignKey


def graph_edges(db) -> list[dict]:
    return [data["edge"] for _, _, data in join_graph(db).edges(data=True)]


@pytest.mark.parametrize("build, count", [
    (lambda: build_imdb(0.3), 22),
    (lambda: build_tpch(0.0003), 9),
    (lambda: build_fuzz_database(0), 2),
])
def test_dataset_edges_in_graph_order(build, count):
    db = build()
    assert len(join_edges(db)) == count
    assert join_edges(db) == graph_edges(db)


TABLES = [f"t{i}" for i in range(5)]


@st.composite
def schemas(draw):
    """Tables (some without FKs) and FKs among them: parallel FKs,
    self-references, and FKs naming a table the catalog does not list."""
    tables = draw(st.lists(st.sampled_from(TABLES), unique=True, max_size=5))
    names = st.sampled_from(tables + ["outside"]) if tables else st.just("outside")
    fks = draw(st.lists(
        st.builds(ForeignKey, names, st.sampled_from(["a", "b"]), names,
                  st.sampled_from(["id", "a"])),
        max_size=12,
    ))
    return SimpleNamespace(
        catalog=SimpleNamespace(table_names=tables, foreign_keys=fks)
    )


@settings(max_examples=300, deadline=None)
@given(db=schemas())
def test_drawn_schemas_edges_in_graph_order(db):
    assert join_edges(db) == graph_edges(db)


def test_fresh_edge_dicts_per_call():
    db = build_fuzz_database(0)
    first, second = join_edges(db), join_edges(db)
    assert first == second
    assert all(a is not b for a, b in zip(first, second))
