"""Step 2 of the template generator: join path enumeration and sampling.

The join graph has a node per table and an edge per foreign key.  The
generator samples one join path per template attempt, which (i)
diversifies join patterns across attempts, (ii) shrinks prompts to the
tables on the path, and (iii) avoids the LLM long-context failure mode —
the three benefits the paper lists.  Sampling reads the FK edges in the
join graph's edge order without building the graph; networkx is imported
only by :func:`join_graph` and :func:`enumerate_join_paths`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.sqldb import Database
from repro.sqldb.catalog import ForeignKey

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

JoinEdge = dict  # {"table", "column", "ref_table", "ref_column"}


def _edge(fk: ForeignKey) -> JoinEdge:
    return {
        "table": fk.table,
        "column": fk.column,
        "ref_table": fk.ref_table,
        "ref_column": fk.ref_column,
    }


def join_graph(db: Database) -> nx.MultiGraph:
    """The undirected join graph: tables as nodes, FKs as edges."""
    import networkx as nx

    graph = nx.MultiGraph()
    graph.add_nodes_from(db.catalog.table_names)
    for fk in db.catalog.foreign_keys:
        graph.add_edge(fk.table, fk.ref_table, edge=_edge(fk))
    return graph


def join_edges(db: Database) -> list[JoinEdge]:
    """Every FK edge, in the order ``join_graph(db).edges(data=True)``
    lists them.

    That order is networkx's ``MultiGraph`` adjacency walk: tables in
    catalog order; for each table, its neighbours in the order their first
    FK was added, skipping neighbours already walked; parallel FKs in the
    order they were added; a self-referencing FK once.
    """
    adjacency: dict[str, dict[str, list[JoinEdge]]] = {
        name: {} for name in db.catalog.table_names
    }
    for fk in db.catalog.foreign_keys:
        # One list shared by both ends, as the graph shares its key dict.
        parallel = adjacency.setdefault(fk.table, {}).get(fk.ref_table)
        if parallel is None:
            parallel = []
            adjacency[fk.table][fk.ref_table] = parallel
            adjacency.setdefault(fk.ref_table, {})[fk.table] = parallel
        parallel.append(_edge(fk))
    edges: list[JoinEdge] = []
    walked: set[str] = set()
    for table, neighbours in adjacency.items():
        for neighbour, parallel in neighbours.items():
            if neighbour not in walked:
                edges.extend(parallel)
        walked.add(table)
    return edges


def enumerate_join_paths(
    db: Database, max_joins: int, limit: int = 10_000
) -> list[list[JoinEdge]]:
    """All simple join paths with 1..max_joins edges (up to *limit*)."""
    import networkx as nx

    graph = join_graph(db)
    paths: list[list[JoinEdge]] = []
    tables = sorted(graph.nodes)
    for source_index, source in enumerate(tables):
        for target in tables[source_index + 1 :]:
            try:
                simple_paths = nx.all_simple_edge_paths(
                    graph, source, target, cutoff=max_joins
                )
            except nx.NodeNotFound:  # pragma: no cover - nodes always exist
                continue
            for edge_path in simple_paths:
                edges = [
                    graph.edges[u, v, key]["edge"] for u, v, key in edge_path
                ]
                paths.append(edges)
                if len(paths) >= limit:
                    return paths
    return paths


def sample_join_path(
    db: Database,
    num_joins: int,
    rng: np.random.Generator,
    num_tables: int | None = None,
) -> list[JoinEdge]:
    """Sample one join path with exactly *num_joins* edges.

    The walk grows from a random FK edge, preferring edges that add a new
    table while the (optional) table budget allows, then reusing placed
    tables (self-joins) to reach the requested join count.
    """
    if num_joins <= 0:
        return []
    all_edges = join_edges(db)
    if not all_edges:
        return []
    first = all_edges[int(rng.integers(len(all_edges)))]
    path = [first]
    placed = {first["table"], first["ref_table"]}
    while len(path) < num_joins:
        fresh = [
            e
            for e in all_edges
            if (e["table"] in placed) != (e["ref_table"] in placed)
        ]
        internal = [
            e
            for e in all_edges
            if e["table"] in placed and e["ref_table"] in placed
        ]
        if num_tables is not None and len(placed) >= num_tables:
            # Table budget reached: prefer self-joins over new tables.
            pool = internal or fresh or all_edges
        else:
            pool = fresh or internal or all_edges
        edge = pool[int(rng.integers(len(pool)))]
        path.append(edge)
        placed.update((edge["table"], edge["ref_table"]))
    return path


def path_tables(path: list[JoinEdge]) -> set[str]:
    """Distinct tables touched by a join path."""
    tables: set[str] = set()
    for edge in path:
        tables.add(edge["table"])
        tables.add(edge["ref_table"])
    return tables
