"""A deterministic IMDB (JOB schema) data generator.

All 21 tables of the Join Order Benchmark schema with their real column
names and foreign-key structure.  Reference columns use Zipf-skewed
popularity (a handful of famous movies attract most of the cast and info
rows), matching the skew that makes IMDB a hard optimizer benchmark.
"""

from __future__ import annotations

import numpy as np

from repro.sqldb import Database, SqlType, Table

KIND_TYPES = ["movie", "tv series", "tv movie", "video movie",
              "tv mini series", "video game", "episode"]
COMP_CAST_TYPES = ["cast", "crew", "complete", "complete+verified"]
COMPANY_TYPES = ["distributors", "production companies",
                 "special effects companies", "miscellaneous companies"]
LINK_TYPES = ["follows", "followed by", "remake of", "remade as",
              "references", "referenced in", "spoofs", "spoofed in",
              "features", "featured in", "spin off from", "spin off",
              "version of", "similar to", "edited into", "edited from",
              "alternate language version of", "unknown link"]
ROLE_TYPES = ["actor", "actress", "producer", "writer", "cinematographer",
              "composer", "costume designer", "director", "editor",
              "miscellaneous crew", "production designer", "guest"]
INFO_KINDS = [f"info_kind_{i}" for i in range(40)]
COUNTRY_CODES = ["[us]", "[gb]", "[de]", "[fr]", "[jp]", "[in]", "[ca]", "[it]"]
GENDERS = ["m", "f", None]

# Base row counts at scale=1.0 (a compact but structurally faithful IMDB).
_BASE_ROWS = {
    "title": 4000,
    "name": 8000,
    "char_name": 6000,
    "company_name": 2000,
    "keyword": 3000,
    "cast_info": 30000,
    "movie_info": 15000,
    "movie_info_idx": 4000,
    "movie_keyword": 10000,
    "movie_companies": 8000,
    "person_info": 8000,
    "aka_name": 2000,
    "aka_title": 1000,
    "movie_link": 600,
    "complete_cast": 400,
}

DEFAULT_SCALE = 3.0


def _zipf_refs(rng: np.random.Generator, n: int, domain: int) -> np.ndarray:
    """Skewed foreign-key references: low ids are heavily popular."""
    raw = rng.zipf(1.3, n)
    return (np.minimum(raw, domain) - 1).astype(np.int64)


def build_imdb(scale: float = DEFAULT_SCALE, seed: int = 11) -> Database:
    """Build a fully-loaded, analyzed IMDB (JOB) database."""
    rng = np.random.default_rng(seed)
    rows = {k: max(int(v * scale), 10) for k, v in _BASE_ROWS.items()}
    db = Database("imdb")

    def lookup_table(name: str, column: str, values: list[str]) -> None:
        db.create_table(
            Table.from_dict(
                name,
                {"id": np.arange(len(values)), column: values},
                {"id": SqlType.INTEGER, column: SqlType.TEXT},
            ),
            primary_key=["id"],
        )

    lookup_table("kind_type", "kind", KIND_TYPES)
    lookup_table("comp_cast_type", "kind", COMP_CAST_TYPES)
    lookup_table("company_type", "kind", COMPANY_TYPES)
    lookup_table("link_type", "link", LINK_TYPES)
    lookup_table("role_type", "role", ROLE_TYPES)
    lookup_table("info_type", "info", INFO_KINDS)

    n_title = rows["title"]
    kind_ids = rng.integers(0, len(KIND_TYPES), n_title)
    years = np.clip(rng.normal(1995, 18, n_title).astype(int), 1900, 2024)
    episodes = rng.integers(0, 200, n_title)
    db.create_table(
        Table.from_dict(
            "title",
            {
                "id": np.arange(n_title),
                "title": [f"Movie Title {i % 1500}" for i in range(n_title)],
                "kind_id": kind_ids,
                "production_year": years,
                "episode_nr": episodes,
            },
            {
                "id": SqlType.INTEGER,
                "title": SqlType.TEXT,
                "kind_id": SqlType.INTEGER,
                "production_year": SqlType.INTEGER,
                "episode_nr": SqlType.INTEGER,
            },
            nulls={"episode_nr": episodes >= 50},
        ),
        primary_key=["id"],
    )

    n_name = rows["name"]
    db.create_table(
        Table.from_dict(
            "name",
            {
                "id": np.arange(n_name),
                "name": [f"Person {i % 3000} Name" for i in range(n_name)],
                "gender": rng.choice(["m", "f"], n_name, p=[0.62, 0.38]),
            },
            {"id": SqlType.INTEGER, "name": SqlType.TEXT, "gender": SqlType.TEXT},
        ),
        primary_key=["id"],
    )

    n_char = rows["char_name"]
    db.create_table(
        Table.from_dict(
            "char_name",
            {
                "id": np.arange(n_char),
                "name": [f"Character {i % 2000}" for i in range(n_char)],
            },
            {"id": SqlType.INTEGER, "name": SqlType.TEXT},
        ),
        primary_key=["id"],
    )

    n_company = rows["company_name"]
    db.create_table(
        Table.from_dict(
            "company_name",
            {
                "id": np.arange(n_company),
                "name": [f"Company {i % 800} Inc" for i in range(n_company)],
                "country_code": rng.choice(COUNTRY_CODES, n_company),
            },
            {
                "id": SqlType.INTEGER,
                "name": SqlType.TEXT,
                "country_code": SqlType.TEXT,
            },
        ),
        primary_key=["id"],
    )

    n_keyword = rows["keyword"]
    db.create_table(
        Table.from_dict(
            "keyword",
            {
                "id": np.arange(n_keyword),
                "keyword": [f"keyword-{i}" for i in range(n_keyword)],
            },
            {"id": SqlType.INTEGER, "keyword": SqlType.TEXT},
        ),
        primary_key=["id"],
    )

    n_cast = rows["cast_info"]
    db.create_table(
        Table.from_dict(
            "cast_info",
            {
                "id": np.arange(n_cast),
                "person_id": _zipf_refs(rng, n_cast, n_name),
                "movie_id": _zipf_refs(rng, n_cast, n_title),
                "person_role_id": _zipf_refs(rng, n_cast, n_char),
                "role_id": rng.integers(0, len(ROLE_TYPES), n_cast),
                "nr_order": rng.integers(1, 60, n_cast),
            },
            {
                "id": SqlType.INTEGER,
                "person_id": SqlType.INTEGER,
                "movie_id": SqlType.INTEGER,
                "person_role_id": SqlType.INTEGER,
                "role_id": SqlType.INTEGER,
                "nr_order": SqlType.INTEGER,
            },
        ),
        primary_key=["id"],
    )

    def movie_attribute_table(
        name: str, count: int, extra: dict, extra_types: dict
    ) -> None:
        data = {
            "id": np.arange(count),
            "movie_id": _zipf_refs(rng, count, n_title),
            **extra,
        }
        types = {
            "id": SqlType.INTEGER,
            "movie_id": SqlType.INTEGER,
            **extra_types,
        }
        db.create_table(Table.from_dict(name, data, types), primary_key=["id"])

    n_minfo = rows["movie_info"]
    movie_attribute_table(
        "movie_info",
        n_minfo,
        {
            "info_type_id": rng.integers(0, len(INFO_KINDS), n_minfo),
            "info": [f"info value {i % 997}" for i in range(n_minfo)],
        },
        {"info_type_id": SqlType.INTEGER, "info": SqlType.TEXT},
    )

    n_midx = rows["movie_info_idx"]
    movie_attribute_table(
        "movie_info_idx",
        n_midx,
        {
            "info_type_id": rng.integers(0, len(INFO_KINDS), n_midx),
            "info": [
                repr(v)
                for v in np.round(rng.uniform(1.0, 10.0, n_midx), 1).tolist()
            ],
        },
        {"info_type_id": SqlType.INTEGER, "info": SqlType.TEXT},
    )

    n_mkw = rows["movie_keyword"]
    movie_attribute_table(
        "movie_keyword",
        n_mkw,
        {"keyword_id": _zipf_refs(rng, n_mkw, n_keyword)},
        {"keyword_id": SqlType.INTEGER},
    )

    n_mc = rows["movie_companies"]
    movie_attribute_table(
        "movie_companies",
        n_mc,
        {
            "company_id": _zipf_refs(rng, n_mc, n_company),
            "company_type_id": rng.integers(0, len(COMPANY_TYPES), n_mc),
        },
        {"company_id": SqlType.INTEGER, "company_type_id": SqlType.INTEGER},
    )

    n_pinfo = rows["person_info"]
    db.create_table(
        Table.from_dict(
            "person_info",
            {
                "id": np.arange(n_pinfo),
                "person_id": _zipf_refs(rng, n_pinfo, n_name),
                "info_type_id": rng.integers(0, len(INFO_KINDS), n_pinfo),
                "info": [f"person info {i % 500}" for i in range(n_pinfo)],
            },
            {
                "id": SqlType.INTEGER,
                "person_id": SqlType.INTEGER,
                "info_type_id": SqlType.INTEGER,
                "info": SqlType.TEXT,
            },
        ),
        primary_key=["id"],
    )

    n_aka_name = rows["aka_name"]
    db.create_table(
        Table.from_dict(
            "aka_name",
            {
                "id": np.arange(n_aka_name),
                "person_id": _zipf_refs(rng, n_aka_name, n_name),
                "name": [f"Alias {i}" for i in range(n_aka_name)],
            },
            {
                "id": SqlType.INTEGER,
                "person_id": SqlType.INTEGER,
                "name": SqlType.TEXT,
            },
        ),
        primary_key=["id"],
    )

    n_aka_title = rows["aka_title"]
    movie_attribute_table(
        "aka_title",
        n_aka_title,
        {
            "title": [f"Alt Title {i}" for i in range(n_aka_title)],
            "kind_id": rng.integers(0, len(KIND_TYPES), n_aka_title),
        },
        {"title": SqlType.TEXT, "kind_id": SqlType.INTEGER},
    )

    n_link = rows["movie_link"]
    movie_attribute_table(
        "movie_link",
        n_link,
        {
            "linked_movie_id": _zipf_refs(rng, n_link, n_title),
            "link_type_id": rng.integers(0, len(LINK_TYPES), n_link),
        },
        {"linked_movie_id": SqlType.INTEGER, "link_type_id": SqlType.INTEGER},
    )

    n_cc = rows["complete_cast"]
    movie_attribute_table(
        "complete_cast",
        n_cc,
        {
            "subject_id": rng.integers(0, len(COMP_CAST_TYPES), n_cc),
            "status_id": rng.integers(0, len(COMP_CAST_TYPES), n_cc),
        },
        {"subject_id": SqlType.INTEGER, "status_id": SqlType.INTEGER},
    )

    for fk in (
        ("title", "kind_id", "kind_type", "id"),
        ("aka_title", "movie_id", "title", "id"),
        ("aka_name", "person_id", "name", "id"),
        ("cast_info", "person_id", "name", "id"),
        ("cast_info", "movie_id", "title", "id"),
        ("cast_info", "person_role_id", "char_name", "id"),
        ("cast_info", "role_id", "role_type", "id"),
        ("complete_cast", "movie_id", "title", "id"),
        ("complete_cast", "subject_id", "comp_cast_type", "id"),
        ("movie_companies", "movie_id", "title", "id"),
        ("movie_companies", "company_id", "company_name", "id"),
        ("movie_companies", "company_type_id", "company_type", "id"),
        ("movie_info", "movie_id", "title", "id"),
        ("movie_info", "info_type_id", "info_type", "id"),
        ("movie_info_idx", "movie_id", "title", "id"),
        ("movie_info_idx", "info_type_id", "info_type", "id"),
        ("movie_keyword", "movie_id", "title", "id"),
        ("movie_keyword", "keyword_id", "keyword", "id"),
        ("movie_link", "movie_id", "title", "id"),
        ("movie_link", "link_type_id", "link_type", "id"),
        ("person_info", "person_id", "name", "id"),
        ("person_info", "info_type_id", "info_type", "id"),
    ):
        db.add_foreign_key(*fk)
    return db
