"""Hot-path acceleration for the SQLBarber cost loops.

Two pieces, composable but independent:

* :class:`ExplainCache` / :func:`normalize_sql` — memoize EXPLAIN results
  keyed by normalized SQL, invalidated by the catalog's statistics epoch;
* :class:`CompiledTemplate` — parse, bind, and prepare a template's plan
  skeleton once, then run only the planner's costing pass per literal
  binding, to estimate its rows and cost, to EXPLAIN it or to execute its
  plan.

Exports resolve lazily (PEP 562): :mod:`repro.sqldb.database` imports the
cache module at import time, while :mod:`~repro.fastpath.compiled` imports
sqldb submodules — laziness keeps that cycle unwound.
"""

from __future__ import annotations

_EXPORTS = {
    "ExplainCache": ("repro.fastpath.cache", "ExplainCache"),
    "normalize_sql": ("repro.fastpath.cache", "normalize_sql"),
    "DEFAULT_CACHE_SIZE": ("repro.fastpath.cache", "DEFAULT_CACHE_SIZE"),
    "CompiledTemplate": ("repro.fastpath.compiled", "CompiledTemplate"),
    "literal_expression": ("repro.fastpath.compiled", "literal_expression"),
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)
