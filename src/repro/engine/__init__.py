"""``repro.engine`` — the unified decomposition engine.

One instrumented, cached, backend-dispatched path for every
:math:`\\kappa(e)` consumer.  See :mod:`repro.engine.engine` for the
design; the short version:

* :class:`Engine` — backend dispatch through the one table,
  :data:`repro.fast.BACKEND_OPS` (``reference``/``csr``/``csr-vec``/
  ``external``, resolved from ``auto``), plus the engine-only,
  snapshot-oriented ``dynamic`` strategy; a version-keyed artifact cache
  over :attr:`Graph.version <repro.graph.undirected.Graph.version>`; and
  :class:`EngineStats` instrumentation;
* :func:`get_default_engine` / :func:`set_default_engine` /
  :func:`resolve_engine` — the module-level default every consumer API
  falls back to when no ``engine=`` handle is threaded;
* :func:`decompose` — one-call convenience over the default engine.
"""

from .engine import (
    BACKENDS,
    Engine,
    decompose,
    get_default_engine,
    resolve_engine,
    set_default_engine,
)
from .stats import STATS_SCHEMA, EngineStats

__all__ = [
    "BACKENDS",
    "Engine",
    "EngineStats",
    "STATS_SCHEMA",
    "decompose",
    "get_default_engine",
    "resolve_engine",
    "set_default_engine",
]
