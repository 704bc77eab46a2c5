"""``repro.testing`` — differential oracle harness for dynamic maintenance.

The incremental kappa-maintenance algorithms (paper Algorithms 2/5/6/7) are
the subtlest code in this library and the easiest to silently break while
optimizing.  This package turns "four independent ways to compute kappa"
into an automated adversary:

* :mod:`~repro.testing.editscript` — serializable, total edit scripts (the
  shared language of generators, runner, bundles and shrinker);
* :mod:`~repro.testing.workloads` — deterministic seed-driven workload
  generators (``uniform``, ``churn``, ``triangle_bursts``, ``grow_shrink``,
  ``adversarial``);
* :mod:`~repro.testing.oracles` — the checkpoint oracle matrix
  (RecomputeBaseline, CSR kernels, networkx ``k_truss``, and the opt-in
  ``csr-vec``, ``external`` and ``per_op`` oracles) and fault injection
  for the mutation smoke-check;
* :mod:`~repro.testing.runner` — drives a script through
  :class:`~repro.core.dynamic.DynamicTriangleKCore` with per-op Rule 0 /
  error-contract invariants and per-checkpoint oracle comparison;
* :mod:`~repro.testing.bundle` — JSON repro bundles (replayable
  byte-for-byte, used for the committed regression corpus);
* :mod:`~repro.testing.shrink` — verified delta-debugging of failing
  scripts to a locally minimal repro;
* :mod:`~repro.testing.fuzz` — the orchestration used by ``repro fuzz``
  and ``tests/test_differential_fuzz.py``.

See ``docs/testing.md`` for the operator's guide.
"""

from __future__ import annotations

from .bundle import FORMAT, ReproBundle, regression_bundle, replay
from .editscript import (
    OP_KINDS,
    CoalescedScript,
    EditOp,
    EditScript,
    apply_coalesced,
    apply_op,
    coalesce,
    expected_outcome,
    kappa_from_json,
    kappa_to_json,
)
from .fuzz import FuzzResult, ProfileOutcome, fuzz
from .oracles import (
    DEFAULT_ORACLES,
    ORACLE_NAMES,
    BatchBoundaryBugMaintainer,
    CheckpointOracles,
    OffByOneMaintainer,
    batch_boundary_bug_sut,
    default_sut,
    networkx_available,
    perturbed_sut_factory,
    stored_sut,
)
from .runner import Divergence, RunReport, run_script
from .shrink import ShrinkResult, shrink_script
from .workloads import PROFILES, generate

__all__ = [
    "BatchBoundaryBugMaintainer",
    "CheckpointOracles",
    "CoalescedScript",
    "DEFAULT_ORACLES",
    "Divergence",
    "EditOp",
    "EditScript",
    "FORMAT",
    "FuzzResult",
    "OP_KINDS",
    "ORACLE_NAMES",
    "OffByOneMaintainer",
    "PROFILES",
    "ProfileOutcome",
    "ReproBundle",
    "RunReport",
    "ShrinkResult",
    "apply_coalesced",
    "apply_op",
    "batch_boundary_bug_sut",
    "coalesce",
    "default_sut",
    "expected_outcome",
    "fuzz",
    "generate",
    "kappa_from_json",
    "kappa_to_json",
    "networkx_available",
    "perturbed_sut_factory",
    "regression_bundle",
    "replay",
    "run_script",
    "shrink_script",
    "stored_sut",
]
