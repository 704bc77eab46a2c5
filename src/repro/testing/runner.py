"""The oracle runner: drive an edit script, cross-check every way we know.

One :func:`run_script` call plays an :class:`~repro.testing.editscript.EditScript`
against the dynamic maintainer from an empty graph while checking, at three
granularities:

**Per op — error contract.**  Adversarial ops (self loop, duplicate add,
missing-edge remove, missing-vertex remove) must raise exactly the library
exception :func:`~repro.testing.editscript.expected_outcome` predicts, and
must leave the kappa map untouched.  Valid ops must not raise.

**Per op — Rule 0 invariants.**  For a unit insertion: no edge is demoted,
every promoted pre-existing edge rises by exactly one, and no promoted edge
ends above the new edge's kappa.  For a unit deletion: no edge is promoted,
every demoted edge falls by exactly one, and no demoted edge started above
the deleted edge's old kappa (level locality).  After every op the kappa
map's key set must equal the shadow graph's edge set exactly.

**Per checkpoint — the oracle matrix.**  Every ``checkpoint_every`` ops
(and always at the end) the maintainer's kappa map is compared against each
oracle in :class:`~repro.testing.oracles.CheckpointOracles`, and the
maintainer's graph is compared structurally against the shadow graph.

The first failed check produces a :class:`Divergence` and stops the run;
:class:`RunReport` carries it (or ``None`` for a clean run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from ..graph.edge import Edge, canonical_edge
from ..graph.undirected import Graph
from .editscript import (
    OUTCOME_DUPLICATE,
    OUTCOME_MISSING_EDGE,
    OUTCOME_MISSING_VERTEX,
    OUTCOME_OK,
    OUTCOME_SELF_LOOP,
    EditOp,
    EditScript,
    apply_coalesced,
    apply_op,
    coalesce,
    expected_outcome,
)
from .oracles import DEFAULT_ORACLES, CheckpointOracles, SutFactory, default_sut

#: Exception each adversarial outcome must raise.
_EXPECTED_ERRORS = {
    OUTCOME_SELF_LOOP: SelfLoopError,
    OUTCOME_DUPLICATE: EdgeExistsError,
    OUTCOME_MISSING_EDGE: EdgeNotFoundError,
    OUTCOME_MISSING_VERTEX: VertexNotFoundError,
}

#: Cap on per-edge rows embedded in a divergence (bundles stay readable).
MAX_DIFF_ROWS = 25


@dataclass
class Divergence:
    """One detected disagreement, with enough context to reproduce it."""

    step: int                      #: 0-based index of the op that tripped it
    kind: str                      #: "error_contract" | "invariant" | "oracle" | "state"
    message: str
    op: Optional[EditOp] = None    #: the op being applied (None for final checkpoint)
    oracle: Optional[str] = None   #: oracle name for kind == "oracle"
    diff: List[list] = field(default_factory=list)  #: [[u, v, expected, actual], ...]

    def to_json_obj(self) -> dict:
        obj: dict = {
            "step": self.step,
            "kind": self.kind,
            "message": self.message,
        }
        if self.op is not None:
            obj["op"] = self.op.to_json_obj()
        if self.oracle is not None:
            obj["oracle"] = self.oracle
        if self.diff:
            obj["diff"] = self.diff
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "Divergence":
        return cls(
            step=obj["step"],
            kind=obj["kind"],
            message=obj["message"],
            op=EditOp.from_json_obj(obj["op"]) if "op" in obj else None,
            oracle=obj.get("oracle"),
            diff=[list(row) for row in obj.get("diff", [])],
        )


@dataclass
class RunReport:
    """Outcome of one :func:`run_script` call."""

    steps: int                     #: ops actually executed before stopping
    checkpoints: int               #: oracle checkpoints evaluated
    oracles: List[str]             #: oracle names that actually ran
    divergence: Optional[Divergence] = None
    final_kappa: Optional[Dict[Edge, int]] = None  #: SUT kappa at exit

    @property
    def ok(self) -> bool:
        return self.divergence is None


def _kappa_diff(
    expected: Dict[Edge, int], actual: Dict[Edge, int]
) -> List[list]:
    """Readable per-edge diff rows, capped at :data:`MAX_DIFF_ROWS`."""
    rows: List[list] = []
    for edge in sorted(set(expected) | set(actual), key=repr):
        want = expected.get(edge)
        got = actual.get(edge)
        if want != got:
            rows.append([edge[0], edge[1], want, got])
            if len(rows) >= MAX_DIFF_ROWS:
                break
    return rows


def _check_unit_add(
    op: EditOp,
    before: Dict[Edge, int],
    after: Dict[Edge, int],
) -> Optional[str]:
    """Rule 0 checks for one successful edge insertion; None when clean."""
    e0 = canonical_edge(op.u, op.v)
    if e0 not in after or e0 in before:
        return f"inserted edge {e0!r} not tracked correctly in kappa map"
    k_e0 = after[e0]
    for edge, old in before.items():
        new = after.get(edge)
        if new is None:
            return f"insertion of {e0!r} dropped edge {edge!r} from the map"
        if new < old:
            return f"insertion demoted {edge!r}: {old} -> {new}"
        if new > old:
            if new != old + 1:
                return (
                    f"insertion moved {edge!r} by more than one level: "
                    f"{old} -> {new} (Rule 0 violation)"
                )
            if new > k_e0:
                return (
                    f"promoted edge {edge!r} ended at {new}, above the new "
                    f"edge's kappa {k_e0} (level locality violation)"
                )
    return None


def _check_unit_remove(
    op: EditOp,
    before: Dict[Edge, int],
    after: Dict[Edge, int],
) -> Optional[str]:
    """Rule 0 checks for one successful edge deletion; None when clean."""
    e0 = canonical_edge(op.u, op.v)
    if e0 in after or e0 not in before:
        return f"deleted edge {e0!r} not dropped from kappa map"
    k_e0 = before[e0]
    for edge, old in before.items():
        if edge == e0:
            continue
        new = after.get(edge)
        if new is None:
            return f"deletion of {e0!r} dropped unrelated edge {edge!r}"
        if new > old:
            return f"deletion promoted {edge!r}: {old} -> {new}"
        if new < old:
            if new != old - 1:
                return (
                    f"deletion moved {edge!r} by more than one level: "
                    f"{old} -> {new} (Rule 0 violation)"
                )
            if old > k_e0:
                return (
                    f"demoted edge {edge!r} started at {old}, above the "
                    f"deleted edge's kappa {k_e0} (level locality violation)"
                )
    return None


def run_script(
    script: EditScript,
    *,
    checkpoint_every: int = 100,
    oracles: Tuple[str, ...] = DEFAULT_ORACLES,
    oracle_options: Optional[Dict[str, object]] = None,
    sut_factory: SutFactory = default_sut,
    check_invariants: bool = True,
    apply_mode: str = "per_op",
    batch_ops: int = 50,
    batch_strategy: str = "batch",
) -> RunReport:
    """Play ``script`` from an empty graph, cross-checking as documented.

    ``oracle_options`` are keyword arguments forwarded to
    :class:`CheckpointOracles` (e.g. ``external_partitions`` for the
    opt-in ``"external"`` oracle).

    ``apply_mode="batch"`` drives the maintainer in whole-batch mode
    instead: the script is cut into chunks of ``batch_ops`` ops, each
    chunk is :func:`~repro.testing.editscript.coalesce`-d against the
    shadow graph and applied through ``diff_apply(strategy=batch_strategy)``.
    Intermediate per-op states never exist in this mode, so the per-op
    error contract and Rule 0 unit invariants are replaced by their batch
    analogues: the coalescer's outcome classification must match per-op
    ``expected_outcome`` tallies, the net apply must not raise, and the
    kappa key set must track the shadow edge set.  Checkpoints (structural
    + full oracle matrix) run at every chunk boundary — the densest
    granularity at which the batch SUT has a well-defined state — so
    ``checkpoint_every`` is ignored.

    Returns a :class:`RunReport`; ``report.ok`` is False exactly when a
    divergence was found (the run stops at the first one).
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    if apply_mode not in ("per_op", "batch"):
        raise ValueError(
            f"unknown apply_mode {apply_mode!r}; expected 'per_op' or 'batch'"
        )
    if batch_ops < 1:
        raise ValueError("batch_ops must be >= 1")
    matrix = CheckpointOracles(oracles, **(oracle_options or {}))
    shadow = Graph()
    sut = sut_factory(Graph())
    checkpoints = 0

    def checkpoint(step: int, op: Optional[EditOp]) -> Optional[Divergence]:
        nonlocal checkpoints
        checkpoints += 1
        if sut.graph != shadow:
            return Divergence(
                step=step,
                kind="state",
                op=op,
                message=(
                    "maintainer graph diverged structurally from the shadow "
                    f"graph ({sut.graph!r} vs {shadow!r})"
                ),
            )
        actual = dict(sut.kappa)
        for name, expected in matrix.evaluate(shadow).items():
            if expected != actual:
                return Divergence(
                    step=step,
                    kind="oracle",
                    oracle=name,
                    op=op,
                    message=(
                        f"kappa map disagrees with the {name!r} oracle on "
                        f"{len(_kappa_diff(expected, actual))}+ edges"
                    ),
                    diff=_kappa_diff(expected, actual),
                )
        return None

    if apply_mode == "batch":
        steps = 0
        for start in range(0, len(script), batch_ops):
            chunk = list(script)[start:start + batch_ops]
            last = start + len(chunk) - 1
            co = coalesce(shadow, EditScript(ops=chunk))
            expected_counts: Dict[str, int] = {}
            for op in chunk:
                tag = apply_op(shadow, op)
                expected_counts[tag] = expected_counts.get(tag, 0) + 1
            if check_invariants and co.outcomes != expected_counts:
                return RunReport(
                    steps=steps,
                    checkpoints=checkpoints,
                    oracles=matrix.active_names(),
                    divergence=Divergence(
                        step=last,
                        kind="error_contract",
                        message=(
                            "coalesced outcome counts disagree with per-op "
                            f"classification: {co.outcomes!r} vs "
                            f"{expected_counts!r}"
                        ),
                    ),
                )
            try:
                apply_coalesced(sut, co, strategy=batch_strategy)
            except Exception as error:  # surfaced, not masked: batch net
                # diffs are pre-validated, so any raise is a divergence.
                return RunReport(
                    steps=steps,
                    checkpoints=checkpoints,
                    oracles=matrix.active_names(),
                    divergence=Divergence(
                        step=last,
                        kind="error_contract",
                        message=(
                            f"batch apply of {len(co.added)} adds / "
                            f"{len(co.removed)} removes raised "
                            f"{type(error).__name__}: {error}"
                        ),
                    ),
                )
            steps += len(chunk)
            if check_invariants and set(sut.kappa) != set(shadow.edges()):
                missing = set(shadow.edges()) - set(sut.kappa)
                extra = set(sut.kappa) - set(shadow.edges())
                return RunReport(
                    steps=steps,
                    checkpoints=checkpoints,
                    oracles=matrix.active_names(),
                    divergence=Divergence(
                        step=last,
                        kind="invariant",
                        message=(
                            "kappa key set does not match the graph's edges "
                            f"after batch apply (missing "
                            f"{sorted(missing, key=repr)[:5]}, "
                            f"extra {sorted(extra, key=repr)[:5]})"
                        ),
                    ),
                )
            found = checkpoint(last, None)
            if found is not None:
                return RunReport(
                    steps=steps,
                    checkpoints=checkpoints,
                    oracles=matrix.active_names(),
                    divergence=found,
                )
        if len(script) == 0:
            found = checkpoint(0, None)
            if found is not None:
                return RunReport(
                    steps=0,
                    checkpoints=checkpoints,
                    oracles=matrix.active_names(),
                    divergence=found,
                )
        return RunReport(
            steps=len(script),
            checkpoints=checkpoints,
            oracles=matrix.active_names(),
            final_kappa=dict(sut.kappa),
        )

    for step, op in enumerate(script):
        outcome = expected_outcome(shadow, op)
        before = dict(sut.kappa)
        raised: Optional[BaseException] = None
        try:
            if op.kind == "add":
                sut.add_edge(op.u, op.v)
            elif op.kind == "remove":
                sut.remove_edge(op.u, op.v)
            elif op.kind == "add_vertex":
                sut.add_vertex(op.u)
            else:
                sut.remove_vertex(op.u)
        except (
            SelfLoopError,
            EdgeExistsError,
            EdgeNotFoundError,
            VertexNotFoundError,
        ) as error:
            raised = error

        expected_error = _EXPECTED_ERRORS.get(outcome)
        if expected_error is not None:
            if not isinstance(raised, expected_error):
                return RunReport(
                    steps=step,
                    checkpoints=checkpoints,
                    oracles=matrix.active_names(),
                    divergence=Divergence(
                        step=step,
                        kind="error_contract",
                        op=op,
                        message=(
                            f"{op} should raise {expected_error.__name__}, "
                            f"got {type(raised).__name__ if raised else 'no error'}"
                        ),
                    ),
                )
        elif raised is not None:
            return RunReport(
                steps=step,
                checkpoints=checkpoints,
                oracles=matrix.active_names(),
                divergence=Divergence(
                    step=step,
                    kind="error_contract",
                    op=op,
                    message=f"{op} unexpectedly raised {type(raised).__name__}: {raised}",
                ),
            )

        apply_op(shadow, op)
        after = dict(sut.kappa)

        problem: Optional[str] = None
        if check_invariants:
            if outcome != OUTCOME_OK:
                if after != before:
                    problem = (
                        f"rejected op {op} still changed the kappa map "
                        "(state corrupted on the error path)"
                    )
            elif op.kind == "add":
                problem = _check_unit_add(op, before, after)
            elif op.kind == "remove":
                problem = _check_unit_remove(op, before, after)
            # remove_vertex is a composite of unit deletions; only the
            # monotonicity half of Rule 0 survives aggregation.
            elif op.kind == "remove_vertex":
                for edge, old in before.items():
                    new = after.get(edge)
                    if new is not None and new > old:
                        problem = (
                            f"vertex removal promoted {edge!r}: {old} -> {new}"
                        )
                        break
            if problem is None and set(after) != set(shadow.edges()):
                missing = set(shadow.edges()) - set(after)
                extra = set(after) - set(shadow.edges())
                problem = (
                    "kappa key set does not match the graph's edges "
                    f"(missing {sorted(missing, key=repr)[:5]}, "
                    f"extra {sorted(extra, key=repr)[:5]})"
                )
        if problem is not None:
            return RunReport(
                steps=step + 1,
                checkpoints=checkpoints,
                oracles=matrix.active_names(),
                divergence=Divergence(
                    step=step, kind="invariant", op=op, message=problem
                ),
            )

        if (step + 1) % checkpoint_every == 0:
            found = checkpoint(step, op)
            if found is not None:
                return RunReport(
                    steps=step + 1,
                    checkpoints=checkpoints,
                    oracles=matrix.active_names(),
                    divergence=found,
                )

    final_step = len(script) - 1 if len(script) else 0
    if len(script) == 0 or len(script) % checkpoint_every != 0:
        found = checkpoint(final_step, None)
        if found is not None:
            return RunReport(
                steps=len(script),
                checkpoints=checkpoints,
                oracles=matrix.active_names(),
                divergence=found,
            )
    return RunReport(
        steps=len(script),
        checkpoints=checkpoints,
        oracles=matrix.active_names(),
        final_kappa=dict(sut.kappa),
    )
