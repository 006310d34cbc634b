"""Array-backed (NumPy struct-of-arrays) inference backend.

The scalar :class:`~repro.inference.belief.BeliefState` walks a Python list
of :class:`~repro.inference.hypothesis.Hypothesis` objects on every sender
wake-up — clone, advance, score, compact, prune, one hypothesis at a time.
At the default 512-hypothesis cap that per-object loop dominates every
experiment.  This package stores the whole ensemble as struct-of-arrays
NumPy buffers instead and batches each step across all rows:

* :mod:`~repro.inference.vectorized.state` — the buffers themselves
  (parameters, gate state, queue ring buffers, in-flight packet ledgers)
  plus on-demand materialization back to scalar hypotheses,
* :mod:`~repro.inference.vectorized.engine` — batched forward simulation
  (``advance`` / ``send_own``) and gate forking,
* :mod:`~repro.inference.vectorized.scoring` — batched log-space
  likelihood accumulation with scalar-identical semantics,
* :mod:`~repro.inference.vectorized.belief` — the drop-in
  :class:`VectorizedBeliefState`,
* :mod:`~repro.inference.vectorized.rollout` — the batched planner
  rollout engine: every (action × hypothesis) lane advanced through one
  masked event frontier, packed straight from ensemble rows (no scalar
  ``Hypothesis`` materialization) or from ``export_state()`` when the
  belief backend is scalar.

This is the one NumPy engine, registered as ``"vectorized"`` in both
backend registries; ``"scalar"`` is the other built-in and remains the
reference implementation.  Select it anywhere a belief is built via
``BeliefState.from_prior(..., backend="vectorized")``, and on the planner
via ``ExpectedUtilityPlanner(..., rollout_backend="vectorized")``.
"""

from repro.inference.vectorized.belief import VectorizedBeliefState
from repro.inference.vectorized.rollout import (
    BatchedRolloutOutcome,
    RolloutLanes,
    batched_rollout,
    pack_hypotheses,
    pack_rows,
)
from repro.inference.vectorized.state import EnsembleState

__all__ = [
    "BatchedRolloutOutcome",
    "EnsembleState",
    "RolloutLanes",
    "VectorizedBeliefState",
    "batched_rollout",
    "pack_hypotheses",
    "pack_rows",
]
