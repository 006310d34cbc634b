"""The batched rollout engine: every (action × hypothesis) lane at once.

The planner's §3.2 expected-utility step previously cloned and advanced one
scalar :class:`~repro.inference.linkmodel.LinkModel` per (candidate action ×
top-k hypothesis) at every wake-up — A×K independent Python event loops.
This module runs all of them as *one* batched, event-stepped advance over
struct-of-arrays lane buffers:

* :class:`RolloutLanes` packs the top hypotheses' latent state — queue
  contents, the packet in service, the cross-traffic gate, the next cross
  arrival — into K-row NumPy buffers, sourced either directly from
  :class:`~repro.inference.vectorized.state.EnsembleState` rows
  (:func:`pack_rows`, no scalar ``Hypothesis`` materialization) or from
  ``export_state()`` when the belief backend is scalar
  (:func:`pack_hypotheses`);
* :func:`batched_rollout` tiles those K rows across the A candidate action
  delays and advances all A×K lanes together.  Each iteration of the outer
  loop fires at most one event per lane from a shared frontier — service
  completions, cross arrivals, and the lane's hypothetical send — masked
  per lane, so the Python-interpreter cost is O(max events per lane)
  instead of O(total events across the fan-out);
* the result is a :class:`BatchedRolloutOutcome` holding every lane's
  predicted deliveries/drops as flat (time, lane) arrays, which
  ``UtilityFunction.evaluate_batch`` consumes without materializing
  per-lane Python objects.  :meth:`BatchedRolloutOutcome.lane_outcome`
  rebuilds one lane as an ordinary
  :class:`~repro.inference.hypothesis.RolloutOutcome` — the equivalence
  tests' bridge, and the fallback for custom utilities that only implement
  scalar ``evaluate``.

Semantics match ``Hypothesis.rollout`` exactly: event arithmetic is the
same float operations in the same order as the scalar ``LinkModel`` (the
PR-2 equivalence discipline), completions fire before arrivals at the same
instant, and the hypothetical send enqueues strictly after both; candidate
delays beyond the horizon advance the lane to the send time, as the scalar
path does.  The only tolerated divergence is transcendental rounding in
the utility's discount (``np.exp`` vs ``math.exp``, ≤1 ulp per term), which
is why the documented utility tolerance is ``1e-9`` relative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.api.backends import ROLLOUT_BACKENDS
from repro.errors import InferenceError
from repro.inference.hypothesis import Hypothesis, RolloutOutcome
from repro.inference.vectorized.state import (
    FLOW_CROSS,
    FLOW_OWN,
    EnsembleState,
    _pad_columns,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.planner import Decision, ExpectedUtilityPlanner
    from repro.inference.belief import BeliefState

#: Flow code for the planner's hypothetical packet inside the lane buffers.
#: Distinct from FLOW_OWN only so outcomes can report the hypothetical's
#: delivery; everywhere else it behaves exactly like own traffic.
FLOW_HYP = 2

#: Initial queue-column capacity of freshly packed lanes.
_MIN_QUEUE_CAPACITY = 8


@dataclass
class RolloutLanes:
    """K hypotheses' latent link-model state as struct-of-arrays buffers.

    One row per hypothesis, in planner top-k order.  All rows share one
    model clock (``time``), the invariant every ``BeliefState`` maintains.
    """

    time: float
    link_rate: np.ndarray
    buffer_cap: np.ndarray
    loss_rate: np.ndarray
    survival: np.ndarray
    cross_rate_pps: np.ndarray
    cross_packet_bits: np.ndarray
    gate_on: np.ndarray
    next_cross_time: np.ndarray
    svc_active: np.ndarray
    svc_flow: np.ndarray
    svc_size: np.ndarray
    svc_completion: np.ndarray
    q_flow: np.ndarray
    q_size: np.ndarray
    q_len: np.ndarray
    queue_bits: np.ndarray

    @property
    def count(self) -> int:
        """Number of hypothesis rows."""
        return int(self.link_rate.size)

    def checkpoint(self) -> dict:
        """A canonical, comparable snapshot of every lane's latent state.

        Both rollout engines pack lanes (scalar hypotheses route through
        :func:`pack_hypotheses`), so :mod:`repro.diagnostics` compares these
        snapshots to tell lane-packing drift from frontier drift.
        """
        rows = []
        for row in range(self.count):
            length = int(self.q_len[row])
            rows.append(
                {
                    "gate_on": bool(self.gate_on[row]),
                    "next_cross_time": float(self.next_cross_time[row]),
                    "in_service": (
                        (
                            int(self.svc_flow[row]),
                            float(self.svc_size[row]),
                            float(self.svc_completion[row]),
                        )
                        if bool(self.svc_active[row])
                        else None
                    ),
                    "queue": [
                        (int(self.q_flow[row, slot]), float(self.q_size[row, slot]))
                        for slot in range(length)
                    ],
                    "queue_bits": float(self.queue_bits[row]),
                }
            )
        return {"time": float(self.time), "lanes": rows}


def pack_rows(state: EnsembleState, rows: Sequence[int] | np.ndarray) -> RolloutLanes:
    """Lane buffers for ``rows`` of a vectorized ensemble — pure array slicing.

    This is the no-materialization path: the planner hands the belief's
    top-k row indices straight here, and no scalar ``Hypothesis`` objects
    are built anywhere on the decide path.
    """
    rows = np.asarray(rows, dtype=np.int64)
    width = max(_MIN_QUEUE_CAPACITY, int(state.q_len[rows].max(initial=0)) + 2)
    q_flow = np.zeros((rows.size, width), dtype=np.int8)
    q_size = np.zeros((rows.size, width), dtype=float)
    take = min(width, state.q_flow.shape[1])
    q_flow[:, :take] = state.q_flow[rows, :take]
    q_size[:, :take] = state.q_size[rows, :take]
    return RolloutLanes(
        time=state.time,
        link_rate=state.link_rate[rows].astype(float),
        buffer_cap=state.buffer_cap[rows].astype(float),
        loss_rate=state.loss_rate[rows].astype(float),
        survival=state.survival[rows].astype(float),
        cross_rate_pps=state.cross_rate_pps[rows].astype(float),
        cross_packet_bits=state.cross_packet_bits[rows].astype(float),
        gate_on=state.gate_on[rows].copy(),
        next_cross_time=state.next_cross_time[rows].astype(float),
        svc_active=state.svc_active[rows].copy(),
        svc_flow=state.svc_flow[rows].astype(np.int8),
        svc_size=state.svc_size[rows].astype(float),
        svc_completion=state.svc_completion[rows].astype(float),
        q_flow=q_flow,
        q_size=q_size,
        q_len=state.q_len[rows].astype(np.int64),
        queue_bits=state.queue_bits[rows].astype(float),
    )


def pack_hypotheses(hypotheses: Sequence[Hypothesis]) -> RolloutLanes:
    """Lane buffers for scalar hypotheses, via their ``export_state`` layout."""
    if not hypotheses:
        raise InferenceError("cannot pack zero hypotheses into rollout lanes")
    states = [hypothesis.model.export_state() for hypothesis in hypotheses]
    time = states[0]["time"]
    for state in states:
        if state["time"] != time:
            raise InferenceError(
                "the batched rollout requires every hypothesis to share one "
                "model clock (lockstep ensembles, as BeliefState maintains)"
            )
    count = len(states)
    params = [hypothesis.model.params for hypothesis in hypotheses]
    queues = [state["queue"] for state in states]
    width = max(_MIN_QUEUE_CAPACITY, max((len(q) for q in queues), default=0) + 2)
    q_flow = np.zeros((count, width), dtype=np.int8)
    q_size = np.zeros((count, width), dtype=float)
    flow_codes = {"own": FLOW_OWN, "cross": FLOW_CROSS}
    for row, queue in enumerate(queues):
        for slot, (flow, _seq, bits) in enumerate(queue):
            q_flow[row, slot] = flow_codes[flow]
            q_size[row, slot] = bits
    in_service = [state["in_service"] for state in states]
    return RolloutLanes(
        time=float(time),
        link_rate=np.array([p.link_rate_bps for p in params], dtype=float),
        buffer_cap=np.array([p.buffer_capacity_bits for p in params], dtype=float),
        loss_rate=np.array([p.loss_rate for p in params], dtype=float),
        survival=np.array([1.0 - p.loss_rate for p in params], dtype=float),
        cross_rate_pps=np.array([p.cross_rate_pps for p in params], dtype=float),
        cross_packet_bits=np.array([p.cross_packet_bits for p in params], dtype=float),
        gate_on=np.array([s["gate_on"] for s in states], dtype=bool),
        next_cross_time=np.array([s["next_cross_time"] for s in states], dtype=float),
        svc_active=np.array([entry is not None for entry in in_service], dtype=bool),
        svc_flow=np.array(
            [flow_codes[entry[0]] if entry is not None else -1 for entry in in_service],
            dtype=np.int8,
        ),
        svc_size=np.array(
            [entry[2] if entry is not None else 0.0 for entry in in_service], dtype=float
        ),
        svc_completion=np.array([s["service_completion"] for s in states], dtype=float),
        q_flow=q_flow,
        q_size=q_size,
        q_len=np.array([len(q) for q in queues], dtype=np.int64),
        queue_bits=np.array([s["queue_bits"] for s in states], dtype=float),
    )


@dataclass
class BatchedRolloutOutcome:
    """Every lane's predicted consequences, in flat struct-of-arrays form.

    Lane ``a * k + j`` is candidate action ``a`` applied to hypothesis row
    ``j`` (planner top-k order).  Event arrays are parallel ``(time, lane)``
    columns, chronological *per lane*; per-lane scalars are ``(lanes,)``
    arrays.  ``own_*`` events carry a uniform ``packet_bits`` size and the
    lane's survival probability, exactly as the scalar ``RolloutOutcome``
    reports them.
    """

    decision_time: float
    horizon: float
    packet_bits: float
    action_delays: np.ndarray  # (A,)
    k: int  # hypothesis rows per action

    own_survival: np.ndarray  # (lanes,) survival of delivered own packets
    own_time: np.ndarray
    own_lane: np.ndarray
    own_is_hyp: np.ndarray
    own_drop_time: np.ndarray
    own_drop_lane: np.ndarray
    own_drop_is_hyp: np.ndarray
    cross_time: np.ndarray
    cross_bits: np.ndarray
    cross_lane: np.ndarray
    cross_drop_time: np.ndarray
    cross_drop_bits: np.ndarray
    cross_drop_lane: np.ndarray
    final_queue_bits: np.ndarray  # (lanes,)
    final_cross_backlog_bits: np.ndarray  # (lanes,)

    @property
    def lanes(self) -> int:
        """Total number of (action × hypothesis) lanes."""
        return int(self.action_delays.size) * self.k

    def lane_outcome(self, lane: int) -> RolloutOutcome:
        """Rebuild one lane as a scalar :class:`RolloutOutcome`.

        The bridge for equivalence tests and for utilities that implement
        only the scalar ``evaluate``; event order within the lane is
        chronological, matching the scalar rollout's event-order lists.
        Per-lane event groups are indexed once (lazily), so rebuilding all
        lanes stays linear in the total event count.
        """
        if not hasattr(self, "_lane_index"):
            self._lane_index = {
                "own": _LaneIndex(self.own_lane, self.lanes),
                "own_drop": _LaneIndex(self.own_drop_lane, self.lanes),
                "cross": _LaneIndex(self.cross_lane, self.lanes),
                "cross_drop": _LaneIndex(self.cross_drop_lane, self.lanes),
            }
        index = self._lane_index
        action = int(lane) // self.k
        outcome = RolloutOutcome(
            decision_time=self.decision_time,
            action_delay=float(self.action_delays[action]),
            horizon=self.horizon,
            final_queue_bits=float(self.final_queue_bits[lane]),
            final_cross_backlog_bits=float(self.final_cross_backlog_bits[lane]),
        )
        survival = float(self.own_survival[lane])
        rows = index["own"].rows(lane)
        for time, is_hyp in zip(
            self.own_time[rows].tolist(), self.own_is_hyp[rows].tolist()
        ):
            outcome.own_deliveries.append((time, self.packet_bits, survival))
            if is_hyp:
                outcome.hypothetical_delivered = True
                outcome.hypothetical_delivery_time = time
        rows = index["own_drop"].rows(lane)
        for time in self.own_drop_time[rows].tolist():
            outcome.own_drops.append((time, self.packet_bits))
        rows = index["cross"].rows(lane)
        for time, bits in zip(
            self.cross_time[rows].tolist(), self.cross_bits[rows].tolist()
        ):
            outcome.cross_deliveries.append((time, bits, survival))
        rows = index["cross_drop"].rows(lane)
        for time, bits in zip(
            self.cross_drop_time[rows].tolist(), self.cross_drop_bits[rows].tolist()
        ):
            outcome.cross_drops.append((time, bits))
        return outcome


class _LaneIndex:
    """Per-lane index groups over one flat event stream, built in one pass.

    A stable argsort groups events by lane while preserving each lane's
    chronological order; ``rows(lane)`` is then an O(group) slice lookup.
    """

    __slots__ = ("_order", "_starts")

    def __init__(self, lane_array: np.ndarray, lanes: int) -> None:
        self._order = np.argsort(lane_array, kind="stable")
        sorted_lanes = lane_array[self._order]
        self._starts = np.searchsorted(
            sorted_lanes, np.arange(lanes + 1), side="left"
        )

    def rows(self, lane: int) -> np.ndarray:
        return self._order[self._starts[lane] : self._starts[lane + 1]]


def _concat_drops(
    chunks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Flatten uniform-flow ``(flow, times, lanes, sizes)`` drop chunks."""
    if not chunks:
        empty = np.empty(0)
        return empty, np.empty(0, dtype=np.int64), empty.copy(), np.empty(0, dtype=np.int8)
    times = np.concatenate([chunk[1] for chunk in chunks])
    lanes = np.concatenate([chunk[2] for chunk in chunks])
    sizes = np.concatenate([chunk[3] for chunk in chunks])
    flows = np.concatenate(
        [np.full(chunk[1].size, chunk[0], dtype=np.int8) for chunk in chunks]
    )
    return times, lanes, sizes, flows


def _run_frontier(
    *,
    link_rate: np.ndarray,
    buffer_slack: np.ndarray,
    cross_interval: np.ndarray,
    cross_packet_bits: np.ndarray,
    svc_active: np.ndarray,
    svc_flow: np.ndarray,
    svc_size: np.ndarray,
    svc_completion: np.ndarray,
    q_flow: np.ndarray,
    q_size: np.ndarray,
    q_len: np.ndarray,
    queue_bits: np.ndarray,
    send_time: np.ndarray,
    until: np.ndarray,
    next_cross: np.ndarray,
    next_hyp: np.ndarray,
    hyp_left: int,
    packet_bits: float,
    width_is_exact: bool,
) -> dict:
    """The masked event-frontier core of :func:`batched_rollout`.

    Mutates the per-lane buffers in place and returns the raw event log plus
    the final lane state.  Every operation here is per-lane elementwise (no
    cross-lane reduction), so a lane's event sequence — values and order —
    depends only on that lane's own inputs.
    """
    total = int(link_rate.size)
    q_head = np.zeros(total, dtype=np.int64)

    # Completions are logged untyped — (time, lane, flow, size) chunks in
    # event order — and classified own/cross once after the loop; drops are
    # uniform-flow chunks.  Per-lane chronology survives both because chunks
    # append in event order and each lane fires at most one event per chunk.
    comp_times: list[np.ndarray] = []
    comp_rows: list[np.ndarray] = []
    comp_flows: list[np.ndarray] = []
    comp_sizes: list[np.ndarray] = []
    drop_chunks: list[tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []

    def enqueue(rows: np.ndarray, times: np.ndarray, flow: int, sizes: np.ndarray) -> None:
        """Offer one ``flow``-typed packet per row: serve, queue, or tail-drop."""
        nonlocal q_flow, q_size
        idle = ~svc_active[rows]
        idle_rows = rows[idle]
        if idle_rows.size:
            svc_active[idle_rows] = True
            svc_flow[idle_rows] = flow
            svc_size[idle_rows] = sizes[idle]
            svc_completion[idle_rows] = times[idle] + sizes[idle] / link_rate[idle_rows]
            if idle_rows.size == rows.size:
                return
            busy = ~idle
            rows = rows[busy]
            times = times[busy]
            sizes = sizes[busy]
        fits = queue_bits[rows] + sizes <= buffer_slack[rows]
        queue_rows = rows[fits]
        if queue_rows.size != rows.size:
            drop = ~fits
            drop_chunks.append((flow, times[drop], rows[drop], sizes[drop]))
            queue_sizes = sizes[fits]
        else:
            queue_sizes = sizes
        if queue_rows.size:
            slots = q_head[queue_rows] + q_len[queue_rows]
            if not width_is_exact:
                needed = int(slots.max()) + 1
                if needed > q_flow.shape[1]:
                    grown = max(needed, q_flow.shape[1] * 2)
                    q_flow = _pad_columns(q_flow, grown)
                    q_size = _pad_columns(q_size, grown)
            q_flow[queue_rows, slots] = flow
            q_size[queue_rows, slots] = queue_sizes
            q_len[queue_rows] += 1
            queue_bits[queue_rows] += queue_sizes

    # A lane leaves ``live`` permanently once its next event passes its
    # deadline: every future event needs an earlier event to create it, so
    # inactivity is absorbing and the per-iteration work shrinks with the
    # surviving lane count.  ``until_live`` is compacted alongside ``live``
    # instead of being re-gathered each iteration.
    live = np.arange(total)
    until_live = until
    while live.size:
        svc_live = svc_completion[live]
        cross_live = next_cross[live]
        if hyp_left:
            hyp_live = next_hyp[live]
            next_event = np.minimum(np.minimum(svc_live, cross_live), hyp_live)
        else:
            next_event = np.minimum(svc_live, cross_live)
        keep = next_event <= until_live
        if not keep.all():
            live = live[keep]
            if not live.size:
                break
            until_live = until_live[keep]
            svc_live = svc_live[keep]
            cross_live = cross_live[keep]
            if hyp_left:
                hyp_live = hyp_live[keep]
        # Tie order at one instant matches the scalar rollout: service
        # completions first (a departure frees space for an arrival), cross
        # arrivals second, the hypothetical send strictly last (send_own
        # enqueues only after advancing through every event at its time).
        if hyp_left:
            completing = (svc_live <= cross_live) & (svc_live <= hyp_live)
            arriving = ~completing & (cross_live <= hyp_live)
        else:
            completing = svc_live <= cross_live
            arriving = ~completing

        rows = live[completing]
        if rows.size:
            when = svc_live[completing]
            comp_times.append(when)
            comp_rows.append(rows)
            comp_flows.append(svc_flow[rows])
            comp_sizes.append(svc_size[rows])
            has_next = q_len[rows] > 0
            next_rows = rows[has_next]
            if next_rows.size:
                head = q_head[next_rows]
                size = q_size[next_rows, head]
                svc_flow[next_rows] = q_flow[next_rows, head]
                svc_size[next_rows] = size
                svc_completion[next_rows] = when[has_next] + size / link_rate[next_rows]
                q_head[next_rows] = head + 1
                q_len[next_rows] -= 1
                remaining = queue_bits[next_rows] - size
                queue_bits[next_rows] = np.where(remaining < 1e-9, 0.0, remaining)
            if next_rows.size != rows.size:
                # Stale svc_flow/svc_size are masked by svc_active everywhere
                # they are read, so only the active flag and frontier reset.
                idle_rows = rows[~has_next]
                svc_active[idle_rows] = False
                svc_completion[idle_rows] = np.inf

        rows = live[arriving]
        if rows.size:
            when = cross_live[arriving]
            enqueue(rows, when, FLOW_CROSS, cross_packet_bits[rows])
            next_cross[rows] = when + cross_interval[rows]

        if hyp_left:
            sending = ~(completing | arriving)
            rows = live[sending]
            if rows.size:
                next_hyp[rows] = np.inf
                hyp_left -= int(rows.size)
                hyp_sizes = np.full(rows.size, packet_bits, dtype=float)
                enqueue(rows, send_time[rows], FLOW_HYP, hyp_sizes)

    if comp_times:
        all_times = np.concatenate(comp_times)
        all_rows = np.concatenate(comp_rows)
        all_flows = np.concatenate(comp_flows)
        all_sizes = np.concatenate(comp_sizes)
    else:
        all_times = np.empty(0)
        all_rows = np.empty(0, dtype=np.int64)
        all_flows = np.empty(0, dtype=np.int8)
        all_sizes = np.empty(0)
    return {
        "times": all_times,
        "rows": all_rows,
        "flows": all_flows,
        "sizes": all_sizes,
        "drop_chunks": drop_chunks,
        "q_flow": q_flow,
        "q_size": q_size,
        "q_head": q_head,
        "q_len": q_len,
        "queue_bits": queue_bits,
        "svc_active": svc_active,
        "svc_flow": svc_flow,
        "svc_size": svc_size,
    }


def _classify_events(raw: dict, now: float, end: float) -> dict:
    """Split the raw event log into the outcome's own/cross event streams.

    Cross-traffic outcomes count within ``[decision_time, end)`` only; own
    predictions are unfiltered, both exactly as the scalar rollout reports.
    """
    own = raw["flows"] != FLOW_CROSS
    own_time = raw["times"][own]
    own_lane = raw["rows"][own]
    own_is_hyp = raw["flows"][own] == FLOW_HYP
    cross = ~own
    cross_time = raw["times"][cross]
    cross_lane = raw["rows"][cross]
    cross_bits = raw["sizes"][cross]

    drop_chunks = raw["drop_chunks"]
    own_drop_time, own_drop_lane, _own_drop_sizes, own_drop_flows = _concat_drops(
        [chunk for chunk in drop_chunks if chunk[0] != FLOW_CROSS]
    )
    own_drop_is_hyp = own_drop_flows == FLOW_HYP
    cross_drop_time, cross_drop_lane, cross_drop_bits, _ = _concat_drops(
        [chunk for chunk in drop_chunks if chunk[0] == FLOW_CROSS]
    )

    keep = (cross_time >= now) & (cross_time < end)
    cross_time, cross_lane, cross_bits = cross_time[keep], cross_lane[keep], cross_bits[keep]
    keep = (cross_drop_time >= now) & (cross_drop_time < end)
    cross_drop_time = cross_drop_time[keep]
    cross_drop_lane = cross_drop_lane[keep]
    cross_drop_bits = cross_drop_bits[keep]
    return {
        "own_time": own_time,
        "own_lane": own_lane,
        "own_is_hyp": own_is_hyp,
        "own_drop_time": own_drop_time,
        "own_drop_lane": own_drop_lane,
        "own_drop_is_hyp": own_drop_is_hyp,
        "cross_time": cross_time,
        "cross_bits": cross_bits,
        "cross_lane": cross_lane,
        "cross_drop_time": cross_drop_time,
        "cross_drop_bits": cross_drop_bits,
        "cross_drop_lane": cross_drop_lane,
    }


def _cross_backlog(raw: dict) -> np.ndarray:
    """Final cross-queued bits per lane (queued cells plus the one in service)."""
    q_flow, q_size = raw["q_flow"], raw["q_size"]
    q_head, q_len = raw["q_head"], raw["q_len"]
    columns = np.arange(q_flow.shape[1])
    in_queue = (columns >= q_head[:, None]) & (columns < (q_head + q_len)[:, None])
    cross_backlog = (q_size * (in_queue & (q_flow == FLOW_CROSS))).sum(axis=1)
    cross_backlog += np.where(
        raw["svc_active"] & (raw["svc_flow"] == FLOW_CROSS), raw["svc_size"], 0.0
    )
    return cross_backlog


def batched_rollout(
    lanes: RolloutLanes,
    action_delays: Sequence[float],
    horizon: float,
    packet_bits: float,
    now: float,
    send_packet: bool = True,
) -> BatchedRolloutOutcome:
    """Advance all A×K lanes through the rollout horizon in lockstep.

    Mirrors ``Hypothesis.rollout`` lane for lane: the hypothetical packet
    enters at ``now + delay`` (after every event at or before that instant),
    the gate stays frozen, and each lane runs to ``max(now + horizon,
    send_time)`` so delays beyond the horizon still observe their send.
    """
    delays = np.asarray(action_delays, dtype=float)
    if np.any(delays < 0):
        raise InferenceError("action delays must be non-negative")
    if now < lanes.time - 1e-9:
        raise InferenceError(
            f"cannot roll out at {now:.6f}: lane clock is already at {lanes.time:.6f}"
        )
    k = lanes.count
    a = int(delays.size)
    total = a * k

    # Tile the K hypothesis rows across the A candidate actions.  The
    # reciprocal inter-arrival and the drop threshold are precomputed — both
    # reuse the identical float values the scalar model derives per event.
    link_rate = np.tile(lanes.link_rate, a)
    buffer_slack = np.tile(lanes.buffer_cap, a) + 1e-9
    with np.errstate(divide="ignore"):
        cross_interval = np.tile(1.0 / lanes.cross_rate_pps, a)
    cross_packet_bits = np.tile(lanes.cross_packet_bits, a)
    svc_active = np.tile(lanes.svc_active, a)
    svc_flow = np.tile(lanes.svc_flow, a)
    svc_size = np.tile(lanes.svc_size, a)
    svc_completion = np.tile(lanes.svc_completion, a)
    # Slots are consumed monotonically (ring head, no reuse), so pre-size the
    # queue buffers for the worst-case enqueue count — initial occupancy plus
    # every possible cross arrival plus the hypothetical — and the loop never
    # has to grow them.
    max_delay = float(delays.max()) if delays.size else 0.0
    span = horizon + max_delay + (now - lanes.time)
    max_rate = float(lanes.cross_rate_pps.max()) if k else 0.0
    arrival_bound = int(min(span * max_rate + 2.0, 4096.0))
    width = int(lanes.q_len.max(initial=0)) + arrival_bound + 2
    q_flow = np.zeros((total, width), dtype=np.int8)
    q_size = np.zeros((total, width), dtype=float)
    take = min(width, lanes.q_flow.shape[1])
    q_flow[:, :take] = np.tile(lanes.q_flow[:, :take], (a, 1))
    q_size[:, :take] = np.tile(lanes.q_size[:, :take], (a, 1))
    q_len = np.tile(lanes.q_len, a)
    queue_bits = np.tile(lanes.queue_bits, a)

    end = now + horizon
    send_time = np.repeat(now + delays, k)
    # A lane runs past the horizon only to observe its own send; with
    # send_packet=False the scalar oracle never advances beyond the end.
    until = np.maximum(end, send_time) if send_packet else np.full(total, end)
    # The gate is frozen during rollouts, so the "next cross arrival" frontier
    # can be masked once up front instead of re-masking every iteration; the
    # hypothetical-send frontier likewise goes to +inf once fired.
    next_cross = np.tile(
        np.where(lanes.gate_on, lanes.next_cross_time, np.inf), a
    )
    next_hyp = send_time.copy() if send_packet else np.full(total, np.inf)
    hyp_left = int(total) if send_packet else 0

    # The pre-sized width is a hard bound unless the arrival estimate was
    # clamped; only then does enqueue need its per-call growth check.
    width_is_exact = span * max_rate + 2.0 <= 4096.0

    raw = _run_frontier(
        link_rate=link_rate,
        buffer_slack=buffer_slack,
        cross_interval=cross_interval,
        cross_packet_bits=cross_packet_bits,
        svc_active=svc_active,
        svc_flow=svc_flow,
        svc_size=svc_size,
        svc_completion=svc_completion,
        q_flow=q_flow,
        q_size=q_size,
        q_len=q_len,
        queue_bits=queue_bits,
        send_time=send_time,
        until=until,
        next_cross=next_cross,
        next_hyp=next_hyp,
        hyp_left=hyp_left,
        packet_bits=packet_bits,
        width_is_exact=width_is_exact,
    )
    events = _classify_events(raw, now, end)
    final_queue_bits = raw["queue_bits"] + np.where(
        raw["svc_active"], raw["svc_size"], 0.0
    )
    return BatchedRolloutOutcome(
        decision_time=now,
        horizon=horizon,
        packet_bits=packet_bits,
        action_delays=delays,
        k=k,
        own_survival=np.tile(lanes.survival, a),
        final_queue_bits=final_queue_bits,
        final_cross_backlog_bits=_cross_backlog(raw),
        **events,
    )


@ROLLOUT_BACKENDS.register("vectorized")
def decide_vectorized(
    planner: "ExpectedUtilityPlanner", belief: "BeliefState", now: float
) -> "Decision":
    """The batched rollout engine behind ``rollout_backend="vectorized"``.

    Registered on :data:`~repro.api.backends.ROLLOUT_BACKENDS`;
    ``ExpectedUtilityPlanner.decide`` dispatches here when the planner was
    constructed with the vectorized backend.  When the belief also exposes
    ``top_rows`` (the vectorized ensemble), the lanes are packed straight
    from its rows and no scalar ``Hypothesis`` is materialized anywhere on
    the decide path.
    """
    from repro.core.planner import Decision, rollout_outcome_digest

    top_rows = getattr(belief, "top_rows", None)
    if top_rows is not None:
        rows, weights = top_rows(planner.top_k)
        state = belief.state
        summary = planner._summarize_rows(state, rows, weights)
        lanes = pack_rows(state, rows)
    else:
        top = belief.top(planner.top_k)
        summary = planner._summarize_hypotheses(top)
        lanes = pack_hypotheses([hypothesis for hypothesis, _ in top])

    actions = planner.action_grid.actions(summary.service_time)
    horizon = planner._horizon_from(summary)
    probe = planner.decision_probe
    if probe is not None:
        probe(
            "summary",
            {
                "service_time": summary.service_time,
                "horizon": horizon,
                "weights": list(summary.weights),
                "actions": [action.delay for action in actions],
            },
        )
        probe("lanes", lanes.checkpoint())
    outcome = batched_rollout(
        lanes,
        [action.delay for action in actions],
        horizon,
        planner.packet_bits,
        now,
    )
    planner.rollouts_performed += outcome.lanes
    if probe is not None:
        probe(
            "rollout",
            {
                "lanes": [
                    rollout_outcome_digest(outcome.lane_outcome(lane))
                    for lane in range(outcome.lanes)
                ]
            },
        )

    evaluate_batch = getattr(planner.utility, "evaluate_batch", None)
    if evaluate_batch is not None:
        values = evaluate_batch(outcome).tolist()
    else:
        # Custom utility without a batch path: value each lane through
        # the scalar evaluate (still avoids per-lane model rollouts).
        values = [
            planner.utility.evaluate(outcome.lane_outcome(lane))
            for lane in range(outcome.lanes)
        ]
    if probe is not None:
        probe("utility", {"values": [float(value) for value in values]})

    count = summary.count
    total_weight = summary.total_weight
    weights = summary.weights
    expected: dict[float, float] = {}
    for index, action in enumerate(actions):
        accumulated = 0.0
        base = index * count
        for position in range(count):
            accumulated += (weights[position] / total_weight) * values[base + position]
        expected[action.delay] = accumulated

    best_action = planner._argmax_prefer_longer_delay(actions, expected)
    if probe is not None:
        probe(
            "decision",
            {"expected": dict(expected), "delay": best_action.delay, "horizon": horizon},
        )
    return Decision(
        action=best_action,
        expected_utilities=expected,
        hypotheses_evaluated=count,
        horizon=horizon,
    )
