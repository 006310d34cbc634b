"""The benchmark's workloads: ``paper``, ``contention``, ``sweep``, ``serving``.

Each workload turns the benchmark seed into its inputs, sets up, and then
runs one fixed *batch* of work in rounds, as many as the run length allows.
A batch is made of *units* (scenario points, or ``/decide`` requests) and
reports its host time, the time of every unit, how many operations it
attempted and how many failed its output checks, and a digest of its
simulated outputs.  Everything here calls the library's public entry
points; nothing is patched (tracing lives in :mod:`spans` and is only
installed by the traced run).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

#: Modules whose import is part of every workload's set-up (timed in a
#: fresh interpreter, since this process can import them only once).
SETUP_IMPORTS = (
    "repro.runner",
    "repro.runner.scenarios",
    "repro.corpus",
    "repro.serving",
)


def sub_seeds(seed: int, label: str, count: int) -> list[int]:
    """``count`` decorrelated 31-bit seeds derived from the benchmark seed."""
    return [
        int.from_bytes(hashlib.sha256(f"{label}:{seed}:{index}".encode()).digest()[:4], "big")
        >> 1
        for index in range(count)
    ]


def digest_of(obj: Any) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_failure(workload: str, what: str) -> None:
    """Failed operations are counted, and their traceback goes to stderr."""
    print(f"[{workload}] {what} failed:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass
class Batch:
    """The outcome of one run of a workload's fixed batch of work."""

    wall_s: float
    #: Host seconds of every unit of the batch, in the batch's fixed order:
    #: one scenario point (``PointResult.wall_time``), or one ``/decide``
    #: round trip seen by the client (serving).  Empty if the batch failed.
    unit_s: list[float]
    attempted: int
    failed: int
    #: Requests answered correctly (points completed, valid replies).
    answered: int
    #: Digest of the batch's simulated outputs; identical for every batch
    #: of one run, since the batch and its seeds are fixed.
    digest: str
    #: Paper claim name → how many of the batch's seeds it failed on.
    claims: dict[str, int] = field(default_factory=dict)
    #: Per-layer figures the outputs themselves carry (no tracing needed).
    layer: dict[str, float] = field(default_factory=dict)


class Workload:
    """Base class: ``setup`` → ``batch`` (repeated) → ``teardown``."""

    name = ""
    #: Layers whose code runs in worker processes, where the parent's
    #: tracer cannot see it.
    worker_layers: tuple[str, ...] = ()
    #: Worker processes the workload's runner fans points out over.  With
    #: one, all the work runs in this process, and the harness pins it (and
    #: every thread it starts) to one CPU.
    workers = 1
    #: Whether units run one after another in this process, so that the
    #: batch's time is the sum of its units' (otherwise they overlap, in
    #: worker processes or concurrent connections).
    serial = True

    def requests(self, unit_s: list[float]) -> list[float]:
        """Host seconds of each request the batch makes of the system."""
        return unit_s

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        self.tiny = tiny

    def setup(self, workdir: Path) -> Any:
        raise NotImplementedError

    def batch(self, state: Any) -> Batch:
        raise NotImplementedError

    def teardown(self, state: Any) -> None:
        """Release what :meth:`setup` started (default: nothing)."""


def run_points(workload: str, runner: Any, specs: list) -> tuple[Any, float, int]:
    """``runner.run(specs)`` timed; a raising run fails every point."""
    started = time.perf_counter()
    try:
        store = runner.run(specs)
    except Exception:  # noqa: BLE001 - counted as failed points, reported
        report_failure(workload, "scenario run")
        return None, time.perf_counter() - started, len(specs)
    return store, time.perf_counter() - started, 0


class Paper(Workload):
    """The paper's experiments as the runner registers them.

    ``figure3_alpha`` at the paper's four α on the NumPy engine, plus
    ``convergence``, ``drain`` and ``loss_comparison`` at their defaults,
    once per derived seed, serially in this process.  Chosen because belief
    update and planning do nearly all the work here, on ensembles up to the
    200-hypothesis cap: this is where an engine change must show.  Several
    seeds per batch average out how much work one seed happens to cause;
    three keep a round short enough to repeat several times in a run.  It
    carries the paper's seven qualitative claims.
    """

    name = "paper"
    ALPHAS = (0.9, 1.0, 2.5, 5.0)
    SEEDS = 3
    #: Points per seed: the four α, then convergence, drain, loss_comparison.
    PER_SEED = len(ALPHAS) + 3
    ENGINE = {"belief_backend": "vectorized", "rollout_backend": "vectorized"}

    def setup(self, workdir: Path) -> Any:
        from repro.runner import DEFAULT_REGISTRY, ScenarioSpec

        short = (
            {"figure3_alpha": {"duration": 30.0, "switch_interval": 10.0},
             "convergence": {"duration": 20.0}, "drain": {"duration": 20.0},
             "loss_comparison": {"duration": 20.0}}
            if self.tiny else {}
        )
        specs = []
        for seed in sub_seeds(self.seed, self.name, 1 if self.tiny else self.SEEDS):
            for alpha in self.ALPHAS:
                params = {"alpha": alpha, **self.ENGINE, **short.get("figure3_alpha", {})}
                specs.append(ScenarioSpec("figure3_alpha", params, seed=seed))
            for scenario in ("convergence", "drain", "loss_comparison"):
                specs.append(ScenarioSpec(scenario, dict(short.get(scenario, {})), seed=seed))
        figure3 = DEFAULT_REGISTRY.get("figure3_alpha").effective_params(specs[0].params)
        return {"specs": specs, "figure3": figure3}

    def batch(self, state: Any) -> Batch:
        from repro.runner import SerialRunner

        specs = state["specs"]
        store, wall, failed = run_points(self.name, SerialRunner(), specs)
        if store is None:
            return Batch(wall, [], len(specs), failed, 0, "")
        claims: dict[str, int] = {}
        for start in range(0, len(store.results), self.PER_SEED):
            group = store.results[start:start + self.PER_SEED]
            for claim, held in paper_claims(group, state["figure3"]).items():
                claims[claim] = claims.get(claim, 0) + (not held)
        return Batch(
            wall_s=wall,
            unit_s=[point.wall_time for point in store],
            attempted=len(specs),
            failed=failed,
            answered=len(store) // self.PER_SEED,
            digest=store.fingerprint(),
            claims=claims,
            layer={"runner.exec_s": store.total_wall_time},
        )

    def requests(self, unit_s: list[float]) -> list[float]:
        # One request here is one seed's whole reproduction: its seven
        # points are unlike each other (0.05 s to 0.9 s), so single points
        # would make a percentile depend on the seed's mix.
        return [sum(unit_s[start:start + self.PER_SEED])
                for start in range(0, len(unit_s), self.PER_SEED)]


def paper_claims(group: list, figure3: dict) -> dict[str, bool]:
    """The paper's seven claims on one seed's figure-3 α points + §4 + §1/§2."""
    from repro.experiments.figure3 import Figure3AlphaResult, Figure3Result
    from repro.metrics.timeseries import TimeSeries

    by_scenario = {point.spec.scenario: point.metrics for point in group}
    result = Figure3Result(
        duration=figure3["duration"],
        switch_interval=figure3["switch_interval"],
        link_rate_bps=figure3["link_rate_bps"],
        loss_rate=figure3["loss_rate"],
    )
    for point in group:
        if point.spec.scenario != "figure3_alpha":
            continue
        metrics = point.metrics
        result.per_alpha.append(
            Figure3AlphaResult(
                alpha=metrics["alpha"],
                sequence_series=TimeSeries.from_pairs([]),
                packets_sent=metrics["packets_sent"],
                packets_acked=metrics["packets_acked"],
                rate_on1_bps=metrics["rate_cross_on_1_bps"],
                rate_off_bps=metrics["rate_cross_off_bps"],
                rate_on2_bps=metrics["rate_cross_on_2_bps"],
                cross_rate_on2_bps=metrics["cross_rate_on_2_bps"],
                buffer_drops=metrics["buffer_drops"],
                cross_drops=metrics["cross_drops"],
                final_hypotheses=metrics["final_hypotheses"],
                degenerate_updates=metrics["degenerate_updates"],
            )
        )
    claims = result.check_claims()
    claims["converged"] = bool(by_scenario["convergence"]["converged"])
    claims["penalized_waits_longer"] = bool(by_scenario["drain"]["penalized_waits_longer"])
    claims["isender_advantage_above_one"] = by_scenario["loss_comparison"]["isender_advantage"] > 1.0
    return claims


class Contention(Workload):
    """``many_flow_contention``: 16 flows, 4 of them ISenders, on a corpus trace.

    NumPy engine with ``policy=cache``; the bottleneck follows a
    ``markov_onoff`` trace generated from the benchmark seed at set-up.
    Chosen because it uses the same layers as ``paper`` but through many
    narrow wake-ups (most policy lookups hit the cache) and about half its
    time is event-loop self time: a change that speeds wide-lane math but
    adds fixed cost per call shows up here as a loss.  The trace flips
    state every second or so, so one seed's link capacity stays close to
    another's; six traces per batch average out the rest.
    """

    name = "contention"
    TRACES = 6
    TRACE = {"mean_on_s": 1.0, "mean_off_s": 0.25, "duration": 30.0}
    PARAMS = {
        "flows": 16,
        "isender_flows": 4,
        "duration": 20.0,
        "belief_backend": "vectorized",
        "rollout_backend": "vectorized",
        "policy": "cache",
    }

    def setup(self, workdir: Path) -> Any:
        from repro.corpus import CorpusStore
        from repro.runner import CACHE_DIR_ENV, ScenarioSpec

        cache_dir = workdir / "cache"
        store = CorpusStore(cache_dir / "corpus")
        params = dict(self.PARAMS, duration=4.0) if self.tiny else dict(self.PARAMS)
        specs = []
        for index, seed in enumerate(sub_seeds(self.seed, self.name, 1 if self.tiny else self.TRACES)):
            trace = f"onoff-{index}"
            store.register_generator(trace, "markov_onoff", self.TRACE, seed=seed)
            specs.append(ScenarioSpec("many_flow_contention", dict(params, trace=trace), seed=seed))
        # The scenario finds its corpus under the cache directory.  Passing
        # corpus_dir instead would fold this run's temporary path into the
        # points' derived seeds, so the same benchmark seed would simulate
        # different inputs on every run.
        return {"specs": specs, "cache_env": (CACHE_DIR_ENV, str(cache_dir))}

    def batch(self, state: Any) -> Batch:
        from repro.runner import SerialRunner

        specs = state["specs"]
        env_name, cache_dir = state["cache_env"]
        os.environ[env_name] = cache_dir
        try:
            store, wall, failed = run_points(self.name, SerialRunner(), specs)
        finally:
            os.environ.pop(env_name, None)
        if store is None:
            return Batch(wall, [], len(specs), failed, 0, "")
        for point in store:
            metrics = point.metrics
            sane = (
                0.0 < metrics["jain_index"] <= 1.0 + 1e-12
                and metrics["total_goodput_bps"] > 0.0
                and metrics["flows"] == specs[0].params["flows"]
            )
            if not sane:
                print(f"[{self.name}] implausible outputs: {metrics}", file=sys.stderr)
                failed += 1
        return Batch(
            wall_s=wall,
            unit_s=[point.wall_time for point in store],
            attempted=len(specs),
            failed=failed,
            answered=len(store) - failed,
            digest=store.fingerprint(),
            layer={
                "runner.exec_s": store.total_wall_time,
                "sim.events": float(sum(store.metric("events_processed"))),
            },
        )


class Sweep(Workload):
    """A loss × delay × buffer × seed grid of cheap ``single_link_tcp`` points.

    300 points of 2 simulated seconds through ``ParallelRunner`` (2
    workers) into a fresh result cache, then replayed warm from it.
    Chosen because no ISender runs: runner dispatch, process fan-out and
    cache writes are a large share of the time, and an engine change must
    show no change here.  The warm replay (tens of milliseconds) is too
    unsteady for an end-to-end figure and is reported per layer only.
    """

    name = "sweep"
    worker_layers = ("sim", "belief", "planner", "policy")
    workers = 2
    serial = False
    AXES = {
        "loss_rate": [0.0, 0.01, 0.02, 0.05, 0.1],
        "extra_delay_s": [0.0, 0.02, 0.08],
        "buffer_bits": [60_000.0, 120_000.0, 480_000.0, 1_920_000.0],
    }
    SEEDS = 5

    def setup(self, workdir: Path) -> Any:
        from repro.runner import grid

        axes = {name: values[:2] for name, values in self.AXES.items()} if self.tiny else self.AXES
        specs = grid(
            "single_link_tcp",
            seeds=sub_seeds(self.seed, self.name, 1 if self.tiny else self.SEEDS),
            base={"duration": 2.0},
            **axes,
        )
        return {"specs": specs, "workdir": workdir, "batches": 0}

    def batch(self, state: Any) -> Batch:
        from repro.runner import ParallelRunner, ResultCache

        specs = state["specs"]
        state["batches"] += 1
        cache_dir = state["workdir"] / f"results-{state['batches']}"
        try:
            cold, wall, failed = run_points(
                self.name, ParallelRunner(workers=self.workers, cache=ResultCache(cache_dir)), specs
            )
            if cold is None:
                return Batch(wall, [], 2 * len(specs), 2 * len(specs), 0, "")
            warm, _, warm_failed = run_points(
                self.name, ParallelRunner(workers=self.workers, cache=ResultCache(cache_dir)), specs
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        failed += warm_failed
        if warm is not None and (warm.fingerprint() != cold.fingerprint() or warm.cache_hits != len(specs)):
            print(f"[{self.name}] warm replay differs from the cold run "
                  f"({warm.cache_hits} hits of {len(specs)})", file=sys.stderr)
            failed += len(specs)
        return Batch(
            wall_s=wall,
            unit_s=[point.wall_time for point in cold],
            attempted=2 * len(specs),
            failed=failed,
            answered=len(cold),
            digest=cold.fingerprint(),
            layer={
                "runner.exec_s": cold.total_wall_time,
                "sim.events": float(sum(cold.metric("events_processed"))),
            },
        )


class Serving(Workload):
    """``PolicyServer`` on loopback with 2 keep-alive ``PolicyClient``s.

    A closed loop: each client sends its next ``/decide`` only after the
    reply.  The table is precomputed at set-up from the benchmark seed
    (paper calibration, 30 s pilot) and published to a fresh registry.
    The request stream cycles through the published table's signatures,
    and every 10th request is pushed off the table (its queue backlog
    beyond anything the table holds), so it is planned live.  Chosen
    because the serving tier is measured nowhere else: the transport sets
    the median, the live-planner path sets p99.
    """

    name = "serving"
    # The server hands every request from its event loop to an executor
    # thread.  On the 2-vCPU VM the benchmark was tuned on, letting those
    # threads wake each other across CPUs made 1,000 requests take 2.1 to
    # 3.6 s from run to run; on the one CPU the harness pins this process
    # to, they took 1.77 to 1.80 s.
    serial = False
    CLIENTS = 2
    REQUESTS = 1000
    OFF_TABLE_EVERY = 10
    PILOT_S = 30.0

    def setup(self, workdir: Path) -> Any:
        from repro.api.config import SenderConfig
        from repro.api.policy import decision_to_payload, precompute_policy_table
        from repro.inference.prior import figure3_prior
        from repro.serving import DecisionService, PolicyClient, PolicyServer, PolicyTableRegistry

        config = SenderConfig(
            prior=figure3_prior(
                link_rate_points=2, cross_fraction_points=2, loss_points=2,
                buffer_points=2, fill_points=1,
            ),
            belief_backend="vectorized",
            rollout_backend="vectorized",
            policy="table",
        )
        (seed,) = sub_seeds(self.seed, self.name, 1)
        table = precompute_policy_table(
            config, seed=seed, pilot_duration=10.0 if self.tiny else self.PILOT_S
        )
        registry = PolicyTableRegistry(workdir / "registry")
        registry.publish(table)

        known = table.signatures()
        max_rounds = max(row[3] for signature in known for row in signature)
        requests = []
        for index in range(40 if self.tiny else self.REQUESTS):
            signature = known[index % len(known)]
            if (index + 1) % self.OFF_TABLE_EVERY == 0:
                off_table = tuple(
                    (row[0], row[1], row[2], max_rounds + 1 + index % 3, True)
                    for row in signature
                )
                requests.append((off_table, "planner", None))
            else:
                expected = json.loads(json.dumps(decision_to_payload(table.decision_for(signature))))
                requests.append((signature, "table", expected))

        service = DecisionService(registry, [config])
        server = PolicyServer(service)
        loop = asyncio.new_event_loop()

        async def start() -> list:
            await server.start()
            clients = [PolicyClient(port=server.port) for _ in range(self.CLIENTS)]
            for client in clients:
                await client.connect()
            return clients

        clients = loop.run_until_complete(start())
        return {
            "fingerprint": config.fingerprint(),
            "requests": requests,
            "service": service,
            "server": server,
            "clients": clients,
            "loop": loop,
            "planned": {},
        }

    def batch(self, state: Any) -> Batch:
        requests = state["requests"]
        fingerprint = state["fingerprint"]
        answers: list[Any] = [None] * len(requests)
        latencies = [0.0] * len(requests)
        pending = iter(range(len(requests)))

        async def closed_loop(client: Any) -> None:
            for index in pending:
                started = time.perf_counter()
                try:
                    answers[index] = await client.decide(fingerprint, requests[index][0])
                except Exception:  # noqa: BLE001 - a failed request is counted
                    report_failure(self.name, f"request {index}")
                latencies[index] = time.perf_counter() - started

        async def drive() -> None:
            await asyncio.gather(*(closed_loop(client) for client in state["clients"]))

        before = state["service"].counters_snapshot()
        started = time.perf_counter()
        state["loop"].run_until_complete(drive())
        wall = time.perf_counter() - started
        after = state["service"].counters_snapshot()

        failed = 0
        for index, payload in enumerate(answers):
            if not self._valid(state, index, payload):
                failed += 1
        outputs = [
            [payload.get("tier"), payload.get("decision")] if payload else None
            for payload in answers
        ]
        return Batch(
            wall_s=wall,
            unit_s=latencies,
            attempted=len(requests),
            failed=failed,
            answered=len(requests) - failed,
            digest=digest_of(outputs),
            layer={
                f"serving.{name}": float(after[name] - before[name])
                for name in ("table_hits", "planner_fallbacks", "default_served")
            },
        )

    @staticmethod
    def _valid(state: Any, index: int, payload: Any) -> bool:
        """Status ``ok`` from the expected tier, with the expected decision.

        Table answers must equal the published table's own decision for
        the signature; live-planned answers must repeat exactly whenever
        the same off-table signature comes back.
        """
        signature, tier, expected = state["requests"][index]
        if not payload or payload.get("status") != "ok" or payload.get("tier") != tier:
            return False
        if tier == "table":
            return payload.get("decision") == expected
        first = state["planned"].setdefault(json.dumps(signature), payload.get("decision"))
        return payload.get("decision") == first

    def teardown(self, state: Any) -> None:
        loop = state["loop"]

        async def stop() -> None:
            for client in state["clients"]:
                await client.close()
            await state["server"].stop()

        try:
            loop.run_until_complete(stop())
            loop.run_until_complete(loop.shutdown_default_executor())
        finally:
            loop.close()


WORKLOADS = {workload.name: workload for workload in (Paper, Contention, Sweep, Serving)}
