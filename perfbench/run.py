"""Run one benchmark workload and report its metrics.

::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 28 --trace 0

``--trace 0`` sets up several times (reporting the median set-up time),
then repeats the workload's fixed batch of work in rounds for ``--seconds``
and prints every end-to-end metric with its unit and sample count.  Each
unit of the batch (a scenario point, a ``/decide`` request) is timed on
every round, and its time is the median of its rounds.  Throughout the
run a thread times a reference kernel (:mod:`speed`), and every time is
reported scaled to a host on which that kernel takes ``speed.NOMINAL_S``,
because the shared host this was tuned on changes speed from minute to
minute.  The record keeps the unscaled values too.  ``--trace
1`` gives the per-layer breakdown instead: half the time untraced, half
with the layer wrappers of :mod:`spans` installed, so the difference of
the two is the tracing overhead.  Every run checks the workload's outputs.

The last line of standard output is one JSON object::

    {"correct": true, "attempted": 126, "failed": 0,
     "metrics": {"wall_s": {"value": 9.81, "unit": "s"}, ...}}

Detailed records (sample counts, output digests, claims, spans) go to
``.perfbench/out/`` at the repository root.  Exit codes: 0 after a
report (``correct`` says whether the checks passed), 2 when the benchmark
cannot run at all (no ``src/repro`` next to it, bad arguments).

Run as a script, it first re-executes itself with ``PYTHONHASHSEED=0``,
so that the per-process salt of string hashing is not one more thing that
differs between runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: End-to-end metrics in the final JSON: name → unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "decide_p50_ms": "ms",
    "decide_p99_ms": "ms",
    "decisions_per_s": "1/s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end table but left out of the JSON, because
#: they are zero whenever the code is healthy: name → unit.
REPORTED = {"error_rate": "fraction", "claims_failed": "count"}

SETUP_REPEATS = 5

_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)


def import_seconds(modules) -> float:
    """Cold import time of ``modules`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *modules],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child (MB)."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib * 1024 / 1e6


def set_up(workload, workdir: Path, repeats: int):
    """Set up ``repeats`` times; keep the last state, return the timings."""
    from workloads import SETUP_IMPORTS

    timings = []
    state = None
    for index in range(repeats):
        if state is not None:
            workload.teardown(state)
        imports = import_seconds(SETUP_IMPORTS)
        started = time.perf_counter()
        state = workload.setup(workdir / f"setup-{index}")
        timings.append(imports + time.perf_counter() - started)
    return state, timings


def measure(workload, state, seconds: float) -> list:
    """Repeat the batch until another one would overrun ``seconds``."""
    batches = []
    started = time.perf_counter()
    while True:
        batches.append(workload.batch(state))
        if time.perf_counter() - started + batches[-1].wall_s > seconds:
            return batches


def median_units(batches) -> list[float]:
    """Each unit's median time over the rounds that timed every unit."""
    complete = [batch.unit_s for batch in batches if batch.unit_s]
    return [statistics.median(times) for times in zip(*complete)]


def end_to_end(workload, batches, setup_timings, setup_factor: float,
               factor: float) -> dict[str, tuple[float, int]]:
    """Metric name → (value, sample count).

    Set-up times are multiplied by ``setup_factor``, batch times by
    ``factor``: the host's speed while each was measured.
    """
    from layers import percentile

    units = [seconds * factor for seconds in median_units(batches)]
    requests = workload.requests(units)
    # Serial units add up to the batch; overlapping ones (worker processes,
    # concurrent connections) do not, so there the median round counts.
    wall = (sum(units) if workload.serial
            else statistics.median(batch.wall_s for batch in batches) * factor)
    attempted = sum(batch.attempted for batch in batches)
    claims = batches[0].claims
    return {
        "setup_s": (statistics.median(setup_timings) * setup_factor, len(setup_timings)),
        "wall_s": (wall, len(batches)),
        "decide_p50_ms": (percentile(requests, 0.50) * 1e3, len(requests)),
        "decide_p99_ms": (percentile(requests, 0.99) * 1e3, len(requests)),
        "decisions_per_s": (statistics.median(batch.answered for batch in batches) / wall,
                            len(batches)),
        "peak_rss_mb": (peak_rss_mb(), 1),
        "error_rate": (sum(batch.failed for batch in batches) / attempted, attempted),
        "claims_failed": (float(sum(claims.values())), len(claims)),
    }


def check_digests(batches) -> int:
    """Failed operations from batches whose outputs differ from the first."""
    failed = 0
    for batch in batches[1:]:
        if batch.digest != batches[0].digest:
            print(f"outputs differ between batches: {batch.digest} != {batches[0].digest}",
                  file=sys.stderr)
            failed += batch.attempted
    return failed


def run(args, workdir: Path) -> tuple[dict, list[str], dict]:
    """Run the workload; return (JSON result, report lines, record)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    cpus = os.sched_getaffinity(0)
    # A workload that runs in this process alone runs on one CPU, and so
    # does the speed sampler's thread: it must time the CPU the work runs on.
    if workload.workers == 1:
        os.sched_setaffinity(0, {min(cpus)})
    try:
        return run_workload(args, workload, workdir)
    finally:
        os.sched_setaffinity(0, cpus)


def run_workload(args, workload, workdir: Path) -> tuple[dict, list[str], dict]:
    """Set up, measure (untraced, or untraced then traced), check, report."""
    from speed import NOMINAL_S, SpeedSampler

    repeats = 1 if args.tiny or args.trace else SETUP_REPEATS
    lines = []
    record: dict = {"workload": workload.name, "seed": args.seed, "trace": args.trace}
    with SpeedSampler() as speed:
        state, setup_timings = set_up(workload, workdir, repeats)
        set_up_mark = len(speed.samples)
        try:
            if not args.trace:
                batches = measure(workload, state, args.seconds)
                phases = [batches]
                measured_mark = len(speed.samples)
            else:
                untraced = measure(workload, state, args.seconds / 2)
                measured_mark = len(speed.samples)
                traced, layer, altered = traced_phase(workload, state, args, workdir, untraced)
                batches = untraced + traced
                phases = [untraced, traced]
        finally:
            workload.teardown(state)

    failed = sum(batch.failed for batch in batches) + check_digests(batches)
    attempted = sum(batch.attempted for batch in batches)
    correct = failed == 0
    setup_factor = speed.factor(0, set_up_mark)
    factor = speed.factor(set_up_mark, measured_mark)
    e2e = end_to_end(workload, phases[0], setup_timings, setup_factor, factor)
    host = end_to_end(workload, phases[0], setup_timings, 1.0, 1.0)
    lines.append(
        f"workload {workload.name}  seed {args.seed}  batches {len(phases[0])}"
        f"  attempted {attempted}  failed {failed}"
    )
    lines.append(f"speed factor {factor:.4f} measuring, {setup_factor:.4f} setting up "
                 f"(reference kernel: nominal {NOMINAL_S * 1e3:.3f} ms, {len(speed.samples)} calls)")
    lines.append(f"{'metric':28s} {'value':>14s} {'host value':>14s}  {'unit':9s} {'samples':>8s}")
    for name, (value, samples) in e2e.items():
        unit = END_TO_END.get(name) or REPORTED[name]
        lines.append(f"{name:28s} {value:14.6g} {host[name][0]:14.6g}  {unit:9s} {samples:8d}")
    claims = batches[0].claims
    if claims:
        lines.append("claims (seeds failing): " + ", ".join(
            f"{claim} {count}" for claim, count in claims.items()))
    lines.append(f"outputs_digest {batches[0].digest}")
    record.update(
        correct=correct, attempted=attempted, failed=failed, claims=claims,
        outputs_digest=batches[0].digest,
        end_to_end={name: {"value": value, "samples": samples} for name, (value, samples) in e2e.items()},
        end_to_end_host={name: value for name, (value, _) in host.items()},
        speed_factor={"setup": setup_factor, "measure": factor},
        speed_samples=speed.samples,
        speed_marks=[set_up_mark, measured_mark],
        batch_wall_s=[[batch.wall_s for batch in phase] for phase in phases],
        unit_s=[batch.unit_s for batch in phases[0]],
    )

    if args.trace:
        from layers import LAYER_METRICS, NOT_MEASURED, not_visible

        hidden = set(not_visible(workload))
        if altered:
            print(f"wrappers left installed after the traced run: {altered}", file=sys.stderr)
            correct = False
        lines.append(f"per-layer ({len(phases[1])} traced batches; n/v = not visible "
                     "from this process, - = no calls)")
        for name, (unit, _) in LAYER_METRICS.items():
            value = layer[name]
            shown = ("n/v" if name in hidden else "-") if value == NOT_MEASURED else f"{value:.6g}"
            lines.append(f"{name:28s} {shown:>14s}  {unit}")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
        record.update(per_layer=layer, not_visible=sorted(hidden), wrappers_restored=not altered)
    else:
        metrics = {name: {"value": e2e[name][0], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, lines, record


def traced_phase(workload, state, args, workdir: Path, untraced: list):
    """Set up once and measure with the layer wrappers installed."""
    from layers import layer_metrics
    from spans import Tracer, install_layer_wrappers

    tracer = Tracer()
    install_layer_wrappers(tracer)
    try:
        tracer.phase = "setup"
        workload.teardown(workload.setup(workdir / "traced-setup"))
        tracer.phase = "measure"
        traced = measure(workload, state, args.seconds / 2)
    finally:
        altered = tracer.uninstall()
    layer = layer_metrics(tracer, workload, untraced, traced)
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    tracer.write(out / f"{workload.name}-seed{args.seed}-spans.jsonl")
    return traced, layer, altered


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true",
        help="shrink every batch to a few seconds of work (harness self-test)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    # Point workloads at their own temporary directories only.
    os.environ.pop("REPRO_CACHE_DIR", None)
    args = parse_args(argv)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
    try:
        result, lines, record = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = WORK / "out"
    out.mkdir(parents=True, exist_ok=True)
    record_path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    raise SystemExit(main())
