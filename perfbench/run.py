"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload studio --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), runs its items untraced and reports the end-to-end metrics of
``BENCHMARK.json``. ``--trace 1`` sets up once, runs alternate blocks of
items untraced and with every layer's public entry points wrapped in
spans, reports the per-layer metrics of the traced blocks and writes
the spans to ``perfbench/results/spans-<workload>.jsonl``.
``--workload all`` runs each workload in a process of its own, one
after another, and merges their results.

Each run executes a fixed number of items back to back —
``items_per_second`` times ``--seconds``, at least enough for a p90 of
every timing — so every run
of a workload does the same work; ``items_per_second`` is set so that a
run lasts about ``--seconds`` on a 2-core x86-64 machine. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``failed_share`` is ``failed / attempted``.

Times are wall-clock seconds scaled to a reference CPU speed
(:mod:`perfbench.speed`): each item's wall time is multiplied by the ratio of a
fixed reference loop's nominal time to its time measured alongside.
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
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.speed import REFERENCE_S, SpeedProbe  # noqa: E402

WORKLOADS = ("studio", "vod", "catalog")

#: The traced run alternates this many untraced and traced blocks.
TRACE_BLOCKS = 20


def _load_program() -> dict:
    """Import the program from ``src`` and the workload modules."""
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        raise SystemExit(f"error: no program source under {ROOT}/src")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from perfbench.catalog import Catalog
    from perfbench.studio import Studio
    from perfbench.vod import Vod

    return {w.name: w for w in (Studio, Vod, Catalog)}


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def item_count(workload_cls, seconds: float) -> int:
    return max(workload_cls.min_items,
               round(workload_cls.items_per_second * seconds))


class Loop:
    """Runs a workload's items back to back and counts failures."""

    def __init__(self, workload, probe: SpeedProbe):
        self.workload = workload
        self.probe = probe
        self.attempted = 0
        self.failed = 0

    def run(self, indices, recorder=None) -> list[float]:
        """Run ``indices``; returns each item's reference-speed seconds."""
        workload = self.workload
        walls = []
        for index in indices:
            workload.scale = self.probe.scale()
            self.attempted += 1
            start = time.perf_counter()
            try:
                if recorder is None:
                    workload.run_item(index)
                else:
                    with recorder.item(workload.item_name):
                        workload.run_item(index)
            except Exception:  # noqa: BLE001 - counted, reported, run goes on
                traceback.print_exc(file=sys.stderr)
                self.failed += 1
                continue
            walls.append(workload.elapsed(start))
            problems = self._untraced(recorder, workload.check_item, index)
            if problems:
                self.failed += 1
                for problem in problems:
                    print(f"check failed: {workload.name} item {index}: "
                          f"{problem}", file=sys.stderr)
        return walls

    @staticmethod
    def _untraced(recorder, fn, index):
        if recorder is None:
            return fn(index)
        recorder.enabled = False
        try:
            return fn(index)
        finally:
            recorder.enabled = True


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload) -> tuple[dict, Loop]:
    probe = SpeedProbe()
    setups = []
    for repetition in range(workload.setup_repetitions):
        before = probe.measure()
        start = time.perf_counter()
        workload.setup(repetition)
        wall = time.perf_counter() - start
        setups.append(wall * REFERENCE_S * 2 / (before + probe.measure()))
    loop = Loop(workload, probe)
    loop.run(list(range(workload.items)))
    metrics = workload.end_to_end()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics, loop


def spans_path(name: str) -> str:
    """Where the traced run of workload ``name`` writes its spans."""
    return os.path.join(ROOT, "perfbench", "results", f"spans-{name}.jsonl")


def run_traced(workload) -> tuple[dict, Loop]:
    """Alternate untraced and traced blocks of items, so both sides see
    the same catalog, store and fleet sizes; the wrappers are installed
    only for the traced blocks."""
    from perfbench.base import common_per_layer, traced_common
    from perfbench.trace import Patches, SpanRecorder

    workload.setup(0)
    loop = Loop(workload, SpeedProbe())
    recorder = SpanRecorder()
    tally: dict = {}
    counted: dict[str, float] = {}
    untraced: list[float] = []
    traced: list[float] = []
    block = max(1, workload.items // TRACE_BLOCKS)
    for number, first in enumerate(range(0, workload.items, block)):
        indices = list(range(first, min(first + block, workload.items)))
        if number % 2 == 0:
            untraced += loop.run(indices)
            continue
        before = workload.trace_counters()
        with Patches(recorder) as patches:
            traced_common(patches, tally)
            workload.install_tracing(patches, recorder)
            try:
                traced += loop.run(indices, recorder)
            finally:
                workload.remove_tracing()
        for key, value in workload.trace_counters().items():
            counted[key] = counted.get(key, 0) + value - before[key]
    items = len(traced)
    metrics = common_per_layer(recorder, tally, items, workload.databases())
    metrics.update(workload.per_layer(recorder, counted, items))
    metrics["trace.overhead_ratio"] = (
        (sum(traced) / len(traced)) / (sum(untraced) / len(untraced)))
    recorder.dump(spans_path(workload.name))
    return metrics, loop


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workloads = _load_program()
    spec = _spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    cls = workloads[name]
    scratch = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(scratch, f"{name}-{os.getpid()}")
    os.makedirs(workdir)
    workload = cls(seed, workdir, item_count(cls, seconds))
    try:
        if trace:
            measured, loop = run_traced(workload)
        else:
            measured, loop = run_untraced(workload)
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if not os.listdir(scratch):
            os.rmdir(scratch)
    metrics = {}
    for metric in declared:
        value = measured.get(metric["name"], 0.0)
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
        "aliases": workload.aliases(),
    }


def _print_table(name: str, result: dict) -> None:
    aliases = result.get("aliases", {})
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} "
          f"failed (failed_share "
          f"{result['failed'] / max(1, result['attempted']):.4f})")
    for metric, entry in result["metrics"].items():
        label = metric if metric not in aliases else \
            f"{metric} ({aliases[metric]})"
        print(f"  {label:<44} {entry['value']:>14.6g} {entry['unit']}")


def run_all(args) -> dict:
    """Each workload in a fresh process, so none inherits another's
    peak RSS, heap or caches; their tables pass through as they come."""
    results = {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        if child.returncode != 0:
            raise SystemExit(f"error: workload {name} exited with "
                             f"{child.returncode}")
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        results[name] = json.loads(lines[-1])
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": e for n, r in results.items()
                    for m, e in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        final = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        _print_table(args.workload, result)
        final = {key: result[key] for key in ("correct", "attempted",
                                              "failed", "metrics")}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
