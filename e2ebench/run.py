"""End-to-end benchmark of the ease.ml/ci service: one command, four workloads.

Run from the repository root::

    python3 e2ebench/run.py --workload commit-durable --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``commit-durable`` (one durable commit
per op), ``push-batch`` (16-model pushes), ``fleet-churn`` (Zipf tenant
traffic through a fleet whose LRU is smaller than its tenants) and
``restart-cold`` (cold resume plus first build).  One closed-loop client
sends the next op only after the previous one returns.

The run builds the seeded inputs and an in-memory reference, then spends
``--seconds`` on one untimed warm-up episode and as many timed episodes
as fit (at least the workload's ``min_episodes``, and enough ops for
the tail percentile).  Each episode sets up a fresh world (``setup_s``)
and runs the workload's fixed op count.  Every episode's builds must
match the reference and its exact counts must repeat, else the run is
not correct and exits 1.

``--trace 0`` reports the end-to-end metrics, each a median over the
run (the tail over blocks of episodes, see ``tail_blocks_ms``), with
BLAS pinned to one thread.  ``--trace 1`` alternates
untraced episodes with episodes that record spans, reports the per-layer
metrics plus ``trace_overhead`` (traced ÷ untraced median op), and
writes the spans to ``.e2ebench/traces/``.  The line before the result
carries the environment block, the workload's fixed parameters and the
exact counts.

Later performance changes confirm their claims on ``HELD_OUT_SEED``, a
seed not used while tuning this benchmark.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import SpanRecorder, _per, layer_metrics, read_io

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HELD_OUT_SEED = 9173
WORKLOAD_NAMES = ("commit-durable", "push-batch", "fleet-churn", "restart-cold")
#: Environment variables that would change what is measured: parallel
#: planning workers and fault injection.  The run removes them.
CONTROLLED_ENV = ("REPRO_PLAN_WORKERS", "REPRO_FAULT_SPEC", "REPRO_FAULT_SEED")
#: BLAS thread pools, set to one thread before NumPy loads: the run is a
#: single thread and does not compete with itself for the box's cores.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PLAN_CACHE = "estimators.plan_cache"


@dataclass
class Episode:
    setup_s: float
    latencies: list[float]
    failed: int
    errors: list[str]
    counts: dict[str, int]
    labels_per_build: float

    @property
    def ops(self) -> int:
        return len(self.latencies)


def cache_counts() -> dict[str, int]:
    """Hits and misses of the plan cache and of every other stats cache."""
    from repro.stats.cache import all_cache_info

    counts = dict.fromkeys(
        ("plan_cache_hits", "plan_cache_misses", "stats_cache_hits", "stats_cache_misses"), 0
    )
    for name, info in all_cache_info().items():
        prefix = "plan_cache" if name == PLAN_CACHE else "stats_cache"
        counts[f"{prefix}_hits"] += info.hits
        counts[f"{prefix}_misses"] += info.misses
    return counts


def run_episode(workload, clock, recorder: SpanRecorder | None = None) -> Episode:
    """Set up a fresh world, run the fixed op sequence, gate the builds.

    Only the op calls are timed; I/O and cache counters are read just
    outside each timed call.
    """
    state = Path("state")
    shutil.rmtree(state, ignore_errors=True)
    gc.collect()
    clock.reset()
    start = time.perf_counter()
    workload.setup(state)
    setup_s = time.perf_counter() - start

    latencies, errors = [], []
    counts = dict.fromkeys(("write_bytes", "read_bytes"), 0)
    counts.update(dict.fromkeys(cache_counts(), 0))
    for index, op in enumerate(workload.ops()):
        caches = cache_counts()
        io = read_io()
        if recorder is not None:
            recorder.begin_op(index)
        start = time.perf_counter()
        try:
            op()
        except Exception as exc:  # a failed op is counted, never dropped
            errors.append(f"op {index}: {type(exc).__name__}: {exc}")
        latencies.append(time.perf_counter() - start)
        if recorder is not None:
            recorder.end_op()
        after = read_io()
        counts["write_bytes"] += after["wchar"] - io["wchar"]
        counts["read_bytes"] += after["rchar"] - io["rchar"] - io["own_read"]
        for key, value in cache_counts().items():
            counts[key] += value - caches[key]

    outcome = workload.finish(state)
    workload.close()
    shutil.rmtree(state, ignore_errors=True)
    counts.update(
        builds=outcome.builds,
        state_bytes=outcome.state_bytes,
        state_builds=outcome.state_builds,
        **outcome.counters,
    )
    return Episode(
        setup_s=setup_s,
        latencies=latencies,
        failed=len(errors) + outcome.skipped_ops,
        errors=errors + outcome.mismatches,
        counts=counts,
        labels_per_build=outcome.labels_per_build,
    )


def run_phase(workload, clock, deadline: float, min_episodes: int, min_ops: int, recorder=None):
    """Run episodes until ``deadline``, on average.

    A new episode starts while it would end at most half an episode past
    ``deadline``; the minimum episode and op counts are met regardless.
    With a ``recorder``, every second episode runs traced, so traced and
    untraced episodes share the machine's conditions.
    """
    episodes: list[Episode] = []
    start = time.monotonic()
    while (
        len(episodes) < min_episodes
        or sum(episode.ops for episode in episodes) < min_ops
        or time.monotonic() + (time.monotonic() - start) / len(episodes) / 2 <= deadline
    ):
        traced = recorder is not None and len(episodes) % 2 == 1
        if traced:
            recorder.install()
        try:
            episodes.append(run_episode(workload, clock, recorder if traced else None))
        finally:
            if traced:
                recorder.uninstall()
    return episodes


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def tail_samples(workload) -> int:
    """Fewest samples with at least ten beyond the workload's tail percentile."""
    return math.ceil(10 / (1 - workload.tail_percentile / 100)) + 1


def tail_blocks_ms(workload, episodes: list[Episode]) -> list[float]:
    """The tail percentile of each block of consecutive episodes, in ms.

    A block holds the fewest whole episodes with :func:`tail_samples`
    samples (the last block takes the leftover episodes).  The reported
    tail is the median over blocks, so a slow stretch of the shared
    machine moves the tail of one block rather than the whole run's.
    """
    size = math.ceil(tail_samples(workload) / workload.ops_per_episode)
    count = max(1, len(episodes) // size)
    blocks = [episodes[i * size:(i + 1) * size] for i in range(count - 1)]
    blocks.append(episodes[(count - 1) * size:])
    return [
        percentile([value for episode in block for value in episode.latencies], workload.tail_percentile) * 1e3
        for block in blocks
    ]


def exact_count_errors(episodes: list[Episode], skip: tuple[str, ...] = ()) -> list[str]:
    """Counts that differ between episodes of one seed (they must not)."""
    first = episodes[0].counts
    return [
        f"exact count {key!r}: episode {number} has {value}, episode 1 {first.get(key)}"
        for number, episode in enumerate(episodes[1:], start=2)
        for key, value in episode.counts.items()
        if key not in skip and value != first.get(key)
    ]


def filesystem_type(path: Path) -> str:
    """The type of the filesystem ``path`` lives on, from ``/proc/mounts``."""
    real = os.path.realpath(path)
    best, kind = "", "unknown"
    with open("/proc/mounts") as mounts:
        for line in mounts:
            point, fstype = line.split()[1:3]
            inside = real == point or real.startswith(point.rstrip("/") + "/")
            if inside and len(point) > len(best):
                best, kind = point, fstype
    return kind


def environment(workload, removed: list[str], state_root: Path) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "state_dir_filesystem": filesystem_type(state_root),
        "sync": workload.sync,
        "REPRO_PLAN_WORKERS": "removed" if "REPRO_PLAN_WORKERS" in removed else "unset",
        "removed_env": removed,
        "pinned_env": PINNED_ENV,
        "platform": platform.platform(),
    }


def end_to_end(workload, episodes: list[Episode]) -> dict[str, tuple[float, str]]:
    latencies = [value for episode in episodes for value in episode.latencies]
    counts = episodes[0].counts  # exact counts: every episode has the same
    return {
        "setup_s": (statistics.median(episode.setup_s for episode in episodes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_tail_ms": (statistics.median(tail_blocks_ms(workload, episodes)), "ms"),
        "builds_per_s": (
            statistics.median(_per(e.counts["builds"], sum(e.latencies)) for e in episodes),
            "1/s",
        ),
        "write_bytes_per_build": (_per(counts["write_bytes"], counts["builds"]), "B"),
        "state_bytes_per_build": (_per(counts["state_bytes"], counts["state_builds"]), "B"),
        "labels_per_build": (episodes[0].labels_per_build, "labels"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(
    untraced: list[Episode], traced: list[Episode], recorder: SpanRecorder
) -> dict[str, tuple[float, str]]:
    counters = dict.fromkeys(("fleet_lookups", "hydrations", "evictions", "rejections"), 0)
    for episode in traced:
        for key, value in episode.counts.items():
            counters[key] = counters.get(key, 0) + value
    # rchar of a traced episode includes the recorder's own /proc reads:
    # take the exact per-build count of the untraced episodes instead.
    first = untraced[0].counts
    counters["read_bytes"] = _per(first["read_bytes"], first["builds"]) * counters["builds"]
    metrics = layer_metrics(
        recorder.spans,
        ops=sum(episode.ops for episode in traced),
        builds=counters["builds"],
        op_seconds=sum(end - start for _, start, end in recorder.ops),
        counters=counters,
    )
    untraced_p50 = statistics.median(v for e in untraced for v in e.latencies)
    traced_p50 = statistics.median(v for e in traced for v in e.latencies)
    metrics["trace_overhead"] = (traced_p50 / untraced_p50, "ratio")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({ROOT / 'src' / 'repro'})", file=sys.stderr)
        return 2
    removed = sorted(name for name in CONTROLLED_ENV if os.environ.pop(name, None) is not None)
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    from worlds import LogicalClock

    clock = LogicalClock().install()
    work = ROOT / ".e2ebench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    os.chdir(work)  # relative state dirs: journal bytes do not depend on the checkout path
    try:
        workload = WORKLOADS[args.workload](args.seed)
        deadline = time.monotonic() + args.seconds
        run_episode(workload, clock)  # warm-up: lazy imports, bytecode, allocator
        if args.trace:
            recorder = SpanRecorder()
            episodes = run_phase(workload, clock, deadline, 4, 0, recorder)
            untraced, traced = episodes[0::2], episodes[1::2]
            errors = exact_count_errors(untraced) + exact_count_errors(
                [untraced[0]] + traced, skip=("read_bytes",)
            )
            metrics = per_layer(untraced, traced, recorder)
            recorder.write(ROOT / ".e2ebench" / "traces" / f"{args.workload}-seed{args.seed}.jsonl")
        else:
            episodes = run_phase(workload, clock, deadline, workload.min_episodes, tail_samples(workload))
            errors = exact_count_errors(episodes)
            metrics = end_to_end(workload, episodes)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)

    for episode in episodes:
        errors += episode.errors
    failed = sum(episode.failed for episode in episodes)
    correct = not errors and failed == 0
    detail = {
        "environment": environment(workload, removed, work.parent),
        "workload": {
            "name": workload.name,
            "op": workload.op,
            "ops_per_episode": workload.ops_per_episode,
            "episodes": len(episodes),
            "samples": sum(episode.ops for episode in episodes),
            "tail_percentile": workload.tail_percentile,
            "seed": args.seed,
        },
        "exact_counts": episodes[0].counts,
        "episode_p50_ms": [statistics.median(e.latencies) * 1e3 for e in episodes],
        "episode_builds_per_s": [_per(e.counts["builds"], sum(e.latencies)) for e in episodes],
        "block_tail_ms": [] if args.trace else tail_blocks_ms(workload, episodes),
        "errors": errors[:20],
    }
    print(json.dumps(detail, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": sum(episode.ops for episode in episodes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
