"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload fuzz-batch --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same operations
with a span around each layer's public entry point and reports the
per-layer table instead (see README.md).  Lines before it, each starting
with ``#``, describe the host and the tail percentile.
"""

import time

#: Set-up time is measured from here: before any import of the program.
_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space for caches and span files, inside the checkout.
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")

#: Environment the program reads that would change what runs: pinned
#: to one serial, uncached, untraced configuration with the packaged
#: router calibration.  REPRO_CACHE_DIR is pointed at a fresh directory
#: per run below.
PINNED_ENV = {
    "REPRO_JOBS": "1",
    "REPRO_CACHE": "0",
}
CLEARED_ENV = ("REPRO_TRACE", "REPRO_RELATION_BACKEND", "REPRO_CALIBRATION")

#: Set-up runs in this many processes per run (this one included); the
#: median is reported.
SETUP_SAMPLES = 5


def isolate_environment(cache_dir: str) -> None:
    for name in CLEARED_ENV:
        os.environ.pop(name, None)
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_CACHE_DIR"] = cache_dir


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--spans", metavar="FILE",
        help="with --trace 1, also write every span to FILE as JSONL",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="only set up, print the set-up time and exit (used internally "
             "to sample set-up time in fresh processes)",
    )
    return parser.parse_args(argv)


def setup_probe_samples(args, count: int):
    """Set-up time of *count* fresh processes doing this run's set-up."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def end_to_end(timed, setup_s: float, setup_samples, rss_mb: float,
               slowdown: float):
    """The end-to-end metrics, the timed phase's times divided by the
    host's *slowdown* over it (see hostspeed.py); the plain wall times
    are printed on a ``#`` line.  Set-up time stays plain: it is mostly
    imports, and did not follow the timed phase's slowdown."""
    import measure

    setups = [setup_s] + setup_samples
    print("# setup_s samples (this process first): "
          + ", ".join(f"{v:.4f}" for v in setups))
    timed_metrics = {
        "work_per_s": (timed.work_units / timed.wall_s, "1/s"),
        "latency_p50_ms": (statistics.median(timed.latencies_s) * 1e3, "ms"),
    }
    tail = measure.tail(timed.latencies_s)
    if tail is not None:
        value, percentile, beyond = tail
        timed_metrics["latency_tail_ms"] = (value * 1e3, "ms")
        print(f"# latency_tail_ms is p{percentile:.1f}: {beyond} of "
              f"{len(timed.latencies_s)} operations lie beyond it")
    print("# wall (not host-normalised): " + ", ".join(
        f"{name} {value:.4f}" for name, (value, _unit) in timed_metrics.items()))
    metrics = {"setup_s": (statistics.median(setups), "s")}
    for name, (value, unit) in timed_metrics.items():
        metrics[name] = (value * slowdown if unit == "1/s" else value / slowdown, unit)
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    return metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        return _run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def pin_to_one_cpu() -> None:
    """Run this process, and the processes it starts, on one CPU: the
    host-speed child then samples the same core the operations ran on
    (on a shared host the cores' speeds differ from moment to moment).
    Every workload runs its work on one thread at a time."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _run(args, tmp: str) -> int:
    isolate_environment(os.path.join(tmp, "cache"))
    pin_to_one_cpu()
    sys.path.insert(0, SRC)
    import hostspeed
    import loads
    import measure

    workload_cls = loads.WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {sorted(loads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workload_cls(args.seed, args.seconds, os.path.join(tmp, "cache"))
    workload.setup()
    # The timed phase starts from a collected heap, so when the collector
    # next runs does not depend on what set-up happened to leave behind.
    gc.collect()
    setup_s = time.perf_counter() - _PROCESS_START
    if args.setup_probe:
        if hasattr(workload, "close"):
            workload.close()
        print(repr(setup_s))
        return 0

    recorder = None
    speed = hostspeed.HostSpeed()
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    try:
        timed = workload.run(speed)
    finally:
        if recorder is not None:
            recorder.uninstall()
        speed.close()
    slowdown = speed.slowdown()
    print(f"# host slowdown {slowdown:.4f}: mean of {len(speed.samples)} "
          f"calibration samples over the reference time")
    rss_mb = measure.peak_rss_mb()
    if hasattr(workload, "close"):
        workload.close()

    verdict = workload.verify(timed)
    failed = set(timed.errors) | set(verdict.wrong)
    for index in sorted(failed):
        why = timed.errors.get(index) or verdict.wrong[index]
        print(f"# failed operation {index}: {why}")
    for problem in verdict.run_problems:
        print(f"# wrong: {problem}")
    correct = not verdict.wrong and not verdict.run_problems

    info = dict(measure.host_info(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace,
                operations=len(timed.latencies_s), work_unit=workload.unit)
    print("# host " + json.dumps(info, sort_keys=True))

    if recorder is None:
        metrics = end_to_end(
            timed, setup_s, setup_probe_samples(args, SETUP_SAMPLES - 1), rss_mb,
            slowdown,
        )
    else:
        table = recorder.layer_table()
        if hasattr(workload, "layer_counts"):
            table.update(workload.layer_counts(recorder))
        # Host-normalised like their untraced twins, so the two compare.
        table["traced.work_per_s"] = timed.work_units / timed.wall_s * slowdown
        table["traced.latency_p50_ms"] = (
            statistics.median(timed.latencies_s) * 1e3 / slowdown
        )
        metrics = {name: (table[name], unit)
                   for name, (unit, _better) in spans.LAYER_METRICS.items()}
        print(f"# traced: work_per_s {table['traced.work_per_s']:.4f}, "
              f"latency_p50_ms {table['traced.latency_p50_ms']:.4f}, "
              f"{len(recorder.spans)} spans")
        if args.spans:
            recorder.write(args.spans)

    print(json.dumps({
        "correct": correct,
        "attempted": len(timed.latencies_s),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
