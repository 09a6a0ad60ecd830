#!/usr/bin/env python3
"""Run one spinchains benchmark workload and print its metrics.

Usage, from the repository root:

    python3 spinbench/run.py --workload {enumerate,multiplicity,verify,lr} \\
        --seed N --seconds S --trace {0,1}

With --trace 0 the run alternates groups of set-ups and timed passes for at
least S seconds (and, for the per-call workloads, until the p99 has ten
samples beyond it) and reports the end-to-end metrics.  With --trace 1 it
times untraced passes for S seconds, then runs one pass with every layer
traced and reports the per-layer metrics; the spans go to spinbench/out/.
Every time is scaled to a reference host speed by a probe (a fixed
pure-Python loop) timed around every pass; see Run.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics; the
line before it gives the run's context, the measured wall times and probes
among it.  Exits 2 without a result if the spinchains sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from dataclasses import replace
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / "spinbench" / "out"
SETUP_REPEATS = 15  # set-ups a run makes at least
SETUPS_PER_PASS = 5  # set-ups before each pass, and after the last
PROBE_LOOPS = 500_000  # additions the host-speed probe times
PROBE_REF_MS = 40.0  # the probe's time at the reference host speed all reported times are scaled to

sys.path[:0] = [str(ROOT), str(SRC)]

from spinbench import stats, tracing  # noqa: E402
from spinbench.workloads import WORKLOADS, import_spinchains  # noqa: E402


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((line.split()[0] for line in packed if line.endswith(" " + ref)), None)


def peak_rss_mb() -> float:
    """This process's high-water resident memory plus that of its largest finished child (Linux: KiB).

    An approximation of the process tree's peak: a forked child's figure also
    holds the pages it shares with the parent, which are thus counted twice,
    and of children that ran at the same time only the largest is counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def host_probe_ms() -> float:
    """Wall time of a fixed pure-Python loop: the host's speed at this moment."""
    t = perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return (perf_counter() - t) * 1e3


class Run:
    """The set-ups and passes of one run, their times scaled to the reference host speed.

    A time measured while the probe reads P milliseconds is reported as
    time * PROBE_REF_MS / P.  Every group of set-ups and every pass ends with
    a probe, so the latest probe was always taken just before the next pass.
    A group of set-ups is scaled by the probe taken right after it, a pass
    by the mean of the probes just before and just after it.
    """

    def __init__(self, workload, seed: int):
        self.workload, self.seed = workload, seed
        self.prepared = workload.prepare(seed)
        self.setup_s, self.passes = [], []  # scaled
        self.wall_s, self.probe_ms = [], []  # per pass: measured seconds, mean probe

    def set_up(self):
        """SETUPS_PER_PASS set-ups; each imports spinchains afresh and builds the next pass's inputs."""
        times = []
        for _ in range(SETUPS_PER_PASS):
            # free the previous import's module cycles, so memory does not grow with the set-ups
            gc.collect()
            t = perf_counter()
            self.mods = import_spinchains()
            self.inputs = self.workload.setup(self.mods, self.seed, self.prepared)
            times.append(perf_counter() - t)
        self.probe = host_probe_ms()
        self.setup_s += [x * PROBE_REF_MS / self.probe for x in times]

    def run_pass(self):
        """One timed pass over the inputs of the latest set-up."""
        before = self.probe
        result = self.workload.run_pass(self.mods, self.inputs, len(self.passes))
        self.probe = host_probe_ms()
        probe = (before + self.probe) / 2
        scale = PROBE_REF_MS / probe
        self.passes.append(replace(result, seconds=result.seconds * scale, latencies=[x * scale for x in result.latencies]))
        self.wall_s.append(result.seconds)
        self.probe_ms.append(probe)


def measure(workload, seed: int, seconds: float, min_samples: int) -> Run:
    """Alternate groups of set-ups and timed passes, ending on set-ups, at least SETUP_REPEATS of them.

    Passes go on until `seconds` have passed, the passes hold `min_samples`
    latency samples and they make whole cycles.  The workload's own inputs
    are prepared once, before the loop.  Spreading the set-ups over the run
    lets their median see the machine the passes saw, not one moment of it.
    """
    run = Run(workload, seed)
    t0 = perf_counter()
    while True:
        run.set_up()
        samples = sum(len(p.latencies) for p in run.passes)
        if (
            not run.passes
            or perf_counter() - t0 < seconds
            or samples < min_samples
            or len(run.passes) % workload.cycle
        ):
            run.run_pass()
        elif len(run.setup_s) >= SETUP_REPEATS:
            return run


def end_to_end(passes, setup_times):
    latency = stats.latency_summary([x for p in passes for x in p.latencies])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_s": (statistics.median(p.seconds for p in passes), "s"),
        "items_per_s": (sum(p.items for p in passes) / sum(p.seconds for p in passes), "1/s"),
        "query_p50_ms": (latency["p50_ms"], "ms"),
        "query_p99_ms": (latency["tail_ms"], "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    samples = {
        "setup_s": len(setup_times),
        "job_s": len(passes),
        "query_p50_ms": latency["samples"],
        "query_p99_ms": latency["samples"],
        "query_p99_ms_percentile": latency["tail_percentile"],
    }
    return metrics, samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinchains" / "__init__.py").is_file():
        print(f"error: no spinchains sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "SPIN_CHAINS_WORKERS": os.environ.get("SPIN_CHAINS_WORKERS"),
    }

    if args.trace:
        run = measure(workload, args.seed, args.seconds, 0)
        untraced = list(run.passes)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for _ in range(workload.cycle):
                run.run_pass()
        finally:
            tracer.uninstall()
        traced = run.passes[len(untraced):]
        overhead = statistics.median(p.seconds for p in traced) / statistics.median(p.seconds for p in untraced) - 1
        metrics = tracing.layer_metrics(tracer, overhead)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"trace-{args.workload}-seed{args.seed}.spans.gz"
        tracer.write(spans_path)
        context["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
        context["spans"] = str(spans_path.relative_to(ROOT))
    else:
        run = measure(workload, args.seed, args.seconds, workload.min_samples)
        metrics, context["samples"] = end_to_end(run.passes, run.setup_s)

    passes = run.passes
    failed = sum(p.failed for p in passes) + workload.final_check(run.mods, run.inputs)
    attempted = sum(p.attempted for p in passes)
    context["passes"] = len(passes)
    context["pass_s"] = [p.seconds for p in passes]
    context["pass_wall_s"] = run.wall_s
    context["probe_ms"] = run.probe_ms
    context["probe_ref_ms"] = PROBE_REF_MS
    context["items_per_pass"] = passes[-1].items
    context["fail_frac"] = failed / attempted

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print("context: " + json.dumps(context))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
