"""The four benchmark workloads: inputs from a seed, one timed pass, output checks.

Every pass calls the library through the module objects handed to it, looking
functions up at call time, so a traced pass sees the tracer's wrappers.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent

ENUM_ARGV = ("enumerate", "-n", "16", "--json")
ENUM_RECORDS = 2 ** 14
# sha256 of the stdout of `spinchains enumerate -n 16 --json`, recorded from
# the first benchmarked commit; the record order is documented as deterministic
ENUM_SHA256 = "714fb221ce28917ccbf7b20a4e6ddd42f13dfa282693a9889bf5f2e686eeb693"

VERIFY_ARGV = ("verify", "-n", "12")
VERIFY_PARAMS = 2 ** 11 - 1  # scattered parameters of ranks 2..12: sum of 2^(n-2)
_VERDICT = re.compile(r": (PASS|FAIL)\b")

MULT_RANK = 10

LR_OUTER = tuple(range(10, 0, -1))  # staircase delta_10
LR_INNER = tuple(range(5, 0, -1))  # staircase delta_5
LR_CELLS = sum(LR_OUTER) - sum(LR_INNER)  # 40
LR_BOX = 10  # weights nu fit in the 10 x 10 box
LR_STRATUM = 3  # one query per run of LR_STRATUM consecutive box partitions
LR_PASSES = 4  # the queries are dealt into this many passes of about 350
LR_REFERENCE = HERE / "lr_reference.json"

# enough per-call samples that p99 has ten beyond it (see stats.tail_percentile)
QUERY_SAMPLES = 1000


def import_spinchains() -> SimpleNamespace:
    """Import the spinchains package afresh and return its layer modules.

    Modules already loaded are dropped first, so the package's own modules
    execute again (the standard library stays cached).
    """
    for name in [m for m in sys.modules if m == "spinchains" or m.startswith("spinchains.")]:
        del sys.modules[name]
    importlib.import_module("spinchains")
    return SimpleNamespace(
        **{layer: importlib.import_module(f"spinchains.{layer}") for layer in ("cli", "scattered", "spin", "lr")}
    )


@dataclass
class PassResult:
    seconds: float
    items: int  # records, parameters or queries the pass covered
    attempted: int  # outputs checked
    failed: int
    latencies: list[float] = field(default_factory=list)  # seconds, one per line or call


class LineSink(io.TextIOBase):
    """Stand-in for stdout: hashes the text, stamps each line's arrival, optionally keeps it."""

    def __init__(self, keep: bool = False):
        self.sha = hashlib.sha256()
        self.stamps: list[float] = []
        self.kept: list[str] | None = [] if keep else None

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        lines = text.count("\n")
        if lines:
            self.stamps.extend([perf_counter()] * lines)
        if self.kept is not None:
            self.kept.append(text)
        return len(text)


def _run_cli(mods, argv, keep: bool):
    sink = LineSink(keep)
    t0 = perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = mods.cli.main(list(argv))
    seconds = perf_counter() - t0
    return rc, sink, seconds, [s - t0 for s in sink.stamps]


def _timed_calls(call, queries):
    """Call `call` on each query in turn: the loop's wall time, each call's latency, the answers."""
    latencies, answers = [], []
    t0 = perf_counter()
    for query in queries:
        t = perf_counter()
        answers.append(call(query))
        latencies.append(perf_counter() - t)
    return perf_counter() - t0, latencies, answers


class Workload:
    """One workload: set-up from a seed, one timed pass, and a check after the last pass."""

    min_samples = 0  # per-call latency samples a run must collect before it may stop
    cycle = 1  # passes that cover the inputs once; a run stops only after whole cycles

    def prepare(self, seed):
        """Inputs made by the benchmark's own code, once per run and outside the timed set-up."""
        return None

    def setup(self, mods, seed, prepared):
        """The program's inputs for the passes: the timed part of set-up, after importing spinchains."""
        return prepared

    def run_pass(self, mods, inputs, index: int) -> PassResult:
        """The index-th timed pass of the run."""
        raise NotImplementedError

    def final_check(self, mods, inputs) -> int:
        """Failures found by checks too slow to repeat every pass."""
        return 0


class Enumerate(Workload):
    """In-process `spinchains enumerate -n 16 --json`; the seed does not change the input."""

    def run_pass(self, mods, inputs, index) -> PassResult:
        rc, sink, seconds, latencies = _run_cli(mods, ENUM_ARGV, keep=False)
        ok = rc == 0 and len(sink.stamps) == ENUM_RECORDS and sink.sha.hexdigest() == ENUM_SHA256
        return PassResult(seconds, ENUM_RECORDS, ENUM_RECORDS, 0 if ok else ENUM_RECORDS, latencies)


def verify_failures(rc: int, lines: list[str]) -> int:
    """Lines that do not read PASS; all of them (at least one) if the exit code is not 0 or nothing was printed."""
    failed = sum(1 for line in lines if not (m := _VERDICT.search(line)) or m.group(1) != "PASS")
    if not lines or (rc != 0 and failed == 0):
        return max(len(lines), 1)
    return failed


class Verify(Workload):
    """In-process `spinchains verify -n 12` with the program's default worker count."""

    def run_pass(self, mods, inputs, index) -> PassResult:
        rc, sink, seconds, latencies = _run_cli(mods, VERIFY_ARGV, keep=True)
        lines = "".join(sink.kept).splitlines()
        return PassResult(seconds, VERIFY_PARAMS, max(len(lines), 1), verify_failures(rc, lines), latencies)


class Multiplicity(Workload):
    """Closed loop of serial `multiplicity_in_induced(cs, tau)` calls, one per rank-10 parameter.

    tau is computed in set-up; the seed only shuffles the query order.
    """

    min_samples = QUERY_SAMPLES

    def setup(self, mods, seed, prepared):
        queries = [(cs, mods.spin.spin_lowest_k_type(cs).tau) for cs in mods.scattered.generate(MULT_RANK)]
        random.Random(seed).shuffle(queries)
        return queries

    def run_pass(self, mods, queries, index) -> PassResult:
        multiplicity = mods.lr.multiplicity_in_induced
        seconds, latencies, answers = _timed_calls(lambda q: multiplicity(*q), queries)
        failed = sum(1 for m in answers if m != 1)
        return PassResult(seconds, len(queries), len(queries), failed, latencies)


def box_partitions(size: int, rows: int, cols: int):
    """Partitions of size with at most rows parts, each at most cols, in decreasing lexicographic order."""
    if size == 0:
        yield ()
        return
    if rows == 0:
        return
    for first in range(min(cols, size), 0, -1):
        for rest in box_partitions(size - first, rows - 1, first):
            yield (first,) + rest


def lr_queries(seed: int) -> list[list[tuple[int, ...]]]:
    """Seeded weights nu for c(delta_10; delta_5, nu), dealt into LR_PASSES passes.

    The partitions of 40 inside the 10 x 10 box are cut, in lexicographic
    order, into runs of LR_STRATUM and one nu is drawn from each run.  The
    draws are dealt round-robin into the passes and each pass is shuffled.
    Every seed, and every pass, thus covers the whole range of shapes, which
    keeps the mix of cheap and expensive queries alike from seed to seed.
    """
    universe = list(box_partitions(LR_CELLS, LR_BOX, LR_BOX))
    count = len(universe) // LR_STRATUM
    rng = random.Random(seed)
    picks = []
    for i in range(count):
        lo, hi = i * len(universe) // count, (i + 1) * len(universe) // count
        picks.append(universe[lo + rng.randrange(hi - lo)])
    passes = [picks[k::LR_PASSES] for k in range(LR_PASSES)]
    for queries in passes:
        rng.shuffle(queries)
    return passes


def load_lr_reference() -> dict[tuple[int, ...], int]:
    """nu -> c(delta_10; delta_5, nu) for every box partition, as stored with the benchmark."""
    data = json.loads(LR_REFERENCE.read_text())
    if tuple(data["outer"]) != LR_OUTER or tuple(data["inner"]) != LR_INNER:
        raise ValueError(f"{LR_REFERENCE} was made for other shapes")
    universe = list(box_partitions(LR_CELLS, LR_BOX, LR_BOX))
    if len(data["answers"]) != len(universe):
        raise ValueError(f"{LR_REFERENCE} has {len(data['answers'])} answers for {len(universe)} partitions")
    return dict(zip(universe, data["answers"]))


class LittlewoodRichardson(Workload):
    """Closed loop of `lr_coefficient(delta_10, delta_5, nu)` calls over seeded nu.

    The seeded nu and the stored reference are made once per run, outside
    the timed set-up, which thus times only the import of spinchains.
    Answers are checked against the reference after each pass.  Once
    per run, outside the timed region, the reference is checked against the
    symmetry c(lambda; mu, nu) = c(lambda; nu, mu) on every query.
    """

    min_samples = QUERY_SAMPLES
    cycle = LR_PASSES

    def prepare(self, seed):
        return lr_queries(seed), load_lr_reference()

    def run_pass(self, mods, inputs, index) -> PassResult:
        passes, reference = inputs
        queries = passes[index % LR_PASSES]
        lr_coefficient = mods.lr.lr_coefficient
        seconds, latencies, answers = _timed_calls(lambda nu: lr_coefficient(LR_OUTER, LR_INNER, nu), queries)
        failed = sum(1 for nu, a in zip(queries, answers) if reference[nu] != a)
        return PassResult(seconds, len(queries), len(queries), failed, latencies)

    def final_check(self, mods, inputs) -> int:
        """Queries whose swapped coefficient differs from the reference; nu outside delta_10 must give 0."""
        lr = mods.lr
        passes, reference = inputs
        bad = 0
        for nu in (nu for queries in passes for nu in queries):
            swapped = lr.lr_coefficient(LR_OUTER, nu, LR_INNER) if lr.contains(LR_OUTER, nu) else 0
            bad += swapped != reference[nu]
        return bad


WORKLOADS = {
    "enumerate": Enumerate(),
    "multiplicity": Multiplicity(),
    "verify": Verify(),
    "lr": LittlewoodRichardson(),
}
