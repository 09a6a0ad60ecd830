"""Tests of the benchmark's own helpers: seeded inputs, span arithmetic, percentiles."""

import json
import random
from pathlib import Path

import pytest

from spinbench import run, stats, tracing
from spinbench.run import end_to_end
from spinbench.workloads import (
    LR_BOX,
    LR_CELLS,
    LR_OUTER,
    LR_PASSES,
    LR_STRATUM,
    PassResult,
    Workload,
    box_partitions,
    load_lr_reference,
    lr_queries,
    verify_failures,
)

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_box_partitions_are_distinct_and_inside_the_box():
    parts = list(box_partitions(LR_CELLS, LR_BOX, LR_BOX))
    assert len(parts) == len(set(parts)) == 4192
    assert parts == sorted(parts, reverse=True)
    for nu in parts:
        assert sum(nu) == LR_CELLS and len(nu) <= LR_BOX and nu[0] <= LR_BOX
        assert all(a >= b >= 1 for a, b in zip(nu, nu[1:] + (1,)))


@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_lr_queries_are_deterministic_valid_partitions(seed):
    passes = lr_queries(seed)
    assert passes == lr_queries(seed)
    assert len(passes) == LR_PASSES
    assert all(abs(len(p) - len(passes[0])) <= 1 for p in passes)
    queries = [nu for p in passes for nu in p]
    assert len(queries) == 4192 // LR_STRATUM
    assert len(set(queries)) == len(queries)
    for nu in queries:
        assert sum(nu) == LR_CELLS
        assert 1 <= len(nu) <= LR_BOX and nu[0] <= LR_BOX
        assert all(a >= b >= 1 for a, b in zip(nu, nu[1:] + (1,)))


def test_lr_queries_differ_between_seeds():
    assert lr_queries(1) != lr_queries(2)


def test_lr_reference_is_zero_outside_the_outer_shape():
    reference = load_lr_reference()
    assert len(reference) == 4192
    for nu, answer in reference.items():
        if any(part > LR_OUTER[i] for i, part in enumerate(nu)):
            assert answer == 0, nu


def test_self_times_subtract_direct_children_only():
    # root [0, 100) holds a [10, 40) and b [50, 60); a holds c [15, 25)
    parents = [-1, 0, 1, 0]
    durations = [100, 30, 10, 10]
    assert tracing.self_times(parents, durations) == [60, 20, 10, 10]


def test_self_times_sum_to_root_duration():
    rng = random.Random(5)
    parents, durations = [-1], [0]
    for i in range(1, 200):
        parents.append(rng.randrange(i))
        durations.append(0)
    # give every span its own time plus the time of its children
    own = [rng.randrange(1, 50) for _ in parents]
    for i in reversed(range(len(parents))):
        durations[i] += own[i]
        if parents[i] >= 0:
            durations[parents[i]] += durations[i]
    assert tracing.self_times(parents, durations) == own
    assert sum(own) == durations[0]


@pytest.mark.parametrize("n, expected", [(1000, 99), (1024, 99), (999, 98), (204, 95), (34, 70), (11, 9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert stats.tail_percentile(n) == expected


@pytest.mark.parametrize("n", [0, 5, 10])
def test_tail_percentile_needs_eleven_samples(n):
    with pytest.raises(ValueError):
        stats.tail_percentile(n)


def test_percentile_at_the_tail_leaves_ten_samples_above():
    for n in range(11, 3000, 37):
        samples = [float(i) for i in range(n)]
        random.Random(n).shuffle(samples)
        p = stats.tail_percentile(n)
        value = stats.percentile(samples, p)
        assert sum(1 for x in samples if x > value) >= stats.MIN_BEYOND
        assert sum(1 for x in samples if x <= value) * 100 >= p * n


def test_run_scales_every_time_to_the_reference_probe(monkeypatch):
    probes = iter([50.0, 30.0, 40.0])
    ticks = iter(range(1000))
    monkeypatch.setattr(run, "host_probe_ms", lambda: next(probes))
    monkeypatch.setattr(run, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(run, "import_spinchains", lambda: None)

    class Fixed(Workload):
        def run_pass(self, mods, inputs, index):
            return PassResult(2.0, 1, 1, 0, [1.0, 0.5])

    r = run.Run(Fixed(), 0)
    r.set_up()  # each set-up takes one tick; the probe after the group reads 50
    r.run_pass()  # probes 50 before, 30 after
    r.run_pass()  # probes 30 before, 40 after
    ref = run.PROBE_REF_MS
    assert r.setup_s == pytest.approx([ref / 50] * run.SETUPS_PER_PASS)
    assert r.wall_s == [2.0, 2.0]
    assert r.probe_ms == [40.0, 35.0]
    assert [p.seconds for p in r.passes] == pytest.approx([2 * ref / 40, 2 * ref / 35])
    assert r.passes[1].latencies == pytest.approx([ref / 35, 0.5 * ref / 35])


def test_verify_failures_reads_each_verdict():
    passing = ["count n=2: PASS (1 parameters)", "RESULT: PASS"]
    assert verify_failures(0, passing) == 0
    assert verify_failures(0, ['x, n<=5: FAIL ({"chains": [[3, 1]]})', "RESULT: FAIL"]) == 2
    assert verify_failures(1, passing) == 2
    assert verify_failures(0, ["no verdict here"]) == 1
    assert verify_failures(0, []) == 1


def test_tracer_counts_calls_and_restores_the_modules(tmp_path):
    import spinchains.cli  # noqa: F401  (the tracer patches every layer module)
    from spinchains import chains, scattered, spin

    originals = (scattered.generate, scattered.expand, spin.is_linked, chains.ChainSet.__post_init__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        sets = scattered.generate(6)
        records = [scattered.build_record(cs) for cs in sets]
    finally:
        tracer.uninstall()
    assert (scattered.generate, scattered.expand, spin.is_linked, chains.ChainSet.__post_init__) == originals
    assert len(records) == 16

    summary = tracer.summary()
    assert summary["scattered.generate"][0] == 1
    assert summary["scattered.expand"][0] == 1 + 2 + 4 + 8
    assert summary["scattered.build_record"][0] == 16
    assert summary["spin.spin_lowest_k_type"][0] == 16
    metrics = tracing.layer_metrics(tracer, 0.5)
    assert metrics["spin.spin_lowest_k_type.calls_per_param"] == (1.0, "calls/param")
    assert metrics["chains.is_interlaced.true_ratio"][0] == 1.0
    for calls, total, own in summary.values():
        assert 0 <= own <= total

    path = tmp_path / "spans.gz"
    tracer.write(path)
    header, spans = tracing.read_spans(path)
    assert header["names"] == tracer.names
    assert {field: list(arr) for field, arr in spans.items()} == {f: list(a) for f, a in tracer.spans.items()}


def test_metric_names_match_benchmark_json():
    spec = json.loads(BENCHMARK_JSON.read_text())
    per_layer = tracing.layer_metrics(tracing.Tracer(), 0.0)
    assert [m["name"] for m in spec["per_layer"]] == list(per_layer)
    assert all(m["unit"] == per_layer[m["name"]][1] for m in spec["per_layer"])

    fake = [PassResult(1.0, 10, 10, 0, [0.001 * i for i in range(20)])]
    e2e, _ = end_to_end(fake, [0.1, 0.2, 0.3])
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
    assert sorted(w["name"] for w in spec["workloads"]) == ["enumerate", "lr", "multiplicity", "verify"]
