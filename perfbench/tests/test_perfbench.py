"""Tests of the benchmark itself (not of matroid_workbench).

    python3 -m pytest perfbench/tests -q
"""
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import pytest  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

from matroid_workbench import tutte, uniform  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    # 0 root [0, 100]
    #   1 a [10, 40]          2 b [50, 60]
    #     3 a.1 [20, 30]
    #   4 worker [55, 90] and 5 worker [70, 95]: started from a thread
    #     pool, they overlap each other and b, so root's cover is a union
    starts = [0, 10, 50, 20, 55, 70]
    ends = [100, 40, 60, 30, 90, 95]
    parents = [-1, 0, 0, 1, 0, 0]
    selfs = tracer.self_times(starts, ends, parents)
    # root covered by [10, 40] and [50, 95]
    assert selfs == [100 - 30 - 45, 30 - 10, 10, 10, 35, 25]


def test_summarize_groups_by_name():
    spans = {"name": [0, 1, 1], "start": [0, 1, 5], "end": [10, 3, 9], "parent": [-1, 0, 0]}
    out = tracer.summarize(["outer", "inner"], spans)
    assert out == {
        "outer": {"calls": 1, "self_ns": 4, "total_ns": 10},
        "inner": {"calls": 2, "self_ns": 6, "total_ns": 6},
    }


def _small_tasks():
    """A few real tasks covering every wrapped layer cheaply."""
    keep, descriptors = {}, {}
    for name in workloads.WORKLOADS:
        tasks, inputs = workloads.build(name, workloads.DEFAULT_SEED)
        descriptors.update(inputs)
        for t in tasks:
            if t.id.startswith("probe.") and (t.id.endswith(".0") or t.id == "probe.tutte-cache.read.1"):
                keep.setdefault(t.id, t)
    return list(keep.values()), descriptors


def _prepare(tmp_path, tasks, descriptors):
    work = str(tmp_path)
    os.makedirs(os.path.join(work, "inputs"))
    for t in tasks:
        with open(os.path.join(work, "inputs", t.input + ".json"), "w") as fh:
            json.dump(descriptors[t.input], fh)
    return work, run.expected_outputs(tasks, descriptors, workloads.DEFAULT_SEED)


def test_golden_check_catches_one_flipped_byte(tmp_path):
    tasks, descriptors = _small_tasks()
    task = next(t for t in tasks if t.command == "tutte")
    work, expected = _prepare(tmp_path, [task], descriptors)
    deadline = run.time.monotonic() + 60
    assert run.run_pass([task], work, expected, deadline).records[0][2]
    rc, good = expected[task.expect]
    for pos in (0, len(good) // 2, len(good) - 1):
        bad = good[:pos] + bytes([good[pos] ^ 1]) + good[pos + 1:]
        p = run.run_pass([task], work, {task.expect: (rc, bad)}, deadline)
        assert not p.records[0][2]
        assert run.pass_metrics(p)["ok_ratio"] == 0


def test_two_traced_runs_give_identical_counts(tmp_path):
    tasks, descriptors = _small_tasks()
    work, expected = _prepare(tmp_path, tasks, descriptors)
    deadline = run.time.monotonic() + 120
    counts = []
    for _ in range(2):
        p = run.run_pass(tasks, work, expected, deadline, traced=True, sliced=False)
        assert all(ok for _, _, ok in p.records), "traced stdout differs from the golden"
        spans, counters = run.trace_summary(p, work)
        counts.append(({k: v["calls"] for k, v in spans.items()}, counters))
    assert counts[0] == counts[1]
    calls, counters = counts[0]
    assert calls["tutte.dc"] > 0 and calls["series.mul"] > 0 and calls["orlik_solomon.os_space"] > 0
    assert counters["white.monomials"] == 816  # C(16 + 2, 3) for M(K4)
    assert counters["cli.cache.get.hits"] > 0


def test_metric_names_match_benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = run.Pass(False)
    layers = run.layer_metrics({}, {}, p, p)
    assert [m["name"] for m in spec["per_layer"]] == list(layers)
    assert all(m["unit"] == layers[m["name"]][1] for m in spec["per_layer"])
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("seed", [1, 2, 77])
def test_seeded_inputs_are_reproducible_and_full_rank(seed):
    a, b = workloads.seeded_inputs(seed), workloads.seeded_inputs(seed)
    assert a == b
    assert workloads._rank(a["seeded_q3x6"]["matrix"]) == 3
    assert workloads._rank(a["seeded_gf7_6x17"]["matrix"], 7) == 6
    assert reference.uniform_params(a["seeded_vandermonde_4x9"]) == (4, 9)


def test_uniform_closed_form_matches_subset_sum():
    for r, n in [(0, 3), (2, 4), (3, 6), (5, 5)]:
        assert reference.uniform_tutte(r, n) == tutte.tutte_sum(uniform(r, n))
