"""Tests of the benchmark itself: span arithmetic, the scaling to reference
seconds, the pinned-answer gate, reduced-size passes of every workload, and
the runner's refusal to run outside a source checkout.  Run with
``python3 -m pytest bench``."""

import copy
import json
import subprocess
import sys

import pytest

import reference
import run
import tracer
import workloads

ROOT = workloads.PINS_PATH.parent.parent


@pytest.fixture(scope="module")
def pins():
    return workloads.load_pins()


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["toeplitz.root", 0.0, 10.0, -1],
        ["lattice.a", 1.0, 4.0, 0],
        ["lattice.leaf", 2.0, 3.0, 1],
        ["periods.b", 5.0, 9.0, 0],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert tracer.layer_self_seconds(spans) == {"toeplitz": 3.0, "lattice": 3.0,
                                                "periods": 4.0}
    # the layer self times add up to the root span
    assert sum(tracer.layer_self_seconds(spans).values()) == 10.0


def test_outermost_seconds_does_not_count_recursion_twice():
    spans = [
        ["f", 0.0, 6.0, -1],
        ["g", 1.0, 5.0, 0],
        ["f", 2.0, 4.0, 1],   # recursive call, already inside the outer f
        ["f", 7.0, 8.0, -1],
    ]
    assert tracer.outermost_seconds(spans, ("f",)) == 7.0
    assert tracer.outermost_seconds(spans, ("g",)) == 4.0
    assert tracer.span_count(spans, ("f",)) == 3


def test_tracer_records_nesting_and_uninstalls():
    from toeplitz_lab import decks, measures, toeplitz

    original = toeplitz.Construction.level_array
    tr = tracer.Tracer()
    tr.install()
    try:
        assert toeplitz.Construction.level_array is not original
        cons = decks.construction(decks.bundled_deck("dihedral-m2"))
        measures.mu_freq_counted(cons, 2)
    finally:
        tr.uninstall()
    assert toeplitz.Construction.level_array is original
    by_name = {s[0]: i for i, s in enumerate(tr.spans)}
    mu = by_name["measures.mu_freq_counted"]
    assert any(s[0] == "toeplitz.Construction.level_array" and s[3] == mu
               for s in tr.spans)
    assert all(end >= start for _, start, end, _ in tr.spans)


def test_end_to_end_times_scale_with_the_reference_kernel():
    # a host twice as slow as the reference one halves every time
    slow = 2 * reference.REFERENCE_S["interpreter"]
    factor = reference.scale("interpreter", [slow] * reference.REPEATS)
    assert factor == pytest.approx(0.5)
    passes = [
        {"setup_s": 0.2, "wall_s": 10.0, "peak_rss_mb": 50.0,
         "ops": [{"op": "a", "seconds": 4.0}, {"op": "b", "seconds": 5.0}]},
        {"setup_s": 0.4, "wall_s": 14.0, "peak_rss_mb": 52.0,
         "ops": [{"op": "a", "seconds": 8.0}, {"op": "b", "seconds": 5.0}]},
    ]
    m = run.end_to_end([{"setup_s": 0.3}], passes, factor)
    assert m["wall_s"]["value"] == pytest.approx(6.0)
    assert m["setup_s"]["value"] == pytest.approx(0.15)
    assert m["peak_rss_mb"]["value"] == 51.0          # not a time: unscaled
    assert m["slowest_op_s"]["value"] == pytest.approx(3.0)   # op a, median 6


def test_wrong_pin_is_a_failure_not_a_crash(pins):
    ops = workloads.search_ops((("williams-m3", None, 3),))
    key = ops[0].name
    wrong = copy.deepcopy(pins["search"])
    wrong[key]["steps"] += 1

    def boom():
        raise ValueError("deliberate")

    ops.insert(0, workloads.Op("raises", "test", ("raises",), boom))
    res = workloads.run_ops(ops, wrong)
    assert res["attempted"] == 2
    assert res["failed"] == 2
    reasons = {f["key"]: f["reason"] for f in res["failures"]}
    assert reasons["raises"].startswith("raised: ValueError")
    assert reasons[key].startswith("differs from pin")
    # the operation after the failing one still ran
    assert [t["op"] for t in res["ops"]] == ["raises", key]


def test_acceptance_smoke(pins):
    cheap = {"marker-mass", "class-mass", "complexity"}
    ops = [op for op in workloads.acceptance_ops(seed=5)
           if op.family in cheap or op.name == "conjugation[dihedral-m2]"]
    assert len(ops) == 4
    res = workloads.run_ops(ops, pins["acceptance"])
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] == 4


def test_acceptance_covers_the_38_checks(pins):
    keys = [k for op in workloads.acceptance_ops(seed=0) for k in op.keys]
    assert len(keys) == len(set(keys)) == 38
    assert set(keys) == set(pins["acceptance"])


def test_deep_strata_smoke(pins):
    ops = workloads.deep_ops((("dihedral-m2", 4), ("z2-m2", 3)))
    res = workloads.run_ops(ops, pins["deep-strata"])
    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] == len(ops) == 16


def test_search_smoke(pins):
    res = workloads.run_ops(workloads.search_ops((("williams-m3", None, 3),)),
                            pins["search"])
    assert res["failed"] == 0, res["failures"]


def test_traced_smoke_reports_every_per_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    tr = tracer.Tracer()
    tr.install()
    try:
        ops = workloads.search_ops((("williams-m3", None, 3),))
        res = workloads.run_ops(ops, workloads.load_pins()["search"])
    finally:
        tr.uninstall()
    assert res["failed"] == 0
    metrics = tracer.layer_metrics(tr)
    assert set(metrics) | {"trace.overhead_s"} == declared
    assert metrics["independence.search.steps"][0] == 8576
    assert metrics["independence.oracle_build.s"][0] > 0


def test_runner_refuses_a_directory_without_the_package(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", "search",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
