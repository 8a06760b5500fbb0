"""Tests of the benchmark's own machinery: tracer arithmetic, wrapper restore,
output checking and failure accounting.  Run with
``python3 -m pytest perfbench -q`` from the root of the repository."""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    """A clock that advances only when told to."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_self_time_subtracts_child_spans():
    clock = FakeClock()
    trace = tracer.Tracer(clock)
    outer = trace.open("outer")
    clock.now = 1.0
    first = trace.open("inner")
    clock.now = 3.0
    trace.close(first)
    second = trace.open("inner")
    grandchild = trace.open("leaf")
    clock.now = 3.5
    trace.close(grandchild)
    clock.now = 4.0
    trace.close(second)
    clock.now = 10.0
    trace.close(outer)
    top = trace.open("after")
    clock.now = 11.0
    trace.close(top)

    summary = trace.summary()
    assert summary["outer"] == {"calls": 1, "total": 10.0, "self": 7.0, "top": 10.0}
    assert summary["inner"] == {"calls": 2, "total": 3.0, "self": 2.5, "top": 0.0}
    assert summary["leaf"]["self"] == 0.5
    assert trace.spans[first][3] == outer and trace.spans[grandchild][3] == second
    assert tracer.top_level_seconds(trace) == 11.0
    assert trace.durations("inner") == [2.0, 1.0]


class Target:
    def method(self, value):
        return value + 1

    @classmethod
    def build(cls, value):
        return (cls, value)

    @staticmethod
    def helper(value):
        return value * 2

    def fails(self):
        raise ValueError("boom")


def negate(value):
    return -value


#: Stands in for a module whose function is looked up at call time.
Module = types.ModuleType("fake_module")
Module.function = negate


def test_wrappers_record_spans_and_restore_originals():
    originals = {name: Target.__dict__[name] for name in ("method", "build", "helper", "fails")}
    module_function = Module.function
    trace = tracer.Tracer()
    counted = []
    for name in originals:
        assert trace.wrap(Target, name, f"target.{name}")
    assert trace.wrap(
        Module, "function", "module.function",
        count=lambda counters, args, kwargs, result, outermost: counted.append(result),
    )
    assert not trace.wrap(Target, "absent", "target.absent")

    assert Target().method(1) == 2
    assert Target.build(3) == (Target, 3)
    assert Target.helper(4) == 8
    assert Module.function(5) == -5
    with pytest.raises(ValueError):
        Target().fails()
    assert counted == [-5]
    assert [span[0] for span in trace.spans] == [
        "target.method", "target.build", "target.helper", "module.function", "target.fails",
    ]
    assert all(span[2] is not None for span in trace.spans)  # the raising span closed

    trace.restore()
    for name, original in originals.items():
        assert Target.__dict__[name] is original
    assert Module.function is module_function
    assert len(trace.spans) == 5
    Target().method(1)
    assert len(trace.spans) == 5


def test_outermost_flag_ignores_recursive_spans():
    seen = []

    class Recursive:
        def down(self, depth):
            return self.down(depth - 1) if depth else {}

    trace = tracer.Tracer()
    trace.wrap(Recursive, "down", "down", count=lambda c, a, k, r, outermost: seen.append(outermost))
    Recursive().down(2)
    trace.restore()
    assert seen == [False, False, True]


def test_every_layer_entry_point_exists_and_is_restored():
    workloads.import_repro()
    import repro.protocol.rounds as rounds
    from repro.game.kernel import BestResponseKernel

    gather = rounds.gather_requests
    kernel_init = BestResponseKernel.__dict__["__init__"]
    trace = tracer.Tracer()
    assert tracer.install_layers(trace) == []
    assert rounds.gather_requests is not gather
    trace.restore()
    assert rounds.gather_requests is gather
    assert BestResponseKernel.__dict__["__init__"] is kernel_init


def benchmark_spec():
    return run.load_json(os.path.join(run.ROOT, "BENCHMARK.json"))


def test_metric_names_match_benchmark_json():
    spec = benchmark_spec()
    layers = tracer.layer_metrics(tracer.Tracer(), {})
    layers.update({"trace.overhead_s": 0.0, "trace.coverage": 0.0})
    assert sorted(layers) == sorted(metric["name"] for metric in spec["per_layer"])
    assert sorted(metric["name"] for metric in spec["end_to_end"]) == sorted(
        ["wall_s", "setup_s", "peak_rss_mb"]
    )
    assert sorted(workload["name"] for workload in spec["workloads"]) == sorted(workloads.WORKLOADS)


def good_pass(outputs):
    return {
        "wall_s": 2.0,
        "setup_s": 0.5,
        "units_per_s": 10.0,
        "peak_rss_mb": 50.0,
        "outputs": dict(outputs),
        "failed_units": 0,
    }


PINNED = {"table1": "a" * 32, "figure1": "b" * 32}


def test_matching_outputs_are_correct():
    check = run.check_outputs([good_pass(PINNED), good_pass(PINNED)], PINNED, 26)
    assert check == {
        "correct": True, "attempted": 52, "failed": 0, "error_rate": 0.0, "problems": [],
    }


def test_perturbed_output_fails_its_pass():
    perturbed = good_pass({**PINNED, "figure1": "c" * 32})
    check = run.check_outputs([good_pass(PINNED), perturbed], PINNED, 26)
    assert not check["correct"]
    assert check["failed"] == 26 and check["error_rate"] == 0.5
    assert "figure1" in check["problems"][0]


def test_unpinned_seed_compares_passes_with_each_other():
    check = run.check_outputs([good_pass(PINNED), good_pass({**PINNED, "table1": "d" * 32})], None, 1)
    assert check["failed"] == 1


def test_failed_sweep_tasks_count_as_failed_units():
    partial = good_pass(PINNED)
    partial["failed_units"] = 3
    check = run.check_outputs([partial], PINNED, 26)
    assert check["failed"] == 3 and not check["correct"]


def test_exception_inside_a_traced_pass_restores_every_wrapper(monkeypatch):
    def broken_setup(seed):
        raise RuntimeError("broken workload")

    monkeypatch.setitem(workloads.WORKLOADS, "broken", (broken_setup, None, 1))
    workloads.import_repro()
    import repro.protocol.rounds as rounds

    gather = rounds.gather_requests
    with pytest.raises(RuntimeError, match="broken workload"):
        workloads.run_pass("broken", 1, True)
    assert rounds.gather_requests is gather


def test_exception_in_a_pass_is_a_failed_pass():
    failure = run.run_child("no-such-workload", 1, False, timeout=60)
    assert "error" in failure
    check = run.check_outputs([good_pass(PINNED), failure], PINNED, 26)
    assert check["failed"] == 26 and check["attempted"] == 52
    assert check["error_rate"] == 0.5


def test_end_to_end_metrics_are_medians_of_good_passes():
    spec = benchmark_spec()
    passes = [good_pass(PINNED), good_pass(PINNED), good_pass(PINNED), {"error": "x"}]
    passes[1]["wall_s"] = 4.0
    passes[2]["wall_s"] = 3.0
    metrics = run.end_to_end(passes, spec["end_to_end"])
    assert metrics["wall_s"] == {"value": 3.0, "unit": "s"}
    assert metrics["peak_rss_mb"] == {"value": 50.0, "unit": "MB"}


def test_digests_ignore_float_noise_below_ten_digits():
    assert workloads.digest({"cost": 0.1 + 0.2}) == workloads.digest({"cost": 0.3})
    assert workloads.digest({"cost": 0.3}) != workloads.digest({"cost": 0.3001})
    assert workloads.digest("text") == "1cb251ec0d568de6a929b520c4aed8d1"


def test_pinned_digests_cover_every_workload():
    pinned = run.load_json(os.path.join(HERE, "digests.json"))
    assert sorted(pinned) == sorted(workloads.WORKLOADS)
    # The paper-scale Table 1 text at the paper's seed.
    assert pinned["discovery"]["7"]["table1"] == "2c65bc7123207327fa1c6ef9ee8e5127"
    assert json.dumps(pinned)  # plain JSON
