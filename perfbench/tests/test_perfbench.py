"""Tests for the benchmark's own code: seeding, span arithmetic and a
tiny-size run of every workload."""

import json
from pathlib import Path

import pytest

import run
from tracing import Tracer, self_times
from workloads import WORKLOADS

BENCHMARK_JSON = Path(run.ROOT) / "BENCHMARK.json"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_exact_metrics_other_seed_other_stream(name):
    first = WORKLOADS[name](3, "tiny").exact
    again = WORKLOADS[name](3, "tiny").exact
    other = WORKLOADS[name](4, "tiny").exact
    assert first == again
    assert first["input_digest"] != other["input_digest"]


def test_self_times_on_a_hand_built_tree():
    # root [0, 10] with 1 s of backend time charged to it directly;
    # child a [1, 4] with 0.5 s of backend time and a grandchild [2, 3];
    # child b [5, 9]
    spans = [
        ("root", -1, 0.0, 10.0, 1.0),
        ("a", 0, 1.0, 4.0, 0.5),
        ("a.1", 1, 2.0, 3.0, 0.0),
        ("b", 0, 5.0, 9.0, 0.0),
    ]
    assert self_times(spans) == [2.0, 1.5, 1.0, 4.0]


class _Toy:
    def outer(self, items):
        return [self.inner(x) for x in items]

    def inner(self, x):
        return x + 1

    def get_many(self, keys):
        return list(keys)


def test_tracer_records_nesting_and_detaches():
    toy, bystander = _Toy(), _Toy()
    tracer = Tracer()
    tracer.trace_spans(toy, "toy", tag="t0")
    assert toy.outer([1, 2]) == [2, 3]
    toy.get_many([1, 2, 3])
    names = tracer.by_name()
    assert names["toy.outer"]["calls"] == 1
    assert names["toy.inner"]["calls"] == 2
    assert names["toy.get_many"]["items"] == 3
    assert tracer.calls_with_child("toy.outer", "toy.inner") == 1
    assert tracer.tag_calls == {"t0": 2}  # outermost calls only
    parents = [tracer.names[tracer.span_name[p]][1] if p >= 0 else None
               for p in tracer.span_parent]
    assert parents == [None, "toy.outer", "toy.outer", None]
    assert type(bystander) is _Toy
    tracer.detach()
    assert type(toy) is _Toy
    toy.outer([1])
    assert len(tracer.span_name) == 4


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run(name):
    plain = run.run(name, seed=1, seconds=0, trace=False, size="tiny")
    result = plain["result"]
    assert result["correct"], plain["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert [m for m in result["metrics"]] == [n for n, _ in run.END_TO_END]
    assert all(m["value"] > 0 for m in result["metrics"].values())

    traced = run.run(name, seed=1, seconds=0, trace=True, size="tiny")
    result = traced["result"]
    assert result["correct"], traced["failures"]
    assert [m for m in result["metrics"]] == [n for n, _ in run.PER_LAYER]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
