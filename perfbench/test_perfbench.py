"""The benchmark's own tests: span attribution, the percentile rule,
seeded inputs and the ``BENCHMARK.json`` contract.

Run from the repository root::

    PYTHONPATH=src:. python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import stats
from perfbench.trace import Patches, Span, SpanRecorder, covered, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# -- self time ---------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert covered([], 0, 10) == 0
    assert covered([(-5, 20)], 0, 10) == 10
    assert covered([(2, 3), (2, 3)], 0, 10) == 1


def test_self_time_nested_and_overlapping_children():
    spans = [
        Span(0, "parent", "a", None, None, 0.0, 10.0),
        # two overlapping children: together they cover [1, 6)
        Span(1, "left", "b", 0, 0, 1.0, 4.0),
        Span(2, "right", "b", 0, 0, 3.0, 6.0),
        # a grandchild only reduces its own parent's self time
        Span(3, "inner", "c", 1, 0, 2.0, 3.5),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(5.0)   # 10 - |[1, 6)|
    assert selfs[1] == pytest.approx(1.5)   # 3 - 1.5
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(1.5)


def test_recorder_links_wrapped_calls_to_their_parent_and_item():
    recorder = SpanRecorder()

    def leaf():
        return 1

    traced_leaf = recorder.wrap(leaf, "leaf", "inner")
    outer = recorder.wrap(lambda: traced_leaf() + traced_leaf(), "outer",
                          "outer")
    with recorder.item("title"):
        assert outer() == 2
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (item,), (out,) = by_name["title"], by_name["outer"]
    assert item.parent is None and item.layer == "item"
    assert out.parent == item.span_id and out.root == item.span_id
    assert [s.parent for s in by_name["leaf"]] == [out.span_id] * 2
    assert all(s.root == item.span_id for s in by_name["leaf"])
    assert all(s.end >= s.start for s in recorder.spans)


def test_dump_writes_one_json_line_per_span(tmp_path):
    recorder = SpanRecorder()
    with recorder.item("query"):
        recorder.wrap(lambda: None, "call", "layer")()
    path = tmp_path / "spans.jsonl"
    recorder.dump(str(path))
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert [(r["name"], r["layer"]) for r in rows] == [
        ("call", "layer"), ("query", "item")]
    assert rows[0]["parent"] == rows[1]["id"] == rows[0]["root"]


def test_disabled_recorder_records_nothing():
    recorder = SpanRecorder()
    recorder.enabled = False
    assert recorder.wrap(lambda: 3, "x", "y")() == 3
    assert recorder.spans == []


def test_stepper_proxy_times_each_step_and_keeps_the_return_value():
    class Machine:
        def stepper(self, n):
            for i in range(n):
                yield i
            return "report"

    recorder = SpanRecorder()
    with Patches(recorder) as patches:
        patches.stepper(Machine, "stepper", "engine.player", "step")
        gen = Machine().stepper(3)
        assert [next(gen) for _ in range(3)] == [0, 1, 2]
        with pytest.raises(StopIteration) as stop:
            next(gen)
        assert stop.value.value == "report"
    assert recorder.count("step") == 4
    # restored: the original generator function is back
    assert not isinstance(Machine().stepper(1), type(gen))


def test_tally_counts_integer_results():
    recorder = SpanRecorder()
    tally: dict = {}
    run = recorder.wrap(lambda n: n, "loop.run", "kernel", tally)
    run(3)
    run(4)
    assert tally == {"loop.run": 7}


# -- percentile rule ----------------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert stats.percentile(list(range(99)), 90) is None
    assert stats.percentile(list(range(100)), 90) == 89
    assert stats.percentile(list(range(1000)), 90) == 899
    assert stats.percentile(list(range(1000)), 99) == 989
    assert stats.percentile(list(range(999)), 99) is None


def test_median_of_no_samples_is_an_error():
    with pytest.raises(ValueError):
        stats.median([])
    assert stats.median([3, 1, 2]) == 2


# -- seeded inputs ---------------------------------------------------------------


def test_studio_capture_is_a_function_of_the_seed():
    from perfbench.studio import capture

    first, again, other = capture(5, 3), capture(5, 3), capture(6, 3)

    def fingerprint(titles):
        return [
            (t.cut1_end, t.cut2_start,
             [f.tobytes() for f in (e.payload for e in
                                    (x.element for x in t.shot1.stream()))],
             [f.tobytes() for f in (e.payload for e in
                                    (x.element for x in t.shot2.stream()))],
             np.concatenate([x.element.payload for x in t.audio.stream()])
             .tobytes())
            for t in titles
        ]

    assert fingerprint(first) == fingerprint(again)
    assert fingerprint(first) != fingerprint(other)


def test_vod_batches_are_a_function_of_the_seed():
    from perfbench.vod import make_batches

    assert make_batches(3, 12) == make_batches(3, 12)
    assert make_batches(3, 12) != make_batches(4, 12)


def test_catalog_plan_and_ops_are_a_function_of_the_seed():
    from perfbench.catalog import catalog_plan, op_specs

    assert catalog_plan(3) == catalog_plan(3)
    assert catalog_plan(3) != catalog_plan(4)
    assert op_specs(3, 500) == op_specs(3, 500)
    assert op_specs(3, 500) != op_specs(4, 500)
    kinds = {spec[0] for spec in op_specs(3, 2000)}
    assert {"attr", "during", "overlap", "occurrences", "descendants",
            "lineage", "add_object", "set_attribute",
            "add_multimedia"} <= kinds


# -- BENCHMARK.json ----------------------------------------------------------------


def test_metric_names_and_units_are_well_formed():
    spec = _spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")


def test_benchmark_json_contract():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in spec["workloads"])
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"] for m in spec["end_to_end"])}]
    assert 1 <= len(spec["per_layer"]) <= 128
    assert all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"])
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024


def test_workload_classes_match_the_spec():
    from perfbench.run import _load_program

    assert sorted(_load_program()) == sorted(
        w["name"] for w in _spec()["workloads"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "vod", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "correct" not in done.stdout
