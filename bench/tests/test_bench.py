"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q bench/tests
"""
import contextlib
import dataclasses
import io
import json
import os
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer  # noqa: E402


def test_covered_merges_overlaps_and_clips():
    assert tracing.covered([], 0.0, 10.0) == 0.0
    assert tracing.covered([(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)], 0.0, 10.0) == 4.0
    assert tracing.covered([(-1.0, 2.0), (9.0, 12.0)], 0.0, 10.0) == 3.0
    assert tracing.covered([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_of_a_parent_with_several_children():
    spans = [Span("root", 0.0, 10.0, None),
             Span("a", 1.0, 3.0, 0),
             Span("leaf", 1.5, 2.0, 1),
             Span("b", 4.0, 5.0, 0),
             Span("a", 6.0, 9.0, 0)]
    self_s = tracing.self_times(spans)
    assert self_s["root"] == pytest.approx(10.0 - 2.0 - 1.0 - 3.0)
    assert self_s["a"] == pytest.approx((2.0 - 0.5) + 3.0)
    assert self_s["leaf"] == pytest.approx(0.5)
    assert self_s["b"] == pytest.approx(1.0)
    assert tracing.total_times(spans)["a"] == pytest.approx(5.0)
    assert tracing.call_counts(spans)["a"] == 2


def test_tracer_nests_spans_by_call_order():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    assert tracer.inside("outer") and tracer.inside("inner")
    tracer.end(inner)
    second = tracer.begin("inner")
    tracer.end(second)
    tracer.end(outer)
    assert [s.parent for s in tracer.spans] == [None, 0, 0]
    assert tracing.self_times(tracer.spans)["outer"] == pytest.approx(5.0 - 1.0 - 1.0)
    with pytest.raises(RuntimeError):
        a = tracer.begin("a")
        tracer.begin("b")
        tracer.end(a)


def test_step_stats_splits_steps_and_data_wait():
    names_times = [("trainer.compose_batch", 0, 2), ("trainer.total_loss", 2, 5),
                   ("autodiff.backward", 5, 7), ("trainer.adam_step", 7, 8),
                   ("trainer.compose_batch", 8, 9), ("trainer.total_loss", 9.5, 10),
                   ("autodiff.backward", 10, 11), ("trainer.adam_step", 11, 12),
                   ("trainer.evaluate", 12, 13),
                   ("trainer.compose_batch", 13, 14), ("trainer.total_loss", 14, 15),
                   ("autodiff.backward", 15, 16), ("trainer.adam_step", 16, 17)]
    spans = [Span(n, float(s), float(e), None) for n, s, e in names_times]
    steps, wait, unattributed = tracing.step_stats(spans)
    assert steps == [8.0, 4.0, 4.0]
    assert wait == pytest.approx(1.5)  # only inside the first epoch
    assert unattributed == pytest.approx(0.5)


def test_conv_flops_from_shapes():
    assert tracing.conv_flops((96, 1, 98, 64), (32, 1, 3, 3), (96, 32, 49, 32)) == \
        2.0 * 96 * 32 * 49 * 32 * 1 * 9


def _tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n_per_class=15, epochs=1)


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_workload_inputs_are_deterministic_under_a_seed(tmp_path):
    wl = _tiny("eval-cold")
    for d, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.make_inputs(wl, seed, tmp_path / d, tmp_path / "reference.ckpt")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys() and a != c
    assert {"manifest.tsv", "test.tsv", "ckpt.tsv"} <= a.keys()


def test_benchmark_json_matches_the_metrics_the_code_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == measure.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == measure.PER_LAYER
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_reference_cache_key_follows_the_reference():
    a = workloads.reference_dir("cache")
    assert a == workloads.reference_dir("cache", workloads.Reference())
    assert a != workloads.reference_dir("cache", workloads.Reference(epochs=1))


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    """Scratch and reference cache shared by the smoke runs, so the tiny
    reference is trained once."""
    return tmp_path_factory.mktemp("work")


def _run_main(monkeypatch, work, name, trace):
    monkeypatch.setitem(workloads.WORKLOADS, name, _tiny(name))
    monkeypatch.setattr(workloads, "REFERENCE", workloads.Reference(n_per_class=15,
                                                                    epochs=1))
    monkeypatch.setattr(run, "WORK", work)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace)])
    lines = out.getvalue().splitlines()
    assert _child_processes() == [], "the run left a process behind"
    return code, lines, json.loads(lines[-1])


def _child_processes():
    """PIDs of this process's live children (Linux); [] where unknown."""
    children = Path(f"/proc/self/task/{os.getpid()}/children")
    return children.read_text().split() if children.is_file() else []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_every_metric_is_emitted_with_its_unit(monkeypatch, work, name):
    code, lines, result = _run_main(monkeypatch, work, name, 0)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == measure.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.startswith("setup_s ") and "(n=5)" in line for line in lines)

    code, lines, result = _run_main(monkeypatch, work, name, 1)
    assert code == 0, lines
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == measure.PER_LAYER
    target = metrics["model.encoder_forward.target.total_s"]["value"]
    assert (target > 0) == (name == "cosmix-b32")
    trains = name != "eval-cold"
    assert (metrics["trainer.steps"]["value"] > 0) == trains
    assert (metrics["autodiff.conv2d.enc0.bwd_s"]["value"] > 0) == trains
    assert metrics["autodiff.conv2d.enc0.fwd_gflops"]["value"] > 0
    assert metrics["model.load_checkpoint.self_s"]["value"] > 0
    assert (metrics["model.save_checkpoint.self_s"]["value"] > 0) == trains
    if name == "mixup-b128":
        assert metrics["features.useful_view_share"]["value"] == 1.0


def test_a_tree_without_the_sources_fails_without_a_result(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "cosmix-b32", "--seed", "1", "--seconds", "1"])
    assert code != 0 and out.getvalue() == ""
