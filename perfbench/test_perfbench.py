"""Tests of the benchmark's own helpers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import summary  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from summary import Span  # noqa: E402


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("training.step", 0.0, 10.0, -1, 0),
        Span("model.forward", 1.0, 4.0, 0, 0),
        Span("model.forward", 3.0, 6.0, 0, 0),  # overlaps its sibling: counted once
        Span("numerics.matmul", 2.0, 3.0, 1, 0),
        Span("data.make_batch", 12.0, 14.0, -1, 1),
    ]
    assert summary.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 2.0])
    assert summary.layer_self_ms(spans) == pytest.approx(
        {"training": 5e3, "model": 5e3, "numerics": 1e3, "data": 2e3})
    assert summary.top_level_coverage(spans, 0.0, 20.0) == pytest.approx(0.6)


def test_layer_self_time_counts_set_up_once_and_averages_units():
    spans = [Span("model.load", 0.0, 1.0, -1, summary.SETUP),
             Span("model.forward", 1.0, 3.0, -1, 0), Span("model.forward", 3.0, 7.0, -1, 1)]
    assert summary.layer_self_ms(spans, 2) == pytest.approx({"model": 1e3 + 3e3})


def test_self_times_sum_to_the_top_level_time():
    spans = [Span("a.x", 0.0, 8.0, -1, 0), Span("b.y", 1.0, 7.0, 0, 0),
             Span("c.z", 2.0, 3.0, 1, 0), Span("c.z", 4.0, 6.5, 1, 0)]
    assert sum(summary.self_times(spans)) == pytest.approx(8.0)


@pytest.mark.parametrize("n, expected_p", [
    (1, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected_p):
    values = [float(v) for v in range(1, n + 1)]
    tail = summary.tail_percentile(values)
    if expected_p is None:
        assert tail is None
        return
    p, value = tail
    assert p == expected_p
    assert sum(v > value for v in values) >= summary.MIN_BEYOND


def test_describe_reports_median_tail_and_count():
    text = summary.describe([float(v) for v in range(1, 101)], "ms")
    assert text == "50.5 ms p50 (p90 90 ms, n=100)"
    assert "no tail percentile" in summary.describe([1.0, 2.0, 3.0], "s")


@pytest.mark.parametrize("workload", sorted(inputs.WRITERS))
def test_generator_is_a_function_of_the_seed(workload, tmp_path):
    def files(seed, name):
        out = tmp_path / name
        out.mkdir()
        inputs.WRITERS[workload](seed, out)
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    first, again, other = files(3, "a"), files(3, "b"), files(4, "c")
    assert first == again
    assert first.keys() == other.keys()
    assert any(first[k] != other[k] for k in first)


def test_every_seed_asks_for_the_same_work(tmp_path):
    from protdat import data

    def shape(seed):
        records = data.load_records(inputs.write_train_inputs(seed, tmp_path)["train"])
        return sorted(len(r.sequence) for r in records), {len(r.text.split()) for r in records}

    assert shape(1) == shape(2)
    lengths, words = shape(1)
    assert (lengths[0], lengths[-1]) == (inputs.MIN_LEN, inputs.MAX_LEN)
    # However training shuffles the corpus, every batch pads to MAX_LEN.
    assert lengths.count(inputs.MAX_LEN) > inputs.N_TRAIN - inputs.TRAIN_BATCH
    assert len(words) == 1


def test_tracer_patches_every_lookup_site_and_restores_them():
    from protdat import data, generation, model, numerics, training

    before = (training.make_batch, data.make_batch, generation.model_forward,
              numerics.matmul, numerics.Tensor.backward)
    t = tracer.Tracer()
    t.install()
    try:
        assert training.make_batch is data.make_batch
        assert training.make_batch.__wrapped__ is before[0]
        assert generation.model_forward is training.model_forward is not before[2]
        assert numerics.matmul.__wrapped__ is before[3]
    finally:
        t.restore()
    after = (training.make_batch, data.make_batch, generation.model_forward,
             numerics.matmul, numerics.Tensor.backward)
    assert after == before


def tiny_training(t: tracer.Tracer, units: int):
    """One traced set-up (``init_params``), then ``units`` training steps that
    make the same calls on arrays of the same shapes; returns the last batch."""
    from protdat import data, model, training
    from protdat.tokenizer import AminoVocabulary, TrainableTextEncoder

    config = model.ModelConfig(d_model=16, n_layers=1, n_heads=2, c_size=2, d_text=16,
                               ffn_dim=32)
    records = inputs.make_records(2, 0, "t", 8, 12)
    words = TrainableTextEncoder.build_vocabulary([r.text for r in records])
    t.install()
    try:
        t.begin_setup()
        params = model.init_params(config, seed=0, text_words=words)
        opt = training.OptimizerState(params, training.TrainingConfig())
        for _ in range(units):
            t.begin_unit()
            batch = data.make_batch(records, AminoVocabulary(), params.text_encoder(),
                                    config.c_size)
            training.training_step(batch, params, opt)
    finally:
        t.restore()
    return batch


def test_per_layer_figures_do_not_depend_on_the_number_of_units():
    """A clock that ticks once per read makes every span's length a
    function of the calls it contains, so 2 and 3 identical units must
    give the same figures."""
    figures = []
    for units in (2, 3):
        ticks = itertools.count()
        t = tracer.Tracer(clock=lambda: next(ticks) * 1e-6)
        start = t.clock()
        tiny_training(t, units)
        figures.append(t.per_layer(start, t.clock(), 0.0))
    two, three = figures
    assert two["model.init_params.ms"] > 0 and two["numerics.gelu.bwd_ms"] > 0
    assert two.pop("trace.top_level.coverage") == pytest.approx(
        three.pop("trace.top_level.coverage"), abs=0.01)
    assert two == pytest.approx(three, rel=1e-9)


def test_tracer_times_forward_and_backward_of_a_training_step():
    # A ticking clock: the wall clock would let gc pauses and host noise
    # between the spans of so small a step move the coverage.
    t = tracer.Tracer(clock=itertools.count().__next__)
    batch = tiny_training(t, 1)
    m = t.per_layer(t.spans[0].start, max(s.end for s in t.spans), 0.0)
    for op in ("matmul", "gelu", "layer_norm", "masked_softmax", "next_token_cross_entropy"):
        assert m[f"numerics.{op}.calls"] > 0
        assert m[f"numerics.{op}.bwd_ms"] > 0
    assert m["numerics.matmul.flops"] > 0
    assert m["model.model_forward.positions"] == batch.seq_ids.size
    assert m["trace.top_level.coverage"] == pytest.approx(1.0, abs=0.05)
    assert m["generation.useful_position_ratio"] == 0.0


def test_benchmark_json_lists_what_the_benchmark_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == workloads.END_TO_END
    per_layer = tracer.Tracer().per_layer(0.0, 1.0, 0.0)
    assert [m["name"] for m in bench["per_layer"]] == list(per_layer)
    assert all(m["unit"] == tracer.unit_of(m["name"]) for m in bench["per_layer"])
