"""The seed changes the generated inputs, never the set of metrics reported."""

import dataclasses
import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import layers, run, sim, tensor  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    SPEC = json.load(_handle)
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}

TINY_SIM = dataclasses.replace(sim.DECODE_B1, num_requests=4, input_length=4,
                               output_length=24, audit_prefix=2)
TINY_TENSOR = dataclasses.replace(
    tensor.PREGATED_FINETUNE, train_size=32, pretrain_steps=2, eval_size=24, steps=2,
    min_exact_match=0.0, setup_repeats=1, min_reps=1)


def test_benchmark_json_names_every_reported_metric():
    assert PER_LAYER == {name for name, _ in layers.PER_LAYER}
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_seed_changes_sim_inputs():
    a, b = sim.make_requests(TINY_SIM, seed=1), sim.make_requests(TINY_SIM, seed=2)
    assert [r.trace.decode_activations for r in a] != [r.trace.decode_activations for r in b]
    again = sim.make_requests(TINY_SIM, seed=1)
    assert [r.trace.decode_activations for r in a] == [r.trace.decode_activations for r in again]


def test_seed_changes_held_out_set():
    config_vocab = 124
    tok = tensor.default_vocabulary(num_content_words=config_vocab)
    train = tensor.Seq2SeqDataset(
        tensor.make_task("squad_like", tokenizer=tok, seed=7).generate(16), tok)
    a = tensor.make_eval_set(TINY_TENSOR, tok, 1, train)
    b = tensor.make_eval_set(TINY_TENSOR, tok, 2, train)
    assert [e.source for e in a.examples] != [e.source for e in b.examples]
    # Held out: nothing the model trained on is scored.
    seen = {e.source for e in train.examples}
    assert not seen & {e.source for e in a.examples}


@pytest.mark.parametrize("trace", [False, True])
def test_sim_metric_set_is_the_same_for_every_seed(trace):
    names = []
    for seed in (1, 2):
        report = sim.run(TINY_SIM, seed, seconds=0.0, trace=trace)
        run.add_process_metrics(report, trace)
        assert report.correct, report.problems
        names.append(set(report.metrics))
    assert names[0] == names[1] == (PER_LAYER if trace else END_TO_END)


@pytest.mark.parametrize("trace", [False, True])
def test_tensor_metric_set_is_the_same_for_every_seed(trace):
    names = []
    for seed in (1, 2):
        report = tensor.run(TINY_TENSOR, seed, seconds=0.0, trace=trace)
        run.add_process_metrics(report, trace)
        assert report.correct, report.problems
        names.append(set(report.metrics))
        if trace:
            values = {k: v for k, (v, _) in report.metrics.items()}
            assert layers.attributed_total(values) == pytest.approx(values["trace.wall_s"])
    assert names[0] == names[1] == (PER_LAYER if trace else END_TO_END)
