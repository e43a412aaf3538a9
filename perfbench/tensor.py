"""The numpy-engine workload: ``pregated_finetune``.

Set-up builds the SQuAD-like task, pre-trains the conventional
``switch_mini_8`` model and builds a ``PreGatedSwitchTransformer`` from its
weights.  The timed phase fine-tunes that model (``Trainer.fit``) and then
greedy-decodes and scores a held-out set (``Trainer.evaluate``).  Training
data, initial weights and the recipe are fixed; ``--seed`` draws the
held-out set.

After timing, the held-out set is decoded once more with routing recorded,
and each request's expert routing is served through the serving simulator
on the paper's system: the simulated metrics of this workload are those of
the fine-tuned model's own routing decisions.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.pregated_model import PreGatedSwitchTransformer
from repro.data.tasks import Seq2SeqDataset, make_task
from repro.data.tokenizer import default_vocabulary
from repro.moe.configs import get_config
from repro.serving.scheduler import ContinuousBatchingScheduler
from repro.system.hardware import PAPER_SYSTEM
from repro.tensor import use_precision
from repro.training import Trainer, TrainingConfig, pretrain_conventional
from repro.workloads.arrivals import TimedRequest
from repro.workloads.traces import RequestTrace

from . import calibrate, layers
from .gate import check_served, digest
from .report import Report
from .sim import arrival_times, sim_counts, sim_metrics
from .spans import SpanRecorder, instrument


CONFIG = "switch_mini_8"
TASK = "squad_like"
#: Seed of the training data and of every model's initial weights.
TRAIN_SEED = 7_919
BATCH_SIZE = 16
LEARNING_RATE = 3e-3
#: Open-loop rate at which the held-out requests reach the simulated server,
#: requests per simulated second (~75% of its batch-1 capacity).
SIM_RATE = 60.0


@dataclass(frozen=True)
class TensorWorkload:
    name: str = "pregated_finetune"
    train_size: int = 192
    pretrain_steps: int = 60
    #: Held-out requests; large enough that decoding them takes seconds.
    eval_size: int = 2048
    steps: int = 120
    #: Exact match (points) the fine-tuned model must reach: it learned.
    min_exact_match: float = 15.0
    setup_repeats: int = 3
    min_reps: int = 2

    def training(self) -> TrainingConfig:
        return TrainingConfig(steps=self.steps, batch_size=BATCH_SIZE,
                              learning_rate=LEARNING_RATE, seed=0, log_every=1)


PREGATED_FINETUNE = TensorWorkload()


@dataclass
class _Setup:
    tokenizer: object
    pretrained: object
    train_set: Seq2SeqDataset
    eval_set: Seq2SeqDataset
    model: PreGatedSwitchTransformer


def _tokens(dataset: Seq2SeqDataset) -> int:
    """Non-pad encoder plus decoder tokens of one pass over ``dataset``."""
    tok = dataset.tokenizer
    return sum(len(tok.encode(e.source)) + len(tok.encode(e.target, add_eos=True))
               for e in dataset.examples)


def build_model(wl: TensorWorkload, pretrained) -> PreGatedSwitchTransformer:
    with use_precision(wl.training().precision):
        model = PreGatedSwitchTransformer(get_config(CONFIG), seed=TRAIN_SEED)
        model.load_from_conventional(pretrained)
    return model


def make_eval_set(wl: TensorWorkload, tokenizer, seed: int,
                  train_set: Seq2SeqDataset) -> Seq2SeqDataset:
    """``eval_size`` examples drawn from ``seed``, minus any seen in training."""
    seen = {(e.source, e.target) for e in train_set.examples}
    examples = make_task(TASK, tokenizer=tokenizer, seed=seed).generate(wl.eval_size)
    return Seq2SeqDataset([e for e in examples if (e.source, e.target) not in seen], tokenizer)


def setup(wl: TensorWorkload, seed: int) -> Tuple[_Setup, float]:
    """Task, pre-trained conventional model and pre-gated model; returns gen time."""
    config = get_config(CONFIG)
    t0 = time.perf_counter()
    tokenizer = default_vocabulary(num_content_words=config.vocab_size - 4)
    task = make_task(TASK, tokenizer=tokenizer, seed=TRAIN_SEED)
    train_set = Seq2SeqDataset(task.generate(wl.train_size), tokenizer)
    eval_set = make_eval_set(wl, tokenizer, seed, train_set)
    gen_s = time.perf_counter() - t0
    pretraining = TrainingConfig(steps=wl.pretrain_steps, batch_size=BATCH_SIZE,
                                 seed=TRAIN_SEED)
    pretrained = pretrain_conventional(config, task, training=pretraining, seed=TRAIN_SEED)
    return _Setup(tokenizer, pretrained, train_set, eval_set,
                  build_model(wl, pretrained)), gen_s


@dataclass
class _Rep:
    step_s: List[float]
    decode: List[Tuple[int, float, np.ndarray]]
    losses: List[float]
    exact_match: float
    model: PreGatedSwitchTransformer
    fit_s: float
    eval_s: float
    #: Reference-host seconds per measured second of fit and of evaluate.
    fit_scale: float
    eval_scale: float


def _capture_decode(model, calls: List) -> None:
    """Record every greedy-decode call's rows, wall time and output ids."""
    decode = model.greedy_decode

    def timed(input_ids, *args, **kwargs):
        t0 = time.perf_counter()
        out = decode(input_ids, *args, **kwargs)
        calls.append((len(input_ids), time.perf_counter() - t0, out[0]))
        return out

    model.greedy_decode = timed


def fine_tune_and_eval(wl: TensorWorkload, state: _Setup, model, timed=None) -> _Rep:
    """The timed phase: ``Trainer.fit`` then ``Trainer.evaluate``.

    ``timed`` (default :func:`.calibrate.timed`) measures each of the two
    calls; the traced run passes a plain stopwatch.
    """
    timed = timed or calibrate.timed
    trainer = Trainer(model, wl.training())
    calls: List = []
    _capture_decode(model, calls)
    stamps: List[float] = []

    def fit():
        stamps.append(time.perf_counter())
        return trainer.fit(state.train_set,
                           callback=lambda step, stats: stamps.append(time.perf_counter()))

    result, fit_s, fit_scaled = timed(fit)
    scores, eval_s, eval_scaled = timed(
        lambda: trainer.evaluate(state.eval_set, state.tokenizer))
    del model.greedy_decode
    step_s = list(np.diff(stamps))
    return _Rep(step_s, calls, list(result.losses), scores.exact_match, model,
                fit_s, eval_s, fit_scaled / fit_s, eval_scaled / eval_s)


def stopwatch(fn):
    """:func:`.calibrate.timed` without the calibration kernel."""
    t0 = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - t0
    return result, wall, wall


def _check_rep(wl: TensorWorkload, rep: _Rep, report: Report) -> None:
    train, decode = report.phase("train"), report.phase("decode")
    for step, loss in enumerate(rep.losses):
        train.record(bool(np.isfinite(loss)), f"step {step}: loss {loss}")
    vocab = get_config(CONFIG).vocab_size
    for i, (_, _, ids) in enumerate(rep.decode):
        ok = bool(((ids >= 0) & (ids < vocab)).all())
        decode.record(ok, f"decode batch {i}: id outside [0, {vocab})")
    report.phase("evaluate").record(
        rep.exact_match >= wl.min_exact_match,
        f"exact match {rep.exact_match:.2f} below {wl.min_exact_match}: the model did not learn")


def routing_traces(wl: TensorWorkload, state: _Setup, model) -> List[RequestTrace]:
    """One request trace per held-out example, from the model's own routing."""
    tok = state.tokenizer
    traces: List[RequestTrace] = []
    model.eval()
    with use_precision(wl.training().precision):
        for batch in state.eval_set.batches(BATCH_SIZE):
            generated, stack = model.greedy_decode(
                batch.encoder_ids, bos_id=tok.bos_id, eos_id=tok.eos_id,
                input_padding_mask=batch.encoder_padding_mask, collect_trace=True)
            traces += _split_rows(batch, generated, stack, tok.eos_id)
    return traces


def _split_rows(batch, generated: np.ndarray, stack, eos_id: int) -> List[RequestTrace]:
    """Per-request traces from one batched decode's routing record."""
    rows, src_len = batch.encoder_ids.shape
    encoder = [e.decision.expert_indices.reshape(rows, src_len, -1) for e in stack[0]
               if e.stack == "encoder"]
    steps = stack[1:] if encoder else stack
    decoder = [[e.decision.expert_indices for e in step if e.stack == "decoder"]
               for step in steps]
    out = []
    for r in range(rows):
        valid = ~batch.encoder_padding_mask[r]
        hits = np.flatnonzero(generated[r, 1:] == eos_id)
        length = int(hits[0]) + 1 if hits.size else generated.shape[1] - 1
        out.append(RequestTrace(
            input_length=int(valid.sum()), output_length=length,
            encoder_activations=[sorted({int(x) for x in block[r][valid].ravel()})
                                 for block in encoder],
            decode_activations=[[sorted({int(x) for x in block[r].ravel()}) for block in step]
                                for step in decoder[:length]]))
    return out


def serve_routing(traces: List[RequestTrace]):
    """Serve one request per trace, batch 1, on the paper's simulated system."""
    arrivals = arrival_times(len(traces), SIM_RATE)
    requests = [TimedRequest(request_id=i, arrival_time=float(arrivals[i]), trace=t)
                for i, t in enumerate(traces)]
    scheduler = ContinuousBatchingScheduler("pregated", CONFIG, system=PAPER_SYSTEM,
                                            max_batch_size=1)
    return requests, scheduler.serve(requests, offered_load=SIM_RATE)


def run(wl: TensorWorkload, seed: int, seconds: float, trace: bool) -> Report:
    report = Report(wl.name)
    setups, scaled_setups, gens = [], [], []
    state = None
    for _ in range(wl.setup_repeats):
        (state, gen_s), wall, scaled = calibrate.timed(lambda: setup(wl, seed))
        setups.append(wall)
        scaled_setups.append(scaled)
        gens.append(gen_s)
        report.phase("setup").record(len(state.eval_set) > 0, "empty held-out set")
    setup_s = report.time("setup_s", setups, scaled_setups)

    reps: List[_Rep] = []
    budget = seconds / 2 if trace else seconds
    started = time.perf_counter()
    while True:
        model = state.model if not reps else build_model(wl, state.pretrained)
        rep = fine_tune_and_eval(wl, state, model)
        _check_rep(wl, rep, report)
        if reps and (rep.losses != reps[0].losses or rep.exact_match != reps[0].exact_match):
            report.fail("fine-tuning is not deterministic across repetitions")
        reps.append(rep)
        elapsed = time.perf_counter() - started
        if len(reps) >= wl.min_reps and elapsed * (1 + 1 / len(reps)) > budget:
            break

    steps = [(s, s * r.fit_scale) for r in reps for s in r.step_s]
    step = report.time("train_step_s", *zip(*steps))
    per_req = [(wall / rows, wall / rows * r.eval_scale) for r in reps for rows, wall, _ in r.decode]
    decode = report.time("decode_s_per_req", *zip(*per_req))
    report.time("fit_eval_s", [r.fit_s + r.eval_s for r in reps],
                [r.fit_s * r.fit_scale + r.eval_s * r.eval_scale for r in reps])
    first = reps[0]
    report.info["exact_match"] = first.exact_match
    report.info["final_loss"] = first.losses[-1]
    report.info["eval_requests"] = len(state.eval_set)

    requests, result = serve_routing(routing_traces(wl, state, first.model))
    check_served(requests, result, report.phase("sim_serve"))
    report.info["digest"] = digest(result)
    report.info["sim_counts"] = sim_counts(result)

    if not trace:
        epochs = wl.steps * BATCH_SIZE / len(state.train_set)
        tokens_per_step = epochs * _tokens(state.train_set) / wl.steps
        report.metrics.update({
            "setup_s": (setup_s["median"], "s"),
            "host_req_per_s": (1.0 / decode["median"], "req/s"),
            "host_tok_per_s": (tokens_per_step / step["median"], "tok/s"),
        })
        report.metrics.update(sim_metrics(result))
        return report

    rec = SpanRecorder(f"{wl.name}-traced")
    model = build_model(wl, state.pretrained)

    def traced():
        with instrument(rec, layers.tensor_patches()):
            with rec.span(layers.ROOT):
                return fine_tune_and_eval(wl, state, model, timed=stopwatch)

    rep, raw, scaled = calibrate.timed(traced)
    _check_rep(wl, rep, report)
    if rep.losses != first.losses:
        report.fail("the traced fine-tune computed different losses")
    report.info["spans"] = rec
    out = layers.layer_metrics(rec, report.timings["fit_eval_s"]["median"],
                               (rep.fit_s + rep.eval_s) * scaled / raw)
    out["workloads.gen_s"] = statistics.median(gens)
    out["training.eval_exact_match"] = rep.exact_match
    report.metrics.update({name: (out[name], unit) for name, unit in layers.PER_LAYER})
    return report
