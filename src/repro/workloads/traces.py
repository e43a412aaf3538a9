"""Expert-activation traces for the serving simulator.

The serving engines need to know, for every MoE block evaluation, *which*
experts are activated.  At paper scale we cannot run the real Switch
checkpoints, so traces come from one of two sources:

* :class:`TraceGenerator` — synthetic routing that mirrors the statistical
  behaviour of a trained top-k router: each token independently picks
  ``top_k`` experts from a (optionally skewed) categorical distribution.
  The skew knob reproduces the "hot expert" phenomenon the caching study of
  Figure 15 relies on.
* :func:`trace_from_routing` — converts the routing trace recorded by the
  functional numpy models (tiny configurations) into the same format, so the
  functional and performance layers agree on the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..moe.configs import ModelConfig

#: Activated experts of one MoE block evaluation: a sorted list of expert ids.
BlockActivation = List[int]

#: Activations of every MoE block in one forward pass (encoder pass or one
#: decoder iteration), indexed by MoE-block position.
IterationActivations = List[BlockActivation]


@dataclass
class RequestTrace:
    """Expert activations of one inference request.

    Attributes
    ----------
    input_length:
        Number of input (encoder) tokens.
    output_length:
        Number of generated tokens, i.e. decoder iterations.
    encoder_activations:
        Per-encoder-MoE-block activated experts for the single encoder pass.
    decode_activations:
        One :data:`IterationActivations` per decoder iteration.
    """

    input_length: int
    output_length: int
    encoder_activations: IterationActivations = field(default_factory=list)
    decode_activations: List[IterationActivations] = field(default_factory=list)

    @property
    def num_decoder_moe_blocks(self) -> int:
        return len(self.decode_activations[0]) if self.decode_activations else 0

    def total_decode_expert_activations(self) -> int:
        return sum(len(block) for it in self.decode_activations for block in it)


class TraceGenerator:
    """Synthetic expert-activation trace generator.

    Parameters
    ----------
    config:
        Model configuration (defines the number of MoE blocks and experts).
    skew:
        Zipf-like skew of the expert popularity distribution.  ``0`` gives
        uniform routing (the load-balanced ideal); larger values concentrate
        activations on a few hot experts, which is what makes expert caching
        effective (Figure 15).
    top_k:
        Experts activated per token; defaults to the config's ``top_k``.
    seed:
        RNG seed for reproducibility.
    """

    def __init__(self, config: ModelConfig, skew: float = 0.0,
                 top_k: Optional[int] = None, seed: int = 0) -> None:
        if skew < 0:
            raise ValueError("skew must be non-negative")
        self.config = config
        self.skew = skew
        self.top_k = top_k if top_k is not None else config.top_k
        if not 1 <= self.top_k <= config.num_experts:
            raise ValueError(
                f"top_k must be in [1, {config.num_experts}], got {self.top_k}")
        self._rng = np.random.default_rng(seed)
        self._probabilities = self._expert_distribution()
        #: log-probabilities for the Gumbel top-k sampler (cached per shape:
        #: the distribution is a constant of the generator).
        self._log_probabilities = np.log(self._probabilities)
        #: Normalised CDF for the top-1 sampler.  ``Generator.choice(p=...)``
        #: rebuilds this cumsum on every call; caching it and drawing via
        #: ``random`` + ``searchsorted`` consumes the identical RNG stream
        #: (that is exactly ``choice``'s internal algorithm), so traces are
        #: bit-identical to the uncached path while generation is ~10x
        #: faster at decode (one block draw per call).
        self._cdf = self._probabilities.cumsum()
        self._cdf /= self._cdf[-1]

    def _expert_distribution(self) -> np.ndarray:
        num_experts = self.config.num_experts
        if self.skew == 0.0:
            return np.full(num_experts, 1.0 / num_experts)
        ranks = np.arange(1, num_experts + 1, dtype=np.float64)
        weights = ranks ** (-self.skew)
        return weights / weights.sum()

    # ------------------------------------------------------------------
    def block_activation(self, num_tokens: int, top_k: Optional[int] = None) -> BlockActivation:
        """Distinct experts activated when ``num_tokens`` tokens are routed.

        Vectorised over the tokens (the per-token Python loop dominated
        trace generation for large workloads): top-1 routing is a single
        categorical draw per block; top-k draws per-token Gumbel keys and
        takes each row's k largest — the Gumbel-top-k trick, which samples
        exactly the same without-replacement (Plackett–Luce) distribution
        as sequential renormalised draws.
        """
        k = top_k if top_k is not None else self.top_k
        if k < 1:
            raise ValueError(f"top_k must be >= 1, got {k}")
        num_experts = self.config.num_experts
        k = min(k, num_experts)
        if k == 1:
            draws = self._cdf.searchsorted(self._rng.random(num_tokens),
                                           side="right")
            if num_tokens == 1:
                return [int(draws[0])]
            return sorted({int(e) for e in draws})
        keys = self._rng.gumbel(size=(num_tokens, num_experts)) + self._log_probabilities
        top = np.argpartition(-keys, k - 1, axis=1)[:, :k]
        return sorted({int(e) for e in top.ravel()})

    def iteration_activations(self, num_tokens: int, num_moe_blocks: int,
                              top_k: Optional[int] = None) -> IterationActivations:
        """Activations of every MoE block of one forward pass."""
        return [self.block_activation(num_tokens, top_k=top_k) for _ in range(num_moe_blocks)]

    def request_trace(self, input_length: int, output_length: int,
                      batch_size: int = 1, top_k: Optional[int] = None) -> RequestTrace:
        """A full request: one encoder pass plus ``output_length`` decoder iterations."""
        if input_length < 1 or output_length < 1:
            raise ValueError("input_length and output_length must be >= 1")
        encoder_blocks = self.config.num_moe_blocks("encoder")
        decoder_blocks = self.config.num_moe_blocks("decoder")
        k = top_k if top_k is not None else self.top_k
        if min(k, self.config.num_experts) == 1:
            encoder, decode = self._top1_request(
                input_length * batch_size, encoder_blocks, batch_size,
                decoder_blocks, output_length)
        else:
            encoder = self.iteration_activations(input_length * batch_size,
                                                 encoder_blocks, top_k=top_k)
            decode = [self.iteration_activations(batch_size, decoder_blocks, top_k=top_k)
                      for _ in range(output_length)]
        return RequestTrace(input_length=input_length, output_length=output_length,
                            encoder_activations=encoder, decode_activations=decode)

    def _top1_request(self, encoder_tokens: int, encoder_blocks: int,
                      decode_tokens: int, decoder_blocks: int, output_length: int):
        """Top-1 request routing from one draw over every block, in block order.

        ``Generator.random(n)`` yields the same stream as the per-block
        draws of :meth:`block_activation`, so the activations are identical
        to the per-block path; one draw and one ``searchsorted`` replace
        one of each per block.
        """
        num_draws = (encoder_blocks * encoder_tokens
                     + output_length * decoder_blocks * decode_tokens)
        flat = self._cdf.searchsorted(self._rng.random(num_draws),
                                      side="right").tolist()

        def blocks(offset: int, count: int, tokens: int) -> IterationActivations:
            if tokens == 1:
                return [[e] for e in flat[offset:offset + count]]
            return [sorted(set(flat[offset + b * tokens:offset + (b + 1) * tokens]))
                    for b in range(count)]

        encoder = blocks(0, encoder_blocks, encoder_tokens)
        step = decoder_blocks * decode_tokens
        base = encoder_blocks * encoder_tokens
        decode = [blocks(base + i * step, decoder_blocks, decode_tokens)
                  for i in range(output_length)]
        return encoder, decode

    def workload(self, num_requests: int, input_length: int, output_length: int,
                 batch_size: int = 1, top_k: Optional[int] = None) -> List[RequestTrace]:
        """A list of request traces forming one workload."""
        return [self.request_trace(input_length, output_length, batch_size=batch_size, top_k=top_k)
                for _ in range(num_requests)]


def expected_distinct_experts(num_tokens: int, num_experts: int, top_k: int = 1) -> float:
    """Expected number of distinct experts activated by uniform top-k routing.

    Used by the analytic peak-memory and capacity planners; matches the
    empirical mean of :meth:`TraceGenerator.block_activation` under zero
    skew.
    """
    if num_experts <= 0:
        raise ValueError("num_experts must be positive")
    draws = num_tokens * min(top_k, num_experts)
    return num_experts * (1.0 - (1.0 - 1.0 / num_experts) ** draws)


def trace_from_routing(stack_traces: Sequence[Sequence], input_length: int) -> RequestTrace:
    """Build a :class:`RequestTrace` from the functional model's recorded routing.

    ``stack_traces`` is the list returned by ``greedy_decode(collect_trace=True)``:
    the first entry holds the encoder pass (if the encoder has MoE blocks) and
    subsequent entries hold one decoder iteration each.
    """
    if not stack_traces:
        raise ValueError("empty routing trace")
    encoder_entries = [e for e in stack_traces[0] if e.stack == "encoder"]
    if encoder_entries:
        encoder = [sorted(e.activated_experts) for e in encoder_entries]
        decode_iters = stack_traces[1:]
    else:
        encoder = []
        decode_iters = stack_traces
    decode = []
    for iteration in decode_iters:
        decoder_entries = [e for e in iteration if e.stack == "decoder"]
        decode.append([sorted(e.activated_experts) for e in decoder_entries])
    return RequestTrace(input_length=input_length, output_length=len(decode),
                        encoder_activations=encoder, decode_activations=decode)
