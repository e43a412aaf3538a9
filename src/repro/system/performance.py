"""GPU compute latency model for transformer / MoE layers.

Converts the work of a layer (FLOPs executed, parameter bytes streamed from
HBM) into execution time on a :class:`~repro.system.hardware.GpuSpec` using a
roofline-style estimate plus fixed kernel-launch and dispatch overheads:

``time = launch_overheads + max(flops / peak_flops, bytes / hbm_bandwidth)``

At the single-batch decode sizes the paper evaluates, every layer is memory-
bandwidth- or overhead-bound, which is what makes the PCIe expert-migration
latency comparable to (rather than negligible next to) the MoE block's
execution time — the central tension the pre-gate resolves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from ..moe.configs import ModelConfig
from .hardware import GpuSpec


@dataclass(frozen=True)
class LayerCost:
    """Work performed by one layer invocation."""

    flops: float
    weight_bytes: float
    activation_bytes: float = 0.0
    num_kernels: int = 1

    @property
    def total_bytes(self) -> float:
        return self.weight_bytes + self.activation_bytes


class GpuLatencyModel:
    """Maps :class:`LayerCost` objects to execution times on a GPU.

    Parameters
    ----------
    gpu:
        The accelerator spec (peak FLOP/s, HBM bandwidth, overheads).
    compute_bytes_per_param:
        Precision of on-GPU compute (fp16 by default, matching
        FasterTransformer).
    """

    def __init__(self, gpu: GpuSpec, compute_bytes_per_param: int = 2) -> None:
        self.gpu = gpu
        self.compute_bytes_per_param = compute_bytes_per_param

    # ------------------------------------------------------------------
    # Generic roofline
    # ------------------------------------------------------------------
    def layer_time(self, cost: LayerCost) -> float:
        """Execution time of a layer described by ``cost`` (seconds)."""
        compute_time = cost.flops / self.gpu.flops_per_second
        memory_time = cost.total_bytes / self.gpu.hbm_bandwidth
        overhead = cost.num_kernels * self.gpu.kernel_launch_overhead
        return overhead + max(compute_time, memory_time)

    # ------------------------------------------------------------------
    # Layer-specific costs
    # ------------------------------------------------------------------
    def attention_cost(self, config: ModelConfig, query_tokens: int,
                       kv_tokens: Optional[int] = None) -> LayerCost:
        """One multi-head attention evaluation (self- or cross-attention)."""
        kv_tokens = kv_tokens if kv_tokens is not None else query_tokens
        return self.batched_attention_cost(config, ((query_tokens, kv_tokens),))

    def batched_attention_cost(self, config: ModelConfig,
                               shapes: Sequence[Tuple[int, int]]) -> LayerCost:
        """One attention evaluation over a batch of ``(query, kv)`` requests.

        The projections run over the summed query tokens, so their weights
        are read once; each request attends to its own KV, so score FLOPs
        and KV traffic are summed per request.  One shape is exactly
        :meth:`attention_cost`.
        """
        d = config.d_model
        bpp = self.compute_bytes_per_param
        query_tokens = sum(q for q, _ in shapes)
        proj_flops = 4 * 2.0 * query_tokens * d * d
        score_flops = sum(2.0 * q * kv * d * 2 for q, kv in shapes)
        weight_bytes = 4 * d * d * bpp
        act_bytes = sum((q + 2 * kv) * d * bpp for q, kv in shapes)
        return LayerCost(flops=proj_flops + score_flops, weight_bytes=weight_bytes,
                         activation_bytes=act_bytes, num_kernels=4)

    def ffn_cost(self, config: ModelConfig, tokens: int) -> LayerCost:
        """One dense FFN (equivalently: one expert) evaluation."""
        flops = 2 * 2.0 * tokens * config.d_model * config.d_ff
        weight_bytes = 2 * config.d_model * config.d_ff * self.compute_bytes_per_param
        act_bytes = tokens * (config.d_model + config.d_ff) * self.compute_bytes_per_param
        return LayerCost(flops=flops, weight_bytes=weight_bytes,
                         activation_bytes=act_bytes, num_kernels=2)

    def gate_cost(self, config: ModelConfig, tokens: int) -> LayerCost:
        """One gate / pre-gate function evaluation (compact MLP + softmax)."""
        flops = 2.0 * tokens * config.d_model * config.num_experts
        weight_bytes = config.d_model * config.num_experts * self.compute_bytes_per_param
        return LayerCost(flops=flops, weight_bytes=weight_bytes, num_kernels=2)

    def layernorm_cost(self, config: ModelConfig, tokens: int) -> LayerCost:
        flops = 5.0 * tokens * config.d_model
        act_bytes = 2 * tokens * config.d_model * self.compute_bytes_per_param
        return LayerCost(flops=flops, weight_bytes=0.0, activation_bytes=act_bytes, num_kernels=1)

    def lm_head_cost(self, config: ModelConfig, tokens: int) -> LayerCost:
        flops = 2.0 * tokens * config.d_model * config.vocab_size
        weight_bytes = config.d_model * config.vocab_size * self.compute_bytes_per_param
        return LayerCost(flops=flops, weight_bytes=weight_bytes, num_kernels=1)

    # ------------------------------------------------------------------
    # Aggregated times used by the serving engines
    # ------------------------------------------------------------------
    def attention_time(self, config: ModelConfig, query_tokens: int,
                       kv_tokens: Optional[int] = None) -> float:
        return self.layer_time(self.attention_cost(config, query_tokens, kv_tokens))

    def ffn_time(self, config: ModelConfig, tokens: int) -> float:
        return self.layer_time(self.ffn_cost(config, tokens))

    def gate_time(self, config: ModelConfig, tokens: int) -> float:
        return self.layer_time(self.gate_cost(config, tokens))

    def layernorm_time(self, config: ModelConfig, tokens: int) -> float:
        return self.layer_time(self.layernorm_cost(config, tokens))

    def lm_head_time(self, config: ModelConfig, tokens: int) -> float:
        return self.layer_time(self.lm_head_cost(config, tokens))

    def expert_execution_time(self, config: ModelConfig, tokens: int,
                              num_active_experts: int) -> float:
        """Expert-execution stage of one MoE block.

        ``tokens`` tokens are spread over ``num_active_experts`` experts; the
        weights of every active expert must be streamed from HBM and the MoE
        dispatch path (scatter, per-expert GEMM launches, gather) adds the
        GPU's ``moe_dispatch_overhead``.
        """
        if num_active_experts < 1:
            raise ValueError("num_active_experts must be >= 1")
        per_expert_tokens = max(1.0, tokens / num_active_experts)
        return self.grouped_expert_execution_time(
            config, ((int(round(per_expert_tokens)), num_active_experts),))

    def grouped_expert_execution_time(
            self, config: ModelConfig,
            groups: Sequence[Tuple[int, int]]) -> float:
        """Expert-execution stage over ``(tokens per expert, experts)`` groups.

        The batched form of :meth:`expert_execution_time`: a batch's union of
        active experts, grouped by how many tokens each expert processes.
        Every expert's weights stream once and the dispatch overhead is
        paid once per block.  One group is exactly the unbatched call.
        """
        flops = weight_bytes = act_bytes = 0.0
        num_kernels = 0
        for tokens, count in groups:
            per_expert = self.ffn_cost(config, tokens)
            flops += per_expert.flops * count
            weight_bytes += per_expert.weight_bytes * count
            act_bytes += per_expert.activation_bytes * count
            num_kernels += per_expert.num_kernels * count
        total = LayerCost(flops=flops, weight_bytes=weight_bytes,
                          activation_bytes=act_bytes, num_kernels=num_kernels)
        return self.gpu.moe_dispatch_overhead + self.layer_time(total)

    def moe_block_compute_time(self, config: ModelConfig, tokens: int,
                               num_active_experts: int) -> float:
        """Gate + expert execution with everything resident (GPU-only block time)."""
        return self.gate_time(config, tokens) + self.expert_execution_time(
            config, tokens, num_active_experts)

    # ------------------------------------------------------------------
    # Per-transformer-block composites
    # ------------------------------------------------------------------
    def encoder_layer_nonmoe_time(self, config: ModelConfig, tokens: int) -> float:
        """Self-attention + norms of one encoder block (FFN/MoE excluded)."""
        return self.batched_encoder_layer_nonmoe_time(config, (tokens,))

    def batched_encoder_layer_nonmoe_time(self, config: ModelConfig,
                                          tokens: Sequence[int]) -> float:
        """:meth:`encoder_layer_nonmoe_time` over a batch of requests."""
        return (self.layer_time(self.batched_attention_cost(
                    config, [(t, t) for t in tokens]))
                + 2 * self.layernorm_time(config, sum(tokens)))

    def decoder_layer_nonmoe_time(self, config: ModelConfig, query_tokens: int,
                                  self_kv_tokens: int, cross_kv_tokens: int) -> float:
        """Self-attention + cross-attention + norms of one decoder block."""
        return self.batched_decoder_layer_nonmoe_time(
            config, ((query_tokens, self_kv_tokens, cross_kv_tokens),))

    def batched_decoder_layer_nonmoe_time(
            self, config: ModelConfig,
            shapes: Sequence[Tuple[int, int, int]]) -> float:
        """:meth:`decoder_layer_nonmoe_time` over a batch of requests.

        ``shapes`` holds one ``(query, self KV, cross KV)`` triple per
        request; norms run over the summed query tokens.
        """
        return (self.layer_time(self.batched_attention_cost(
                    config, [(q, kv) for q, kv, _ in shapes]))
                + self.layer_time(self.batched_attention_cost(
                    config, [(q, kv) for q, _, kv in shapes]))
                + 3 * self.layernorm_time(config, sum(q for q, _, _ in shapes)))
