"""Tests for hardware specs and the GPU latency model."""

import pytest

from repro.moe.configs import get_config
from repro.system.hardware import (
    A100_80GB,
    NVME_SSD,
    PAPER_SYSTEM,
    PCIE_GEN4,
    SSD_SYSTEM,
    LinkSpec,
    SystemSpec,
    get_system,
)
from repro.system.performance import GpuLatencyModel, LayerCost


class TestLinkSpec:
    def test_transfer_time_linear_in_bytes(self):
        link = LinkSpec("test", bandwidth=1e9, latency=1e-5)
        t1 = link.transfer_time(1e9)
        t2 = link.transfer_time(2e9)
        assert t2 - t1 == pytest.approx(1.0)

    def test_zero_bytes_is_free(self):
        assert PCIE_GEN4.transfer_time(0) == 0.0

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            PCIE_GEN4.transfer_time(-1)

    def test_pcie_gen4_bandwidth(self):
        """The paper's PCIe gen4 channel: 32 GB/s."""
        assert PCIE_GEN4.bandwidth == pytest.approx(32e9)
        # One Switch-Base expert (~19 MB fp32) takes ~0.6 ms.
        expert_bytes = get_config("switch_base_128").expert_bytes()
        assert 4e-4 < PCIE_GEN4.transfer_time(expert_bytes) < 8e-4


class TestSystemSpec:
    def test_paper_system_matches_section_v(self):
        assert PAPER_SYSTEM.gpu.memory_bytes == int(80e9)
        assert PAPER_SYSTEM.host.dram_bytes == int(1.8e12)
        assert PAPER_SYSTEM.offload_tier == "dram"

    def test_ssd_system_is_slower_offload(self):
        expert_bytes = get_config("switch_large_128").expert_bytes()
        dram_time = PAPER_SYSTEM.expert_transfer_time(expert_bytes)
        ssd_time = SSD_SYSTEM.expert_transfer_time(expert_bytes)
        assert ssd_time > 5 * dram_time

    def test_invalid_offload_tier(self):
        with pytest.raises(ValueError):
            SystemSpec(name="bad", gpu=A100_80GB, host=PAPER_SYSTEM.host,
                       pcie=PCIE_GEN4, ssd=NVME_SSD, offload_tier="tape")

    def test_get_system_by_name(self):
        assert get_system("paper") is PAPER_SYSTEM
        assert get_system("ssd").offload_tier == "ssd"

    def test_get_system_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match=r"'paper'.*'ssd'"):
            get_system("tpu")

    def test_with_offload_tier_returns_copy(self):
        ssd = PAPER_SYSTEM.with_offload_tier("ssd")
        assert ssd.offload_tier == "ssd"
        assert PAPER_SYSTEM.offload_tier == "dram"


class TestGpuLatencyModel:
    @pytest.fixture
    def model(self):
        return GpuLatencyModel(A100_80GB)

    @pytest.fixture
    def config(self):
        return get_config("switch_base_128")

    def test_layer_time_includes_overhead(self, model):
        cost = LayerCost(flops=0.0, weight_bytes=0.0, num_kernels=3)
        assert model.layer_time(cost) == pytest.approx(3 * A100_80GB.kernel_launch_overhead)

    def test_roofline_uses_max_of_compute_and_memory(self, model):
        compute_bound = LayerCost(flops=1e12, weight_bytes=1.0, num_kernels=0)
        memory_bound = LayerCost(flops=1.0, weight_bytes=1e10, num_kernels=0)
        assert model.layer_time(compute_bound) == pytest.approx(1e12 / A100_80GB.flops_per_second)
        assert model.layer_time(memory_bound) == pytest.approx(1e10 / A100_80GB.hbm_bandwidth)

    def test_single_token_layers_are_overhead_bound(self, model, config):
        """At batch-1 decoding, attention time is dominated by fixed overheads."""
        attn = model.attention_time(config, query_tokens=1, kv_tokens=32)
        assert attn < 10 * 4 * A100_80GB.kernel_launch_overhead

    def test_expert_execution_grows_with_active_experts(self, model, config):
        one = model.expert_execution_time(config, tokens=1, num_active_experts=1)
        many = model.expert_execution_time(config, tokens=64, num_active_experts=64)
        assert many > 5 * one

    def test_expert_execution_requires_positive_experts(self, model, config):
        with pytest.raises(ValueError):
            model.expert_execution_time(config, tokens=1, num_active_experts=0)

    def test_moe_block_time_includes_gate(self, model, config):
        total = model.moe_block_compute_time(config, tokens=1, num_active_experts=1)
        exec_only = model.expert_execution_time(config, tokens=1, num_active_experts=1)
        assert total > exec_only

    def test_calibration_transfer_vs_block_compute(self, model, config):
        """The central tension the paper exploits: migrating one expert over PCIe
        takes on the same order as (or longer than) executing the MoE block."""
        block = model.moe_block_compute_time(config, tokens=1, num_active_experts=1)
        transfer = PAPER_SYSTEM.expert_transfer_time(config.expert_bytes())
        assert 0.3 < transfer / block < 3.0

    def test_larger_model_has_larger_layer_times(self, model):
        base = get_config("switch_base_128")
        large = get_config("switch_large_128")
        assert model.ffn_time(large, 32) > model.ffn_time(base, 32)
        assert model.lm_head_time(large, 1) > model.lm_head_time(base, 1)

    def test_decoder_nonmoe_includes_two_attentions(self, model, config):
        enc = model.encoder_layer_nonmoe_time(config, 1)
        dec = model.decoder_layer_nonmoe_time(config, 1, 1, 32)
        assert dec > enc


class TestBatchedCosts:
    """Batched forms of the latency model: one shape reduces exactly."""

    @pytest.fixture
    def model(self):
        return GpuLatencyModel(A100_80GB)

    @pytest.fixture
    def config(self):
        return get_config("switch_base_128")

    def test_one_shape_is_the_unbatched_cost(self, model, config):
        assert (model.batched_attention_cost(config, [(3, 17)])
                == model.attention_cost(config, 3, 17))
        assert (model.batched_decoder_layer_nonmoe_time(config, [(1, 9, 32)])
                == model.decoder_layer_nonmoe_time(config, 1, 9, 32))
        assert (model.batched_encoder_layer_nonmoe_time(config, [32])
                == model.encoder_layer_nonmoe_time(config, 32))
        assert (model.grouped_expert_execution_time(config, [(4, 8)])
                == model.expert_execution_time(config, 32, 8))

    def test_projection_weights_read_once(self, model, config):
        """A batch streams the projection weights once, the KV per request."""
        one = model.attention_cost(config, 1, 20)
        batch = model.batched_attention_cost(config, [(1, 20), (1, 40)])
        assert batch.weight_bytes == one.weight_bytes
        assert batch.activation_bytes == pytest.approx(
            one.activation_bytes + model.attention_cost(config, 1, 40).activation_bytes)
        assert batch.flops == pytest.approx(
            one.flops + model.attention_cost(config, 1, 40).flops)

    def test_memory_bound_decode_batches_nearly_free(self, model, config):
        """Eight decode tokens cost far less than eight single-token layers."""
        single = model.decoder_layer_nonmoe_time(config, 1, 16, 32)
        eight = model.batched_decoder_layer_nonmoe_time(config, [(1, 16, 32)] * 8)
        assert single < eight < 1.5 * single

    def test_grouped_experts_stream_every_expert(self, model, config):
        """Four experts of two tokens plus one of one: each streams its weights."""
        grouped = model.grouped_expert_execution_time(config, [(1, 1), (2, 4)])
        assert grouped > model.expert_execution_time(config, 8, 4)
        assert grouped > model.expert_execution_time(config, 1, 1)
