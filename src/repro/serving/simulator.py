"""Per-iteration simulation layer: one stack pass on an execution timeline.

Second of the three serving layers (placement → per-iteration simulation →
request lifecycle).  An :class:`IterationSimulator` emits one encoder pass or
one decoder iteration for a given design as a columnar
:class:`~repro.system.timeline.OpBatch` of compute and copy ops, which the
caller commits to an :class:`~repro.system.timeline.ExecutionTimeline`.  It
is deliberately stateless across calls so that a request scheduler can
interleave passes from *different* in-flight requests onto one shared
timeline (continuous batching) — the per-request lifecycle state lives in
the caller (:class:`~repro.serving.engine.ServingEngine` for the
one-request-at-a-time path,
:class:`~repro.serving.scheduler.ContinuousBatchingScheduler` for the
batched path).  Both callers go through :meth:`IterationSimulator.emit_stack_pass`.

A pass is shared by one or more requests (:class:`PassMember`): ops are
costed over the summed query tokens, and each MoE block fetches and executes
the union of the members' active experts.  The scheduler's rounds also pass
a :class:`SharedExpertRound`, the round's fetch ledger: an expert is
migrated at most once per round, its slot is refcounted until its last
planned user has executed, and a later pass that needs it depends on the
original copy op.

Expert-parallel replicas (a multi-device
:class:`~repro.system.hardware.DeviceTopology`) additionally split every MoE
block across the devices owning its activated experts: expert fetches land on
the owning shard's copy lane, each participating device executes its share of
the experts on its own compute lane, and the token traffic between the
devices — all-to-all dispatch before execution, combine after — is modelled
as transfers on the interconnect stream, sized from the gating activations.
A single-device topology takes none of these paths and reproduces the
original single-GPU timeline bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Collection, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ..core.migration import MigrationPlan, plan_for_design
from ..core.pregate import PreGateSchedule
from ..moe.configs import ModelConfig
from ..system.hardware import SystemSpec
from ..system.performance import GpuLatencyModel
from ..system.timeline import STREAM_CODE, OpBatch, Stream, category_code
from ..workloads.traces import IterationActivations
from .placement import ModelPlacement

#: Key identifying one migratable expert: (global block index, expert id).
ExpertKey = Tuple[int, int]

# Stream / category codes of the emitted op columns.
_COMPUTE = STREAM_CODE[Stream.COMPUTE]
_COPY = STREAM_CODE[Stream.COPY]
_STAGE = STREAM_CODE[Stream.STAGE]
_INTERCONNECT = STREAM_CODE[Stream.INTERCONNECT]
CAT_NON_MOE = category_code("non_moe")
CAT_GATE = category_code("gate")
CAT_SYNC = category_code("sync")
CAT_EXPERT_TRANSFER = category_code("expert_transfer")
CAT_EXPERT_EXECUTION = category_code("expert_execution")
CAT_STAGE_IN = category_code("stage_in")
CAT_ALLTOALL = category_code("alltoall")
CAT_COMPUTE = category_code("compute")


class SharedExpertRound:
    """Expert-transfer dedup state for one continuous-batching round.

    The scheduler registers, up front, every expert transfer each request of
    the round *would* issue (via :meth:`register_plan`).  During simulation
    the first request to need an expert fetches it into a shared batch slot;
    subsequent requests reuse it.  Each request still "releases" its planned
    transfers after the owning block executes, and the shared slot is freed
    only when the last planned user has released it — so GPU memory
    accounting matches a real batched runtime that refcounts expert pages.

    This is the round protocol the :class:`IterationSimulator` speaks
    (``register_plan`` / ``is_fetched`` / ``copy_op`` / ``fetch`` /
    ``release_keys`` / ``release`` / ``drain``);
    :class:`~repro.serving.prefetch.PrefetchRound` implements the same
    protocol on top of the shared residency map for the cached path.
    """

    def __init__(self) -> None:
        self._users: Dict[ExpertKey, int] = {}
        self._tags: Dict[ExpertKey, str] = {}
        self._copy_ops: Dict[ExpertKey, int] = {}

    # -- registration (before the round is simulated) -------------------
    def register_plan(self, placement: ModelPlacement, part: str,
                      plan: MigrationPlan, activations=None) -> None:
        for transfer in plan.transfers:
            key = (placement.global_block_index(part, transfer.block_index),
                   transfer.expert_id)
            self._users[key] = self._users.get(key, 0) + 1

    # -- queries during simulation --------------------------------------
    def is_fetched(self, key: ExpertKey) -> bool:
        return key in self._tags

    def copy_op(self, key: ExpertKey) -> Optional[int]:
        return self._copy_ops.get(key)

    def note_fetch(self, key: ExpertKey, tag: str, copy_op_id: int) -> None:
        self._tags[key] = tag
        self._copy_ops[key] = copy_op_id

    def fetch(self, placement: ModelPlacement, part: str, transfer,
              key: ExpertKey, copy_op_id: int) -> None:
        """Allocate the shared batch slot backing one issued migration."""
        tag = placement.allocate_shared_expert(
            part, transfer.block_index, transfer.expert_id)
        self.note_fetch(key, tag, copy_op_id)

    def release_keys(self, placement: ModelPlacement, part: str,
                     plan: MigrationPlan, activations, block: int) -> List[ExpertKey]:
        """Keys to release once ``block`` has executed: its planned transfers."""
        return [(placement.global_block_index(part, t.block_index), t.expert_id)
                for t in plan.transfers_for_block(block)]

    def release(self, placement: ModelPlacement, key: ExpertKey) -> None:
        remaining = self._users.get(key, 0) - 1
        if remaining > 0:
            self._users[key] = remaining
            return
        self._users.pop(key, None)
        self._copy_ops.pop(key, None)
        tag = self._tags.pop(key, None)
        if tag is not None:
            placement.free_expert(tag)

    def drain(self, placement: ModelPlacement) -> None:
        """Free any slots still held (abnormal termination safety net)."""
        for tag in self._tags.values():
            placement.free_expert(tag)
        self._users.clear()
        self._tags.clear()
        self._copy_ops.clear()


class BlockAnchors(NamedTuple):
    """Batch indices of one MoE block's ops, read back after the commit.

    They let the caller rebuild the block's
    :class:`~repro.serving.metrics.BlockLatencyRecord` from the committed
    op times: the block's latency runs from the end of its layer's
    attention op (``input_index``) to the end of ``end_index``; a device's
    exposed transfer time is how long its expert-execution op waited past
    the last compute op before execution (``ready_index``) or, on a remote
    device, past the token dispatch.
    """

    #: The layer's attention op: the block's input is ready at its end.
    input_index: int
    #: The last compute op emitted before expert execution.
    ready_index: int
    #: The all-to-all dispatch op, -1 if tokens stay on device 0.
    dispatch_index: int
    #: ``(device, index)`` of every expert-execution op, in device order.
    exec_indices: Sequence[Tuple[int, int]]
    #: The op that completes the block (execution, or the combine).
    end_index: int
    #: Experts the block executes (the members' union).
    num_active_experts: int


@dataclass
class EmittedPass:
    """Batch-relative anchors of one stack pass emitted as columns.

    Op *times* do not exist until the owning timeline commits the batch, so
    the emission returns indices into the batch — callers read
    ``starts[first_index]`` / ``ends[last_index]`` after the commit, for
    every member of the pass.
    """

    #: Index (within the batch) of the pass's first op, -1 if none emitted.
    first_index: int
    #: Index of the op whose end is the pass completion time.
    last_index: int
    #: Global op ids the request's next pass must depend on (trailing
    #: all-to-all combine; empty single-GPU and after a decoder iteration).
    carry_deps: List[int] = field(default_factory=list)
    #: One entry per MoE block, in block order.
    blocks: List[BlockAnchors] = field(default_factory=list)


class PassMember(NamedTuple):
    """One request's share of a (possibly batched) stack pass."""

    activations: IterationActivations
    query_tokens: int
    self_kv_tokens: int
    cross_kv_tokens: Optional[int] = None


def union_activations(members: Sequence[PassMember]) -> IterationActivations:
    """Per-block union of the members' active experts, first-seen order.

    One member's activations are returned as they are, so a one-member
    pass plans, fetches and releases exactly that request's experts.
    """
    if len(members) == 1:
        return members[0].activations
    num_blocks = max(len(m.activations) for m in members)
    union: IterationActivations = []
    for block in range(num_blocks):
        seen: Dict[int, None] = {}
        for member in members:
            if block < len(member.activations):
                for expert in member.activations[block]:
                    seen.setdefault(int(expert))
        union.append(list(seen))
    return union


class IterationSimulator:
    """Simulates single stack passes of one design on a shared timeline."""

    def __init__(self, config: ModelConfig, system: SystemSpec,
                 latency: GpuLatencyModel, design: str,
                 placement: ModelPlacement, activation_level: int = 1) -> None:
        self.config = config
        self.system = system
        self.latency = latency
        self.design = design
        self.placement = placement
        self.activation_level = activation_level
        self.topology = system.device_topology
        #: Whether MoE blocks split across devices (expert parallelism).
        self.multi_device = self.topology.num_devices > 1
        #: Bytes one token's activations occupy on the interconnect (fp16).
        self._token_bytes = config.d_model * 2
        #: Memoised migration plans keyed by (part, activations).  Only
        #: valid when the placement has no residency map / expert cache —
        #: plans then depend solely on the activations, so identical gating
        #: outcomes (ubiquitous in long decode-heavy loads) reuse one plan
        #: object instead of re-running the planner every round.
        self._plan_cache: Dict[Tuple, MigrationPlan] = {}
        #: Memoised op durations keyed by (kind, token counts).  The latency
        #: model is a pure function of these, so the emission path
        #: skips the roofline arithmetic for the (ubiquitous) repeated
        #: shapes of steady decode rounds.  Keys are bounded by the distinct
        #: token counts a workload produces.
        self._duration_cache: Dict[Tuple, float] = {}
        #: Memoised expert-stage durations keyed by the sorted per-expert
        #: token loads of a block (few distinct loads per workload: top-1
        #: decode loads are small integer counts).
        self._exec_cache: Dict[Tuple[float, ...], float] = {}

    @property
    def offloads_experts(self) -> bool:
        return self.design != "gpu_only"

    # ------------------------------------------------------------------
    # Memoised latency lookups
    # ------------------------------------------------------------------
    def _nonmoe_duration(self, part: str, query_tokens: int,
                         self_kv_tokens: int, cross_kv_tokens: int) -> float:
        key = ("nonmoe", part, query_tokens, self_kv_tokens, cross_kv_tokens)
        value = self._duration_cache.get(key)
        if value is None:
            if part == "encoder":
                value = self.latency.encoder_layer_nonmoe_time(
                    self.config, query_tokens)
            else:
                value = self.latency.decoder_layer_nonmoe_time(
                    self.config, query_tokens, self_kv_tokens, cross_kv_tokens)
            self._duration_cache[key] = value
        return value

    def _ffn_duration(self, query_tokens: int) -> float:
        key = ("ffn", query_tokens)
        value = self._duration_cache.get(key)
        if value is None:
            value = self._duration_cache[key] = self.latency.ffn_time(
                self.config, query_tokens)
        return value

    def _gate_duration(self, query_tokens: int) -> float:
        key = ("gate", query_tokens)
        value = self._duration_cache.get(key)
        if value is None:
            value = self._duration_cache[key] = self.latency.gate_time(
                self.config, query_tokens)
        return value

    def _lm_duration(self, query_tokens: int) -> float:
        key = ("lm_head", query_tokens)
        value = self._duration_cache.get(key)
        if value is None:
            value = self._duration_cache[key] = self.latency.lm_head_time(
                self.config, query_tokens)
        return value

    # ------------------------------------------------------------------
    # Migration planning
    # ------------------------------------------------------------------
    def make_plan(self, part: str, activations: IterationActivations) -> MigrationPlan:
        """The migration plan one stack pass over ``activations`` will follow.

        Deterministic given the placement's cache state, so a scheduler can
        pre-register a round's plans for transfer dedup before simulating it.
        Cache-free placements memoise the result by activation pattern (the
        planner's output then depends on nothing else); plans are treated as
        immutable by every consumer, so sharing one object across rounds is
        safe.
        """
        placement = self.placement
        memoizable = placement.residency is None and placement.cache is None
        key: Optional[Tuple] = None
        if memoizable:
            if self.design in ("gpu_only", "prefetch_all"):
                # These planners ignore *which* experts are activated — only
                # how many blocks the pass traverses.
                key = (part, len(activations))
            else:
                key = (part, tuple(tuple(block) for block in activations))
            cached = self._plan_cache.get(key)
            if cached is not None:
                return cached
        num_blocks = len(placement.moe_positions(part))
        resident = placement.cache_resident(part, num_blocks)
        plan = plan_for_design(
            self.design, activations, self.config.expert_bytes(), self.config.num_experts,
            activation_level=self.activation_level, resident=resident,
            source_tier=self.system.offload_tier)
        if key is not None:
            if len(self._plan_cache) >= 16384:
                self._plan_cache.clear()
            self._plan_cache[key] = plan
        return plan

    def _gates_evaluated_at(self, block: int,
                            schedule: Optional[PreGateSchedule]) -> int:
        """How many gate evaluations happen at MoE block ``block`` for this design."""
        if self.design == "pregated" and schedule is not None:
            gates = 0
            if block == 0:
                gates += schedule.num_first_gates()
            if schedule.has_pre_gate(block):
                gates += 1
            return gates
        # Conventional architectures evaluate exactly one gate per block.
        return 1

    # ------------------------------------------------------------------
    # Stack-pass emission
    # ------------------------------------------------------------------
    def pass_nonmoe_duration(self, part: str,
                             members: Sequence[PassMember]) -> float:
        """Duration of one layer's non-MoE op in a pass over ``members``."""
        if len(members) == 1:
            m = members[0]
            return self._nonmoe_duration(
                part, m.query_tokens, m.self_kv_tokens,
                m.cross_kv_tokens or m.self_kv_tokens)
        if part == "encoder":
            return self.latency.batched_encoder_layer_nonmoe_time(
                self.config, [m.query_tokens for m in members])
        return self.latency.batched_decoder_layer_nonmoe_time(
            self.config, [(m.query_tokens, m.self_kv_tokens,
                           m.cross_kv_tokens or m.self_kv_tokens)
                          for m in members])

    def _block_expert_load(self, members: Sequence[PassMember], block: int
                           ) -> Tuple[Dict[int, Dict[int, float]], float]:
        """Per-device token load of the members' union, plus all-to-all bytes.

        Every member spreads its query tokens evenly over the experts it
        activates on each device (the unbatched model's per-device share);
        an expert activated by several members sums their shares.  On
        expert-parallel replicas each member's token assignments to remote
        devices cross the interconnect: ``query_tokens * top_k`` tokens
        times the member's remote share of its active experts.
        """
        load: Dict[int, Dict[int, float]] = {}
        alltoall_bytes = 0.0
        owner = self.placement.owner_device if self.multi_device else None
        for member in members:
            acts = member.activations
            experts = acts[block] if block < len(acts) else ()
            if not experts:
                continue
            if owner is None:
                tokens = load.get(0)
                if tokens is None:
                    tokens = load[0] = {}
                share = member.query_tokens / len(experts)
                for expert in experts:
                    tokens[expert] = tokens.get(expert, 0.0) + share
                continue
            owners = [owner(int(expert)) for expert in experts]
            counts: Dict[int, int] = {}
            for device in owners:
                counts[device] = counts.get(device, 0) + 1
            remote = len(experts) - counts.get(0, 0)
            alltoall_bytes += (member.query_tokens * self.config.top_k
                               * (remote / len(experts)) * self._token_bytes)
            for expert, device in zip(experts, owners):
                tokens = load.get(device)
                if tokens is None:
                    tokens = load[device] = {}
                tokens[expert] = (tokens.get(expert, 0.0)
                                  + member.query_tokens / counts[device])
        return load, alltoall_bytes

    def _exec_duration(self, tokens: Collection[float]) -> float:
        """Expert stage over experts processing ``tokens`` tokens each."""
        key = tuple(sorted(tokens)) if len(tokens) > 1 else tuple(tokens)
        value = self._exec_cache.get(key)
        if value is None:
            if len(self._exec_cache) >= 16384:
                self._exec_cache.clear()
            groups: Dict[int, int] = {}
            for t in key:
                rounded = int(round(max(1.0, t)))
                groups[rounded] = groups.get(rounded, 0) + 1
            value = self._exec_cache[key] = (
                self.latency.grouped_expert_execution_time(
                    self.config, sorted(groups.items())))
        return value

    def emit_stack_pass(
        self,
        batch: OpBatch,
        part: str,
        iteration: Union[int, str],
        members: Sequence[PassMember],
        start_at: float = 0.0,
        batch_round: Optional[SharedExpertRound] = None,
        label: str = "",
        plan: Optional[MigrationPlan] = None,
        extra_deps: Optional[Sequence[int]] = None,
        activations: Optional[IterationActivations] = None,
    ) -> EmittedPass:
        """Emit one stack pass shared by ``members`` as columns into ``batch``.

        One op per layer step for the whole batch: the compute stream is
        FIFO, so consecutive layers serialise, while expert transfers land
        on the copy (and stage) lanes with explicit dependencies
        implementing each design's selection→migration→execution ordering.
        Non-MoE, FFN and gate ops run over the summed query tokens
        (attention sums each member's KV traffic); each MoE block fetches
        and executes the union of the members' active experts
        (``activations``, :func:`union_activations` by default), planned by
        one ``plan`` (:meth:`make_plan` of the union by default).

        ``start_at`` gates the pass's first op on the members' arrival;
        ``batch_round`` enables cross-request expert-transfer dedup (without
        one, the pass allocates and releases its own expert slots);
        ``extra_deps`` are op ids the first compute op must wait for (the
        same request's trailing combine from its previous pass on an
        expert-parallel replica).  Placement side effects (fetch routing,
        slot allocation, transfer stats) happen here; op times exist only
        once the owning timeline commits the batch, and
        :attr:`EmittedPass.blocks` locates each MoE block's ops in it.
        ``iteration`` and ``label`` only name ops (trace mode).
        """
        config = self.config
        placement = self.placement
        moe_positions = placement.moe_positions(part)
        num_layers = (config.num_encoder_layers if part == "encoder"
                      else config.num_decoder_layers)
        num_blocks = len(moe_positions)
        if activations is None:
            activations = union_activations(members)
        if plan is None:
            plan = self.make_plan(part, activations)
        transfers_by_issue = plan.by_issue_block()
        schedule = None
        if self.design == "pregated" and num_blocks > 0:
            schedule = PreGateSchedule(num_blocks=num_blocks,
                                       activation_level=self.activation_level)
        query_tokens = sum(m.query_tokens for m in members)
        gate_time = self._gate_duration(query_tokens)
        nonmoe = self.pass_nonmoe_duration(part, members)
        names = batch.record_names
        base_id = batch.base_id
        emitted = EmittedPass(first_index=-1, last_index=-1)
        transfer_ops_by_target: Dict[int, List[Tuple[int, int]]] = {}
        allocation_tags: Dict[int, List[str]] = {}
        last_compute_id = -1
        moe_block_cursor = 0
        carry_deps: List[int] = list(extra_deps or [])
        batch_add = batch.add

        def add_compute(name: Optional[str], duration: float,
                        deps: Sequence[int] = (),
                        category: int = CAT_COMPUTE) -> int:
            dep_list = list(deps)
            if carry_deps:
                dep_list.extend(carry_deps)
                carry_deps.clear()
            op_id = batch_add(
                _COMPUTE, duration, deps=dep_list, category=category,
                earliest_start=start_at if emitted.first_index < 0 else 0.0,
                name=name)
            if emitted.first_index < 0:
                emitted.first_index = op_id - base_id
            emitted.last_index = op_id - base_id
            return op_id

        for layer in range(num_layers):
            # --- non-MoE portion of the transformer block -------------
            last_compute_id = add_compute(
                f"{label}{part}{iteration}.layer{layer}.attention"
                if names else None, nonmoe, category=CAT_NON_MOE)

            if layer not in moe_positions:
                last_compute_id = add_compute(
                    f"{label}{part}{iteration}.layer{layer}.ffn"
                    if names else None, self._ffn_duration(query_tokens),
                    category=CAT_NON_MOE)
                continue

            # --- MoE block --------------------------------------------
            block = moe_block_cursor
            moe_block_cursor += 1
            input_index = last_compute_id - base_id
            activated = activations[block] if block < len(activations) else ()

            num_gates = self._gates_evaluated_at(block, schedule)
            if num_gates > 0:
                last_compute_id = add_compute(
                    f"{label}{part}{iteration}.moe{block}.gate"
                    if names else None, num_gates * gate_time,
                    category=CAT_GATE)

            issued = transfers_by_issue.get(block, [])
            if issued and self.offloads_experts:
                to_issue = []
                for transfer in issued:
                    key = (placement.global_block_index(part, transfer.block_index),
                           transfer.expert_id)
                    if batch_round is not None and batch_round.is_fetched(key):
                        dedup_op = batch_round.copy_op(key)
                        if dedup_op is not None:
                            transfer_ops_by_target.setdefault(
                                transfer.block_index, []).append(
                                    (dedup_op,
                                     placement.owner_device(transfer.expert_id)))
                        continue
                    to_issue.append((transfer, key))
                if to_issue:
                    sync_id = add_compute(
                        f"{label}{part}{iteration}.moe{block}.issue_transfers"
                        if names else None, self.system.host_sync_overhead,
                        category=CAT_SYNC)
                    last_compute_id = sync_id
                    for transfer, key in to_issue:
                        route = placement.route_fetch(key, transfer)
                        deps: List[int] = [sync_id]
                        if route.stage_duration > 0.0:
                            stage_id = batch_add(
                                _STAGE, route.stage_duration, deps=deps,
                                category=CAT_STAGE_IN, device=route.device,
                                num_bytes=transfer.bytes,
                                name=(f"{label}{part}{iteration}"
                                      f".moe{transfer.block_index}"
                                      f".stage_expert{transfer.expert_id}")
                                if names else None)
                            deps = [stage_id]
                        copy_id = batch_add(
                            _COPY, route.copy_duration, deps=deps,
                            category=CAT_EXPERT_TRANSFER, device=route.device,
                            num_bytes=transfer.bytes,
                            name=(f"{label}{part}{iteration}"
                                  f".moe{transfer.block_index}"
                                  f".fetch_expert{transfer.expert_id}")
                            if names else None)
                        transfer_ops_by_target.setdefault(
                            transfer.block_index, []).append(
                                (copy_id, route.device))
                        if batch_round is not None:
                            batch_round.fetch(placement, part, transfer, key,
                                              copy_id)
                        else:
                            tag = placement.allocate_expert(
                                part, transfer.block_index, transfer.expert_id)
                            allocation_tags.setdefault(
                                transfer.block_index, []).append(tag)

            load, alltoall_bytes = self._block_expert_load(members, block)
            block_transfer_ops = transfer_ops_by_target.get(block, [])
            ready_index = last_compute_id - base_id
            if not self.multi_device:
                tokens = (load[0].values() if load
                          else (float(query_tokens),))
                last_compute_id = add_compute(
                    f"{label}{part}{iteration}.moe{block}.experts"
                    if names else None, self._exec_duration(tokens),
                    deps=[op_id for op_id, _ in block_transfer_ops],
                    category=CAT_EXPERT_EXECUTION)
                end_index = last_compute_id - base_id
                dispatch_index, exec_indices = -1, ((0, end_index),)
            else:
                (end_index, device0_exec_id, dispatch_index,
                 exec_indices) = self._emit_sharded_block(
                    batch, part, iteration, block, load, alltoall_bytes,
                    query_tokens, block_transfer_ops, last_compute_id,
                    carry_deps, label)
                if device0_exec_id >= 0:
                    last_compute_id = device0_exec_id
                emitted.last_index = end_index
            emitted.blocks.append(BlockAnchors(
                input_index, ready_index, dispatch_index, exec_indices,
                end_index, len(activated)))

            if batch_round is not None:
                for key in batch_round.release_keys(placement, part, plan,
                                                    activations, block):
                    batch_round.release(placement, key)
            else:
                placement.release_block_experts(
                    part, block, allocation_tags.get(block, []), activated)

        emitted.carry_deps = list(carry_deps)
        return emitted

    def _emit_sharded_block(self, batch: OpBatch, part: str, iteration: Union[int, str],
                            block: int, load: Dict[int, Dict[int, float]],
                            alltoall_bytes: float, query_tokens: int,
                            block_transfer_ops: List[Tuple[int, int]],
                            last_compute_id: int, carry_deps: List[int],
                            label: str
                            ) -> Tuple[int, int, int, List[Tuple[int, int]]]:
        """Emit one MoE block across the devices owning its experts.

        Tokens are dispatched from device 0 (where the gate ran) to every
        remote device owning activated experts, each participating device
        executes its share of the union of active experts (``load``, from
        :meth:`_block_expert_load`, with the block's all-to-all bytes) on
        its own compute lane, and the results combine back — dispatch and
        combine are transfers on the interconnect stream, so they overlap
        with the expert fetches in flight on the copy lanes.  Appends the
        combine to ``carry_deps`` (the next compute op's cross-lane
        ordering).  Returns, as batch indices, the op completing the
        block, plus device 0's exec op id (-1 when device 0 executes
        nothing), the dispatch index (-1 if none) and ``(device, index)``
        of every exec op.
        """
        placement = self.placement
        base_id = batch.base_id
        names = batch.record_names
        base = f"{label}{part}{iteration}.moe{block}" if names else None
        # No activated expert recorded: the dispatch-overhead-only
        # evaluation runs on device 0, mirroring the single-GPU path.
        participating = load if load else {0: {}}
        leftover_deps = [op_id for op_id, dev in block_transfer_ops
                         if dev not in participating]

        dispatch_id = -1
        if alltoall_bytes > 0:
            dispatch_id = batch.add(
                _INTERCONNECT, self.topology.all_to_all_time(alltoall_bytes),
                deps=[last_compute_id] if last_compute_id >= 0 else [],
                category=CAT_ALLTOALL, num_bytes=alltoall_bytes,
                name=f"{base}.dispatch" if names else None)
            placement.record_alltoall(alltoall_bytes)

        exec_ids: List[int] = []
        exec_indices: List[Tuple[int, int]] = []
        device0_exec_id = -1
        for device in sorted(participating):
            tokens = participating[device]
            exec_time = self._exec_duration(
                tokens.values() if tokens else (float(query_tokens),))
            deps = [op_id for op_id, dev in block_transfer_ops if dev == device]
            if device != 0 and dispatch_id >= 0:
                deps.append(dispatch_id)
            if device == 0 and dispatch_id < 0:
                # Sole-device block: adopt the transfers of non-participating
                # shards too — execution waits for every one of the block's
                # transfers, as on a single GPU.
                deps.extend(leftover_deps)
                leftover_deps = []
            op_id = batch.add(_COMPUTE, exec_time, deps=deps,
                              category=CAT_EXPERT_EXECUTION, device=device,
                              name=f"{base}.experts" if names else None)
            exec_ids.append(op_id)
            exec_indices.append((device, op_id - base_id))
            if device == 0:
                device0_exec_id = op_id
        if dispatch_id < 0:
            return exec_ids[0] - base_id, device0_exec_id, -1, exec_indices
        combine_id = batch.add(
            _INTERCONNECT, self.topology.all_to_all_time(alltoall_bytes),
            deps=exec_ids + leftover_deps, category=CAT_ALLTOALL,
            num_bytes=alltoall_bytes, name=f"{base}.combine" if names else None)
        placement.record_alltoall(alltoall_bytes)
        carry_deps.append(combine_id)
        return (combine_id - base_id, device0_exec_id, dispatch_id - base_id,
                exec_indices)

    def emit_decoder_iteration(self, batch: OpBatch,
                               members: Sequence[PassMember],
                               iteration: Union[int, str] = 0,
                               start_at: float = 0.0,
                               batch_round: Optional[SharedExpertRound] = None,
                               label: str = "",
                               plan: Optional[MigrationPlan] = None,
                               extra_deps: Optional[Sequence[int]] = None,
                               activations: Optional[IterationActivations] = None,
                               ) -> EmittedPass:
        """One decoder iteration: the decoder stack pass plus one LM head.

        The LM head runs once over every member's query tokens, after any
        trailing combine of the final MoE block; its end is each member's
        token time.
        """
        emitted = self.emit_stack_pass(
            batch, "decoder", iteration, members, start_at=start_at,
            batch_round=batch_round, label=label, plan=plan,
            extra_deps=extra_deps, activations=activations)
        lm_id = batch.add(
            _COMPUTE, self._lm_duration(sum(m.query_tokens for m in members)),
            deps=emitted.carry_deps, category=CAT_NON_MOE,
            earliest_start=start_at if emitted.first_index < 0 else 0.0,
            name=f"{label}decoder{iteration}.lm_head"
            if batch.record_names else None)
        lm_index = lm_id - batch.base_id
        first = emitted.first_index if emitted.first_index >= 0 else lm_index
        return EmittedPass(first_index=first, last_index=lm_index,
                           blocks=emitted.blocks)

    def emit_encoder_pass(self, batch: OpBatch,
                          members: Sequence[PassMember],
                          start_at: float = 0.0,
                          batch_round: Optional[SharedExpertRound] = None,
                          label: str = "",
                          plan: Optional[MigrationPlan] = None,
                          extra_deps: Optional[Sequence[int]] = None,
                          activations: Optional[IterationActivations] = None,
                          ) -> EmittedPass:
        """The encoder pass, one pass over every member's prompt tokens."""
        return self.emit_stack_pass(
            batch, "encoder", 0, members, start_at=start_at,
            batch_round=batch_round, label=label, plan=plan,
            extra_deps=extra_deps, activations=activations)
