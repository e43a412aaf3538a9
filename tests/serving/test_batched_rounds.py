"""Batched decode rounds: one shared stack pass per round.

Each scheduling round emits at most one encoder pass (over every
prefilling request) and one decoder pass (over every decoding request).
These tests pin what that buys and how it is observed:

* saturated throughput scales with the batch (memory-bound decode ops are
  nearly free to batch), and a one-request round costs what it always did;
* every decoding member's token lands at the shared LM head's end;
* ops per round do not grow with the batch beyond the extra fetches;
* ``mean_round_batch`` reports how many requests shared each decoder pass,
  in the result, the load report and the span export.
"""

import pytest

from repro.analysis import load_test_report
from repro.moe import get_config
from repro.serving import ReplicaCluster, make_scheduler
from repro.workloads import TimedRequest, TraceGenerator

CONFIG = get_config("switch_base_64")


def burst(n, output_length=24, seed=4, skew=1.2):
    gen = TraceGenerator(CONFIG, skew=skew, seed=seed)
    return [TimedRequest(request_id=i, arrival_time=0.0,
                         trace=gen.request_trace(8, output_length))
            for i in range(n)]


class TestBatchScaling:
    def test_saturated_throughput_scales_with_batch(self):
        """Throughput never falls as the batch grows; batch 8 at least doubles it."""
        requests = burst(16)
        throughput = {}
        for batch in (1, 2, 4, 8):
            result = make_scheduler("pregated", CONFIG,
                                    max_batch_size=batch).serve(requests)
            assert result.mean_round_batch == pytest.approx(batch)
            throughput[batch] = result.sustained_tokens_per_second
        rates = [throughput[b] for b in (1, 2, 4, 8)]
        assert rates == sorted(rates), throughput
        assert throughput[8] >= 2.0 * throughput[1], throughput

    def test_round_ops_do_not_scale_with_batch(self):
        """A batch-8 burst emits far fewer ops than eight solo requests."""
        requests = burst(8, seed=5)
        batched = make_scheduler("pregated", CONFIG, max_batch_size=8,
                                 round_replay=False).serve(requests)
        solo = make_scheduler("pregated", CONFIG, max_batch_size=1,
                              round_replay=False).serve(requests)
        assert batched.timeline_total_ops < 0.5 * solo.timeline_total_ops


class TestSharedPass:
    def test_decoding_members_share_the_lm_head(self):
        requests = burst(4)
        result = make_scheduler("pregated", CONFIG, max_batch_size=4).serve(requests)
        # Same-length requests admitted together decode in the same rounds,
        # so every token of every member lands on the same clock.
        first = result.requests[0].token_times
        for request in result.requests[1:]:
            assert request.token_times == first

    def test_prefill_and_decode_in_one_round(self):
        """A late arrival prefills in a pass of its own while others decode."""
        gen = TraceGenerator(CONFIG, skew=1.2, seed=6)
        requests = [TimedRequest(0, 0.0, gen.request_trace(8, 30)),
                    TimedRequest(1, 0.05, gen.request_trace(8, 10))]
        result = make_scheduler("pregated", CONFIG, max_batch_size=2,
                                round_replay=False).serve(requests)
        early, late = result.requests
        assert early.first_scheduled_time < late.first_scheduled_time
        # The late request's tokens coincide with tokens of the early one.
        assert set(late.token_times) <= set(early.token_times)
        assert 1.0 < result.mean_round_batch < 2.0

    def test_batch_one_reports_unit_round_batch(self):
        result = make_scheduler("pregated", CONFIG, max_batch_size=1).serve(burst(3))
        assert result.mean_round_batch == 1.0
        assert result.decode_rounds == 3 * 24


class TestObservability:
    def test_load_report_shows_round_batch(self):
        result = make_scheduler("pregated", CONFIG, max_batch_size=4).serve(burst(4))
        report = load_test_report([result])
        row = dict(zip(report.headers, report.rows[0]))
        assert row["mean_round_batch"] == pytest.approx(4.0)

    def test_fleet_round_batch_pools_replicas(self):
        """A merged fleet weighs each replica's rounds, not its mean."""
        cluster = ReplicaCluster("pregated", CONFIG, num_replicas=2,
                                 max_batch_size=4)
        result = cluster.serve(burst(6, output_length=8))
        replicas = result.replica_results
        combined = result.combined()
        assert combined.decode_rounds == sum(r.decode_rounds for r in replicas)
        assert combined.mean_round_batch == pytest.approx(
            sum(r.decode_round_members for r in replicas)
            / sum(r.decode_rounds for r in replicas))

    def test_spans_record_the_shared_pass(self):
        result = make_scheduler("pregated", CONFIG, max_batch_size=4,
                                span_log=True).serve(burst(4, output_length=6))
        decodes = [[s for s in tree.spans if s.category == "decode"]
                   for tree in result.spans]
        for spans in decodes:
            assert [s.attrs["round_batch"] for s in spans] == [4] * 6
        # Every member's decode span is the same shared pass.
        for spans in decodes[1:]:
            assert [(s.start, s.end) for s in spans] == \
                [(s.start, s.end) for s in decodes[0]]
