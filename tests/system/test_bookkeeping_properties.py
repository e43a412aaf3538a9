"""Property tests: O(1) residency and pool bookkeeping equals a rescan.

:class:`~repro.system.residency.ExpertResidency` keeps a retained counter
and a per-block index, :class:`~repro.system.memory.MemoryPool` keeps
per-category byte totals, and victims come from a walk over the eviction
policy's own order.  Under random pin/release/evict traffic every one of
those must equal what a brute-force rescan of ``_entries`` /
``_allocations`` computes, and every victim must be the one the candidate
list scan (collect unpinned keys, ask the policy to pick among them) would
have chosen.
"""

from hypothesis import given, settings, strategies as st

from repro.system import ExpertCache, ExpertResidency, MemoryPool, OutOfMemoryError
from repro.system.cache import LFUPolicy, LIFOPolicy, LRUPolicy

EXPERT = 10
BLOCKS = 3
EXPERTS = 5
CATEGORIES = ("experts", "moe", "kv")


def list_scan_victim(policy, candidates):
    """The candidate-list victim choice, recomputed from policy state."""
    if isinstance(policy, LIFOPolicy):
        return next(k for k in reversed(list(policy._stack)) if k in candidates)
    if isinstance(policy, LRUPolicy):
        return next(k for k in policy._order if k in candidates)
    assert isinstance(policy, LFUPolicy)
    return min(candidates, key=lambda k: policy._counts.get(k, 0))


def spy_on_victims(owner, candidates_of):
    """Check every victim against :func:`list_scan_victim`; returns the log."""
    policy = owner.policy
    choose = policy.choose_victim
    victims = []

    def checked(*args):
        expected = list_scan_victim(policy, candidates_of())
        victim = choose(*args)
        assert victim == expected
        victims.append(victim)
        return victim

    policy.choose_victim = checked
    return victims


def pool_totals_match(pool):
    for category in CATEGORIES + ("staged_experts",):
        assert pool.category_usage(category) == sum(
            a.num_bytes for a in pool._allocations.values()
            if a.category == category)
        assert pool.category_peak(category) >= pool.category_usage(category)
    assert pool.in_use == sum(a.num_bytes for a in pool._allocations.values())


def residency_matches_rescan(res):
    entries = res._entries
    assert res.retained_count == sum(1 for e in entries.values() if e.pins == 0)
    assert res.pinned_count == sum(1 for e in entries.values() if e.pins > 0)
    for block in range(BLOCKS):
        assert res.resident_for_block(block) == [
            e for (b, e) in entries if b == block]
    assert res.retained_count <= res.capacity
    pool_totals_match(res.pool)


ops = st.lists(st.tuples(st.sampled_from(["pin", "pin", "release", "evict"]),
                         st.integers(0, BLOCKS - 1),
                         st.integers(0, EXPERTS - 1)),
               max_size=80)


@given(policy=st.sampled_from(["lifo", "lru", "lfu"]),
       capacity=st.sampled_from([0, 1, 3]), steps=ops)
@settings(max_examples=200, deadline=None)
def test_residency_bookkeeping_matches_rescan(policy, capacity, steps):
    # A six-expert pool: misses beyond the retained set force make-room
    # evictions, and a pinned set of seven overflows it.
    res = ExpertResidency(MemoryPool("gpu", 6 * EXPERT), EXPERT,
                          capacity_experts=capacity, policy=policy)
    victims = spy_on_victims(res, lambda: [
        k for k, e in res._entries.items() if e.pins == 0])
    for op, block, expert in steps:
        if op == "pin":
            try:
                res.pin((block, expert))
            except OutOfMemoryError:
                pass  # the pinned working set alone fills the pool
        elif op == "release":
            pinned = sorted(k for k, e in res._entries.items() if e.pins > 0)
            if pinned:
                res.release(pinned[(block * EXPERTS + expert) % len(pinned)])
        else:
            before = res.retained_count
            assert res.evict_unpinned() == before
        residency_matches_rescan(res)
    assert res.stats.evictions == len(victims)


@given(policy=st.sampled_from(["lifo", "lru", "lfu"]),
       capacity=st.sampled_from([1, 3]),
       steps=st.lists(st.tuples(st.sampled_from(["lookup", "insert"]),
                                st.integers(0, BLOCKS - 1),
                                st.integers(0, EXPERTS - 1)),
                      max_size=80))
@settings(max_examples=100, deadline=None)
def test_cache_victims_match_list_scan(policy, capacity, steps):
    cache = ExpertCache(capacity, policy)
    spy_on_victims(cache, lambda: list(cache._resident))
    for op, block, expert in steps:
        if op == "lookup":
            cache.lookup((block, expert))
        else:
            cache.insert((block, expert))
        assert len(cache) <= capacity


@given(steps=st.lists(st.tuples(st.sampled_from(["alloc", "alloc", "free",
                                                 "free_category", "reset_peak"]),
                                st.sampled_from(CATEGORIES),
                                st.integers(0, 40)),
                      max_size=80))
@settings(max_examples=200, deadline=None)
def test_pool_category_totals_match_rescan(steps):
    pool = MemoryPool("gpu", 400)
    serial = 0
    for op, category, size in steps:
        if op == "alloc":
            serial += 1
            try:
                pool.allocate(f"t{serial}", size, category=category)
            except OutOfMemoryError:
                pass
        elif op == "free":
            tags = sorted(pool._allocations)
            if tags:
                pool.free(tags[size % len(tags)])
        elif op == "free_category":
            expected = pool.category_usage(category)
            assert pool.free_category(category) == expected
        else:
            pool.reset_peak()
            for cat in CATEGORIES:
                assert pool.category_peak(cat) == pool.category_usage(cat)
        pool_totals_match(pool)
