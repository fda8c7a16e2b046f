"""Seeded property tests for the two load-bearing composition contracts.

Plain stdlib ``random`` drives the generation (no new dependencies); every
trial is wrapped so a failure names its seed — rerun with that seed to
reproduce exactly.

1. **Pairs-kernel batch-composition invariance** — the docstring promise
   of :func:`~repro.stats.batch.exact_coverage_failure_probability_pairs`
   that every element's value is a pure function of its own
   ``(n, p, epsilon, sigmas, slack)``: fuse a random batch, split it at
   random boundaries, permute it — bit-identical results however the
   surrounding batch is composed, for the fused kernel and the reference
   loop alike.  This is the property the parallel planning executor
   stands on when it shards sweeps across processes.  The fused kernel
   is also bit-identical to the reference loop it replaced.

2. **Cache-manifest merge algebra** — :func:`repro.stats.cache.merge_manifest`
   must be idempotent (a cache's own export folds back in as a no-op)
   and commutative at the contents level (random worker manifests merged
   in any interleaving converge on identical entries).

3. **Tight-size witnesses are certified, not trusted** — the search's own
   answer always passes :func:`~repro.stats.tight_bounds.certify_sample_size`,
   and a tampered witness in a warm manifest is either rejected or never
   consulted: the plan a restore derives is bit-identical to a cold
   search whatever the manifest claims.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

import repro.stats.cache as cache_mod
from repro.stats.batch import exact_coverage_failure_probability_pairs
from repro.core.estimators.api import SampleSizeEstimator, tight_size_witnesses
from repro.stats.cache import (
    MANIFEST_FORMAT,
    LRUCache,
    all_cache_info,
    clear_all_caches,
    export_manifest,
    merge_manifest,
    register_cache,
    warm_after_restore,
)
from repro.stats.tight_bounds import certify_sample_size

TRIAL_SEEDS = range(10)


def _seeded(trial, seed: int) -> None:
    """Run ``trial(rng)``; on failure, re-raise with the seed attached."""
    try:
        trial(random.Random(seed))
    except AssertionError as err:
        raise AssertionError(f"[reproduce with seed={seed}] {err}") from err


# ---------------------------------------------------------------------------
# 1. Pairs-kernel batch-composition invariance
# ---------------------------------------------------------------------------


def _random_triples(rng: random.Random, size: int, *, large: float = 0.0):
    """Random ``(n, p, eps)``; a ``large`` share of rows has n in 1e4..6e4."""
    ns, ps, epss = [], [], []
    for _ in range(size):
        if large and rng.random() < large:
            ns.append(rng.randrange(10_000, 60_000))  # bandwidth-bound rows
        else:
            ns.append(rng.randrange(1, 2000))
        roll = rng.random()
        if roll < 0.05:
            ps.append(0.0)  # boundary: probability mass collapses to zero
        elif roll < 0.10:
            ps.append(1.0)
        else:
            ps.append(rng.random())
        epss.append(rng.uniform(1e-4, 0.5))
    return np.asarray(ns), np.asarray(ps), np.asarray(epss)


def _random_window(rng: random.Random):
    """Either the default window or a random-but-shared (sigmas, slack)."""
    if rng.random() < 0.5:
        return {}
    return {
        "window_sigmas": rng.uniform(3.0, 10.0),
        "window_slack": rng.randrange(1, 8),
    }


def _random_partition(rng: random.Random, size: int) -> list[slice]:
    cuts = sorted(rng.sample(range(1, size), k=min(rng.randrange(1, 6), size - 1)))
    bounds = [0, *cuts, size]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


# impl=None is the production fused kernel; "reference" is its oracle.
IMPLS = pytest.mark.parametrize("impl", [None, "reference"], ids=["fused", "reference"])


@IMPLS
def test_pairs_kernel_is_invariant_under_batch_splits(impl):
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        ns, ps, epss = _random_triples(rng, size)
        window = {**_random_window(rng), "impl": impl}
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss, **window)
        pieces = [
            exact_coverage_failure_probability_pairs(
                ns[part], ps[part], epss[part], **window
            )
            for part in _random_partition(rng, size)
        ]
        chunked = np.concatenate(pieces)
        assert np.array_equal(fused, chunked), (
            f"split changed {np.sum(fused != chunked)} of {size} elements "
            f"(max delta {np.max(np.abs(fused - chunked)):.3e}, window={window})"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


@IMPLS
def test_pairs_kernel_is_invariant_under_permutation(impl):
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        ns, ps, epss = _random_triples(rng, size)
        window = {**_random_window(rng), "impl": impl}
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss, **window)
        order = list(range(size))
        rng.shuffle(order)
        idx = np.asarray(order)
        shuffled = exact_coverage_failure_probability_pairs(
            ns[idx], ps[idx], epss[idx], **window
        )
        unshuffled = np.empty_like(shuffled)
        unshuffled[idx] = shuffled
        assert np.array_equal(fused, unshuffled), (
            f"permutation changed {np.sum(fused != unshuffled)} of {size} elements"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_pairs_kernel_singletons_match_fused_batch():
    """The extreme split: every element alone equals its fused value."""

    def trial(rng: random.Random) -> None:
        size = rng.randrange(4, 16)
        ns, ps, epss = _random_triples(rng, size)
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss)
        for i in range(size):
            alone = exact_coverage_failure_probability_pairs(
                ns[i : i + 1], ps[i : i + 1], epss[i : i + 1]
            )
            assert alone[0] == fused[i], (
                f"element {i} (n={ns[i]}, p={ps[i]:.6f}, eps={epss[i]:.6f}): "
                f"alone={alone[0]!r} fused={fused[i]!r}"
            )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_fused_float64_is_bit_identical_to_reference():
    def trial(rng: random.Random) -> None:
        size = rng.randrange(8, 64)
        ns, ps, epss = _random_triples(rng, size, large=0.25)
        fused = exact_coverage_failure_probability_pairs(ns, ps, epss)
        reference = exact_coverage_failure_probability_pairs(
            ns, ps, epss, impl="reference"
        )
        assert np.array_equal(fused, reference), (
            f"fused diverged on {np.sum(fused != reference)} of {size} elements "
            f"(max delta {np.max(np.abs(fused - reference)):.3e})"
        )

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


# ---------------------------------------------------------------------------
# 2. Cache-manifest merge algebra
# ---------------------------------------------------------------------------

_TEMP_PREFIX = "tests.properties."


def _with_temp_caches(count: int):
    names = [f"{_TEMP_PREFIX}cache{i}" for i in range(count)]
    caches = {name: register_cache(name, LRUCache(maxsize=256)) for name in names}
    return names, caches


def _drop_temp_caches(names) -> None:
    with cache_mod._REGISTRY_LOCK:
        for name in names:
            cache_mod._REGISTRY.pop(name, None)


def _random_worker_manifest(rng: random.Random, names) -> dict:
    """A plausible worker export: per-cache entry lists, overlapping keys."""
    payload = {}
    for name in names:
        entries = []
        for _ in range(rng.randrange(0, 12)):
            key = (rng.randrange(40), rng.choice("abc"))
            if rng.random() < 0.8:
                value = round(rng.uniform(0.0, 1.0), 6)
            else:
                value = [rng.randrange(10)] * rng.randrange(1, 4)
            entries.append((key, value))
        payload[name] = entries
    return {"format": MANIFEST_FORMAT, "caches": payload}


def _contents(caches) -> dict:
    return {name: dict(cache.items()) for name, cache in caches.items()}


def test_manifest_merge_is_commutative_under_random_interleavings():
    def trial(rng: random.Random) -> None:
        names, caches = _with_temp_caches(3)
        try:
            manifests = [
                _random_worker_manifest(rng, names)
                for _ in range(rng.randrange(2, 6))
            ]
            for manifest in manifests:
                merge_manifest(manifest)
            forward = _contents(caches)

            for cache in caches.values():
                cache.clear()
            shuffled = list(manifests)
            rng.shuffle(shuffled)
            for manifest in shuffled:
                merge_manifest(manifest)
            assert _contents(caches) == forward, (
                f"{len(manifests)} worker manifests merged in two orders "
                "left different registry contents"
            )
        finally:
            _drop_temp_caches(names)

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_manifest_merge_is_idempotent():
    def trial(rng: random.Random) -> None:
        names, caches = _with_temp_caches(2)
        try:
            for manifest in (
                _random_worker_manifest(rng, names),
                _random_worker_manifest(rng, names),
            ):
                merge_manifest(manifest)
            before = _contents(caches)
            stats_before = {name: caches[name].info() for name in names}

            exported = export_manifest()
            merge_manifest(exported)
            merge_manifest(exported)  # twice: still a no-op

            assert _contents(caches) == before, "self-merge changed entries"
            assert {name: caches[name].info() for name in names} == stats_before, (
                "self-merge disturbed hit/miss statistics"
            )
        finally:
            _drop_temp_caches(names)

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)


def test_full_registry_manifest_self_merge_is_a_no_op():
    """The real registry (plan cache, layout/table codecs) obeys the law too."""
    # Warm the kernel-layer caches with real work first.
    exact_coverage_failure_probability_pairs(
        np.asarray([50, 200, 1000]),
        np.asarray([0.3, 0.5, 0.9]),
        np.asarray([0.05, 0.02, 0.01]),
    )
    exported = export_manifest()
    before = all_cache_info()
    merge_manifest(exported)
    assert all_cache_info() == before


# ---------------------------------------------------------------------------
# 3. Tight-size witness certification
# ---------------------------------------------------------------------------


def _plan_bits(plan) -> list:
    """Every float a plan's consumers read, as ``float.hex``."""
    return [plan.delta.hex()] + [
        (p.samples.hex(), p.delta.hex(), tuple(t.samples.hex() for t in p.terms))
        for p in plan.clause_plans
    ]


def _tight_counts() -> tuple[int, int, int]:
    info = all_cache_info()
    searches = info["stats.tight_bounds.tight_sample_size"]
    return info["stats.tight_bounds.exceeds_delta"].misses, searches.hits, searches.misses


def test_tampered_witnesses_are_rejected_or_never_consulted():
    def trial(rng: random.Random) -> None:
        request = {
            "condition": f"n > 0.5 +/- {round(rng.uniform(0.04, 0.12), 4)}",
            "delta": 10 ** rng.uniform(-4.0, -1.5),
            "adaptivity": rng.choice(["none", "firstChange"]),
            "steps": rng.randrange(1, 9),
            "known_variance_bound": None,
            "estimator": SampleSizeEstimator(use_exact_binomial=True).export_config(),
        }

        def restored_plan():
            return SampleSizeEstimator.from_config(request["estimator"]).plan(
                request["condition"],
                delta=request["delta"],
                adaptivity=request["adaptivity"],
                steps=request["steps"],
            )

        clear_all_caches()
        cold = restored_plan()
        ((epsilon, delta, n),) = tight_size_witnesses(cold)

        # The search's own answer always passes, with exactly two probes;
        # a memoized key is never probed again.
        clear_all_caches()
        assert certify_sample_size(epsilon, delta, n)
        assert _tight_counts() == (2, 0, 0)
        assert certify_sample_size(epsilon, delta, n)
        assert _tight_counts() == (2, 0, 0)

        clear_all_caches()
        warm_after_restore({"plans": [dict(request, tight_sizes=[[epsilon, delta, n]])]})
        assert _plan_bits(restored_plan()) == _plan_bits(cold)
        assert _tight_counts() == (2, 1, 0)

        tampered = [
            [epsilon, delta, n + 1],
            [epsilon, delta, n - 1],
            [epsilon * (1.0 + rng.uniform(0.01, 0.3)), delta, n],
            [epsilon, delta * rng.uniform(0.1, 0.9), n],
            [epsilon, delta, 0],
            [epsilon, delta, -rng.randrange(1, 10_000)],
            [epsilon, delta, float(n)],
            [epsilon, delta, str(n)],
            [epsilon, delta, True],
        ]
        for witness in tampered:
            clear_all_caches()
            warm_after_restore({"plans": [dict(request, tight_sizes=[witness])]})
            assert _plan_bits(restored_plan()) == _plan_bits(cold), witness
            # The plan's own key missed: a full search ran, so the
            # tampered witness answered nothing.
            assert _tight_counts()[1:] == (0, 1), witness

    for seed in TRIAL_SEEDS:
        _seeded(trial, seed)
