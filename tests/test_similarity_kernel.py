"""The two-pass top-k similarity kernel behind retrieval and the bias histogram.

Each scorer is compared with a brute force that ranks one query at a time
with ``lexsort`` (score descending, then pool index ascending), over pools
split into several blocks by patching the module's byte budget. On
non-dyadic rows, where a matmul's summation order shows in the last bits,
the kernel is compared with a brute force over its own per-pair score.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmlmkit import evaluation
from cmlmkit.errors import ContractError
from cmlmkit.evaluation import (EmbeddingSet, in_batch_retrieval_accuracy,
                                language_bias_histogram, retrieval_accuracy)

# Small-integer rows whose norms are powers of two. Normalized, their entries
# are dyadic, so every cosine between them is exact whatever order a matmul
# sums in, and the many parallel rows give exact ties: the brute force and
# the blocked kernel then see the same float64 scores.
DYADIC_ROWS = np.array([v for v in itertools.product(range(-2, 3), repeat=4)
                        if sum(x * x for x in v) in (1, 4, 16)], dtype=np.float32)
TAGS = ("a", "b", "c")
IDS = ("s0", "s1", "s2")


def brute_force_top_k(queries, pool, k, excluded=lambda i: []):
    q = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    p = pool / np.linalg.norm(pool, axis=1, keepdims=True)
    order = np.arange(len(p))
    top = []
    for i in range(len(q)):
        sims = p @ q[i]
        sims[excluded(i)] = -np.inf
        top.append(np.lexsort((order, -sims))[:k])
    return np.array(top)


@st.composite
def eval_case(draw):
    n_pool = draw(st.integers(2, 24))
    n_queries = draw(st.integers(1, 12))
    row = st.integers(0, len(DYADIC_ROWS) - 1)
    pool = EmbeddingSet(
        DYADIC_ROWS[draw(st.lists(row, min_size=n_pool, max_size=n_pool))],
        draw(st.lists(st.sampled_from(TAGS), min_size=n_pool, max_size=n_pool)
             .filter(lambda tags: len(set(tags)) >= 2)),
        draw(st.lists(st.sampled_from(IDS), min_size=n_pool, max_size=n_pool)))
    queries = EmbeddingSet(
        DYADIC_ROWS[draw(st.lists(row, min_size=n_queries, max_size=n_queries))],
        draw(st.lists(st.sampled_from(TAGS), min_size=n_queries,
                      max_size=n_queries)),
        draw(st.lists(st.sampled_from(IDS), min_size=n_queries,
                      max_size=n_queries)))
    k = draw(st.one_of(st.just(n_pool - 1), st.integers(1, n_pool - 1)))
    block_rows = draw(st.integers(1, n_queries + 1))
    return queries, pool, k, block_rows * 8 * n_pool


@settings(max_examples=300, deadline=None)
@given(eval_case())
def test_histogram_matches_brute_force(case):
    queries, pool, k, budget = case
    keys = list(zip(pool.ids, pool.languages))
    excluded = [[j for j, key in enumerate(keys)
                 if key == (queries.ids[i], queries.languages[i])]
                for i in range(len(queries))]
    short = [i for i, rows in enumerate(excluded) if len(pool) - len(rows) < k]
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", budget):
        if short:
            # fewer than k rows are left to retrieve for that query
            with pytest.raises(ContractError, match=f"^query {short[0]} "):
                language_bias_histogram(queries, pool, k=k)
            return
        hist = language_bias_histogram(queries, pool, k=k)
    top = brute_force_top_k(queries.vectors, pool.vectors, k,
                            excluded.__getitem__)
    want = {tag: sum(pool.languages[j] == tag for j in top.ravel()) / top.size
            for tag in pool.tag_set}
    assert hist == want


@settings(max_examples=300, deadline=None)
@given(eval_case(), st.randoms(use_true_random=False))
def test_retrieval_matches_brute_force(case, random):
    queries, pool, _, budget = case
    gold = np.array([random.randrange(len(pool)) for _ in range(len(queries))])
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", budget):
        accuracy = retrieval_accuracy(queries, pool, gold)
    best = brute_force_top_k(queries.vectors, pool.vectors, 1)[:, 0]
    assert accuracy == float(np.mean(best == gold))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 16).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
             min_size=n, max_size=n),
    st.lists(st.lists(st.integers(-2, 2), min_size=3, max_size=3),
             min_size=n, max_size=n),
    st.integers(1, n + 1))))
def test_in_batch_retrieval_matches_first_maximum(case):
    # raw inner products of small integers: exact, with many ties
    source, target, block_rows = (np.array(case[0], dtype=np.float32),
                                  np.array(case[1], dtype=np.float32), case[2])
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES",
                           block_rows * 8 * len(target)):
        got = in_batch_retrieval_accuracy(source, target)
    t = target.astype(np.float64)
    hits = [np.lexsort((np.arange(len(t)), -(t @ s)))[0] == i
            for i, s in enumerate(source.astype(np.float64))]
    assert got == float(np.mean(hits))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 12).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.integers(-2, 2), min_size=4, max_size=4),
             min_size=2 * n, max_size=2 * n),
    st.lists(st.sampled_from([0.0, 2.0 ** -100, 1.0, 2.0 ** 100]),
             min_size=2 * n, max_size=2 * n))))
def test_in_batch_retrieval_at_extreme_magnitudes(case):
    # raw rows of norm 0, ~1e-30, ~1 and ~1e30: their float32 screen copies
    # underflow and span 60 decades, yet every inner product is exact
    rows = np.array(case[0], dtype=np.float32) * np.array(
        case[1], dtype=np.float32)[:, None]
    source, target = np.split(rows, 2)
    got = in_batch_retrieval_accuracy(source, target)
    t = target.astype(np.float64)
    hits = [np.lexsort((np.arange(len(t)), -(t @ s)))[0] == i
            for i, s in enumerate(source.astype(np.float64))]
    assert got == float(np.mean(hits))


def test_histogram_memory_is_bounded_by_the_block_budget():
    budget = 4 * 2 ** 20
    rng = np.random.default_rng(0)
    n_pool, n_queries, dim = 8192, 512, 8
    pool = EmbeddingSet(rng.standard_normal((n_pool, dim)).astype(np.float32),
                        [TAGS[i % 3] for i in range(n_pool)],
                        [f"s{i // 3}" for i in range(n_pool)])
    queries = EmbeddingSet(pool.vectors[:n_queries], pool.languages[:n_queries],
                           pool.ids[:n_queries])
    full_matrix = 8 * n_pool * n_queries
    inputs = 8 * dim * (n_pool + n_queries)  # the float64 normalized rows
    assert full_matrix >= 8 * budget
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", budget):
        tracemalloc.start()
        try:
            language_bias_histogram(queries, pool, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2 * budget + 2 * inputs + 2 ** 20, peak


def pair_brute_force(queries, pool, k, excluded=lambda i: []):
    """Top k of each query by the kernel's own float64 per-pair score."""
    order = np.arange(len(pool))
    top = []
    for i in range(len(queries)):
        sims = evaluation._pair_scores(queries, pool, np.full(len(pool), i),
                                       order)
        sims[excluded(i)] = -np.inf
        top.append(np.lexsort((order, -sims))[:k])
    return np.array(top)


@st.composite
def float_case(draw):
    """Non-dyadic float32 rows, pools up to three screen groups deep, and
    random exclusions that leave every query at least k pool rows."""
    dim = draw(st.sampled_from([3, 7, 64]))
    n_pool = draw(st.integers(2, 3 * evaluation.SCREEN_GROUPS))
    n_queries = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    queries = rng.standard_normal((n_queries, dim)).astype(np.float32)
    pool = rng.standard_normal((n_pool, dim)).astype(np.float32)
    if draw(st.booleans()):
        # copies of three rows: exact ties across groups and levels
        pool = pool[rng.integers(0, min(3, n_pool), n_pool)]
    drop = rng.random((n_queries, n_pool)) < draw(st.sampled_from([0, 0.3]))
    drop[np.arange(n_queries), rng.integers(0, n_pool, n_queries)] = False
    left = int(n_pool - drop.sum(axis=1).max())
    # k = left reaches past the screen's 256 groups on the deeper pools
    k = draw(st.one_of(st.integers(1, min(12, left)), st.just(left)))
    return queries.astype(np.float64), pool.astype(np.float64), k, drop


def block_budgets(n_pool):
    """Budgets for blocks of one row (with one-survivor chunks), three rows
    and whole sets, and the default budget."""
    groups = min(evaluation.SCREEN_GROUPS, n_pool)
    width = -(-n_pool // groups) * groups
    return [1, 3 * 8 * width, 2 ** 20, evaluation.SCORE_BLOCK_BYTES]


def assert_invariant_top_k(queries, pool, k, drop):
    """_top_k equals the per-pair brute force under every budget, for the
    whole query set and for each query scored alone."""
    want = pair_brute_force(queries, pool, k, drop.__getitem__)
    for budget in block_budgets(len(pool)):
        with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", budget):
            got = evaluation._top_k(queries, pool, k, np.nonzero(drop))
            alone = [evaluation._top_k(queries[i:i + 1], pool, k,
                                       np.nonzero(drop[i:i + 1]))[0]
                     for i in range(len(queries))]
        assert np.array_equal(got, want), budget
        assert np.array_equal(np.array(alone), want), budget


@settings(max_examples=150, deadline=None)
@given(float_case())
def test_top_k_is_block_and_subset_invariant(case):
    assert_invariant_top_k(*case)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([3, 7, 64]), st.integers(0, 2 ** 32 - 1),
       st.sampled_from([1e-9, -1e-9]), st.integers(1, 3))
def test_float32_indistinguishable_near_tie(dim, seed, delta, k):
    # two pool rows whose float32 screen copies coincide, but whose float64
    # scores differ: only the re-ranking can order them
    rng = np.random.default_rng(seed)
    n_pool = 300
    pool = rng.standard_normal((n_pool, dim))
    pool *= 0.5 / np.linalg.norm(pool, axis=1, keepdims=True)
    lower, upper = np.sort(rng.choice(n_pool, size=2, replace=False))
    pool[lower] = pool[upper] = np.eye(dim)[0]
    pool[upper, 0] += delta
    largest = np.linalg.norm(pool, axis=1).max()
    assert np.float32(pool[lower, 0] / largest) == np.float32(
        pool[upper, 0] / largest)
    queries = np.eye(dim)[:1] + 0.1 * rng.standard_normal((4, dim)) / dim
    queries[:, 0] = np.abs(queries[:, 0])
    drop = np.zeros((len(queries), n_pool), dtype=bool)
    better, worse = (upper, lower) if delta > 0 else (lower, upper)
    assert np.all(pair_brute_force(queries, pool, 2) == [better, worse])
    assert_invariant_top_k(queries, pool, k, drop)


def test_histogram_memory_is_bounded_when_every_score_ties():
    # three distinct vectors: the screen prunes nothing, so thousands of
    # survivors per query must be re-ranked in budget-sized chunks
    budget = 4 * 2 ** 20
    rng = np.random.default_rng(0)
    n_pool, n_queries, dim = 8192, 512, 8
    distinct = rng.standard_normal((3, dim)).astype(np.float32)
    pool = EmbeddingSet(distinct[rng.integers(0, 3, n_pool)],
                        [TAGS[i % 3] for i in range(n_pool)],
                        [f"s{i // 3}" for i in range(n_pool)])
    queries = EmbeddingSet(pool.vectors[:n_queries], pool.languages[:n_queries],
                           pool.ids[:n_queries])
    inputs = 8 * dim * (n_pool + n_queries)  # the float64 normalized rows
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", budget):
        tracemalloc.start()
        try:
            language_bias_histogram(queries, pool, k=10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 2 * budget + 2 * inputs + 2 ** 20, peak
