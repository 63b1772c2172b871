"""The blocked top-k similarity kernel behind retrieval and the bias histogram.

Each scorer is compared with a brute force that ranks one query at a time
with ``lexsort`` (score descending, then pool index ascending), over pools
split into several blocks by patching the module's byte budget.
"""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from cmlmkit import evaluation
from cmlmkit.evaluation import (EmbeddingSet, language_bias_histogram,
                                retrieval_accuracy)
from cmlmkit.losses import in_batch_retrieval_accuracy

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
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", budget):
        hist = language_bias_histogram(queries, pool, k=k)
    keys = list(zip(pool.ids, pool.languages))
    top = brute_force_top_k(
        queries.vectors, pool.vectors, k,
        lambda i: [j for j, key in enumerate(keys)
                   if key == (queries.ids[i], queries.languages[i])])
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
