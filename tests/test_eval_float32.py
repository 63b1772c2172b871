"""The eval kit scores from its callers' arrays, without float64 copies.

Retrieval, the bias histogram and PCR must give bit for bit what they gave
when they first made float64 copies of whole sets: unit rows from
``np.linalg.norm`` for the two scorers, and a float64 copy of the set for
PCR. The references below keep that float64 path. A ``tracemalloc`` bound
then checks that no scorer holds a float64 copy of the pool.
"""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmlmkit import evaluation
from cmlmkit.estimators import PrincipalComponentRemover
from cmlmkit.evaluation import (EmbeddingSet, in_batch_retrieval_accuracy,
                                language_bias_histogram, pcr_debias,
                                retrieval_accuracy)

LANGS = ("a", "b", "c")


def unit_rows64(matrix):
    """Float64 unit rows of a whole matrix, as the eval kit once made them."""
    m = np.asarray(matrix, dtype=np.float64)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def reference_top_k(queries, pool, k, exclude=None):
    return evaluation._top_k(unit_rows64(queries.vectors),
                             unit_rows64(pool.vectors), k, exclude)


def reference_histogram(queries, pool, k):
    keys = list(zip(pool.ids, pool.languages))
    drop = np.array([[key == (qid, lang) for key in keys]
                     for qid, lang in zip(queries.ids, queries.languages)])
    top = reference_top_k(queries, pool, k, np.nonzero(drop))
    return {tag: int(np.sum(np.array(pool.languages)[top] == tag)) / top.size
            for tag in pool.tag_set}


def reference_pcr(vectors, tags):
    """PCR on a float64 copy of the whole set."""
    out = vectors.astype(np.float64)
    tags = np.asarray(tags)
    directions = evaluation._directions_per_tag(vectors, tags)
    for tag in sorted(set(tags.tolist())):
        rows = tags == tag
        group = out[rows]
        out[rows] = group - np.outer(group @ directions[tag], directions[tag])
    return out


@st.composite
def float32_sets(draw):
    """Float32 query and pool sets of non-dyadic rows with norms spread
    over 2^-40..2^40, copies of three rows (exact ties), and (id, language)
    keys shared between the sets, so the histogram excludes pool rows."""
    dim = draw(st.sampled_from([3, 7, 64]))
    n_pool = draw(st.integers(4, 2 * evaluation.SCREEN_GROUPS + 9))
    n_queries = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    rows = rng.standard_normal((n_pool + n_queries, dim))
    rows *= 2.0 ** rng.integers(-40, 41, (len(rows), 1))
    if draw(st.booleans()):
        rows = rows[rng.integers(0, 3, len(rows))]
    rows = rows.astype(np.float32)
    # each language tags a third of the pool
    langs = [LANGS[i % 3] for i in rng.permutation(n_pool)]
    langs += [LANGS[i] for i in rng.integers(0, 3, n_queries)]
    ids = [f"s{i}" for i in rng.integers(0, 4, n_pool + n_queries)]
    pool = EmbeddingSet(rows[:n_pool], langs[:n_pool], ids[:n_pool])
    queries = EmbeddingSet(rows[n_pool:], langs[n_pool:], ids[n_pool:])
    k = draw(st.integers(1, min(12, n_pool // 4)))
    budget = draw(st.sampled_from([1, 2 ** 16, 2 ** 20,
                                   evaluation.SCORE_BLOCK_BYTES]))
    return queries, pool, k, budget


@settings(max_examples=150, deadline=None)
@given(float32_sets())
def test_scorers_equal_the_float64_unit_row_path(case):
    queries, pool, k, budget = case
    n = min(len(queries), len(pool))
    source, target = queries.vectors[:n], pool.vectors[:n]
    gold = np.arange(len(queries)) % len(pool)
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", budget):
        accuracy = retrieval_accuracy(queries, pool, gold)
        hist = language_bias_histogram(queries, pool, k=k)
        in_batch = in_batch_retrieval_accuracy(source, target)
        want_top = reference_top_k(queries, pool, 1)[:, 0]
        want_hist = reference_histogram(queries, pool, k)
        want_in_batch = evaluation._top_k(source.astype(np.float64),
                                          target.astype(np.float64), 1)[:, 0]
    assert accuracy == float(np.mean(want_top == gold))
    assert hist == want_hist
    assert in_batch == float(np.mean(want_in_batch == np.arange(n)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pcr_equals_the_float64_copy_path(dtype):
    rng = np.random.default_rng(11)
    vectors = (rng.standard_normal((3000, 16)) + 0.5).astype(dtype)
    tags = [LANGS[i] for i in rng.integers(0, 3, len(vectors))]
    want = reference_pcr(vectors, tags)
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", 2 ** 16):
        out = pcr_debias(EmbeddingSet(vectors, tags)).vectors
    assert out.dtype == dtype
    assert out.tobytes() == want.astype(dtype).tobytes()
    # the estimator keeps its float64 output, for any input dtype
    removed = PrincipalComponentRemover().fit_transform(vectors, tags)
    assert removed.dtype == np.float64
    assert removed.tobytes() == want.tobytes()


def peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_scorer_holds_a_float64_copy_of_the_pool():
    budget = 2 ** 20
    rng = np.random.default_rng(0)
    n_pool, n_queries, dim = 40_000, 2_000, 64
    pool = EmbeddingSet(rng.standard_normal((n_pool, dim)).astype(np.float32),
                        [LANGS[i % 3] for i in range(n_pool)],
                        [f"s{i // 3}" for i in range(n_pool)])
    queries = EmbeddingSet(pool.vectors[:n_queries], pool.languages[:n_queries],
                           pool.ids[:n_queries])
    with mock.patch.object(evaluation, "SCORE_BLOCK_BYTES", budget):
        peaks = {
            "histogram": peak_bytes(
                lambda: language_bias_histogram(queries, pool, k=10)),
            "retrieval": peak_bytes(lambda: retrieval_accuracy(
                queries, pool, np.arange(n_queries))),
            "in-batch": peak_bytes(lambda: in_batch_retrieval_accuracy(
                queries.vectors, pool.vectors)),
            "pcr": peak_bytes(lambda: pcr_debias(pool)),
        }
    # the float32 screen copies (the pool's padded to whole screen groups)
    # and the row norms; a float64 copy of the pool alone is 8 * dim * n_pool
    screen = (4 * dim * (n_pool + evaluation.SCREEN_GROUPS + n_queries)
              + 8 * (n_pool + n_queries))
    for name in ("histogram", "retrieval", "in-batch"):
        assert peaks[name] < screen + 2 * budget, (name, peaks[name])
    # PCR's output in the pool's dtype, plus one language's rows in float64
    largest_group = -(-n_pool // len(LANGS))
    assert peaks["pcr"] < 4 * dim * n_pool + 8 * dim * largest_group + 2 * budget
