import csv
import xml.dom.minidom

import numpy as np
import pytest

from cmlmkit.errors import (ContractError, DataError, DegenerateInputError,
                            DimensionError, IntegrityError)
from cmlmkit.evaluation import (EmbeddingSet, cosine_similarity, export_2d,
                                language_bias_histogram, linear_probe,
                                load_embeddings, pcr_debias, project_2d,
                                retrieval_accuracy, save_embeddings,
                                spearman_correlation)


def offset_construction(seed=0, n=100, d=16, offset_scale=25.0):
    """Shared content vectors plus large opposite per-language offsets.

    Content rows carry heterogeneous norms so that, before removal, cosine
    ordering is dominated by norm effects rather than the twin signal.
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((n, d)) * rng.uniform(0.5, 2.0, size=(n, 1))
    offset = np.zeros(d)
    offset[0] = offset_scale
    vectors = np.concatenate([base + offset, base - offset], axis=0)
    languages = ["la"] * n + ["lb"] * n
    ids = [f"t{i}" for i in range(n)] * 2  # twins share text ids
    return EmbeddingSet(vectors.astype(np.float32), languages, ids), n


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity([1, 0], [0, 1]) == 0.0

    def test_scale_invariance(self):
        v = np.array([0.3, -1.2, 0.7])
        np.testing.assert_allclose(cosine_similarity(v, 3 * v), 1.0, rtol=1e-12)

    def test_forty_five_degrees(self):
        np.testing.assert_allclose(cosine_similarity([1, 1], [1, 0]),
                                   1 / np.sqrt(2), rtol=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            cosine_similarity([0, 0], [1, 0])


class TestRetrievalAccuracy:
    def test_identity(self):
        es = EmbeddingSet(np.eye(4, dtype=np.float32), ["x"] * 4)
        assert retrieval_accuracy(es, es, np.arange(4)) == 1.0

    def test_orthogonal_mismatch(self):
        es = EmbeddingSet(np.eye(3, dtype=np.float32), ["x"] * 3)
        assert retrieval_accuracy(es, es, np.roll(np.arange(3), 1)) == 0.0

    def test_hand_set_two_of_three(self):
        # cosines computed by hand: queries 0 and 1 retrieve their gold,
        # query 2 is closer to candidate 0 than to its gold candidate 2
        queries = EmbeddingSet(np.array(
            [[1, 0], [0, 1], [0.9, 0.1]], dtype=np.float32), ["q"] * 3)
        candidates = EmbeddingSet(np.array(
            [[1, 0], [0, 1], [0.5, 0.5]], dtype=np.float32), ["c"] * 3)
        got = retrieval_accuracy(queries, candidates, np.arange(3))
        np.testing.assert_allclose(got, 2 / 3)

    def test_scaling_a_row_never_changes_the_answer(self):
        rng = np.random.default_rng(4)
        q = EmbeddingSet(rng.standard_normal((6, 5)).astype(np.float32), ["x"] * 6)
        c = EmbeddingSet(rng.standard_normal((6, 5)).astype(np.float32), ["x"] * 6)
        gold = rng.integers(0, 6, size=6)
        base = retrieval_accuracy(q, c, gold)
        scaled = q.vectors.copy()
        scaled[2] *= 37.0
        q2 = EmbeddingSet(scaled, ["x"] * 6)
        assert retrieval_accuracy(q2, c, gold) == base

    def test_empty_candidates_rejected(self):
        with pytest.raises(DimensionError):
            EmbeddingSet(np.zeros((0, 3), dtype=np.float32), [])


class TestPcrDebias:
    def test_hand_projection(self):
        es = EmbeddingSet(np.array([[1, 0], [1, 0.1], [1, -0.1]],
                                   dtype=np.float32), ["x"] * 3)
        out = pcr_debias(es)
        np.testing.assert_allclose(out.vectors,
                                   [[0, 0], [0, 0.1], [0, -0.1]], atol=1e-6)

    def test_single_row_becomes_zero(self):
        es = EmbeddingSet(np.array([[3.0, 4.0]], dtype=np.float32), ["x"])
        out = pcr_debias(es)
        np.testing.assert_allclose(out.vectors, [[0.0, 0.0]], atol=1e-6)

    def test_zero_group_names_language(self):
        es = EmbeddingSet(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=np.float32),
                          ["dead", "alive"])
        with pytest.raises(DegenerateInputError, match="dead"):
            pcr_debias(es)

    def test_orthogonality_after_removal(self):
        rng = np.random.default_rng(5)
        es = EmbeddingSet(rng.standard_normal((40, 8)).astype(np.float32),
                          ["a"] * 20 + ["b"] * 20)
        out = pcr_debias(es)
        from cmlmkit.spectral import first_principal_direction
        for tag in ("a", "b"):
            rows = np.array([i for i, t in enumerate(es.languages) if t == tag])
            direction = first_principal_direction(es.vectors[rows])
            residual = out.vectors[rows].astype(np.float64) @ direction
            norms = np.linalg.norm(out.vectors[rows], axis=1)
            assert np.all(np.abs(residual) <= 1e-6 * np.maximum(norms, 1e-3))

    def test_offset_construction_recovers_twins(self):
        # brute-force nearest-neighbor oracle over the debiased rows
        es, n = offset_construction()
        before_q = EmbeddingSet(es.vectors[:n], ["la"] * n)
        before_c = EmbeddingSet(es.vectors[n:], ["lb"] * n)
        acc_before = retrieval_accuracy(before_q, before_c, np.arange(n))
        assert acc_before < 0.5

        debiased = pcr_debias(es)
        after_q = EmbeddingSet(debiased.vectors[:n], ["la"] * n)
        after_c = EmbeddingSet(debiased.vectors[n:], ["lb"] * n)
        acc_after = retrieval_accuracy(after_q, after_c, np.arange(n))
        assert acc_after >= 0.95

        hits = 0
        qn = after_q.vectors / np.linalg.norm(after_q.vectors, axis=1,
                                              keepdims=True)
        cn = after_c.vectors / np.linalg.norm(after_c.vectors, axis=1,
                                              keepdims=True)
        for i in range(n):
            sims = [float(qn[i] @ cn[j]) for j in range(n)]
            if int(np.argmax(sims)) == i:
                hits += 1
        assert hits / n == acc_after

    def test_removal_with_same_direction_is_idempotent(self):
        es, n = offset_construction(seed=3)
        from cmlmkit.spectral import first_principal_direction
        once = pcr_debias(es).vectors.astype(np.float64)
        tags = np.asarray(es.languages)
        for tag in ("la", "lb"):
            rows = np.where(tags == tag)[0]
            direction = first_principal_direction(es.vectors[rows])
            again = once[rows] - np.outer(once[rows] @ direction, direction)
            np.testing.assert_allclose(again, once[rows], atol=1e-5)


class TestBiasHistogram:
    def test_exact_duplicates_dominate(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((20, 6)).astype(np.float32)
        jitter = base + rng.standard_normal(base.shape).astype(np.float32) * 0.5
        pool = EmbeddingSet(np.concatenate([base * 1.00001, jitter]),
                            ["same"] * 20 + ["other"] * 20,
                            ids=[f"p{i}" for i in range(40)])
        queries = EmbeddingSet(base, ["same"] * 20,
                               ids=[f"q{i}" for i in range(20)])
        hist = language_bias_histogram(queries, pool, k=1)
        assert hist["same"] == 1.0

    def test_language_neutral_pool_is_uniform(self):
        rng = np.random.default_rng(7)
        base = rng.standard_normal((30, 5)).astype(np.float32)
        pool = EmbeddingSet(np.concatenate([base, base, base]),
                            ["a"] * 30 + ["b"] * 30 + ["c"] * 30,
                            ids=[f"t{i}" for i in range(30)] * 3)
        queries = EmbeddingSet(base, ["a"] * 30, ids=[f"t{i}" for i in range(30)])
        hist = language_bias_histogram(queries, pool, k=2)
        # the query row itself is excluded; its two twin copies tie first
        assert hist["b"] + hist["c"] >= 0.95

    def test_offset_construction_mass_shift(self):
        es, n = offset_construction(seed=8)
        before = language_bias_histogram(es, es, k=10)
        assert before["la"] > 0.45  # queries from both languages average to ~0.5+
        la_queries = EmbeddingSet(es.vectors[:n], ["la"] * n,
                                  ids=es.ids[:n])
        before_la = language_bias_histogram(la_queries, es, k=10)
        assert before_la["la"] > 0.9
        after = pcr_debias(es)
        after_la_queries = EmbeddingSet(after.vectors[:n], ["la"] * n,
                                        ids=after.ids[:n])
        after_hist = language_bias_histogram(after_la_queries, after, k=10)
        assert after_hist["la"] < 0.6

    def test_k_bounds(self):
        es, _ = offset_construction(seed=9, n=5)
        with pytest.raises(ContractError):
            language_bias_histogram(es, es, k=len(es))

    def test_query_left_with_fewer_than_k_rows(self):
        # the query's own (id, language) takes two of the three pool rows,
        # so k=2 would have to retrieve an excluded row
        pool = EmbeddingSet(np.eye(3, dtype=np.float32), ["a", "a", "b"],
                            ids=["s0", "s0", "s1"])
        queries = EmbeddingSet(np.eye(3, dtype=np.float32)[:1], ["a"],
                               ids=["s0"])
        assert language_bias_histogram(queries, pool, k=1) == {"a": 0.0,
                                                               "b": 1.0}
        with pytest.raises(ContractError, match="query 0 .* keeps 1 pool"):
            language_bias_histogram(queries, pool, k=2)


class TestLinearProbe:
    def test_separable_blobs(self):
        # perceptron oracle first: the blobs are separable
        rng = np.random.default_rng(10)
        a = rng.standard_normal((100, 4)) + np.array([4, 0, 0, 0])
        b = rng.standard_normal((100, 4)) - np.array([4, 0, 0, 0])
        x = np.concatenate([a, b]).astype(np.float32)
        y = np.array([0] * 100 + [1] * 100)

        w, bias, separable = np.zeros(4), 0.0, False
        for _ in range(100):
            mistakes = 0
            for xi, yi in zip(x, y):
                pred = 1 if xi @ w + bias > 0 else 0
                if pred != yi:
                    delta = 1 if yi == 1 else -1
                    w += delta * xi
                    bias += delta
                    mistakes += 1
            if mistakes == 0:
                separable = True
                break
        assert separable

        half = EmbeddingSet(x[::2], ["x"] * 100, labels=y[::2])
        other = EmbeddingSet(x[1::2], ["x"] * 100, labels=y[1::2])
        assert linear_probe(half, other) >= 0.99

    def test_shuffled_labels_fall_to_chance(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2000, 8)).astype(np.float32)
        y = rng.integers(0, 4, size=2000)
        train = EmbeddingSet(x[:1500], ["x"] * 1500, labels=y[:1500])
        test = EmbeddingSet(x[1500:], ["x"] * 500, labels=y[1500:])
        acc = linear_probe(train, test)
        sigma = np.sqrt(0.25 * 0.75 / 500)
        assert abs(acc - 0.25) < 3 * sigma + 0.02

    def test_train_equals_test_memorization(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((60, 6)).astype(np.float32)
        y = rng.integers(0, 3, size=60)
        es = EmbeddingSet(x, ["x"] * 60, labels=y)
        train_acc = linear_probe(es, es)
        assert linear_probe(es, es) >= train_acc  # converged model, same data

    def test_unseen_test_class_rejected(self):
        x = np.eye(4, dtype=np.float32)
        train = EmbeddingSet(x, ["x"] * 4, labels=np.array([0, 0, 1, 1]))
        test = EmbeddingSet(x, ["x"] * 4, labels=np.array([0, 1, 2, 2]))
        with pytest.raises(DataError):
            linear_probe(train, test)


class TestSpearman:
    def brute_force(self, a, b):
        # independent oracle: ranks by pairwise comparison counting
        def ranks(v):
            v = np.asarray(v, dtype=float)
            out = np.empty(len(v))
            for i in range(len(v)):
                less = np.sum(v < v[i])
                equal = np.sum(v == v[i]) - 1
                out[i] = 1 + less + equal / 2.0
            return out

        ra, rb = ranks(a), ranks(b)
        ra -= ra.mean()
        rb -= rb.mean()
        return float(ra @ rb / np.sqrt((ra @ ra) * (rb @ rb)))

    def test_identical_orderings(self):
        assert spearman_correlation([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed(self):
        assert spearman_correlation([1, 2, 3], [3, 2, 1]) == -1.0

    def test_hand_rank_example(self):
        np.testing.assert_allclose(spearman_correlation([1, 2, 3], [1, 3, 2]), 0.5)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 8, size=n).astype(float)  # force rich ties
            b = rng.standard_normal(n)
            if np.all(a == a[0]):
                continue
            got = spearman_correlation(a, b)
            want = self.brute_force(a, b)
            assert abs(got - want) < 1e-12

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(14)
        a = rng.standard_normal(50)
        b = rng.standard_normal(50)
        base = spearman_correlation(a, b)
        np.testing.assert_allclose(
            spearman_correlation(np.exp(a), b), base, atol=1e-12)
        np.testing.assert_allclose(
            spearman_correlation(a, 3 * b + 7), base, atol=1e-12)

    def test_constant_input_rejected(self):
        with pytest.raises(DegenerateInputError):
            spearman_correlation([1, 1, 1], [1, 2, 3])


class TestExport2d:
    def test_already_2d_preserves_distances(self, tmp_path):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((20, 2)).astype(np.float32)
        es = EmbeddingSet(x, ["a"] * 10 + ["b"] * 10)
        coords = export_2d(es, str(tmp_path / "c.csv"), str(tmp_path / "c.svg"))
        d_in = np.linalg.norm(x[:, None] - x[None, :], axis=-1)
        d_out = np.linalg.norm(coords[:, None] - coords[None, :], axis=-1)
        np.testing.assert_allclose(d_out, d_in, atol=1e-5)

    def test_collinear_data_rejected(self):
        line = np.outer(np.linspace(1, 5, 10), np.array([1.0, 2.0, 0.5]))
        es = EmbeddingSet(line.astype(np.float32), ["x"] * 10)
        with pytest.raises(DegenerateInputError):
            project_2d(es)

    def test_four_clusters_stay_separated(self, tmp_path):
        rng = np.random.default_rng(16)
        centers = rng.standard_normal((4, 10)) * 40
        rows, labels = [], []
        for c in range(4):
            rows.append(centers[c] + rng.standard_normal((25, 10)))
            labels += [c] * 25
        x = np.concatenate(rows).astype(np.float32)
        es = EmbeddingSet(x, [f"l{c}" for c in labels])
        coords = export_2d(es, str(tmp_path / "k.csv"), str(tmp_path / "k.svg"))
        centroids = np.stack([coords[np.array(labels) == c].mean(axis=0)
                              for c in range(4)])
        assigned = np.argmin(np.linalg.norm(
            coords[:, None] - centroids[None], axis=-1), axis=1)
        assert np.array_equal(assigned, np.array(labels))
        svg = (tmp_path / "k.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_csv_layout(self, tmp_path):
        es, _ = offset_construction(seed=17, n=3, d=4)
        export_2d(es, str(tmp_path / "o.csv"), str(tmp_path / "o.svg"))
        lines = (tmp_path / "o.csv").read_text().strip().splitlines()
        assert lines[0] == "id,lang,x,y"
        assert len(lines) == len(es) + 1
        assert lines[1].startswith("t0,la,")

    def test_ids_and_tags_with_delimiters_and_markup(self, tmp_path):
        ids = ["plain", "a,b", 'say "hi"', "<b>&amp;", 'x, "y", z']
        tags = ["l0", "x,y", 'q"t', "<l>", "a&b"]
        rng = np.random.default_rng(19)
        es = EmbeddingSet(rng.standard_normal((5, 4)).astype(np.float32),
                          tags, ids)
        csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
        coords = export_2d(es, str(csv_path), str(svg_path))
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "lang", "x", "y"]
        assert [tuple(row[:2]) for row in rows[1:]] == list(zip(ids, tags))
        np.testing.assert_allclose(
            [[float(x), float(y)] for _, _, x, y in rows[1:]], coords, rtol=1e-7)
        # a row without special characters is written as plain text
        plain = csv_path.read_text(encoding="utf-8").splitlines()[1]
        assert plain == f"plain,l0,{coords[0, 0]:.8g},{coords[0, 1]:.8g}"
        svg = xml.dom.minidom.parse(str(svg_path))
        legend = [node.firstChild.data
                  for node in svg.getElementsByTagName("text")]
        assert legend == sorted(tags)


class TestEmbeddingFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        es = EmbeddingSet(rng.standard_normal((7, 5)).astype(np.float32),
                          ["aa", "bb", "aa", "cc", "bb", "aa", "cc"])
        path = str(tmp_path / "e.emb")
        save_embeddings(es, path)
        loaded = load_embeddings(path)
        np.testing.assert_array_equal(loaded.vectors, es.vectors)
        assert loaded.languages == es.languages

    def test_ids_survive_reload(self, tmp_path):
        # queries 0-2 each have as nearest neighbour the pool row with their
        # row number and language; with ids dropped on save, that row would
        # read as the query itself and be excluded
        queries = EmbeddingSet(
            np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.float32),
            ["l0", "l1", "l0", "l1"], ids=["q0", "q1", "q2", "q3"])
        pool = EmbeddingSet(
            np.array([[1, 0.1], [0.1, 1], [-1, 0.1], [0.6, 0.8]],
                     dtype=np.float32),
            ["l0", "l1", "l0", "l1"], ids=["p0", "p1", "p2", "p3"])
        in_memory = language_bias_histogram(queries, pool, k=1)
        save_embeddings(queries, str(tmp_path / "q.emb"))
        save_embeddings(pool, str(tmp_path / "p.emb"))
        q2 = load_embeddings(str(tmp_path / "q.emb"))
        p2 = load_embeddings(str(tmp_path / "p.emb"))
        assert q2.ids == queries.ids and p2.ids == pool.ids
        assert language_bias_histogram(q2, p2, k=1) == in_memory

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.emb"
        path.write_bytes(b"NOTANEMB" + b"\x00" * 32)
        with pytest.raises(IntegrityError):
            load_embeddings(str(path))

    def test_truncation_detected(self, tmp_path):
        rng = np.random.default_rng(19)
        es = EmbeddingSet(rng.standard_normal((4, 3)).astype(np.float32),
                          ["a"] * 4)
        path = str(tmp_path / "t.emb")
        save_embeddings(es, path)
        blob = open(path, "rb").read()
        (tmp_path / "cut.emb").write_bytes(blob[:-5])
        with pytest.raises(IntegrityError, match="offset"):
            load_embeddings(str(tmp_path / "cut.emb"))
