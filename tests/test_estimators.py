import numpy as np
import pytest

from cmlmkit.errors import ContractError, DimensionError
from cmlmkit.estimators import (LogisticProbe, PlanarProjector,
                                PrincipalComponentRemover, SentenceEncoder,
                                check_matrix)
from cmlmkit.synth import write_corpus


class TestParamProtocol:
    def test_get_params_reflects_constructor(self):
        enc = SentenceEncoder(hidden=32, stage1_steps=10, seed=3)
        params = enc.get_params()
        assert params["hidden"] == 32
        assert params["stage1_steps"] == 10
        assert params["seed"] == 3

    def test_set_params_round_trip(self):
        enc = SentenceEncoder()
        enc.set_params(hidden=16, n_projections=5)
        assert enc.hidden == 16
        assert enc.n_projections == 5

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ContractError):
            SentenceEncoder().set_params(hiden=16)

    def test_clone_style_reconstruction(self):
        probe = LogisticProbe(learning_rate=0.1, steps=50)
        rebuilt = LogisticProbe(**probe.get_params())
        assert rebuilt.get_params() == probe.get_params()


class TestCheckMatrix:
    def test_accepts_numeric(self):
        out = check_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ContractError):
            check_matrix([1, 2, 3])
        with pytest.raises(ContractError):
            check_matrix([[np.nan, 1.0]])
        with pytest.raises(ContractError):
            check_matrix([["a", "b"]])


@pytest.mark.parametrize("fitted,apply", [
    (lambda x: PrincipalComponentRemover().fit(x), lambda est, x: est.transform(x)),
    (lambda x: LogisticProbe(steps=5).fit(x, np.arange(len(x)) % 2),
     lambda est, x: est.predict(x)),
    (lambda x: PlanarProjector().fit(x), lambda est, x: est.transform(x)),
], ids=["pcr", "probe", "planar"])
def test_fitted_estimator_refuses_another_width(fitted, apply):
    rng = np.random.default_rng(8)
    est = fitted(rng.standard_normal((12, 5)))
    assert apply(est, rng.standard_normal((3, 5))).shape[0] == 3
    for width in (4, 6):
        with pytest.raises(DimensionError, match=f"{width} columns.*fitted on 5"):
            apply(est, rng.standard_normal((3, width)))


class TestSentenceEncoder:
    def test_fit_transform_on_documents(self):
        rng = np.random.default_rng(0)
        words = ["kani", "moro", "tesu", "vilo", "pagu", "zema"]
        docs = []
        for _ in range(40):
            s = " ".join(rng.choice(words, size=3))
            docs.append(("base", [s, s]))
        enc = SentenceEncoder(stage1_steps=25, hidden=16, layers=1, heads=2, ff=32,
                              max_len=16, n_projections=3, vocab_size=64,
                              batch_size=4, num_mask=2, warmup_steps=5,
                              dropout=0.0, seed=1)
        vectors = enc.fit_transform(docs)
        assert vectors.shape == (80, 16)
        same = enc.transform(["kani moro tesu"])
        again = enc.transform(["kani moro tesu"])
        np.testing.assert_array_equal(same, again)

    def test_fit_on_documents_equals_fit_on_their_corpus_file(self, tmp_path):
        docs = [("la", ["kani moro tesu", "vilo pagu"]), ["zema kani", "moro"],
                ("lb", ["tesu vilo", "pagu zema moro", "kani"])]
        settings = dict(stage1_steps=4, hidden=8, layers=1, heads=2, ff=16,
                        max_len=8, n_projections=2, vocab_size=48, batch_size=4,
                        num_mask=1, warmup_steps=1, seed=2)
        path = str(tmp_path / "corpus.txt")
        write_corpus([("base", d) if isinstance(d, list) else d for d in docs],
                     path)
        in_memory = SentenceEncoder(**settings).fit(docs)
        on_file = SentenceEncoder(**settings).fit(path)
        assert in_memory.vocab_.tokens == on_file.vocab_.tokens
        assert in_memory.params_.keys() == on_file.params_.keys()
        for name, param in in_memory.params_.items():
            assert param.data.tobytes() == on_file.params_[name].data.tobytes()

    def test_transform_before_fit_rejected(self):
        with pytest.raises(ContractError):
            SentenceEncoder().transform(["hello"])

    def test_unknown_representation_rejected(self):
        rng = np.random.default_rng(0)
        words = ["kani", "moro", "tesu", "vilo"]
        docs = [[" ".join(rng.choice(words, size=3))] * 2 for _ in range(8)]
        enc = SentenceEncoder(stage1_steps=2, hidden=8, layers=1, heads=2,
                              ff=16, max_len=8, n_projections=2, vocab_size=32,
                              batch_size=4, num_mask=1, warmup_steps=1,
                              representation="proj-means").fit(docs)
        with pytest.raises(ContractError, match="representation"):
            enc.transform(["kani moro tesu"])


class TestPrincipalComponentRemover:
    def test_fit_transform_matches_functional_path(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((30, 6))
        tags = ["a"] * 15 + ["b"] * 15
        est = PrincipalComponentRemover()
        got = est.fit_transform(x, tags)
        from cmlmkit.evaluation import EmbeddingSet, pcr_debias
        want = pcr_debias(EmbeddingSet(x, tags)).vectors
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_transform_after_fit_transform_reuses_fit(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((24, 5))
        tags = ["a"] * 12 + ["b"] * 12
        est = PrincipalComponentRemover()
        once = est.fit_transform(x, tags)
        np.testing.assert_array_equal(est.transform(x, tags), once)

    def test_learned_directions_reused(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((20, 4))
        est = PrincipalComponentRemover().fit(x, ["g"] * 20)
        fresh = rng.standard_normal((5, 4))
        out = est.transform(fresh, ["g"] * 5)
        direction = est.directions_["g"]
        np.testing.assert_allclose(out @ direction, 0.0, atol=1e-10)

    def test_unknown_tag_at_transform(self):
        est = PrincipalComponentRemover().fit(np.eye(3), ["g"] * 3)
        from cmlmkit.errors import DataError
        with pytest.raises(DataError):
            est.transform(np.eye(3), ["other"] * 3)


class TestLogisticProbe:
    def test_fit_predict_score(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((80, 5)) + 3
        b = rng.standard_normal((80, 5)) - 3
        x = np.concatenate([a, b])
        y = np.array(["pos"] * 80 + ["neg"] * 80)
        probe = LogisticProbe().fit(x, y)
        assert probe.score(x, y) >= 0.99
        assert set(probe.predict(x)) <= {"pos", "neg"}

    def test_single_class_rejected(self):
        with pytest.raises(ContractError):
            LogisticProbe().fit(np.eye(4), np.zeros(4))

    @pytest.mark.parametrize("y", [np.arange(7) % 2,
                                   (np.arange(10) % 2).reshape(10, 1)])
    def test_labels_must_be_one_per_row(self, y):
        x = np.random.default_rng(5).standard_normal((10, 3))
        with pytest.raises(ContractError, match="one label for each of the 10"):
            LogisticProbe(steps=5).fit(x, y)
        probe = LogisticProbe(steps=5).fit(x, np.arange(10) % 2)
        with pytest.raises(ContractError, match="one label for each of the 10"):
            probe.score(x, y)


class TestPlanarProjector:
    def test_round_trip_for_planar_data(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((25, 2))
        proj = PlanarProjector()
        coords = proj.fit_transform(x)
        d_in = np.linalg.norm(x[:, None] - x[None], axis=-1)
        d_out = np.linalg.norm(coords[:, None] - coords[None], axis=-1)
        np.testing.assert_allclose(d_out, d_in, atol=1e-9)

    def test_transform_unseen_rows(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 5)) @ np.diag([10, 5, 1, 0.5, 0.2])
        proj = PlanarProjector().fit(x)
        out = proj.transform(x[:4])
        assert out.shape == (4, 2)
