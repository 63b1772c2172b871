"""A float32 model computes in float32 end to end; float64 stays float64.

Every op output, every gradient a backward rule returns and every parameter
gradient handed to the optimizer is checked, for each stage kind, each CMLM
variant and each pooling, with dropout on so the dropout masks are covered.
"""

import os

import numpy as np
import pytest

from cmlmkit import autodiff as ad
from cmlmkit import training
from cmlmkit.model import (EncoderConfig, REPRESENTATIONS, embed_texts,
                           encode_and_pool, init_params)
from cmlmkit.synth import SynthSpec, generate
from cmlmkit.text import build_vocab
from cmlmkit.training import TrainPlan, run_plan


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    generate(str(out), seed=11,
             spec=SynthSpec(n_languages=2, words_per_language=12,
                            sentence_len=4, n_docs=60, n_bitext=40,
                            n_heldout=8, n_nli=30))
    return str(out)


@pytest.fixture
def dtypes_seen(monkeypatch):
    """Records the dtype of every op output, every gradient a backward rule
    returns and every parameter gradient the optimizer receives."""
    seen: dict[str, set] = {"ops": set(), "backward": set(), "param_grads": set()}
    real_apply, real_step = ad.apply_op, training.optimizer_step

    def apply_op(name, out_data, inputs, backward):
        seen["ops"].add((name, out_data.dtype))

        def checked_backward(g):
            grads = backward(g)
            seen["backward"].update((name, x.dtype) for x in grads if x is not None)
            return grads

        return real_apply(name, out_data, inputs, checked_backward)

    def optimizer_step(params, grads, state):
        seen["param_grads"].update((n, g.dtype) for n, g in grads.items())
        return real_step(params, grads, state)

    monkeypatch.setattr(ad, "apply_op", apply_op)
    monkeypatch.setattr(training, "optimizer_step", optimizer_step)
    return seen


def _train(data_dir, pooling="mean", **plan_overrides):
    config = EncoderConfig(vocab_size=64, layers=1, heads=2, hidden=16, ff=32,
                           max_len=16, n_projections=3, pooling=pooling,
                           dropout=0.1)
    plan = dict(strategy="s3", stage1_steps=1, stage2_steps=1, nli_steps=1,
                batch_size=4, num_mask=2, warmup_steps=1, seed=3,
                corpus_path=os.path.join(data_dir, "corpus.txt"),
                bitext_path=os.path.join(data_dir, "bitext.tsv"),
                nli_path=os.path.join(data_dir, "nli.tsv"))
    plan.update(plan_overrides)
    return run_plan(config, TrainPlan(**plan))


def _assert_all_float32(seen):
    assert seen["ops"] and seen["backward"] and seen["param_grads"]
    for kind, pairs in seen.items():
        wrong = sorted(f"{name}: {dtype}" for name, dtype in pairs
                       if dtype != np.float32)
        assert not wrong, f"{kind} not float32: {wrong}"


class TestFloat32Training:
    @pytest.mark.parametrize("strategy", ["s3", "s2"])
    def test_every_stage_kind(self, data_dir, dtypes_seen, strategy):
        # s3 + NLI runs cmlm, joint and nli steps; s2 + NLI runs br
        _, history, _ = _train(data_dir, strategy=strategy)
        assert {h["stage"] for h in history} >= \
            ({"cmlm", "joint", "nli"} if strategy == "s3" else {"br"})
        _assert_all_float32(dtypes_seen)

    @pytest.mark.parametrize("variant", ["standard", "skip", "unconditioned"])
    def test_every_cmlm_variant(self, data_dir, dtypes_seen, variant):
        _train(data_dir, strategy="cmlm_only", stage2_steps=0, nli_steps=0,
               variant=variant)
        _assert_all_float32(dtypes_seen)

    @pytest.mark.parametrize("pooling", ["mean", "max", "cls"])
    def test_every_pooling(self, data_dir, dtypes_seen, pooling):
        _train(data_dir, pooling=pooling)
        _assert_all_float32(dtypes_seen)

    def test_trained_parameters_stay_float32(self, data_dir):
        params, _, _ = _train(data_dir)
        assert {p.data.dtype for p in params.values()} == {np.dtype(np.float32)}


def _encoder(dtype):
    vocab = build_vocab(["alpha beta gamma delta epsilon zeta"], target_size=32)
    config = EncoderConfig(vocab_size=vocab.size, layers=1, heads=2, hidden=8,
                           ff=16, max_len=16, n_projections=3, dropout=0.0)
    return vocab, config, init_params(config, np.random.default_rng(0), dtype=dtype)


class TestEmbeddings:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_embed_texts_float32(self, dtypes_seen, representation):
        vocab, config, params = _encoder(np.float32)
        out = embed_texts(["alpha beta", "gamma delta epsilon"], params, config,
                          vocab, representation=representation)
        assert out.dtype == np.float32
        wrong = sorted(name for name, dtype in dtypes_seen["ops"]
                       if dtype != np.float32)
        assert dtypes_seen["ops"] and not wrong

    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_float64_params_give_float64(self, representation):
        vocab, config, params = _encoder(np.float64)
        out = embed_texts(["alpha beta", "gamma delta epsilon"], params, config,
                          vocab, representation=representation)
        assert out.dtype == np.float64

    def test_float64_gradients_stay_float64(self):
        _, config, params = _encoder(np.float64)
        ids = np.array([[6, 7, 8], [9, 10, 0]])
        mask = (ids != 0).astype(np.int64)
        with ad.GradientTape() as tape:
            loss = ad.tsum(encode_and_pool(ids, mask, params, config))
            grads = tape.gradients(loss, params)
        assert loss.dtype == np.float64
        assert {g.dtype for g in grads.values()} == {np.dtype(np.float64)}


class TestScalarOperands:
    EXPRESSIONS = {
        "t * 0.5": lambda t: t * 0.5,
        "0.5 * t": lambda t: 0.5 * t,
        "0.5 - t": lambda t: 0.5 - t,
        "t - 0.5": lambda t: t - 0.5,
        "t + 1": lambda t: t + 1,
        "t / 3.0": lambda t: t / 3.0,
        "float64(2) * t": lambda t: np.float64(2) * t,
        "mul(t, 0-d array)": lambda t: ad.mul(t, np.array(2.0)),
        "tmean(t)": lambda t: ad.tmean(t),
        "tmean(t, axis=1)": lambda t: ad.tmean(t, axis=1),
    }

    @pytest.mark.parametrize("expr", list(EXPRESSIONS.values()),
                             ids=list(EXPRESSIONS))
    def test_scalar_takes_tensor_dtype(self, expr):
        t = ad.Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        with ad.GradientTape() as tape:
            out = expr(t)
            grad = tape.grad(ad.tsum(out), t)
        assert out.dtype == np.float32
        assert grad.dtype == np.float32

    def test_scalar_value_is_kept(self):
        t = ad.Tensor(np.array([4.0], dtype=np.float32))
        np.testing.assert_array_equal((0.5 - t).data, [-3.5])
        np.testing.assert_array_equal((np.float64(0.25) * t).data, [1.0])

    def test_float64_tensor_with_scalar_stays_float64(self):
        t = ad.Tensor(np.ones(3, dtype=np.float64))
        assert (t * np.float32(0.5)).dtype == np.float64

    def test_arrays_keep_numpy_promotion(self):
        t = ad.Tensor(np.ones(3, dtype=np.float32))
        assert (t * np.full(3, 2.0)).dtype == np.float64
