import numpy as np
import pytest

from cmlmkit import autodiff as ad
from cmlmkit.config import RunConfig
from cmlmkit.errors import ContractError, DataError, DimensionError
from cmlmkit.masking import make_batch, make_pairs
from cmlmkit.model import (EMBED_BATCH_SIZE, EncoderConfig, embed_sentence,
                           embed_texts, encode, encode_and_pool, init_params,
                           pool, project)
from cmlmkit.text import CLS, build_vocab, tokenize


def tiny_config(vocab_size=32, **overrides):
    defaults = dict(vocab_size=vocab_size, layers=2, heads=2, hidden=8, ff=16,
                    max_len=16, n_projections=3, dropout=0.0)
    defaults.update(overrides)
    return EncoderConfig(**defaults)


@pytest.fixture
def setup():
    vocab = build_vocab(["alpha beta gamma delta epsilon zeta"], target_size=32)
    config = tiny_config(vocab.size)
    params = init_params(config, np.random.default_rng(0))
    return vocab, config, params


class TestConfig:
    def test_desk_defaults(self):
        cfg = EncoderConfig(vocab_size=100)
        assert (cfg.layers, cfg.heads, cfg.hidden, cfg.ff) == (2, 4, 64, 128)
        assert (cfg.max_len, cfg.n_projections) == (64, 15)
        assert cfg.pooling == "mean"

    def test_head_divisibility_enforced(self):
        with pytest.raises(ContractError):
            EncoderConfig(vocab_size=100, hidden=10, heads=4)

    @pytest.mark.parametrize("field,value", [
        ("layers", 0), ("layers", -1), ("heads", 0), ("hidden", 0), ("ff", 0),
        ("max_len", 0), ("n_projections", 0), ("dropout", 1.0),
        ("dropout", -0.1),
    ])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ContractError, match=field):
            EncoderConfig(vocab_size=100, **{field: value})
        with pytest.raises(ContractError, match=field):
            RunConfig(**{field: value}).encoder_config()

    def test_round_trips_via_dict(self):
        cfg = EncoderConfig(vocab_size=77, layers=3, pooling="max")
        assert EncoderConfig(**cfg.to_dict()) == cfg


class TestEncode:
    def test_output_length_with_prefix(self, setup):
        _, config, params = setup
        ids = np.ones((2, 5), dtype=np.int64)
        mask = np.ones((2, 5), dtype=np.float32)
        prefix = ad.constant(np.zeros((2, config.n_projections, config.hidden),
                                      dtype=np.float32))
        out = encode(ids, mask, params, config, prefix=prefix)
        assert out.data.shape == (2, config.n_projections + 5, config.hidden)

    def test_output_length_without_prefix(self, setup):
        _, config, params = setup
        ids = np.ones((1, 10), dtype=np.int64)
        mask = np.ones((1, 10), dtype=np.float32)
        assert encode(ids, mask, params, config).data.shape == (1, 10, config.hidden)

    def test_paper_scale_prefix_arithmetic(self):
        # 15 projections ahead of a 32-token sentence give 47 positions
        config = tiny_config(vocab_size=40, n_projections=15, max_len=40)
        params = init_params(config, np.random.default_rng(1))
        ids = np.ones((1, 32), dtype=np.int64)
        mask = np.ones((1, 32), dtype=np.float32)
        prefix = ad.constant(np.zeros((1, 15, config.hidden), dtype=np.float32))
        assert encode(ids, mask, params, config, prefix=prefix).data.shape[1] == 47

    def test_too_long_sequence_rejected(self, setup):
        _, config, params = setup
        ids = np.ones((1, config.max_len + 1), dtype=np.int64)
        mask = np.ones_like(ids, dtype=np.float32)
        with pytest.raises(DimensionError):
            encode(ids, mask, params, config)

    def test_padding_does_not_leak_into_real_positions(self, setup):
        _, config, params = setup
        rng = np.random.default_rng(3)
        ids = rng.integers(5, config.vocab_size, size=(1, 6))
        mask = np.ones((1, 6), dtype=np.float32)
        out_short = encode(ids, mask, params, config).data

        padded_ids = np.concatenate([ids, np.zeros((1, 4), np.int64)], axis=1)
        padded_mask = np.concatenate([mask, np.zeros((1, 4), np.float32)], axis=1)
        out_padded = encode(padded_ids, padded_mask, params, config).data
        np.testing.assert_allclose(out_padded[:, :6], out_short, atol=1e-5)


class TestPool:
    def test_mean(self):
        seq = ad.constant(np.array([[[1.0, 3.0], [3.0, 1.0]]]))
        out = pool(seq, np.ones((1, 2)), "mean")
        np.testing.assert_allclose(out.data, [[2.0, 2.0]])

    def test_max(self):
        seq = ad.constant(np.array([[[1.0, 3.0], [3.0, 1.0]]]))
        out = pool(seq, np.ones((1, 2)), "max")
        np.testing.assert_allclose(out.data, [[3.0, 3.0]])

    def test_cls_reads_position_zero(self):
        seq = ad.constant(np.array([[[7.0, 8.0], [1.0, 2.0]]]))
        out = pool(seq, np.ones((1, 2)), "cls")
        np.testing.assert_allclose(out.data, [[7.0, 8.0]])

    def test_padding_rows_excluded_from_mean(self):
        seq = ad.constant(np.array([[[2.0, 2.0], [4.0, 4.0], [99.0, -99.0]]]))
        mask = np.array([[1.0, 1.0, 0.0]])
        out = pool(seq, mask, "mean")
        np.testing.assert_allclose(out.data, [[3.0, 3.0]])

    def test_fully_masked_rejected(self):
        seq = ad.constant(np.zeros((1, 2, 3)))
        with pytest.raises(ContractError):
            pool(seq, np.zeros((1, 2)), "mean")


class TestEncodeAndPool:
    def test_cls_pooling_reads_a_prepended_cls(self, setup):
        # a [CLS] column goes first and rows are cut back to max_len; the
        # pooled vector is the encoder output at that column
        vocab, _, params = setup
        config = tiny_config(vocab.size, pooling="cls", max_len=4)
        ids = np.array([[5, 6, 7, 8], [9, 10, 0, 0]])
        mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]], dtype=np.float32)
        got = encode_and_pool(ids, mask, params, config).data
        with_cls = np.array([[CLS, 5, 6, 7], [CLS, 9, 10, 0]])
        cls_mask = np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.float32)
        want = encode(with_cls, cls_mask, params, config).data[:, 0]
        np.testing.assert_array_equal(got, want)
        plain = encode(ids, mask, params, config).data[:, 0]
        assert not np.allclose(got, plain)

    def test_other_poolings_add_no_cls(self, setup):
        vocab, config, params = setup
        ids = np.array([[5, 6, 7], [9, 10, 0]])
        mask = np.array([[1, 1, 1], [1, 1, 0]], dtype=np.float32)
        for kind in ("mean", "max"):
            config = tiny_config(vocab.size, pooling=kind)
            got = encode_and_pool(ids, mask, params, config).data
            want = pool(encode(ids, mask, params, config), mask, kind).data
            np.testing.assert_array_equal(got, want)


class TestProject:
    def test_identity_only_when_n_is_one(self):
        config = tiny_config(vocab_size=32, n_projections=1)
        params = init_params(config, np.random.default_rng(0))
        v = ad.constant(np.random.default_rng(1).standard_normal((2, 8)).astype(np.float32))
        out = project(v, params, config)
        assert out.data.shape == (2, 1, 8)
        np.testing.assert_array_equal(out.data[:, 0], v.data)

    @pytest.mark.parametrize("n", [1, 5, 10, 15, 20])
    def test_view_zero_is_bitwise_identity(self, n):
        config = tiny_config(vocab_size=32, n_projections=n)
        params = init_params(config, np.random.default_rng(0))
        v = ad.constant(np.random.default_rng(2).standard_normal((3, 8)).astype(np.float32))
        out = project(v, params, config)
        assert out.data.shape == (3, n, 8)
        assert np.array_equal(out.data[:, 0], v.data)

    def test_zero_final_layer_gives_zero_views(self):
        config = tiny_config(vocab_size=32, n_projections=4)
        params = init_params(config, np.random.default_rng(0))
        params["proj.w3"].data = np.zeros_like(params["proj.w3"].data)
        params["proj.b3"].data = np.zeros_like(params["proj.b3"].data)
        v = ad.constant(np.ones((2, 8), dtype=np.float32))
        out = project(v, params, config)
        np.testing.assert_array_equal(out.data[:, 1:], 0.0)


class TestEmbedSentence:
    def test_pooled_equals_composition(self, setup):
        vocab, config, params = setup
        text = "alpha beta gamma"
        got = embed_sentence(text, params, config, vocab)
        ids = np.asarray([tokenize(text, vocab)])
        mask = np.ones_like(ids, dtype=np.float32)
        want = encode_and_pool(ids, mask, params, config).data[0]
        np.testing.assert_array_equal(got, want)

    def test_proj_mean_equals_pooled_when_n_is_one(self):
        vocab = build_vocab(["alpha beta gamma"], target_size=24)
        config = tiny_config(vocab.size, n_projections=1)
        params = init_params(config, np.random.default_rng(0))
        pooled = embed_sentence("alpha beta", params, config, vocab, "pooled")
        projm = embed_sentence("alpha beta", params, config, vocab, "proj_mean")
        np.testing.assert_allclose(projm, pooled, atol=1e-7)

    def test_deterministic_without_dropout(self, setup):
        vocab, config, params = setup
        a = embed_sentence("alpha beta", params, config, vocab)
        b = embed_sentence("alpha beta", params, config, vocab)
        np.testing.assert_array_equal(a, b)

    def test_empty_text_rejected(self, setup):
        vocab, config, params = setup
        with pytest.raises(DataError):
            embed_sentence("   ", params, config, vocab)

    @pytest.mark.parametrize("pooling", ["mean", "max", "cls"])
    def test_whitespace_text_rejected_under_every_pooling(self, setup, pooling):
        # [CLS] is not a token of the text, so it cannot make one embeddable
        vocab, _, params = setup
        config = tiny_config(vocab.size, pooling=pooling)
        with pytest.raises(DataError, match="tokenizes to nothing"):
            embed_texts(["alpha", " \t "], params, config, vocab)

    def test_empty_list_rejected(self, setup):
        vocab, config, params = setup
        with pytest.raises(DataError):
            embed_texts([], params, config, vocab)

    def test_batch_padding_matches_single(self, setup):
        vocab, config, params = setup
        texts = ["alpha", "alpha beta gamma delta epsilon"]
        batch = embed_texts(texts, params, config, vocab)
        single = embed_sentence(texts[0], params, config, vocab)
        np.testing.assert_allclose(batch[0], single, atol=1e-5)


class TestEmbedTextsLengthSorted:
    """``embed_texts`` batches in order of token count and scatters the rows
    back, so each row equals its text embedded alone, in input order."""

    @pytest.fixture(scope="class")
    def texts(self):
        words = "alpha beta gamma delta epsilon zeta".split()
        rng = np.random.default_rng(11)
        # more than two batches; lengths 1-24 words against max_len 16, so
        # some texts are cut, and equal lengths tie in the sort
        return [" ".join(rng.choice(words, size=rng.integers(1, 25)))
                for _ in range(2 * EMBED_BATCH_SIZE + 37)]

    @pytest.mark.parametrize("representation", ["pooled", "proj_mean"])
    @pytest.mark.parametrize("pooling", ["mean", "max", "cls"])
    def test_rows_equal_single_texts_in_input_order(self, texts, pooling,
                                                    representation):
        vocab = build_vocab(texts, target_size=32)
        config = tiny_config(vocab.size, pooling=pooling)
        params = init_params(config, np.random.default_rng(0))
        lengths = [len(tokenize(t, vocab)) for t in texts]
        assert max(lengths) > config.max_len and len(set(lengths)) > 10
        assert sorted(lengths) != lengths
        got = embed_texts(texts, params, config, vocab, representation)
        assert got.shape == (len(texts), config.hidden) and got.dtype == np.float32
        singles = np.stack([embed_sentence(t, params, config, vocab, representation)
                            for t in texts])
        np.testing.assert_allclose(got, singles, atol=1e-5)

        perm = np.random.default_rng(12).permutation(len(texts))
        permuted = embed_texts([texts[i] for i in perm], params, config, vocab,
                               representation)
        np.testing.assert_allclose(permuted, got[perm], atol=1e-5)


class TestSiameseAndGradients:
    def test_one_weight_set_serves_both_paths(self, setup):
        vocab, config, params = setup
        ids = np.ones((1, 4), dtype=np.int64)
        mask = np.ones((1, 4), dtype=np.float32)
        prefix = ad.constant(np.zeros((1, config.n_projections, config.hidden),
                                      dtype=np.float32))
        with ad.GradientTape() as tape:
            a = encode(ids, mask, params, config)
            b = encode(ids, mask, params, config, prefix=prefix)
            root = ad.add(ad.tsum(a), ad.tsum(b))
        grads = tape.gradients(root, params)
        # both passes read the very same tensors; their gradients accumulate
        assert grads["layer0.attn.wq"].any()
        assert params["tok_emb"] is params["tok_emb"]

    def test_gradient_reaches_projection_mlp(self, setup):
        vocab, config, params = setup
        rng = np.random.default_rng(5)
        pairs = make_pairs(["alpha beta gamma", "delta epsilon zeta"], vocab,
                           rng, max_len=8)
        batch = make_batch(pairs, vocab, num_mask=1, rng=rng)
        from cmlmkit.losses import cmlm_loss
        with ad.GradientTape() as tape:
            loss, _ = cmlm_loss(batch, params, config)
        grads = tape.gradients(loss, params)
        assert np.linalg.norm(grads["proj.w3"]) > 0
        assert np.linalg.norm(grads["proj.w1"]) > 0
