import numpy as np
import pytest

from cmlmkit import autodiff as ad, losses
from cmlmkit.errors import ContractError
from cmlmkit.evaluation import in_batch_retrieval_accuracy
from cmlmkit.losses import (BitextBatch, NLIBatch, bitext_loss,
                            bitext_loss_from_scores, cmlm_loss, combined_loss,
                            nli_features, nli_loss)
from cmlmkit.masking import MaskedPairBatch, make_batch, make_pairs
from cmlmkit.model import (EncoderConfig, encode, encode_and_pool,
                           init_params, project)
from cmlmkit.text import build_vocab


def make_setup(n_projections=3, seed=0):
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    vocab = build_vocab([words], target_size=64)
    config = EncoderConfig(vocab_size=vocab.size, layers=2, heads=2, hidden=8,
                           ff=16, max_len=16, n_projections=n_projections,
                           dropout=0.0)
    params = init_params(config, np.random.default_rng(seed))
    return vocab, config, params


def ragged_setup(pooling):
    """A float64 model and a batch whose budget of 4 masks clamps the short
    sentences, so its examples mask 1 to 4 positions."""
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    vocab = build_vocab([words], target_size=64)
    config = EncoderConfig(vocab_size=vocab.size, layers=2, heads=2,
                           hidden=8, ff=16, max_len=6, n_projections=3,
                           pooling=pooling, dropout=0.0)
    params = init_params(config, np.random.default_rng(9), dtype=np.float64)
    rng = np.random.default_rng(10)
    sentences = ["alpha", "beta gamma delta epsilon zeta eta theta",
                 "iota kappa", "alpha beta gamma", "delta"]
    batch = make_batch(make_pairs(sentences, vocab, rng, max_len=6), vocab,
                       num_mask=4, rng=rng)
    assert len(set(np.bincount(batch.mask_rows).tolist())) > 1
    return config, params, batch


def full_sequence_cmlm_loss(batch, params, config, variant):
    """The CMLM loss read off the full ``encode`` output at the masked rows
    ``mask_rows * (N + L2) + N + mask_cols``."""
    b, n, d = batch.batch_size, config.n_projections, config.hidden
    if variant == "unconditioned":
        prefix = ad.constant(np.zeros((b, n, d), dtype=params["tok_emb"].dtype))
    else:
        prefix = project(encode_and_pool(batch.s1_ids, batch.s1_mask, params,
                                         config), params, config)
    seq = encode(batch.s2_ids, batch.s2_mask, params, config, prefix=prefix)
    flat_rows = batch.mask_rows * seq.data.shape[1] + n + batch.mask_cols
    hidden = ad.gather_rows(ad.reshape(seq, (-1, d)), flat_rows)
    if variant == "skip":
        per_position = ad.gather_rows(ad.tmean(prefix, axis=1), batch.mask_rows)
        hidden = ad.linear(ad.concat([hidden, per_position], axis=1),
                           params["skip.w"], params["skip.b"])
    logits = ad.linear(hidden, ad.transpose(params["tok_emb"], (1, 0)),
                       params["mlm_bias"])
    picked = ad.take_per_row(ad.log_softmax(logits), batch.mask_labels)
    return ad.neg(ad.tmean(picked))


class TestCmlmLoss:
    def test_uniform_logits_give_log_vocab(self):
        # force logits identical across a 2-token vocabulary: loss = ln 2
        vocab, config, params = make_setup()
        rng = np.random.default_rng(1)
        pairs = make_pairs(["alpha beta", "gamma delta"], vocab, rng, max_len=8)
        batch = make_batch(pairs, vocab, num_mask=1, rng=rng)
        params["tok_emb"].data = np.zeros_like(params["tok_emb"].data)
        params["mlm_bias"].data = np.zeros_like(params["mlm_bias"].data)
        loss, _ = cmlm_loss(batch, params, config)
        np.testing.assert_allclose(loss.item(), np.log(config.vocab_size),
                                   rtol=1e-6)

    def test_chance_level_accuracy_with_random_init(self):
        vocab, config, params = make_setup(seed=3)
        rng = np.random.default_rng(2)
        words = ["alpha", "beta", "gamma", "delta", "epsilon"]
        sentences = [" ".join(rng.choice(words, size=4)) for _ in range(400)]
        pairs = make_pairs(sentences, vocab, rng, max_len=8)
        batch = make_batch(pairs, vocab, num_mask=2, rng=rng)
        _, acc = cmlm_loss(batch, params, config)
        v = vocab.size
        sigma = np.sqrt((1 / v) * (1 - 1 / v) / batch.mask_labels.size)
        assert abs(acc - 1 / v) < 6 * sigma + 0.01

    def test_zeroed_prefix_equals_unconditioned(self, monkeypatch):
        vocab, config, params = make_setup()
        rng = np.random.default_rng(4)
        pairs = make_pairs(["alpha beta gamma", "delta epsilon zeta"], vocab,
                           rng, max_len=8)
        batch = make_batch(pairs, vocab, num_mask=2, rng=rng)
        zeros = ad.constant(np.zeros(
            (batch.batch_size, config.n_projections, config.hidden),
            dtype=np.float32))
        monkeypatch.setattr(losses, "project", lambda v, params, config: zeros)
        loss_override, acc_override = cmlm_loss(batch, params, config,
                                                variant="standard")
        monkeypatch.undo()
        loss_uncond, acc_uncond = cmlm_loss(batch, params, config,
                                            variant="unconditioned")
        assert loss_override.item() == loss_uncond.item()
        assert acc_override == acc_uncond

    def test_skip_variant_runs_and_differs(self):
        vocab, config, params = make_setup()
        rng = np.random.default_rng(5)
        pairs = make_pairs(["alpha beta gamma", "delta epsilon zeta"], vocab,
                           rng, max_len=8)
        batch = make_batch(pairs, vocab, num_mask=2, rng=rng)
        loss_std, _ = cmlm_loss(batch, params, config, variant="standard")
        loss_skip, _ = cmlm_loss(batch, params, config, variant="skip")
        assert loss_skip.item() != loss_std.item()
        assert np.isfinite(loss_skip.item())

    def test_no_masked_positions_rejected(self):
        vocab, config, params = make_setup()
        rng = np.random.default_rng(6)
        pairs = make_pairs(["alpha beta", "gamma delta"], vocab, rng, max_len=8)
        batch = make_batch(pairs, vocab, num_mask=1, rng=rng)
        batch.mask_rows = np.array([], dtype=np.int64)
        batch.mask_cols = np.array([], dtype=np.int64)
        batch.mask_labels = np.array([], dtype=np.int64)
        with pytest.raises(ContractError):
            cmlm_loss(batch, params, config)

    @pytest.mark.parametrize("pooling", ["mean", "max", "cls"])
    @pytest.mark.parametrize("variant", ["standard", "skip", "unconditioned"])
    def test_ragged_batch_is_the_count_weighted_mean_of_its_examples(
            self, variant, pooling):
        # float64, so padding and the flat mask layout must agree with
        # single-example batches to rounding
        config, params, batch = ragged_setup(pooling)
        counts = np.bincount(batch.mask_rows, minlength=batch.batch_size)

        singles = []
        for i in range(batch.batch_size):
            n1, n2 = int(batch.s1_mask[i].sum()), int(batch.s2_mask[i].sum())
            own = batch.mask_rows == i
            single = MaskedPairBatch(
                batch.s1_ids[i:i + 1, :n1], batch.s1_mask[i:i + 1, :n1],
                batch.s2_ids[i:i + 1, :n2], batch.s2_mask[i:i + 1, :n2],
                np.zeros(counts[i], dtype=np.int64), batch.mask_cols[own],
                batch.mask_labels[own])
            singles.append(cmlm_loss(single, params, config, variant)[0].item())
        whole, _ = cmlm_loss(batch, params, config, variant)
        np.testing.assert_allclose(whole.item(),
                                   np.dot(counts, singles) / counts.sum(),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("pooling", ["mean", "max", "cls"])
    @pytest.mark.parametrize("variant", ["standard", "skip", "unconditioned"])
    def test_pruned_last_layer_equals_the_full_sequence_output(
            self, variant, pooling):
        # the last layer runs only at the masked rows; the reference runs
        # it on every row and gathers the masked ones
        config, params, batch = ragged_setup(pooling)
        with ad.GradientTape() as tape:
            pruned, _ = cmlm_loss(batch, params, config, variant)
        got = tape.gradients(pruned, params)
        with ad.GradientTape() as tape:
            full = full_sequence_cmlm_loss(batch, params, config, variant)
        want = tape.gradients(full, params)
        assert pruned.item() == full.item()
        for name in params:
            np.testing.assert_allclose(got[name], want[name], rtol=0,
                                       atol=1e-14, err_msg=name)

    def test_loss_non_negative(self):
        vocab, config, params = make_setup(seed=8)
        rng = np.random.default_rng(7)
        pairs = make_pairs(["alpha beta gamma", "delta epsilon zeta"], vocab,
                           rng, max_len=8)
        batch = make_batch(pairs, vocab, num_mask=2, rng=rng)
        for variant in ("standard", "skip", "unconditioned"):
            loss, _ = cmlm_loss(batch, params, config, variant=variant)
            assert loss.item() >= 0.0


class TestBitextLoss:
    def test_all_equal_scores_give_two_log_two(self):
        source = ad.constant(np.zeros((2, 4)))
        target = ad.constant(np.zeros((2, 4)))
        loss = bitext_loss(BitextBatch(source, target, margin=0.0))
        np.testing.assert_allclose(loss.item(), 2 * np.log(2), rtol=1e-6)

    def test_hand_computed_margin_case(self):
        # diagonal scores 1, off-diagonal 0, margin 0.3:
        # each direction averages -ln(e^0.7 / (e^0.7 + 1)) over two rows;
        # the full-precision value is 0.806372 (0.8062 only if the per-pair
        # probability is rounded to 0.6682 first)
        phi = ad.constant(np.eye(2))
        source, target = bitext_loss_from_scores(phi, margin=0.3)
        per_pair = np.exp(0.7) / (np.exp(0.7) + 1.0)
        expected = 2 * -np.log(per_pair)
        np.testing.assert_allclose(source.item() + target.item(), expected,
                                   rtol=1e-6)
        np.testing.assert_allclose(per_pair, 0.6682, atol=5e-5)
        np.testing.assert_allclose(expected, 0.8062, atol=2e-4)

    def test_large_diagonal_drives_loss_to_zero(self):
        for scale in (5.0, 20.0, 60.0):
            phi = ad.constant(np.eye(3) * scale)
            s, t = bitext_loss_from_scores(phi, margin=0.0)
            total = s.item() + t.item()
            assert total >= 0
            if scale == 60.0:
                assert total < 1e-20

    def test_direction_symmetry_on_random_batches(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            b, d = int(rng.integers(2, 8)), int(rng.integers(2, 8))
            s = rng.standard_normal((b, d))
            t = rng.standard_normal((b, d))
            m = float(rng.uniform(0, 0.5))
            src_st, _ = bitext_loss_from_scores(ad.constant(s @ t.T), m)
            _, tgt_ts = bitext_loss_from_scores(ad.constant(t @ s.T), m)
            np.testing.assert_allclose(src_st.item(), tgt_ts.item(), rtol=1e-10)

    def test_monotone_in_diagonal(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            b = int(rng.integers(2, 8))
            phi = rng.standard_normal((b, b))
            s0, t0 = bitext_loss_from_scores(ad.constant(phi), 0.2)
            bumped = phi + np.eye(b) * 0.5
            s1, t1 = bitext_loss_from_scores(ad.constant(bumped), 0.2)
            assert s1.item() + t1.item() < s0.item() + t0.item()

    def test_small_batch_rejected(self):
        one = ad.constant(np.ones((1, 3)))
        with pytest.raises(ContractError):
            BitextBatch(one, one, margin=0.0)

    def test_stable_under_large_scores(self):
        phi = ad.constant(np.full((3, 3), 500.0) + np.eye(3) * 100.0)
        s, t = bitext_loss_from_scores(phi, margin=0.3)
        assert np.isfinite(s.item() + t.item())

    def test_retrieval_accuracy_helper(self):
        source = np.eye(3)
        assert in_batch_retrieval_accuracy(source, source) == 1.0
        rolled = np.roll(source, 1, axis=0)
        assert in_batch_retrieval_accuracy(source, rolled) == 0.0


class TestNliLoss:
    def test_feature_layout(self):
        u = ad.constant(np.array([[1.0, 2.0]]))
        v = ad.constant(np.array([[3.0, 1.0]]))
        feats = nli_features(u, v)
        np.testing.assert_allclose(feats.data, [[1, 2, 3, 1, 2, 1, 3, 2]])

    def test_equal_inputs_zero_difference_block(self):
        u = ad.constant(np.array([[0.5, -1.5, 2.0]]))
        feats = nli_features(u, u)
        np.testing.assert_allclose(feats.data[0, 6:9], 0.0)

    def test_bad_label_rejected(self):
        u = ad.constant(np.ones((2, 4)))
        with pytest.raises(ContractError):
            NLIBatch(u, u, labels=np.array([0, 3]))

    def test_separable_probe_reaches_high_accuracy(self):
        # oracle first: verify separability with a perceptron, then check
        # that training the classifier head gets >= 99% on the same data
        rng = np.random.default_rng(11)
        d = 6
        w_star = rng.standard_normal(d)
        u = rng.standard_normal((300, d))
        v = rng.standard_normal((300, d))
        margin_scores = (u - v) @ w_star
        keep = np.abs(margin_scores) > 0.5  # enforce a hard margin
        u, v = u[keep], v[keep]
        labels = ((u - v) @ w_star > 0).astype(np.int64)

        def perceptron_separable(x, y, epochs=200):
            w = np.zeros(x.shape[1])
            b = 0.0
            for _ in range(epochs):
                mistakes = 0
                for xi, yi in zip(x, y):
                    pred = 1 if xi @ w + b > 0 else 0
                    if pred != yi:
                        delta = 1 if yi == 1 else -1
                        w += delta * xi
                        b += delta
                        mistakes += 1
                if mistakes == 0:
                    return True
            return False

        assert perceptron_separable(np.concatenate(
            [u, v, np.abs(u - v), u * v], axis=1), labels)

        params = {
            "nli.w": ad.Tensor(np.zeros((4 * d, 3), dtype=np.float64),
                               requires_grad=True),
            "nli.b": ad.Tensor(np.zeros(3, dtype=np.float64),
                               requires_grad=True),
        }
        batch = NLIBatch(ad.constant(u), ad.constant(v), labels)
        for _ in range(300):
            with ad.GradientTape() as tape:
                loss, acc = nli_loss(batch, params)
            grads = tape.gradients(loss, params)
            for name, p in params.items():
                p.data = p.data - 0.5 * grads[name]
        _, final_acc = nli_loss(batch, params)
        assert final_acc >= 0.99


class TestCombinedLoss:
    def test_alpha_zero(self):
        l_cmlm = ad.constant(np.array(1.7))
        l_br = ad.constant(np.array(0.4))
        assert combined_loss(l_cmlm, l_br, 0.0).item() == 1.7

    def test_weighted_sum(self):
        out = combined_loss(ad.constant(np.array(1.0)),
                            ad.constant(np.array(0.5)), 0.2)
        np.testing.assert_allclose(out.item(), 1.1, rtol=1e-7)

    def test_gradient_linearity(self):
        # grad of the combination equals grad(cmlm) + alpha * grad(br)
        x = ad.Tensor(np.array([0.7, -0.2]), requires_grad=True)

        def l1(t):
            return ad.tsum(ad.mul(t, t))

        def l2(t):
            return ad.tsum(ad.gelu(t))

        with ad.GradientTape() as tape:
            combo = combined_loss(l1(x), l2(x), 0.2)
        g_combo = tape.grad(combo, x)
        with ad.GradientTape() as tape1:
            a = l1(x)
        g1 = tape1.grad(a, x)
        with ad.GradientTape() as tape2:
            b = l2(x)
        g2 = tape2.grad(b, x)
        np.testing.assert_allclose(g_combo, g1 + 0.2 * g2, rtol=1e-12)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ContractError):
            combined_loss(ad.constant(np.array(1.0)),
                          ad.constant(np.array(1.0)), -0.1)
