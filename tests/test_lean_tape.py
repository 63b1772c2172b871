"""The tape keeps only what the backward pass reads: an op output that no
backward rule reads is freed during the forward pass, an intermediate
gradient is freed once its op has consumed it, and gradients are unchanged."""

import copy
import gc
import pickle
import tracemalloc
import weakref

import numpy as np
import pytest

from cmlmkit import autodiff as ad
from cmlmkit.losses import cmlm_loss
from cmlmkit.masking import SentencePair, default_num_mask, make_batch
from cmlmkit.model import EncoderConfig, init_params
from cmlmkit.text import RESERVED_TOKENS, Vocab


def leaf(rng, shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True)


def held_by_rules(tape):
    """Everything the backward rules on ``tape`` hold in their closures."""
    return [cell.cell_contents for entry in tape._entries
            for cell in entry.backward.__closure__ or ()]


class TestWhatTheTapeKeeps:
    def test_add_output_feeding_layer_norm_is_freed(self):
        rng = np.random.default_rng(0)
        x, y = leaf(rng, (3, 4)), leaf(rng, (3, 4))
        scale, bias = leaf(rng, (4,)), leaf(rng, (4,))
        with ad.GradientTape() as tape:
            s = ad.add(x, y)
            s_data = weakref.ref(s.data)
            loss = ad.tsum(ad.mul(ad.layer_norm(s, scale, bias), x))
            del s
            gc.collect()
            assert s_data() is None  # layer_norm keeps its own x_hat
        with ad.GradientTape() as ref_tape:
            ref = ad.tsum(ad.mul(ad.layer_norm(ad.add(x, y), scale, bias), x))
        for t in (x, y, scale, bias):
            np.testing.assert_array_equal(tape.grad(loss, t), ref_tape.grad(ref, t))

    @pytest.mark.parametrize("op", [ad.mul, ad.div, ad.matmul, ad.linear])
    def test_constant_operand_rule_keeps_no_tracked_data(self, op):
        rng = np.random.default_rng(1)
        x = leaf(rng, (3, 3))
        c = ad.constant(rng.uniform(1.0, 2.0, (3, 3)))
        with ad.GradientTape() as tape:
            op(x, c)
        held = held_by_rules(tape)
        assert not any(h is x.data for h in held)
        assert not any(isinstance(h, ad.Tensor) for h in held)

    def test_ffn_rule_keeps_only_the_pre_activation(self):
        rng = np.random.default_rng(5)
        x, w1, b1 = leaf(rng, (2, 3, 4)), leaf(rng, (4, 6)), leaf(rng, (6,))
        w2, b2 = leaf(rng, (6, 4)), leaf(rng, (4,))
        with ad.GradientTape() as tape:
            ad.ffn(x, w1, b1, w2, b2)
        held = held_by_rules(tape)
        assert not any(isinstance(h, ad.Tensor) for h in held)
        arrays = [h for h in held if isinstance(h, np.ndarray)]
        # gelu's tanh and output are recomputed, not kept
        (pre,) = [a for a in arrays if a.shape == (6, 6)]
        np.testing.assert_array_equal(pre, x.data.reshape(6, 4) @ w1.data + b1.data)
        # the rest are views of the inputs: x flattened, w1.T and w2.T
        others = [a for a in arrays if a is not pre]
        assert len(others) == 3
        assert all(any(np.shares_memory(a, t.data) for t in (x, w1, w2))
                   for a in others)

    def test_attention_rule_adds_only_its_own_output(self):
        """Beyond the probabilities, the scaled q and views of k and v, the
        rule holds the op's output, which its row dot reads, and nothing
        else."""
        rng = np.random.default_rng(6)
        q, k, v = (leaf(rng, (2, 5, 8)) for _ in range(3))
        with ad.GradientTape() as tape:
            out = ad.attention_core(q, k, v, np.zeros((2, 1, 1, 5)), 2)
        held = held_by_rules(tape)
        assert not any(isinstance(h, ad.Tensor) for h in held)
        arrays = [h for h in held if isinstance(h, np.ndarray)]
        new = [a for a in arrays
               if not any(np.shares_memory(a, t.data) for t in (k, v))]
        assert sum(a is out.data for a in new) == 1
        # the rest: the [B, heads, key, query] probabilities and the scaled q
        assert sorted(a.shape for a in new if a is not out.data) == [
            (2, 2, 5, 4), (2, 2, 5, 5)]

    def test_no_rule_of_a_training_step_holds_a_tensor(self):
        config = EncoderConfig(vocab_size=64, max_len=16)
        vocab = Vocab(list(RESERVED_TOKENS) + [f"w{i}" for i in range(59)])
        rng = np.random.default_rng(2)
        pairs = [SentencePair(list(rng.integers(5, 64, 6)),
                              list(rng.integers(5, 64, 7)), False)
                 for _ in range(4)]
        params = init_params(config, rng)
        for variant in ("standard", "skip"):
            with ad.GradientTape() as tape:
                cmlm_loss(make_batch(pairs, vocab, 2, rng), params, config,
                          variant=variant, dropout_rng=rng)
            assert not any(isinstance(h, ad.Tensor) for h in held_by_rules(tape))


class TestGradientsAfterTheChange:
    def test_intermediate_gradient_freed_before_earlier_rule_runs(self):
        seen = {}

        def double(t, name):
            def backward(g):
                seen[name] = weakref.ref(g)
                if name == "first":
                    seen["second alive"] = seen["second"]() is not None
                return (g * 2.0,)

            return ad.apply_op(name, t.data * 2.0, (t,), backward)

        x = leaf(np.random.default_rng(3), (4,))
        with ad.GradientTape() as tape:
            loss = ad.tsum(double(double(double(x, "first"), "second"), "third"))
        grads = tape.gradients(loss, {"x": x})
        assert seen["second alive"] is False
        np.testing.assert_array_equal(grads["x"], np.full(4, 8.0))
        # no op output's gradient outlives the pass, only the leaf's
        assert set(tape._backprop(loss, set())) == {x._serial}

    def test_grad_of_intermediate_and_backward_twice(self):
        x = leaf(np.random.default_rng(4), (3,))
        with ad.GradientTape() as tape:
            h = ad.mul(x, x)
            loss = ad.tsum(ad.mul(h, 3.0))
        np.testing.assert_allclose(tape.grad(loss, h), np.full(3, 3.0))
        np.testing.assert_allclose(tape.grad(loss, loss), 1.0)
        named = tape.gradients(loss, {"h": h, "x": x})
        np.testing.assert_allclose(named["h"], np.full(3, 3.0))
        np.testing.assert_allclose(named["x"], 6.0 * x.data)
        first, second = (tape.gradients(loss, {"h": h, "x": x})
                         for _ in range(2))
        assert first.keys() == second.keys()
        for name in first:
            np.testing.assert_array_equal(first[name], second[name])

    def test_copies_get_their_own_nodes(self):
        x = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
        copies = [copy.deepcopy(x), copy.copy(x), pickle.loads(pickle.dumps(x))]
        for c in copies:
            assert c.requires_grad and c.dtype == x.dtype
            np.testing.assert_array_equal(c.data, x.data)
        with ad.GradientTape() as tape:
            terms = [ad.mul(t, float(k))
                     for t, k in zip([x] + copies, (2, 3, 5, 7))]
            loss = ad.tsum(ad.add(ad.add(terms[0], terms[1]),
                                  ad.add(terms[2], terms[3])))
        for t, k in zip([x] + copies, (2, 3, 5, 7)):
            np.testing.assert_array_equal(tape.grad(loss, t), np.full(2, float(k)))


def test_train_long_shaped_step_memory():
    """One cmlm step on a ``train-long``-shaped batch: the default encoder,
    vocabulary 512, batch 32, 40-token sentences, 20 masks, dropout 0.1.

    With every op output pinned and every intermediate gradient kept to the
    end of the pass, this step held 43.9 MB when the forward pass returned
    and peaked at 70.9 MB during backward; keeping only what the backward
    rules read, it held 27.9 MB and peaked at 32.2 MB. Running the last
    encoder layer only at the 20 masked rows of the 55 (two more tape
    entries: the reshape and gather of those rows), it holds 23.9 MB and
    peaks at 28.3 MB. With the FFN as one op that keeps only gelu's input
    and recomputes its tanh and output in backward (eight fewer tape
    entries), it holds 19.1 MB and peaks at 23.5 MB (numpy 2.4).
    """
    config = EncoderConfig(vocab_size=512, max_len=64)
    vocab = Vocab(list(RESERVED_TOKENS) + [f"w{i}" for i in range(507)])
    rng = np.random.default_rng(0)
    params = init_params(config, rng)
    pairs = [SentencePair(list(rng.integers(5, 512, 40)),
                          list(rng.integers(5, 512, 40)), False)
             for _ in range(32)]
    batch = make_batch(pairs, vocab, default_num_mask(config.max_len), rng)
    mb = 2 ** 20
    tracemalloc.start()
    try:
        with ad.GradientTape() as tape:
            loss, _ = cmlm_loss(batch, params, config, dropout_rng=rng)
        held = tracemalloc.get_traced_memory()[0] / mb
        tracemalloc.reset_peak()
        grads = tape.gradients(loss, params)
        peak = tracemalloc.get_traced_memory()[1] / mb
    finally:
        tracemalloc.stop()
    assert len(tape._entries) == 80
    assert all(g.shape == p.data.shape for g, p in
               zip(grads.values(), params.values()))
    assert held < 19.5, f"forward pass left {held:.1f} MB on the tape"
    assert peak < 24.0, f"backward pass peaked at {peak:.1f} MB"
