"""The fused ops equal the compositions they replaced, the in-place kernels
equal the formulas they replaced, and the flat-buffer optimizer equals a
per-block loop."""

import numpy as np
import pytest

from cmlmkit import autodiff as ad
from cmlmkit.errors import ContractError, DimensionError, NonFiniteError
from cmlmkit.model import EncoderConfig
from cmlmkit.optim import TRUST_RATIO_CLAMP, OptimizerState, optimizer_step

F32 = dict(rtol=2e-5, atol=2e-6)  # a few float32 ulps on O(1) values


def _grads(build, inputs, weights):
    """Output and input gradients of ``sum(build(*inputs) * weights)``."""
    leaves = [ad.Tensor(x, requires_grad=True) for x in inputs]
    with ad.GradientTape() as tape:
        out = build(*leaves)
        loss = ad.tsum(ad.mul(out, ad.constant(weights)))
    return out.data, list(tape.gradients(loss, dict(enumerate(leaves))).values())


def _f32(rng, shape):
    return rng.standard_normal(shape).astype(np.float32)


class TestLinear:
    @pytest.mark.parametrize("x_shape", [(7, 5), (3, 7, 5)])
    def test_equals_batched_matmul_plus_add(self, x_shape):
        rng = np.random.default_rng(0)
        x, w, b = _f32(rng, x_shape), _f32(rng, (5, 4)), _f32(rng, (4,))
        weights = _f32(rng, x_shape[:-1] + (4,))

        def unfused(x, w, b):
            # the batched rule, reached through a rank-3 right operand
            x3 = x if x.data.ndim == 3 else ad.reshape(x, (1,) + x.data.shape)
            out = ad.add(ad.matmul(x3, ad.reshape(w, (1, 5, 4))), b)
            return ad.reshape(out, x.data.shape[:-1] + (4,))

        got, got_g = _grads(ad.linear, (x, w, b), weights)
        want, want_g = _grads(unfused, (x, w, b), weights)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, **F32)
        for g, h in zip(got_g, want_g):
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, h, **F32)

    def test_matmul_with_a_2d_right_operand_records_linear(self):
        x = ad.Tensor(np.ones((2, 3, 4), np.float32), requires_grad=True)
        w = ad.Tensor(np.ones((4, 5), np.float32), requires_grad=True)
        with ad.GradientTape() as tape:
            out = ad.matmul(x, w)
        assert [e.name for e in tape._entries] == ["linear"]
        np.testing.assert_array_equal(out.data, np.full((2, 3, 5), 4.0))

    def test_constant_operands_get_no_gradient(self):
        x = ad.Tensor(np.ones((3, 4)), requires_grad=True)
        w, b = ad.constant(np.ones((4, 2))), ad.constant(np.ones(2))
        with ad.GradientTape() as tape:
            ad.linear(x, w, b)
        gx, gw, gb = tape._entries[-1].backward(np.ones((3, 2)))
        assert gx.shape == (3, 4) and gw is None and gb is None
        with ad.GradientTape() as tape:
            ad.linear(ad.constant(np.ones((3, 4))),
                      ad.Tensor(w.data, requires_grad=True))
        assert tape._entries[-1].backward(np.ones((3, 2)))[0] is None

    @pytest.mark.parametrize("k,n", [(0, 4), (4, 0)])
    def test_zero_width_operands(self, k, n):
        x = ad.Tensor(np.ones((2, 3, k)), requires_grad=True)
        w = ad.Tensor(np.ones((k, n)), requires_grad=True)
        with ad.GradientTape() as tape:
            out = ad.linear(x, w, ad.Tensor(np.ones(n), requires_grad=True))
        np.testing.assert_array_equal(out.data, np.ones((2, 3, n)))
        gx, gw, gb = tape._entries[-1].backward(np.ones((2, 3, n)))
        assert gx.shape == (2, 3, k) and gw.shape == (k, n) and gb.shape == (n,)

    def test_bad_shapes_rejected(self):
        with pytest.raises(DimensionError):
            ad.linear(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((5, 2))))
        with pytest.raises(DimensionError):
            ad.linear(ad.Tensor(np.ones((3, 4))), ad.Tensor(np.ones((4, 2))),
                      ad.Tensor(np.ones(3)))


def _ffn_unfused(x, w1, b1, w2, b2):
    """The composition ``model.encode`` used before the fused op."""
    return ad.linear(ad.gelu(ad.linear(x, w1, b1)), w2, b2)


class TestFfn:
    @pytest.mark.parametrize("x_shape", [(7, 5), (3, 7, 5)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_linear_gelu_linear(self, x_shape, dtype):
        rng = np.random.default_rng(9)
        x, w1, b1, w2, b2 = (rng.standard_normal(shape).astype(dtype) for shape in
                             (x_shape, (5, 12), (12,), (12, 4), (4,)))
        x *= dtype(3.0)  # reach both tails of gelu
        weights = rng.standard_normal(x_shape[:-1] + (4,)).astype(dtype)
        got, got_g = _grads(ad.ffn, (x, w1, b1, w2, b2), weights)
        want, want_g = _grads(_ffn_unfused, (x, w1, b1, w2, b2), weights)
        assert got.dtype == dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        for g, h in zip(got_g, want_g):
            assert g.dtype == dtype and g.shape == h.shape
            assert g.tobytes() == h.tobytes()

    def test_one_tape_entry_and_constant_operands_get_none(self):
        rng = np.random.default_rng(10)
        shapes = ((2, 3, 4), (4, 6), (6,), (6, 4), (4,))
        arrays = [rng.standard_normal(shape) for shape in shapes]
        for tracked in range(5):
            inputs = [ad.Tensor(a, requires_grad=(i == tracked))
                      for i, a in enumerate(arrays)]
            with ad.GradientTape() as tape:
                ad.ffn(*inputs)
            assert [e.name for e in tape._entries] == ["ffn"]
            grads = tape._entries[0].backward(np.ones((2, 3, 4)))
            for i, (g, shape) in enumerate(zip(grads, shapes)):
                assert (g.shape == shape) if i == tracked else g is None

    def test_bad_shapes_rejected(self):
        x, w1, b1, w2, b2 = (ad.Tensor(np.ones(shape)) for shape in
                             ((3, 4), (4, 6), (6,), (6, 2), (2,)))
        for args in ((ad.Tensor(np.ones((3, 5))), w1, b1, w2, b2),
                     (x, w1, ad.Tensor(np.ones(4)), w2, b2),
                     (x, w1, b1, ad.Tensor(np.ones((4, 2))), b2),
                     (x, w1, b1, w2, ad.Tensor(np.ones(6)))):
            with pytest.raises(DimensionError):
                ad.ffn(*args)


def _attention_unfused(q, k, v, mask_bias, heads):
    """The composition ``model._attention`` used before the fused op."""
    b, t, d = q.data.shape
    dh = d // heads

    def split(m):
        return ad.transpose(ad.reshape(m, (b, t, heads, dh)), (0, 2, 1, 3))

    scores = ad.add(ad.mul(ad.matmul(split(q), ad.transpose(split(k), (0, 1, 3, 2))),
                           1.0 / np.sqrt(dh)), ad.constant(mask_bias))
    ctx = ad.matmul(ad.softmax(scores), split(v))
    return ad.reshape(ad.transpose(ctx, (0, 2, 1, 3)), (b, t, d))


class TestAttentionCore:
    def _inputs(self):
        rng = np.random.default_rng(1)
        q, k, v = (_f32(rng, (3, 5, 8)) for _ in range(3))
        mask = np.ones((3, 5), np.float32)
        mask[0, 3:] = 0
        mask[2, 1:] = 0
        bias = (1.0 - mask)[:, None, None, :] * np.float32(-1e9)
        return (q, k, v), bias, _f32(rng, (3, 5, 8))

    def test_equals_unfused_composition(self):
        inputs, bias, weights = self._inputs()
        got, got_g = _grads(lambda q, k, v: ad.attention_core(q, k, v, bias, 2),
                            inputs, weights)
        want, want_g = _grads(lambda q, k, v: _attention_unfused(q, k, v, bias, 2),
                              inputs, weights)
        assert got.dtype == np.float32
        np.testing.assert_allclose(got, want, **F32)
        for g, h in zip(got_g, want_g):
            assert g.dtype == np.float32
            np.testing.assert_allclose(g, h, **F32)

    def test_masked_keys_get_no_weight_and_no_gradient(self):
        (q, k, v), bias, weights = self._inputs()
        moved = v.copy()
        moved[0, 3:] += 100.0  # masked keys of the first example
        a = ad.attention_core(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), bias, 2)
        b = ad.attention_core(ad.Tensor(q), ad.Tensor(k), ad.Tensor(moved), bias, 2)
        np.testing.assert_array_equal(a.data, b.data)
        _, (_, gk, gv) = _grads(lambda q, k, v: ad.attention_core(q, k, v, bias, 2),
                                (q, k, v), weights)
        assert not gk[0, 3:].any() and not gv[0, 3:].any()

    def test_one_tape_entry_and_constant_inputs_get_none(self):
        (q, k, v), bias, _ = self._inputs()
        tq = ad.Tensor(q, requires_grad=True)
        with ad.GradientTape() as tape:
            ad.attention_core(tq, ad.constant(k), ad.constant(v), bias, 2)
        assert [e.name for e in tape._entries] == ["attention_core"]
        gq, gk, gv = tape._entries[-1].backward(np.ones_like(q))
        assert gq.shape == q.shape and gk is None and gv is None

    def test_bad_shapes_rejected(self):
        t = ad.Tensor(np.ones((2, 3, 6)))
        with pytest.raises(DimensionError):
            ad.attention_core(t, t, ad.Tensor(np.ones((2, 3, 4))), 0.0, 2)
        with pytest.raises(DimensionError):
            ad.attention_core(t, t, t, 0.0, 4)
        with pytest.raises(DimensionError):  # q and k batch sizes differ
            ad.attention_core(ad.Tensor(np.ones((3, 3, 6))), t, t, 0.0, 2)
        with pytest.raises(DimensionError):  # q and k widths differ
            ad.attention_core(ad.Tensor(np.ones((2, 3, 4))), t, t, 0.0, 2)
        with pytest.raises(DimensionError):  # k and v lengths differ
            ad.attention_core(t, t, ad.Tensor(np.ones((2, 4, 6))), 0.0, 2)


# The formulas the in-place kernels replaced, kept as references. Each takes
# the op's inputs and an output gradient ``g`` and returns (output, input
# gradients).

def _gelu_reference(x, g):
    c, a = 0.7978845608028654, 0.044715
    inner = c * (x + a * x * x * x)
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)
    d_inner = c * (1.0 + 3.0 * a * x * x)
    dt = (1.0 - t * t) * d_inner
    return out, [g * (0.5 * (1.0 + t) + 0.5 * x * dt)]


def _sum_to(grad, shape):
    return grad.reshape(-1, shape[-1]).sum(axis=0).reshape(shape)


def _layer_norm_reference(x, scale, bias, g, eps=ad.LAYER_NORM_EPS):
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = centered * inv_std
    out = x_hat * scale + bias
    gs = g * scale
    mean_gs = gs.mean(axis=-1, keepdims=True)
    mean_gs_xhat = (gs * x_hat).mean(axis=-1, keepdims=True)
    d_x = inv_std * (gs - mean_gs - x_hat * mean_gs_xhat)
    return out, [d_x, _sum_to(g * x_hat, scale.shape), _sum_to(g, bias.shape)]


def _attention_reference(q, k, v, mask_bias, heads, g):
    """Query-major scores, the scale applied to the scores, and the row dot
    of the softmax backward as a product and a sum."""
    bsz, _, d = q.shape
    dh = d // heads
    scale = q.dtype.type(1.0 / np.sqrt(dh))

    def split(m):
        return m.reshape(bsz, -1, heads, dh).transpose(0, 2, 1, 3)

    def merge(m):
        return m.transpose(0, 2, 1, 3).reshape(bsz, -1, d)

    qh, kh, vh = split(q), split(k), split(v)
    probs = qh @ kh.transpose(0, 1, 3, 2)
    probs *= scale
    probs += mask_bias
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    gh = split(g)
    gv = merge(probs.transpose(0, 1, 3, 2) @ gh)
    gs = gh @ vh.transpose(0, 1, 3, 2)
    gs -= (gs * probs).sum(axis=-1, keepdims=True)
    gs *= probs
    gs *= scale
    return merge(probs @ vh), [merge(gs @ kh), merge(gs.transpose(0, 1, 3, 2) @ qh), gv]


def _assert_matches(got, got_g, want, want_g):
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, want, **F32)
    for g, h in zip(got_g, want_g):
        assert g.dtype == np.float32
        np.testing.assert_allclose(g, h, **F32)


class TestInPlaceKernels:
    @pytest.mark.parametrize("shape", [(9,), (7, 8), (3, 5, 16)])
    def test_gelu_equals_reference(self, shape):
        rng = np.random.default_rng(4)
        x, weights = _f32(rng, shape) * np.float32(3.0), _f32(rng, shape)
        got, got_g = _grads(ad.gelu, (x,), weights)
        _assert_matches(got, got_g, *_gelu_reference(x, weights))

    @pytest.mark.parametrize("shape", [(8,), (7, 8), (3, 5, 8)])
    def test_layer_norm_equals_reference(self, shape):
        rng = np.random.default_rng(5)
        x = _f32(rng, shape) * np.float32(2.0) + np.float32(0.5)
        scale, bias = _f32(rng, (shape[-1],)), _f32(rng, (shape[-1],))
        weights = _f32(rng, shape)
        got, got_g = _grads(ad.layer_norm, (x, scale, bias), weights)
        _assert_matches(got, got_g,
                        *_layer_norm_reference(x, scale, bias, weights))

    @pytest.mark.parametrize("heads,t,tq", [(1, 5, 5), (2, 5, 5), (4, 5, 5),
                                            (2, 1, 1), (2, 5, 2), (4, 5, 1)],
                             ids=["1-5", "2-5", "4-5", "2-1", "2-5-q2", "4-5-q1"])
    def test_attention_core_equals_reference(self, heads, t, tq):
        rng = np.random.default_rng(6)
        k, v = (_f32(rng, (3, t, 8)) for _ in range(2))
        q, weights = (_f32(rng, (3, tq, 8)) for _ in range(2))
        mask = np.ones((3, t), np.float32)
        mask[0, 3:] = 0  # padded keys
        mask[2, 1:] = 0
        bias = (1.0 - mask)[:, None, None, :] * np.float32(-1e9)
        got, got_g = _grads(
            lambda q, k, v: ad.attention_core(q, k, v, bias, heads),
            (q, k, v), weights)
        _assert_matches(got, got_g,
                        *_attention_reference(q, k, v, bias, heads, weights))


class TestAttentionCoreFloat64:
    """In float64 the loop max, the product normalizer and the merged-layout
    products agree with the reference to a few ulps, at the edges of the
    shapes the encoder uses."""

    F64 = dict(rtol=1e-10, atol=1e-12)

    @staticmethod
    def _case(tk, tq, spread=1.0, heads=4, seed=9):
        rng = np.random.default_rng(seed)
        k, v = (rng.standard_normal((3, tk, 8)) for _ in range(2))
        q, weights = (rng.standard_normal((3, tq, 8)) for _ in range(2))
        mask = np.ones((3, tk))
        mask[0, max(1, tk // 2):] = 0  # padded keys
        mask[2, 1:] = 0  # only the first key is unmasked
        bias = (1.0 - mask)[:, None, None, :] * -1e9
        return (q * spread, k * spread, v), bias, weights, heads

    @pytest.mark.parametrize("tk,tq", [(64, 64), (64, 20), (64, 1), (1, 1),
                                       (1, 3), (2, 2)],
                             ids=["64", "64-q20", "64-q1", "1", "1-q3", "2"])
    def test_equals_reference(self, tk, tq):
        inputs, bias, weights, heads = self._case(tk, tq)
        got, got_g = _grads(
            lambda q, k, v: ad.attention_core(q, k, v, bias, heads),
            inputs, weights)
        want, want_g = _attention_reference(*inputs, bias, heads, weights)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, want, **self.F64)
        for g, h in zip(got_g, want_g):
            assert g.dtype == np.float64
            np.testing.assert_allclose(g, h, **self.F64)

    @pytest.mark.parametrize("tracked", ["qkv", "kv", "qv", "qk", "q", "v"])
    def test_constant_operands_equal_reference(self, tracked):
        """The backward's row dot, read from the output, at masked keys when
        some of q, k and v are constants."""
        inputs, bias, weights, heads = self._case(64, 20)
        leaves = [ad.Tensor(x, requires_grad=name in tracked)
                  for name, x in zip("qkv", inputs)]
        with ad.GradientTape() as tape:
            out = ad.attention_core(*leaves, bias, heads)
            loss = ad.tsum(ad.mul(out, ad.constant(weights)))
        _, want_g = _attention_reference(*inputs, bias, heads, weights)
        for name, leaf, want in zip("qkv", leaves, want_g):
            if name in tracked:
                np.testing.assert_allclose(tape.grad(loss, leaf), want, **self.F64)
        held = [cell.cell_contents for cell in tape._entries[0].backward.__closure__]
        assert any(h is out.data for h in held) == (tracked not in ("v",))

    def test_one_unmasked_key_takes_all_the_weight(self):
        (q, k, v), bias, _, heads = self._case(64, 20)
        out = ad.attention_core(ad.Tensor(q), ad.Tensor(k), ad.Tensor(v), bias,
                                heads).data
        # every query of the third example reads exactly the first value row
        np.testing.assert_array_equal(out[2], np.broadcast_to(v[2, 0], out[2].shape))

    @pytest.mark.parametrize("tk,tq", [(64, 64), (64, 20), (5, 5)])
    def test_wide_score_spread_stays_finite_and_normalized(self, tk, tq):
        # spread far past 709, where float64 exp overflows unless the max
        # over keys is subtracted first
        (q, k, v), bias, weights, heads = self._case(tk, tq, spread=40.0)
        dh = q.shape[-1] // heads
        split = lambda m: m.reshape(3, -1, heads, dh).transpose(0, 2, 1, 3)
        scores = split(q) @ split(k).transpose(0, 1, 3, 2) / np.sqrt(dh)
        live = np.broadcast_to(bias == 0, scores.shape)
        assert np.ptp(scores[live]) > 1000
        got, got_g = _grads(
            lambda q, k, v: ad.attention_core(q, k, v, bias, heads),
            (q, k, v), weights)
        assert np.isfinite(got).all() and all(np.isfinite(g).all() for g in got_g)
        want, want_g = _attention_reference(q, k, v, bias, heads, weights)
        np.testing.assert_allclose(got, want, **self.F64)
        for g, h in zip(got_g, want_g):
            np.testing.assert_allclose(g, h, rtol=1e-10, atol=1e-10)
        # with every value row all ones, each output entry is a probability
        # row's sum over keys
        sums = ad.attention_core(ad.Tensor(q), ad.Tensor(k), ad.Tensor(np.ones_like(v)),
                                 bias, heads).data
        np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


def _dropout_reference_mask(rng, shape, rate):
    """The keep mask of ``dropout``, rebuilt from the generator's raw 64-bit
    words: each word holds four 16-bit draws, lowest bits first."""
    n = int(np.prod(shape))
    words = rng.bit_generator.random_raw(-(-n // 4))
    draws = [(int(word) >> (16 * j)) & 0xFFFF for word in words for j in range(4)]
    return np.array(draws[:n]).reshape(shape) >= round(rate * 2 ** 16)


def _inverse_keep(rate):
    """2**16 / (2**16 - t) for the drop threshold t = round(rate * 2**16)."""
    return 2 ** 16 / (2 ** 16 - round(rate * 2 ** 16))


class TestDropout:
    # at both rates the inverse of the realized keep probability,
    # 2**16 / (2**16 - t), differs in float32 from 1 / (1 - rate), so they
    # also pin down which of the two the scale is
    @pytest.mark.parametrize("rate", [0.1, 0.15])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_composed_mul(self, dtype, rate):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((3, 5, 7)).astype(dtype)  # 105 draws of 27 words
        weights = rng.standard_normal(x.shape).astype(dtype)
        draws = np.random.default_rng(8)
        got, (got_g,) = _grads(lambda t: ad.dropout(t, rate, draws),
                               (x,), weights)
        replay = np.random.default_rng(8)
        keep = _dropout_reference_mask(replay, x.shape, rate).astype(dtype)
        scale = dtype(_inverse_keep(rate))
        want, (want_g,) = _grads(
            lambda t: ad.mul(t, ad.constant(keep * scale)), (x,), weights)
        assert got.dtype == got_g.dtype == dtype
        # bitwise, so the sign of a dropped negative element counts too
        assert got.tobytes() == want.tobytes()
        assert got_g.tobytes() == want_g.tobytes()
        np.testing.assert_array_equal(got != 0, keep != 0)
        # g * keep / (1 - t / 2**16), to the rounding of one multiply
        np.testing.assert_allclose(got_g, weights * keep * _inverse_keep(rate),
                                   rtol=2 * np.finfo(dtype).eps, atol=0)
        assert draws.random() == replay.random()  # the same draws were used

    @pytest.mark.parametrize("rate", [0.1, 0.15, 0.5])
    def test_realized_rate_is_binomial(self, rate):
        n = 10 ** 6
        x = ad.Tensor(np.ones(n, np.float32))
        out = ad.dropout(x, rate, np.random.default_rng(11)).data
        realized = round(rate * 2 ** 16) / 2 ** 16
        assert abs(realized - rate) <= 2.0 ** -17
        dropped = np.count_nonzero(out == 0) / n
        assert abs(dropped - realized) < 5 * np.sqrt(realized * (1 - realized) / n)
        # every survivor is scaled by the inverse of the keep probability,
        # rounded once to float32
        survivors = out[out != 0]
        assert survivors.dtype == np.float32
        np.testing.assert_array_equal(survivors, np.float32(1 / (1 - realized)))

    def test_one_tape_entry_and_a_valid_rate(self):
        x = ad.Tensor(np.ones((2, 3), np.float32), requires_grad=True)
        with ad.GradientTape() as tape:
            ad.dropout(x, 0.5, np.random.default_rng(0))
        assert [e.name for e in tape._entries] == ["dropout"]
        for rate in (-0.1, 1.0, float("nan")):
            with pytest.raises(ContractError, match="rate"):
                ad.dropout(x, rate, np.random.default_rng(0))

    def test_a_rate_that_rounds_to_one_is_refused_everywhere(self):
        x = ad.Tensor(np.ones((2, 3), np.float32))
        edge = 1.0 - 2.0 ** -17  # round(edge * 2**16) == 2**16
        below = np.nextafter(edge, 0.0)
        assert round(edge * 2 ** 16) == 2 ** 16 and round(below * 2 ** 16) < 2 ** 16
        with pytest.raises(ContractError, match="dropout rate"):
            ad.dropout(x, edge, np.random.default_rng(0))
        with pytest.raises(ContractError, match="dropout must be"):
            EncoderConfig(vocab_size=100, dropout=edge)
        out = ad.dropout(x, below, np.random.default_rng(0)).data
        assert out.shape == (2, 3) and np.isfinite(out).all()
        assert EncoderConfig(vocab_size=100, dropout=below).dropout == below


class TestRowSums:
    """``_row_sum`` and ``_unbroadcast`` against a float64 ``np.sum``, at the
    shapes the model reduces: bias gradients of [B * T, width] rows
    (``train-long``'s 1,760 rows, the 640 masked rows, the desk run's short
    batches), ``pos_emb`` and ``slot_emb`` adds, and the keepdims and size-1
    cases that fall back to numpy."""

    @pytest.mark.parametrize("shape", [(1760, 64), (1760, 128), (640, 64),
                                       (640, 512), (32, 64), (32, 3), (1, 64),
                                       (0, 64), (5, 0)])
    def test_row_sum(self, shape):
        g = _f32(np.random.default_rng(12), shape)
        got = ad._row_sum(g)
        assert got.dtype == np.float32 and got.shape == shape[1:]
        want = g.astype(np.float64).sum(axis=0)
        bound = 2 * np.finfo(np.float32).eps * np.abs(g).astype(np.float64).sum(axis=0)
        assert np.all(np.abs(got - want) <= bound)
        g64 = g.astype(np.float64)
        np.testing.assert_allclose(ad._row_sum(g64), want, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("grad_shape,shape", [
        ((32, 55, 64), (55, 64)),   # pos_emb
        ((32, 15, 64), (15, 64)),   # slot_emb
        ((32, 55, 64), (64,)),
        ((3, 4), ()),
        ((32, 55, 64), (32, 55, 1)),  # keepdims: numpy's sum
        ((32, 55, 64), (1, 55, 64)),
        ((32, 55, 64), (55, 1)),      # a leading axis and a size-1 axis
        ((4, 3), (1,)),
        ((4, 3), (4, 3)),
    ])
    def test_unbroadcast(self, grad_shape, shape):
        g = _f32(np.random.default_rng(13), grad_shape)
        got = ad._unbroadcast(g, shape)
        assert got.dtype == np.float32 and got.shape == shape
        extra = len(grad_shape) - len(shape)
        axes = tuple(range(extra)) + tuple(
            extra + i for i, s in enumerate(shape)
            if s == 1 and grad_shape[extra + i] != 1)

        def reduce(a):
            return a.sum(axis=axes, keepdims=True).reshape(shape)

        want = reduce(g.astype(np.float64))
        bound = 2 * np.finfo(np.float32).eps * reduce(np.abs(g).astype(np.float64))
        assert np.all(np.abs(got - want) <= bound)


class TestLogSoftmax:
    @pytest.mark.parametrize("shape", [(640, 512), (7, 3), (1, 1), (2, 3, 5)])
    def test_equals_the_two_exp_formula(self, shape):
        """The probabilities of the backward, ``exp(shifted) / sum``, agree
        with the ``exp(log_softmax)`` they replaced to a few float32 ulps."""
        rng = np.random.default_rng(14)
        x, weights = _f32(rng, shape) * np.float32(4.0), _f32(rng, shape)
        got, (got_g,) = _grads(ad.log_softmax, (x,), weights)
        shifted = x - x.max(axis=-1, keepdims=True)
        out = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        want_g = weights - np.exp(out) * weights.sum(axis=-1, keepdims=True)
        assert got.dtype == got_g.dtype == np.float32
        np.testing.assert_array_equal(got, out)
        np.testing.assert_allclose(got_g, want_g, **F32)


def _reference_step(params, grads, state):
    """The per-block update loop the flat optimizer replaced."""
    lr = state.effective_lr()
    t = state.step + 1
    bc1, bc2 = 1.0 - state.beta1 ** t, 1.0 - state.beta2 ** t
    for name, p in params.items():
        g = grads[name]
        m = state.m.setdefault(name, np.zeros_like(p))
        v = state.v.setdefault(name, np.zeros_like(p))
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        if state.weight_decay:
            update = update + state.weight_decay * p
        if state.kind == "lamb":
            w_norm = float(np.linalg.norm(p))
            u_norm = float(np.linalg.norm(update))
            ratio = (1.0 if w_norm == 0.0 or u_norm == 0.0
                     else min(w_norm / u_norm, TRUST_RATIO_CLAMP))
            update = ratio * update
        params[name] = p - lr * update
    state.step += 1


class TestFlatOptimizer:
    def _blocks(self, dtype):
        rng = np.random.default_rng(2)
        return {
            "big": (rng.standard_normal((6, 5)) * 3.0).astype(dtype),
            "zero": np.zeros(4, dtype=dtype),  # ||w|| = 0: ratio 1
            "clamped": np.full((2, 3), 50.0, dtype=dtype),  # ratio > 10
            "scalar": np.array([0.7], dtype=dtype),
            "small": (rng.standard_normal((3, 2)) * 1e-3).astype(dtype),
            "empty": np.zeros((0, 3), dtype=dtype),  # starts at the buffer's end
        }

    @pytest.mark.parametrize("kind", ["lamb", "adam"])
    @pytest.mark.parametrize("dtype,tol", [(np.float64, 1e-12), (np.float32, 2e-6)])
    def test_equals_per_block_reference(self, kind, dtype, tol):
        blocks = self._blocks(dtype)
        params = {n: ad.Tensor(a.copy(), requires_grad=True) for n, a in blocks.items()}
        ref = {n: a.copy() for n, a in blocks.items()}
        settings = dict(kind=kind, learning_rate=0.05, weight_decay=0.01,
                        warmup_steps=2, total_steps=20)
        state, ref_state = OptimizerState(**settings), OptimizerState(**settings)
        identities = {n: id(p) for n, p in params.items()}
        rng = np.random.default_rng(3)
        for _ in range(6):
            grads = {n: rng.standard_normal(a.shape).astype(dtype)
                     for n, a in blocks.items()}
            grads["clamped"] *= 1e-4  # tiny update against a large weight
            optimizer_step(params, grads, state)
            _reference_step(ref, grads, ref_state)
            for n in blocks:
                assert params[n].data.dtype == dtype
                np.testing.assert_allclose(params[n].data, ref[n], rtol=tol, atol=tol)
                for mine, ref_moments in ((state.m, ref_state.m),
                                          (state.v, ref_state.v)):
                    np.testing.assert_allclose(mine[n], ref_moments[n],
                                               rtol=tol, atol=tol)
        assert {n: id(p) for n, p in params.items()} == identities
        assert state.step == ref_state.step == 6

    def test_clamp_and_zero_norm_cases_are_exercised(self):
        # one LAMB step from zero moments: the direction is sign(g) (before
        # decay), so each block's ratio is ||w|| / sqrt(size)
        blocks = self._blocks(np.float64)
        params = {n: ad.Tensor(a.copy(), requires_grad=True) for n, a in blocks.items()}
        grads = {n: np.ones_like(a) for n, a in blocks.items()}
        optimizer_step(params, grads, OptimizerState(kind="lamb", learning_rate=0.1))
        moved = {n: blocks[n] - params[n].data for n in blocks}
        np.testing.assert_allclose(moved["zero"], 0.1, rtol=1e-6)  # ratio 1
        np.testing.assert_allclose(moved["clamped"], 0.1 * TRUST_RATIO_CLAMP,
                                   rtol=1e-6)

    def test_moments_are_named_views_of_one_buffer(self):
        blocks = self._blocks(np.float32)
        params = {n: ad.Tensor(a.copy(), requires_grad=True) for n, a in blocks.items()}
        state = OptimizerState()
        grads = {n: np.ones_like(a) for n, a in blocks.items()}
        optimizer_step(params, grads, state)
        assert list(state.m) == list(blocks) == list(state.v)
        base = state.m["big"].base
        assert all(state.m[n].base is base for n in blocks)
        assert all(state.m[n].shape == blocks[n].shape for n in blocks)
        assert all(params[n].data.base is params["big"].data.base for n in blocks)
        state.reset_moments()
        assert not state.m and not state.v
        optimizer_step(params, grads, state)
        np.testing.assert_allclose(state.m["big"], 0.1, rtol=1e-6)

    def test_per_name_moments_are_adopted(self):
        # a state rebuilt from a checkpoint holds separate per-name arrays
        blocks = self._blocks(np.float64)
        grads = {n: np.full_like(a, 0.5) for n, a in blocks.items()}
        runs = []
        for reload in (False, True):
            params = {n: ad.Tensor(a.copy(), requires_grad=True)
                      for n, a in blocks.items()}
            state = OptimizerState(kind="lamb", learning_rate=0.01)
            optimizer_step(params, grads, state)
            if reload:
                state = OptimizerState(kind="lamb", learning_rate=0.01, step=1,
                                       m={n: a.copy() for n, a in state.m.items()},
                                       v={n: a.copy() for n, a in state.v.items()})
            optimizer_step(params, grads, state)
            runs.append({n: p.data.copy() for n, p in params.items()})
        for n in blocks:
            np.testing.assert_array_equal(runs[0][n], runs[1][n])

    def test_parameter_data_replaced_between_steps_is_used(self):
        blocks = self._blocks(np.float64)
        params = {n: ad.Tensor(a.copy(), requires_grad=True) for n, a in blocks.items()}
        ref = {n: a.copy() for n, a in blocks.items()}
        state, ref_state = OptimizerState(), OptimizerState()
        grads = {n: np.full_like(a, 0.5) for n, a in blocks.items()}
        for step in range(3):
            if step == 1:  # e.g. a caller restoring one block from elsewhere
                params["big"].data = np.full((6, 5), 2.0)
                ref["big"] = np.full((6, 5), 2.0)
            optimizer_step(params, grads, state)
            _reference_step(ref, grads, ref_state)
        for n in blocks:
            np.testing.assert_allclose(params[n].data, ref[n], rtol=1e-12)

    def test_moment_of_the_wrong_shape_rejected(self):
        params = {"w": ad.Tensor(np.ones(3), requires_grad=True)}
        state = OptimizerState(m={"w": np.ones(2)})
        with pytest.raises(ContractError, match="'w'"):
            optimizer_step(params, {"w": np.ones(3)}, state)

    def test_non_finite_gradient_leaves_moments_and_params(self):
        blocks = self._blocks(np.float32)
        params = {n: ad.Tensor(a.copy(), requires_grad=True) for n, a in blocks.items()}
        state = OptimizerState()
        grads = {n: np.ones_like(a) for n, a in blocks.items()}
        optimizer_step(params, grads, state)
        before = ({n: p.data.copy() for n, p in params.items()},
                  {n: a.copy() for n, a in state.m.items()})
        grads["small"][1, 0] = np.inf
        with pytest.raises(NonFiniteError, match="'small'"):
            optimizer_step(params, grads, state)
        for n in blocks:
            np.testing.assert_array_equal(params[n].data, before[0][n])
            np.testing.assert_array_equal(state.m[n], before[1][n])
        assert state.step == 1

    def test_mixed_dtypes_rejected(self):
        params = {"a": ad.Tensor(np.ones(2, np.float32), requires_grad=True),
                  "b": ad.Tensor(np.ones(2, np.float64), requires_grad=True)}
        with pytest.raises(ContractError, match="one dtype"):
            optimizer_step(params, {"a": np.ones(2, np.float32), "b": np.ones(2)},
                           OptimizerState())
