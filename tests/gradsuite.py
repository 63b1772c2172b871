"""Finite-difference sweep shared by the unit tests and the acceptance suite.

Each case wires one differentiable op into a scalar via a fixed random
weighting, then compares the taped gradient against central differences.
"""

import numpy as np

from cmlmkit import autodiff as ad


def _weighted_scalar(out):
    # fixed, shape-derived weights so repeated evaluations see one function
    w = np.cos(0.7 * np.arange(out.data.size) + 0.3).reshape(out.data.shape)
    return ad.tsum(ad.mul(out, ad.constant(w)))


def _rand(rng, shape, offset=0.0):
    return rng.standard_normal(shape) + offset


def op_cases(rng):
    """Yield (name, f, x0) triples; f is scalar-valued in one tensor."""
    r2 = (rng.integers(1, 9), rng.integers(1, 9))
    a = _rand(rng, r2)
    b = _rand(rng, r2)
    pos = np.abs(_rand(rng, r2)) + 1.5
    m, k, n = (int(v) for v in rng.integers(2, 9, size=3))
    mat_a = _rand(rng, (m, k))
    mat_b = _rand(rng, (k, n))
    # width >= 3: with 2 elements the normalized values are +-1 whatever the
    # input, so the x-gradient is ~epsilon and the check only measures
    # finite-difference noise against the 1e-8 denominator floor
    ln_shape = (int(rng.integers(1, 9)), int(rng.integers(3, 9)))
    ln_x = _rand(rng, ln_shape)
    scale = _rand(rng, (ln_shape[1],))
    bias = _rand(rng, (ln_shape[1],))
    col = _rand(rng, (r2[0], 1))
    row = _rand(rng, (1, r2[1]))
    table = _rand(rng, (6, 4))
    idx = rng.integers(0, 6, size=(3, 5))
    cols = rng.integers(0, r2[1], size=r2[0])
    lin_x3 = _rand(rng, (2, m, k))
    lin_b = _rand(rng, (n,))
    # attention on [B=2, T=4, d=6] with 2 heads; the last key of the first
    # example and the last two of the second are masked out
    att_q, att_k, att_v = (_rand(rng, (2, 4, 6)) for _ in range(3))
    att_mask = np.array([[1, 1, 1, 0], [1, 1, 0, 0]], dtype=np.float64)
    att_bias = (1.0 - att_mask)[:, None, None, :] * -1e9
    # two queries against the same four keys, as in a pruned last layer
    att_q_short = _rand(rng, (2, 2, 6))
    # the fused feed-forward block on [2, 3, 4] -> ff 5 -> 3; drawn last, so
    # the inputs of every case above stay as they were
    ffn_x = _rand(rng, (2, 3, 4))
    ffn_w1, ffn_b1 = _rand(rng, (4, 5)), _rand(rng, (5,))
    ffn_w2, ffn_b2 = _rand(rng, (5, 3)), _rand(rng, (3,))

    def w(fn):
        return lambda x: _weighted_scalar(fn(x))

    yield "add_lhs", w(lambda x: ad.add(x, ad.constant(b))), a
    yield "add_rhs", w(lambda x: ad.add(ad.constant(a), x)), b
    yield "add_broadcast", w(lambda x: ad.add(x, ad.constant(row))), col
    yield "sub", w(lambda x: ad.sub(x, ad.constant(b))), a
    yield "mul", w(lambda x: ad.mul(x, ad.constant(b))), a
    yield "mul_broadcast", w(lambda x: ad.mul(ad.constant(col), x)), row
    yield "div_num", w(lambda x: ad.div(x, ad.constant(pos))), a
    yield "div_den", w(lambda x: ad.div(ad.constant(a), x)), pos
    yield "neg", w(ad.neg), a
    yield "abs", w(ad.absolute), a
    yield "relu", w(ad.relu), a
    yield "gelu", w(ad.gelu), a
    # a fresh generator per call, so every evaluation draws the same mask
    yield "dropout", w(lambda x: ad.dropout(x, 0.3, np.random.default_rng(7))), a
    yield "matmul_lhs", w(lambda x: ad.matmul(x, ad.constant(mat_b))), mat_a
    yield "matmul_rhs", w(lambda x: ad.matmul(ad.constant(mat_a), x)), mat_b
    yield "linear_x", w(lambda x: ad.linear(
        x, ad.constant(mat_b), ad.constant(lin_b))), mat_a
    yield "linear_x_3d", w(lambda x: ad.linear(
        x, ad.constant(mat_b), ad.constant(lin_b))), lin_x3
    yield "linear_w", w(lambda x: ad.linear(
        ad.constant(lin_x3), x, ad.constant(lin_b))), mat_b
    yield "linear_b", w(lambda x: ad.linear(
        ad.constant(lin_x3), ad.constant(mat_b), x)), lin_b
    yield "linear_no_bias", w(lambda x: ad.linear(x, ad.constant(mat_b))), lin_x3
    yield "attention_q", w(lambda x: ad.attention_core(
        x, ad.constant(att_k), ad.constant(att_v), att_bias, 2)), att_q
    yield "attention_k", w(lambda x: ad.attention_core(
        ad.constant(att_q), x, ad.constant(att_v), att_bias, 2)), att_k
    yield "attention_v", w(lambda x: ad.attention_core(
        ad.constant(att_q), ad.constant(att_k), x, att_bias, 2)), att_v
    yield "attention_q_short", w(lambda x: ad.attention_core(
        x, ad.constant(att_k), ad.constant(att_v), att_bias, 2)), att_q_short
    yield "attention_k_short", w(lambda x: ad.attention_core(
        ad.constant(att_q_short), x, ad.constant(att_v), att_bias, 2)), att_k
    yield "attention_v_short", w(lambda x: ad.attention_core(
        ad.constant(att_q_short), ad.constant(att_k), x, att_bias, 2)), att_v
    ffn_inputs = (ffn_x, ffn_w1, ffn_b1, ffn_w2, ffn_b2)
    for i, name in enumerate(("x", "w1", "b1", "w2", "b2")):
        def ffn_at(x, i=i):
            return ad.ffn(*(x if j == i else ad.constant(v)
                            for j, v in enumerate(ffn_inputs)))
        yield f"ffn_{name}", w(ffn_at), ffn_inputs[i]
    yield "reshape", w(lambda x: ad.reshape(x, (r2[0] * r2[1],))), a
    yield "transpose", w(lambda x: ad.transpose(x, (1, 0))), a
    yield "concat", w(lambda x: ad.concat([x, ad.constant(b)], axis=1)), a
    yield "sum_all", (lambda x: ad.tsum(x)), a
    yield "sum_axis", w(lambda x: ad.tsum(x, axis=0)), a
    yield "mean_axis", w(lambda x: ad.tmean(x, axis=1)), a
    yield "max_axis", w(lambda x: ad.tmax(x, axis=1)), a
    yield "softmax", w(ad.softmax), a
    yield "log_softmax", w(ad.log_softmax), a
    yield "layer_norm_x", w(
        lambda x: ad.layer_norm(x, ad.constant(scale), ad.constant(bias))), ln_x
    yield "layer_norm_scale", w(
        lambda x: ad.layer_norm(ad.constant(ln_x), x, ad.constant(bias))), scale
    yield "layer_norm_bias", w(
        lambda x: ad.layer_norm(ad.constant(ln_x), ad.constant(scale), x)), bias
    yield "gather_rows", w(lambda x: ad.gather_rows(x, idx)), table
    yield "take_per_row", (lambda x: ad.tsum(ad.take_per_row(x, cols))), a


def run_sweep(num_seeds: int, tol: float = 1e-4) -> list[str]:
    """Run the sweep; return failures as 'seed/op: err' strings."""
    failures = []
    for seed in range(num_seeds):
        rng = np.random.default_rng(seed)
        for name, f, x0 in op_cases(rng):
            err = ad.check_gradient(f, ad.Tensor(np.asarray(x0, dtype=np.float64)))
            if err > tol:
                failures.append(f"seed {seed}/{name}: {err:.3e}")
    return failures
