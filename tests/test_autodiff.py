import warnings

import numpy as np
import pytest

from cmlmkit import autodiff as ad
from cmlmkit.errors import ContractError, DimensionError, NonFiniteError

from gradsuite import run_sweep


def tensor64(data, requires_grad=False):
    return ad.Tensor(np.asarray(data, dtype=np.float64), requires_grad=requires_grad)


class TestMatmul:
    def test_identity(self):
        out = ad.matmul(tensor64([[1, 0], [0, 1]]), tensor64([[5, 6], [7, 8]]))
        np.testing.assert_allclose(out.data, [[5, 6], [7, 8]])

    def test_hand_arithmetic(self):
        out = ad.matmul(tensor64([[1, 2]]), tensor64([[3], [4]]))
        np.testing.assert_allclose(out.data, [[11]])

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 5\)"):
            ad.matmul(tensor64(np.zeros((2, 3))), tensor64(np.zeros((2, 5))))

    def test_grad_of_sum_matches_ones_bt(self):
        # d sum(a@b) / da = ones(m,n) @ b^T, cross-checked by finite differences
        rng = np.random.default_rng(7)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        at = tensor64(a, requires_grad=True)
        with ad.GradientTape() as tape:
            out = ad.tsum(ad.matmul(at, tensor64(b)))
        analytic = tape.grad(out, at)
        np.testing.assert_allclose(analytic, np.ones((4, 5)) @ b.T, rtol=1e-12)
        err = ad.check_gradient(lambda x: ad.tsum(ad.matmul(x, tensor64(b))),
                                tensor64(a))
        assert err < 1e-6


def plain_layer_norm(x):
    """layer_norm with unit scale and zero bias."""
    width = x.data.shape[-1]
    return ad.layer_norm(x, tensor64(np.ones(width)), tensor64(np.zeros(width)))


class TestKernels:
    def test_softmax_symmetry(self):
        out = ad.softmax(tensor64([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])

    def test_gelu_and_relu_at_reference_points(self):
        assert ad.gelu(tensor64([0.0])).data[0] == 0.0
        assert ad.relu(tensor64([-1.0])).data[0] == 0.0

    def test_layer_norm_hand_value(self):
        # mean 2, variance 1 -> normalized to [-1, 1] up to epsilon correction
        out = plain_layer_norm(tensor64([1.0, 3.0]))
        np.testing.assert_allclose(out.data, [-1.0, 1.0], atol=1e-6)

    def test_empty_last_axis_rejected(self):
        with pytest.raises(DimensionError):
            ad.softmax(tensor64(np.zeros((3, 0))))
        with pytest.raises(DimensionError):
            plain_layer_norm(tensor64(np.zeros((3, 0))))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = tensor64(rng.standard_normal((5, 7)) * 10)
            sums = ad.softmax(x).data.sum(axis=-1)
            np.testing.assert_allclose(sums, 1.0, atol=1e-6)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal((4, 9))
            out = plain_layer_norm(tensor64(x)).data
            assert np.abs(out.mean(axis=-1)).max() < 1e-6
            np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-4)

    def test_softmax_stability_under_large_inputs(self):
        out = ad.softmax(tensor64([1000.0, 1000.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5])


class TestBackward:
    def test_square_gradient(self):
        x = tensor64(3.0, requires_grad=True)
        with ad.GradientTape() as tape:
            y = ad.mul(x, x)
        np.testing.assert_allclose(tape.grad(y, x), 6.0)

    def test_softmax_conservation(self):
        # rows of softmax sum to 1, so the gradient of their sum vanishes
        x = tensor64([0.3, -1.2, 2.0], requires_grad=True)
        with ad.GradientTape() as tape:
            y = ad.tsum(ad.softmax(x))
        np.testing.assert_allclose(tape.grad(y, x), np.zeros(3), atol=1e-12)

    def test_reused_tensor_accumulates_once(self):
        x = tensor64([2.0, -1.0], requires_grad=True)
        with ad.GradientTape() as tape:
            y = ad.tsum(ad.add(ad.mul(x, x), x))
        np.testing.assert_allclose(tape.grad(y, x), 2 * x.data + 1)

    def test_non_scalar_root_rejected(self):
        x = tensor64([1.0, 2.0], requires_grad=True)
        with ad.GradientTape() as tape:
            y = ad.mul(x, x)
            with pytest.raises(ContractError):
                tape.grad(y, x)

    def test_root_not_on_the_tape_rejected(self):
        x = tensor64([1.0], requires_grad=True)
        with ad.GradientTape() as tape:
            y = ad.tsum(ad.mul(x, x))
        with ad.GradientTape():
            elsewhere = ad.tsum(ad.mul(x, 3.0))
        for root in (elsewhere, tensor64(2.0, requires_grad=True)):
            with pytest.raises(ContractError, match="not on this tape"):
                tape.grad(root, x)
        np.testing.assert_allclose(tape.grad(y, x), [2.0])
        np.testing.assert_allclose(tape.grad(x, x), [1.0])  # a leaf it read

    def test_unreachable_parameter_gets_zero(self):
        x = tensor64([1.0], requires_grad=True)
        orphan = tensor64([5.0], requires_grad=True)
        with ad.GradientTape() as tape:
            y = ad.tsum(ad.mul(x, x))
        grads = tape.gradients(y, {"x": x, "orphan": orphan})
        np.testing.assert_allclose(grads["orphan"], [0.0])

    def test_forward_nan_raises(self):
        with pytest.raises(NonFiniteError):
            ad.div(tensor64([1.0]), tensor64([0.0]))

    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div, ad.matmul])
    def test_constant_operand_gets_no_gradient(self, op):
        x = tensor64([[1.5, -2.0], [0.5, 3.0]], requires_grad=True)
        c = tensor64([[2.0, 1.0], [-1.0, 4.0]])
        for lhs, rhs, constant_slot in ((x, c, 1), (c, x, 0)):
            with ad.GradientTape() as tape:
                op(lhs, rhs)
            grads = tape._entries[-1].backward(np.ones((2, 2)))
            assert grads[constant_slot] is None
            assert grads[1 - constant_slot].shape == (2, 2)


class TestAllFinite:
    def test_large_finite_float32_whose_squares_overflow(self):
        x = np.full((4, 5), 1e20, dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert ad.all_finite(x)
        assert ad.all_finite(np.full(3, 1e200))  # float64

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [0, 37, -1])
    def test_one_bad_element_anywhere(self, dtype, bad, where):
        x = np.random.default_rng(0).standard_normal(75).astype(dtype)
        assert ad.all_finite(x)
        x[where] = bad
        assert not ad.all_finite(x)
        assert not ad.all_finite(x.reshape(5, 15).T)  # F-contiguous
        assert not ad.all_finite(np.float32(bad))

    def test_transposed_and_strided(self):
        x = np.random.default_rng(1).standard_normal((6, 4)).astype(np.float32)
        assert ad.all_finite(x.T) and ad.all_finite(x[::2, 1:])
        x[4, 2] = np.nan
        assert not ad.all_finite(x.T)
        assert not ad.all_finite(x[::2, 1:])
        assert ad.all_finite(x[1::2])

    def test_empty_and_integer_arrays(self):
        assert ad.all_finite(np.zeros((0, 3), dtype=np.float32))
        assert ad.all_finite(np.arange(5))

    def test_messages_unchanged(self):
        with pytest.raises(NonFiniteError, match="^tensor constructed with non-finite values$"):
            ad.Tensor([1.0, np.inf])
        with pytest.raises(NonFiniteError, match="^op 'div' produced non-finite values$"):
            ad.div(tensor64([1.0]), tensor64([0.0]))


class TestGatherBackward:
    @staticmethod
    def _grad(table, indices, g):
        t = tensor64(table, requires_grad=True)
        with ad.GradientTape() as tape:
            ad.gather_rows(t, indices)
        return tape._entries[-1].backward(g)[0]

    def test_repeated_indices_sum_like_add_at(self):
        rng = np.random.default_rng(3)
        table = rng.standard_normal((6, 4))
        indices = np.array([[5, 0, 5], [2, 5, 0], [-1, 3, 3]])
        g = rng.standard_normal((3, 3, 4))
        want = np.zeros_like(table)
        np.add.at(want, indices.reshape(-1), g.reshape(-1, 4))
        np.testing.assert_allclose(self._grad(table, indices, g), want,
                                   rtol=1e-15, atol=1e-15)

    def test_empty_index_gives_zero_gradient(self):
        grad = self._grad(np.ones((3, 2)), np.zeros(0, dtype=np.int64),
                          np.zeros((0, 2)))
        np.testing.assert_array_equal(grad, np.zeros((3, 2)))

    def test_take_per_row_scatters_one_element_per_row(self):
        a = tensor64(np.zeros((3, 4)), requires_grad=True)
        with ad.GradientTape() as tape:
            ad.take_per_row(a, np.array([2, 0, -1]))
        grad = tape._entries[-1].backward(np.array([1.0, 2.0, 3.0]))[0]
        np.testing.assert_array_equal(
            grad, [[0, 0, 1, 0], [2, 0, 0, 0], [0, 0, 0, 3]])


class TestCheckGradient:
    def test_quadratic_form(self):
        q = np.array([[2.0, 0.5], [0.5, 1.0]])

        def f(x):
            return ad.tsum(ad.mul(ad.matmul(ad.matmul(x, ad.constant(q)),
                                            ad.transpose(x, (1, 0))), 1.0))

        err = ad.check_gradient(f, tensor64([[0.7, -0.3]]))
        assert err < 1e-8

    def test_layer_norm_composite(self):
        scale = tensor64([1.3, 0.7, -0.2])
        bias = tensor64([0.1, 0.0, -0.5])

        def f(x):
            return ad.tsum(ad.gelu(ad.layer_norm(x, scale, bias)))

        err = ad.check_gradient(f, tensor64([[0.2, 1.4, -0.8], [2.0, -0.1, 0.4]]))
        assert err < 1e-4

    def test_wrong_backward_rule_is_flagged(self):
        # negative control: an op whose backward claims d(x^2)/dx = 3x
        def bad_square(x):
            return ad.apply_op("bad_square", x.data ** 2, (x,),
                               lambda g: (g * 3.0 * x.data,))

        err = ad.check_gradient(lambda x: ad.tsum(bad_square(x)),
                                tensor64([1.0, -2.0]))
        assert err > 1e-1


class TestGradSweep:
    def test_all_ops_pass_finite_difference_check(self):
        failures = run_sweep(num_seeds=5)
        assert not failures, "; ".join(failures)
