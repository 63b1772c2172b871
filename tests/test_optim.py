import numpy as np
import pytest

from cmlmkit.autodiff import Tensor
from cmlmkit.errors import ContractError, NonFiniteError
from cmlmkit.optim import OptimizerState, optimizer_step


def scalar_param(value):
    return {"w": Tensor(np.array([value], dtype=np.float64), requires_grad=True)}


class TestLamb:
    def test_hand_calculated_first_step(self):
        # m_hat = v_hat = 1 after bias correction, trust ratio ||1||/||1|| = 1,
        # so the first update is exactly lr regardless of epsilon
        params = scalar_param(1.0)
        state = OptimizerState(kind="lamb", learning_rate=1e-3,
                               beta1=0.9, beta2=0.999, weight_decay=0.0)
        params, state = optimizer_step(params, {"w": np.array([1.0])}, state)
        np.testing.assert_allclose(params["w"].data, [0.999], rtol=1e-9)
        assert state.step == 1

    def test_zero_gradient_leaves_params_unchanged(self):
        params = scalar_param(2.5)
        state = OptimizerState(kind="lamb", weight_decay=0.0)
        params, _ = optimizer_step(params, {"w": np.zeros(1)}, state)
        np.testing.assert_allclose(params["w"].data, [2.5])

    def test_trust_ratio_clamped(self):
        # tiny weight norm vs unit update direction -> ratio far below clamp;
        # huge weight vs tiny update -> hits the clamp at 10
        params = {"w": Tensor(np.full(4, 100.0), requires_grad=True)}
        state = OptimizerState(kind="lamb", learning_rate=0.1)
        before = params["w"].data.copy()
        params, _ = optimizer_step(params, {"w": np.full(4, 1e-3)}, state)
        moved = np.abs(before - params["w"].data).max()
        # update direction is ~1 after bias correction; clamp caps scale at 10
        assert moved <= 0.1 * 10 * 1.01


class TestAdam:
    def test_first_step_matches_closed_form(self):
        params = scalar_param(1.0)
        state = OptimizerState(kind="adam", learning_rate=0.01, eps=1e-8)
        params, _ = optimizer_step(params, {"w": np.array([0.5])}, state)
        # bias-corrected m_hat = 0.5, v_hat = 0.25 -> update = 0.5/(0.5+eps)
        expected = 1.0 - 0.01 * (0.5 / (np.sqrt(0.25) + 1e-8))
        np.testing.assert_allclose(params["w"].data, [expected], rtol=1e-12)


class TestSchedule:
    def test_warmup_starts_at_zero(self):
        state = OptimizerState(learning_rate=1.0, warmup_steps=10, total_steps=100)
        assert state.effective_lr(0) == 0.0
        np.testing.assert_allclose(state.effective_lr(5), 0.5)
        np.testing.assert_allclose(state.effective_lr(10), 1.0)

    def test_linear_decay_reaches_zero(self):
        state = OptimizerState(learning_rate=1.0, warmup_steps=10, total_steps=100)
        np.testing.assert_allclose(state.effective_lr(55), 0.5)
        assert state.effective_lr(100) == 0.0

    def test_no_decay_mode(self):
        state = OptimizerState(learning_rate=0.3, warmup_steps=0, total_steps=0)
        assert state.effective_lr(12345) == 0.3

    def test_piecewise_linear_peak_at_warmup(self):
        state = OptimizerState(learning_rate=1.0, warmup_steps=20, total_steps=80)
        lrs = [state.effective_lr(t) for t in range(81)]
        assert max(lrs) == lrs[20] == 1.0
        assert lrs[-1] == 0.0
        ramps = np.diff(lrs[:21])
        decays = np.diff(lrs[20:])
        np.testing.assert_allclose(ramps, ramps[0])
        np.testing.assert_allclose(decays, decays[0])


class TestContract:
    @pytest.mark.parametrize("setting,message", [
        (dict(kind="sgd"), "optimizer kind must be adam or lamb, got 'sgd'"),
        (dict(beta1=1.0), "beta1 must lie in [0, 1), got 1.0"),
        (dict(beta1=-0.1), "beta1 must lie in [0, 1), got -0.1"),
        (dict(beta2=1.0), "beta2 must lie in [0, 1), got 1.0"),
        (dict(eps=0.0), "eps must be > 0 and finite, got 0.0"),
        (dict(eps=-1e-8), "eps must be > 0 and finite, got -1e-08"),
        (dict(eps=float("nan")), "eps must be > 0 and finite, got nan"),
        (dict(eps=float("inf")), "eps must be > 0 and finite, got inf"),
        (dict(weight_decay=-0.01), "weight_decay must be >= 0 and finite, got -0.01"),
        (dict(learning_rate=-1.0), "learning_rate must be >= 0 and finite, got -1.0"),
        (dict(learning_rate=float("nan")),
         "learning_rate must be >= 0 and finite, got nan"),
        (dict(learning_rate=float("inf")),
         "learning_rate must be >= 0 and finite, got inf"),
        (dict(warmup_steps=-1), "warmup_steps must be >= 0 and finite, got -1"),
        (dict(total_steps=-1), "total_steps must be >= 0 and finite, got -1"),
        (dict(step=-1), "step must be >= 0 and finite, got -1"),
    ])
    def test_bad_setting_is_refused(self, setting, message):
        with pytest.raises(ContractError) as info:
            OptimizerState(**setting)
        assert str(info.value) == message

    def test_non_finite_gradient_aborts_before_mutation(self):
        params = {"a": Tensor(np.ones(2), requires_grad=True),
                  "b": Tensor(np.ones(2), requires_grad=True)}
        state = OptimizerState()
        with pytest.raises(NonFiniteError, match="'b'"):
            optimizer_step(params, {"a": np.ones(2),
                                    "b": np.array([1.0, np.nan])}, state)
        np.testing.assert_allclose(params["a"].data, np.ones(2))
        assert state.step == 0

    def test_shape_mismatch_rejected(self):
        params = {"w": Tensor(np.ones(3), requires_grad=True)}
        with pytest.raises(ContractError):
            optimizer_step(params, {"w": np.ones(2)}, OptimizerState())

    def test_deterministic_given_identical_state(self):
        def run():
            rng = np.random.default_rng(3)
            params = {"w": Tensor(rng.standard_normal(5), requires_grad=True)}
            state = OptimizerState(kind="lamb", learning_rate=0.05)
            for _ in range(10):
                params, state = optimizer_step(
                    params, {"w": rng.standard_normal(5)}, state)
            return params["w"].data

        np.testing.assert_array_equal(run(), run())

    def test_step_counter_increments_by_one(self):
        params = scalar_param(1.0)
        state = OptimizerState()
        for expected in (1, 2, 3):
            params, state = optimizer_step(params, {"w": np.ones(1)}, state)
            assert state.step == expected
