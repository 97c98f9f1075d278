"""Autodiff primitives, GRU cell, Adam, and reproducibility checks."""

import numpy as np
import pytest

from gradcheck import finite_difference_check
from lemname import nn
from lemname.nn import (
    AdamState,
    NonFiniteValue,
    Parameters,
    Rng,
    ShapeMismatch,
    Tensor,
    adam_step,
    backward,
    bmm,
    concat,
    embedding_init,
    embedding_lookup,
    gather_index,
    gru_cell,
    gru_params,
    gru_sequence,
    linear_init,
    log,
    matmul,
    reshape,
    sigmoid,
    softmax,
    sum_,
    tanh,
    transpose,
)


class TestForward:
    def test_add_broadcasts(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.arange(3.0))
        assert np.array_equal((a + b).data, np.ones((2, 3)) + np.arange(3.0))

    def test_matmul_values(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0], [6.0]])
        assert np.array_equal(matmul(a, b).data, np.array([[17.0], [39.0]]))

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 9)) * 50.0)
        rows = softmax(x, axis=1).data.sum(axis=1)
        assert np.all(np.abs(rows - 1.0) < 1e-12)

    def test_embedding_picks_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(table, np.array([2, 0]))
        assert np.array_equal(out.data, np.array([[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]]))

    def test_gather_index(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert np.array_equal(gather_index(x, np.array([2, 0])).data, np.array([2.0, 3.0]))


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_bmm_mismatch(self):
        with pytest.raises(ShapeMismatch):
            bmm(Tensor(np.ones((2, 1, 3))), Tensor(np.ones((3, 3, 1))))

    def test_embedding_id_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            embedding_lookup(Tensor(np.ones((4, 2))), np.array([4]))

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeMismatch):
            backward(Tensor(np.ones(3)))


class TestNonFinite:
    """Inside nn.checked() numpy raises at the op, and the message names it."""

    def test_log_of_zero(self):
        with pytest.raises(NonFiniteValue, match="divide by zero encountered in log"), nn.checked():
            log(Tensor([0.0]))

    def test_exp_overflow(self):
        with pytest.raises(NonFiniteValue, match="overflow encountered in exp"), nn.checked():
            nn.exp(Tensor([1000.0]))

    def test_div_by_zero(self):
        with pytest.raises(NonFiniteValue, match="divide by zero encountered in divide"), nn.checked():
            nn.div(Tensor([1.0]), Tensor([0.0]))


class TestBackward:
    def test_shared_input_accumulates(self):
        x = Tensor([3.0])
        y = sum_(x * x + x)
        backward(y)
        assert np.allclose(x.grad, [7.0])  # 2x + 1

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0])
        y = x
        for _ in range(5000):
            y = y * Tensor([1.0])
        backward(sum_(y))
        assert np.allclose(x.grad, [1.0])

    def test_unreachable_parameter_gets_zero_gradient(self):
        params = Parameters()
        used = params.add("used", np.ones(3))
        unused = params.add("unused", np.ones(2))
        backward(sum_(used * used), params)
        assert np.allclose(used.grad, 2.0 * np.ones(3))
        assert np.array_equal(unused.grad, np.zeros(2))

    def test_gradients_reset_between_calls(self):
        x = Tensor([2.0])
        backward(sum_(x * x))
        first = x.grad.copy()
        backward(sum_(x * x))
        assert np.array_equal(x.grad, first)


class TestGradCheckPrimitives:
    """Finite-difference validation of every differentiable primitive."""

    def _params(self, rng, shapes):
        params = Parameters()
        for name, shape in shapes.items():
            params.add(name, rng.normal(size=shape))
        return params

    def test_elementwise_and_matmul(self):
        rng = np.random.default_rng(1)
        params = self._params(rng, {"a": (3, 4), "b": (4, 2), "c": (3, 2)})

        def loss():
            y = matmul(params["a"], params["b"])
            y = tanh(y) * sigmoid(params["c"]) + params["c"]
            return sum_(y * y)

        finite_difference_check(params, loss, rng, n_coords=20)

    def test_softmax_log_exp_div(self):
        rng = np.random.default_rng(2)
        params = self._params(rng, {"a": (4, 5), "b": (4, 5)})

        def loss():
            p = softmax(params["a"], axis=1)
            q = nn.exp(params["b"] * 0.1)
            return sum_(log(p + 1e-3) * q + nn.div(p, q))

        finite_difference_check(params, loss, rng, n_coords=20)

    def test_concat_index_reshape_transpose(self):
        rng = np.random.default_rng(3)
        params = self._params(rng, {"a": (2, 3), "b": (2, 2)})

        def loss():
            joined = concat([params["a"], params["b"]], axis=1)
            part = joined[:, 1:4]
            moved = transpose(reshape(part, (3, 2)), (1, 0))
            return sum_(moved * moved)

        finite_difference_check(params, loss, rng, n_coords=10)

    def test_bmm_and_sum_axis(self):
        rng = np.random.default_rng(4)
        params = self._params(rng, {"a": (2, 3, 4), "b": (2, 4, 2)})

        def loss():
            prod = bmm(params["a"], params["b"])
            return sum_(tanh(sum_(prod, axis=1)))

        finite_difference_check(params, loss, rng, n_coords=15)

    def test_embedding_gather(self):
        rng = np.random.default_rng(5)
        params = self._params(rng, {"table": (6, 4), "w": (4, 6)})
        ids = np.array([1, 5, 3])
        targets = np.array([2, 0, 4])

        def loss():
            hidden = embedding_lookup(params["table"], ids)
            logits = matmul(hidden, params["w"])
            picked = gather_index(softmax(logits, axis=1), targets)
            return sum_(picked)

        finite_difference_check(params, loss, rng, n_coords=20)


class TestGru:
    def test_zero_parameters_halve_the_state(self):
        params = Parameters()
        cell = nn.GruParams(
            w_x=params.add("w_x", np.zeros((3, 12))),
            w_h=params.add("w_h", np.zeros((4, 12))),
            b=params.add("b", np.zeros(12)),
        )
        h = Tensor(np.arange(8.0).reshape(2, 4))
        out = gru_cell(Tensor(np.ones((2, 3))), h, cell)
        assert np.allclose(out.data, 0.5 * h.data)

    def test_saturated_update_gate_keeps_state(self):
        params = Parameters()
        bias = np.zeros(12)
        bias[4:8] = 50.0  # update-gate block
        cell = nn.GruParams(
            w_x=params.add("w_x", np.zeros((3, 12))),
            w_h=params.add("w_h", np.zeros((4, 12))),
            b=params.add("b", bias),
        )
        h = Tensor(np.arange(8.0).reshape(2, 4))
        out = gru_cell(Tensor(np.ones((2, 3))), h, cell)
        assert np.allclose(out.data, h.data)

    def test_shape_validation(self):
        params = Parameters()
        rng = Rng(0)
        cell = gru_params(params, "g", rng, input_dim=3, hidden_dim=4)
        with pytest.raises(ShapeMismatch):
            gru_cell(Tensor(np.ones((2, 5))), Tensor(np.ones((2, 4))), cell)

    def test_gradcheck_through_two_steps(self):
        np_rng = np.random.default_rng(6)
        params = Parameters()
        cell = gru_params(params, "g", Rng(1), input_dim=3, hidden_dim=4)
        xs = [Tensor(np_rng.normal(size=(2, 3))) for _ in range(2)]

        def loss():
            h = Tensor(np.zeros((2, 4)))
            for x in xs:
                h = gru_cell(x, h, cell)
            return sum_(h * h)

        finite_difference_check(params, loss, np_rng, n_coords=20)


def _chained_gru(x, mask, h, cell, reverse):
    """Reference: gru_cell per position from state h, padding carries the state."""
    batch, length, _ = x.shape
    states = [None] * length
    for t in range(length - 1, -1, -1) if reverse else range(length):
        keep = Tensor(mask[:, t : t + 1])
        h = keep * gru_cell(x[:, t, :], h, cell) + (1.0 - keep) * h
        states[t] = reshape(h, (batch, 1, h.shape[1]))
    return concat(states, axis=1)


class TestGruSequence:
    def make(self):
        rng = np.random.default_rng(12)
        params = Parameters()
        cell = gru_params(params, "g", Rng(4), input_dim=5, hidden_dim=6)
        cell.b.data = rng.normal(size=18)
        x = params.add("x", rng.normal(size=(4, 7, 5)))
        h0 = params.add("h0", rng.normal(size=(4, 6)))
        mask = np.array([[1.0] * n + [0.0] * (7 - n) for n in (7, 2, 5, 1)])
        weights = Tensor(rng.normal(size=(4, 7, 6)))
        return params, cell, x, h0, mask, weights

    @pytest.mark.parametrize("reverse", [False, True], ids=["fwd", "bwd"])
    def test_matches_chained_cells(self, reverse):
        params, cell, x, h0, mask, weights = self.make()
        reference = _chained_gru(x, mask, h0, cell, reverse)
        backward(sum_(reference * weights), params)
        expected = {name: t.grad.copy() for name, t in params.items()}
        out = gru_sequence(x, mask, h0, cell, reverse)
        assert np.array_equal(out.data, reference.data)
        backward(sum_(out * weights), params)
        for name in ("x", "h0", "g.w_x", "g.w_h", "g.b"):
            np.testing.assert_allclose(params[name].grad, expected[name], rtol=0, atol=1e-10)

    def test_without_graph_same_values_no_parents(self):
        _, cell, x, h0, mask, _ = self.make()
        free = gru_sequence(x, mask, h0, cell, keep_graph=False)
        assert free._parents == () and free._backward is None
        assert np.array_equal(free.data, gru_sequence(x, mask, h0, cell).data)

    def test_shape_validation(self):
        _, cell, x, h0, mask, _ = self.make()
        with pytest.raises(ShapeMismatch):
            gru_sequence(x, mask[:, :5], h0, cell)
        with pytest.raises(ShapeMismatch):
            gru_sequence(x[:, 0, :], mask, h0, cell)
        with pytest.raises(ShapeMismatch):
            gru_sequence(x[:, :, :4], mask, h0, cell)
        with pytest.raises(ShapeMismatch):
            gru_sequence(x, mask, h0[:3], cell)

    def test_non_finite_output_raises(self):
        _, cell, x, h0, mask, _ = self.make()
        cell.w_x.data *= 1e300
        x.data *= 1e10  # x @ w_x now exceeds the largest float64
        with pytest.raises(NonFiniteValue, match="overflow encountered in matmul"), nn.checked():
            gru_sequence(x, mask, h0, cell)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        params = Parameters()
        p = params.add("p", np.zeros(4))
        grads = {"p": np.array([0.3, -0.7, 2.0, -0.001])}
        adam_step(params, grads, AdamState(), lr=1e-3)
        assert np.allclose(p.data, -1e-3 * np.sign(grads["p"]), atol=1e-5)

    def test_moments_accumulate_deterministically(self):
        def run():
            params = Parameters()
            params.add("p", np.ones((2, 2)))
            state = AdamState()
            for step in range(5):
                grads = {"p": np.full((2, 2), 0.1 * (step + 1))}
                adam_step(params, grads, state)
            return params["p"].data

        assert np.array_equal(run(), run())

    def test_gradient_shape_checked(self):
        params = Parameters()
        params.add("p", np.zeros(4))
        with pytest.raises(ShapeMismatch):
            adam_step(params, {"p": np.zeros(5)}, AdamState())


class TestRngAndInit:
    def test_same_seed_same_stream(self):
        a, b = Rng(42), Rng(42)
        assert np.array_equal(a.uniform(-1, 1, (3, 3)), b.uniform(-1, 1, (3, 3)))
        assert np.array_equal(a.permutation(10), b.permutation(10))

    def test_different_seed_different_stream(self):
        assert not np.array_equal(Rng(1).uniform(0, 1, 8), Rng(2).uniform(0, 1, 8))

    def test_linear_init_bound(self):
        w = linear_init(Rng(3), 30, 50)
        bound = np.sqrt(6.0 / 80.0)
        assert w.shape == (30, 50)
        assert np.all(np.abs(w) <= bound)

    def test_embedding_init_bound(self):
        e = embedding_init(Rng(4), 10, 5)
        assert e.shape == (10, 5)
        assert np.all(np.abs(e) <= 0.1)


class TestParameters:
    def test_duplicate_name_rejected(self):
        params = Parameters()
        params.add("p", np.zeros(1))
        with pytest.raises(ValueError):
            params.add("p", np.zeros(1))

    def test_state_round_trip(self):
        params = Parameters()
        params.add("a", np.arange(4.0))
        saved = params.state()
        params["a"].data[:] = 0.0
        params.load_state(saved)
        assert np.array_equal(params["a"].data, np.arange(4.0))

    def test_load_state_checks_shapes(self):
        params = Parameters()
        params.add("a", np.zeros(3))
        with pytest.raises(ShapeMismatch):
            params.load_state({"a": np.zeros(4)})

    def test_load_state_rejects_missing_and_extra_names(self):
        params = Parameters()
        params.add("a", np.zeros(3))
        with pytest.raises(ValueError, match="missing"):
            params.load_state({})
        with pytest.raises(ValueError, match="unexpected"):
            params.load_state({"a": np.zeros(3), "b": np.zeros(1)})
        assert np.array_equal(params["a"].data, np.zeros(3))

    def test_load_state_rejects_non_finite_values(self):
        params = Parameters()
        params.add("a", np.zeros(3))
        params.add("b", np.zeros(2))
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="b holds non-finite values"):
                params.load_state({"a": np.ones(3), "b": np.array([1.0, bad])})
        assert np.array_equal(params["a"].data, np.zeros(3))
        assert np.array_equal(params["b"].data, np.zeros(2))
