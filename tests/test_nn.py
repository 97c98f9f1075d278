"""Autodiff primitives, GRU cell, Adam, and reproducibility checks."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradcheck import finite_difference_check
from reference_gru import gru_cell, gru_params, reference_gru_sequence
from lemname import model, nn
from lemname.nn import (
    AdamState,
    NonFiniteValue,
    Rng,
    ShapeMismatch,
    Tensor,
    adam_step,
    backward,
    concat,
    embedding_init,
    embedding_lookup,
    gru_sequence,
    index,
    joined,
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
        rows = softmax(x).data.sum(axis=1)
        assert np.all(np.abs(rows - 1.0) < 1e-12)

    def test_softmax_with_all_ones_mask_is_softmax(self):
        x = Tensor(np.random.default_rng(4).normal(size=(5, 7)) * 10.0)
        assert np.array_equal(softmax(x, mask=np.ones((5, 7))).data, softmax(x).data)

    def test_masked_softmax_is_exactly_zero_where_masked(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(6, 8)) * 10.0)
        mask = (rng.random((6, 8)) < 0.6).astype(float)
        mask[:, 0] = 1.0  # every row keeps a real entry
        out = softmax(x, mask=mask).data
        assert np.all(out[mask == 0] == 0.0)
        assert np.all(out[mask == 1] > 0.0)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) < 1e-12)

    def test_masked_softmax_gradient_is_zero_where_masked(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 6)))
        mask = np.ones((4, 6))
        mask[:, 4:] = 0.0
        mask[2, 1] = 0.0
        backward(sum_(softmax(x, mask=mask) * Tensor(rng.normal(size=(4, 6)))))
        assert np.all(x.grad[mask == 0] == 0.0)
        assert np.all(x.grad[mask == 1] != 0.0)

    def test_embedding_picks_rows(self):
        table = Tensor(np.arange(12.0).reshape(4, 3))
        out = embedding_lookup(table, np.array([2, 0]))
        assert np.array_equal(out.data, np.array([[6.0, 7.0, 8.0], [0.0, 1.0, 2.0]]))

    def test_embedding_gradient_adds_repeats_in_id_order(self):
        # The scatter-add must sum a row's gradients in the order np.add.at
        # does, so trained parameters stay bit-for-bit reproducible.
        rng = np.random.default_rng(3)
        table = Tensor(rng.normal(size=(7, 5)))
        ids = rng.integers(0, 7, size=(6, 9))
        g = rng.normal(size=(6, 9, 5)) * 10.0 ** rng.integers(-8, 8, size=(6, 9, 1))
        (grad,) = embedding_lookup(table, ids)._backward(g)
        expected = np.zeros((7, 5))
        np.add.at(expected, ids.reshape(-1), g.reshape(-1, 5))
        assert grad.tobytes() == expected.tobytes()

    def test_gather_index(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        picked = index(x, (np.arange(2), np.array([2, 0])))
        assert np.array_equal(picked.data, np.array([2.0, 3.0]))
        (grad,) = picked._backward(np.array([5.0, 7.0]))
        assert np.array_equal(grad, np.array([[0.0, 0.0, 5.0], [7.0, 0.0, 0.0]]))


class TestShapeErrors:
    def test_matmul_mismatch(self):
        with pytest.raises(ShapeMismatch):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_stacked_matmul_mismatch(self):
        # 2-D @ 3-D, unequal stack sizes, mismatched inner dimensions
        for a, b in [((2, 3), (2, 3, 4)), ((2, 1, 3), (3, 3, 1)), ((2, 4, 3), (2, 4, 3))]:
            with pytest.raises(ShapeMismatch):
                matmul(Tensor(np.ones(a)), Tensor(np.ones(b)))

    def test_embedding_id_out_of_range(self):
        with pytest.raises(ShapeMismatch):
            embedding_lookup(Tensor(np.ones((4, 2))), np.array([4]))

    @pytest.mark.parametrize("ids", [[1.0, 0.0], [True, False]], ids=["float", "bool"])
    def test_embedding_ids_must_be_integers(self, ids):
        with pytest.raises(ShapeMismatch, match="integers"):
            embedding_lookup(Tensor(np.ones((4, 2))), np.array(ids))

    def test_backward_requires_scalar(self):
        with pytest.raises(ShapeMismatch):
            backward(Tensor(np.ones(3)))


class TestNonFinite:
    """Inside nn.checked() numpy raises at the op, and the message names it."""

    def test_log_of_zero(self):
        with pytest.raises(NonFiniteValue, match="divide by zero encountered in log"), nn.checked():
            log(Tensor([0.0]))

    def test_matmul_overflow(self):
        with pytest.raises(NonFiniteValue, match="overflow encountered in matmul"), nn.checked():
            matmul(Tensor(np.full((2, 2), 1e200)), Tensor(np.full((2, 2), 1e200)))

    def test_fully_masked_softmax_row(self):
        with pytest.raises(NonFiniteValue, match="invalid value encountered in divide"), nn.checked():
            softmax(Tensor(np.ones((2, 3))), mask=np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))


class TestBackward:
    def test_shared_input_accumulates(self):
        x = Tensor([3.0])
        y = sum_(x * x + x)
        backward(y)
        assert np.allclose(x.grad, [7.0])  # 2x + 1

    def test_only_leaves_keep_gradients(self):
        x = Tensor([3.0])
        square = x * x
        total = square + x
        loss = sum_(total)
        backward(loss)
        assert square.grad is None and total.grad is None and loss.grad is None
        assert np.allclose(x.grad, [7.0])

    def test_deep_chain_does_not_recurse(self):
        x = Tensor([1.0])
        y = x
        for _ in range(5000):
            y = y * Tensor([1.0])
        backward(sum_(y))
        assert np.allclose(x.grad, [1.0])

    def test_unreachable_parameter_gets_zero_gradient(self):
        used, unused = Tensor(np.ones(3)), Tensor(np.ones(2))
        backward(sum_(used * used), {"used": used, "unused": unused})
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
        return {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}

    def test_elementwise_and_matmul(self):
        rng = np.random.default_rng(1)
        params = self._params(rng, {"a": (3, 4), "b": (4, 2), "c": (3, 2)})

        def loss():
            y = matmul(params["a"], params["b"])
            y = tanh(y) * sigmoid(params["c"]) + params["c"]
            return sum_(y * y)

        finite_difference_check(params, loss, rng, n_coords=20)

    def test_softmax_masked_softmax_log(self):
        rng = np.random.default_rng(2)
        params = self._params(rng, {"a": (4, 5), "b": (4, 5)})
        mask = np.ones((4, 5))
        mask[:, 3:] = 0.0

        def loss():
            p = softmax(params["a"])
            q = softmax(params["b"], mask=mask)
            return sum_(log(p + 1e-3) * q + p * p)

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

    def test_joined_hands_each_tensor_its_slice(self):
        data = np.arange(24.0).reshape(2, 4, 3)
        parts = [Tensor(data[:, :1]), Tensor(data[:, 1:])]
        whole = joined(data, parts, axis=1)
        assert whole.data is data and whole._parents == tuple(parts)
        g = np.random.default_rng(7).normal(size=data.shape)
        first, rest = whole._backward(g)
        assert np.shares_memory(first, g) and np.shares_memory(rest, g)
        assert np.array_equal(np.concatenate([first, rest], axis=1), g)
        with pytest.raises(ShapeMismatch):
            joined(data, parts[1:], axis=1)
        with pytest.raises(ShapeMismatch):
            joined(data, [Tensor(data[:1, :1]), parts[1]], axis=1)

    def test_stacked_matmul_and_sum_axis(self):
        rng = np.random.default_rng(4)
        params = self._params(rng, {"a": (2, 3, 4), "b": (2, 4, 2)})

        def loss():
            prod = matmul(params["a"], params["b"])
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
            picked = softmax(logits)[np.arange(3), targets]
            return sum_(picked)

        finite_difference_check(params, loss, rng, n_coords=20)


class TestGru:
    def test_zero_parameters_halve_the_state(self):
        cell = nn.GruParams(w_x=Tensor(np.zeros((3, 12))), w_h=Tensor(np.zeros((4, 12))), b=Tensor(np.zeros(12)))
        h = Tensor(np.arange(8.0).reshape(2, 4))
        out = gru_cell(Tensor(np.ones((2, 3))), h, cell)
        assert np.allclose(out.data, 0.5 * h.data)

    def test_saturated_update_gate_keeps_state(self):
        bias = np.zeros(12)
        bias[4:8] = 50.0  # update-gate block
        cell = nn.GruParams(w_x=Tensor(np.zeros((3, 12))), w_h=Tensor(np.zeros((4, 12))), b=Tensor(bias))
        h = Tensor(np.arange(8.0).reshape(2, 4))
        out = gru_cell(Tensor(np.ones((2, 3))), h, cell)
        assert np.allclose(out.data, h.data)

    def test_shape_validation(self):
        cell = gru_params({}, "g", Rng(0), input_dim=3, hidden_dim=4)
        with pytest.raises(ShapeMismatch):
            gru_cell(Tensor(np.ones((2, 5))), Tensor(np.ones((2, 4))), cell)

    def test_gradcheck_through_two_steps(self):
        np_rng = np.random.default_rng(6)
        params = {}
        cell = gru_params(params, "g", Rng(1), input_dim=3, hidden_dim=4)
        xs = [Tensor(np_rng.normal(size=(2, 3))) for _ in range(2)]

        def loss():
            h = Tensor(np.zeros((2, 4)))
            for x in xs:
                h = gru_cell(x, h, cell)
            return sum_(h * h)

        finite_difference_check(params, loss, np_rng, n_coords=20)



MODEL_SHAPES = [(32, 96), (64, 192), (128, 64), (64, 37)]  # K x N of the model's products


@settings(max_examples=80)
@given(
    rows=st.integers(1, 40),
    shape=st.sampled_from(MODEL_SHAPES),
    column=st.booleans(),
    stacked=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_each_row_of_a_product_is_that_row_alone(rows, shape, column, stacked, seed):
    """Bit for bit at any row count, also for a one-column b and for stacks of two."""
    inner, width = shape
    rng = np.random.default_rng(seed)
    lead = (2,) if stacked else ()
    a = rng.normal(size=(*lead, rows, inner))
    b = rng.normal(size=(*lead, inner, 1 if column else width))
    whole = nn._product(a, b)
    np.testing.assert_allclose(whole, np.matmul(a, b), rtol=1e-12, atol=1e-12)
    for i in range(rows):
        assert np.array_equal(whole[..., i : i + 1, :], nn._product(a[..., i : i + 1, :], b)), f"row {i}"


@pytest.mark.parametrize("rows, inner, cols", [(3, 4, 5), (1, 4, 5), (3, 4, 1), (1, 4, 1)])
def test_stacked_matmul_equals_its_slices(rows, inner, cols):
    """Forward and both gradients, bit for bit; 1-row and 1-column slices take _product's branches."""
    rng = np.random.default_rng(rows * 100 + cols)
    a = rng.normal(size=(3, rows, inner))
    b = rng.normal(size=(3, inner, cols))
    g = rng.normal(size=(3, rows, cols))
    stacked = matmul(Tensor(a), Tensor(b))
    d_a, d_b = stacked._backward(g)
    for i in range(3):
        alone = matmul(Tensor(a[i]), Tensor(b[i]))
        d_a_i, d_b_i = alone._backward(g[i])
        assert np.array_equal(stacked.data[i], alone.data), f"forward, slice {i}"
        assert np.array_equal(d_a[i], d_a_i), f"gradient of a, slice {i}"
        assert np.array_equal(d_b[i], d_b_i), f"gradient of b, slice {i}"


_PRODUCT_CALLS = {"matmul", "dot", "einsum", "inner", "tensordot", "vdot"}


def _products_outside(path, exempt):
    """Line numbers of `@` and np.matmul/dot/einsum/inner/tensordot/vdot outside the function `exempt`."""
    found = []

    def visit(node, inside):
        inside = inside or (isinstance(node, ast.FunctionDef) and node.name == exempt)
        if not inside:
            matmult = isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
            numpy_product = (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
                and node.attr in _PRODUCT_CALLS
            )
            if matmult or numpy_product:
                found.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text()), False)
    return found


@pytest.mark.parametrize("module, exempt", [(nn, "_product"), (model, None)], ids=["nn", "model"])
def test_every_product_runs_through_product(module, exempt):
    """The one product rule: in nn and model only nn._product multiplies matrices."""
    assert _products_outside(Path(module.__file__), exempt) == []


def _chained_gru(x, mask, h, cell, reverse):
    """Reference: gru_cell per position from state h, padding carries the state."""
    batch, length, _ = x.shape
    states = [None] * length
    for t in range(length - 1, -1, -1) if reverse else range(length):
        keep = Tensor(mask[:, t : t + 1])
        h = keep * gru_cell(x[:, t, :], h, cell) + (1.0 - keep) * h
        states[t] = reshape(h, (batch, 1, h.shape[1]))
    return concat(states, axis=1)


def _rows(x):
    """x's (B, T, in) positions as a table of rows, and the (B, T) ids that read each row once, in order."""
    batch, length, width = x.shape
    return reshape(x, (batch * length, width)), np.arange(batch * length).reshape(batch, length)


class TestGruSequence:
    def make(self, lengths=(7, 2, 5, 1), steps=7):
        rng = np.random.default_rng(12)
        params = {}
        cells = [gru_params(params, f"g{d}", Rng(4 + d), input_dim=5, hidden_dim=6) for d in range(2)]
        for cell in cells:
            cell.b.data = rng.normal(size=18)
        batch = len(lengths)
        x = params["x"] = Tensor(rng.normal(size=(batch, steps, 5)))
        h0 = params["h0"] = Tensor(rng.normal(size=(batch, 12)))  # distinct non-zero state per direction
        mask = np.array([[1.0] * n + [0.0] * (steps - n) for n in lengths])
        weights = Tensor(rng.normal(size=(batch, steps, 12)))
        return params, cells, x, h0, mask, weights

    def assert_matches_chained_cells(self, params, cells, x, h0, mask, weights):
        references = [
            _chained_gru(x, mask, h0[:, 6 * d : 6 * (d + 1)], cell, reverse=d == 1) for d, cell in enumerate(cells)
        ]
        reference = concat(references, axis=2)
        width = reference.shape[2]
        backward(sum_(reference * weights[:, :, :width]), params)
        expected = {name: t.grad.copy() for name, t in params.items()}
        out = gru_sequence(*_rows(x), mask, h0[:, :width], cells)
        assert np.array_equal(out.data, reference.data)
        backward(sum_(out * weights[:, :, :width]), params)
        names = ["x", "h0"] + [f"g{d}.{w}" for d in range(len(cells)) for w in ("w_x", "w_h", "b")]
        for name in names:
            np.testing.assert_allclose(params[name].grad, expected[name], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("directions", [1, 2], ids=["fwd", "fwd+bwd"])
    def test_matches_chained_cells(self, directions):
        params, cells, x, h0, mask, weights = self.make()
        self.assert_matches_chained_cells(params, cells[:directions], x, h0, mask, weights)

    @pytest.mark.parametrize(
        "lengths, steps",
        [((1, 1, 1), 5), ((4, 1), 70), ((6,), 6), ((1,), 3)],
        ids=["first-position-only", "two-blocks", "one-row", "one-row-first-position-only"],
    )
    def test_edge_batches_match_chained_cells(self, lengths, steps):
        params, cells, x, h0, mask, weights = self.make(lengths, steps)
        self.assert_matches_chained_cells(params, cells, x, h0, mask, weights)

    @pytest.mark.parametrize("directions", [1, 2], ids=["fwd", "fwd+bwd"])
    @pytest.mark.parametrize("batch", [1, 3, 16])
    @pytest.mark.parametrize("initial", ["zero", "random"])
    @pytest.mark.parametrize("into", [False, True], ids=["own-output", "out-slice"])
    def test_equals_the_reference_bit_for_bit(self, directions, batch, initial, into):
        """Output and every gradient equal the op that saved previous states.

        Over three blocks with ragged rows, and over one step with and
        without a padded row (one step with no padded row takes the one-step
        path), each with and without the graph.
        """
        width, hidden = 5, 6
        rng = np.random.default_rng(batch * 10 + directions)
        cells = [gru_params({}, "g", Rng(d), input_dim=width, hidden_dim=hidden) for d in range(directions)]
        for cell in cells:
            cell.b.data = rng.normal(size=3 * hidden)
        for steps, padded_row in ((70, True), (1, False), (1, True)):
            x = Tensor(rng.normal(size=(batch, steps, width)))
            lengths = rng.integers(1, steps + 1, size=batch)
            lengths[0] = steps  # one row real to the end, the others ragged
            mask = (np.arange(steps) < lengths[:, None]).astype(float)
            if steps == 1 and padded_row:
                mask[-1] = 0.0  # the only row when batch is 1
            h0 = Tensor(np.zeros((batch, directions * hidden)) if initial == "zero" else rng.normal(size=(batch, directions * hidden)))
            g = rng.normal(size=(batch, steps, directions * hidden))
            expected = reference_gru_sequence(x, mask, h0, cells)
            table, ids = _rows(x)
            for keep_graph in (True, False):
                frame = np.full((batch, steps + 4, directions * hidden + 3), np.nan)
                out = frame[:, 2 : 2 + steps, 1 : 1 + directions * hidden] if into else None
                result = gru_sequence(Tensor(table.data), ids, mask, h0, cells, keep_graph=keep_graph, out=out)
                assert np.array_equal(result.data, expected.data), (steps, padded_row, keep_graph)
                if into:
                    assert result.data is out
                if not keep_graph:
                    assert result._backward is None
                    continue
                grads = result._backward(g)
                assert len(grads) == 2 + 3 * directions
                d_x, *rest = expected._backward(g)
                assert np.array_equal(grads[0], d_x.reshape(table.shape))
                for got, want in zip(grads[1:], rest):
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("steps", [40, 1], ids=["sequence", "one-step"])
    def test_saturated_gates_stay_finite_and_equal_the_reference(self, steps):
        """Pre-activations of about ±1e4 from finite weights: the gates' clip keeps exp finite under checked()."""
        batch, width, hidden = 3, 5, 6
        rng = np.random.default_rng(7)
        cells = [gru_params({}, "g", Rng(d), input_dim=width, hidden_dim=hidden) for d in range(2)]
        for cell in cells:
            cell.w_x.data *= 1e4
            cell.w_h.data *= 1e4
        x = Tensor(rng.normal(size=(batch, steps, width)))
        h0 = Tensor(rng.uniform(-1, 1, size=(batch, 2 * hidden)))
        mask = np.ones((batch, steps))
        pre_activations = np.abs(x.data @ cells[0].w_x.data[:, : 2 * hidden])
        assert pre_activations.max() > 1e4 and np.all(np.isfinite(pre_activations))
        expected = reference_gru_sequence(x, mask, h0, cells)
        with nn.checked():
            result = gru_sequence(*_rows(x), mask, h0, cells)
        assert np.array_equal(result.data, expected.data)

    def test_out_must_match_the_result(self):
        _, cells, x, h0, mask, _ = self.make()
        for out in (np.empty((4, 7, 11)), np.empty((4, 7, 12), dtype=np.float32)):
            with pytest.raises(ShapeMismatch, match="out"):
                gru_sequence(*_rows(x), mask, h0, cells, out=out)

    def test_keeps_four_hidden_values_per_step_and_row(self):
        """What backward reads: both gates, the candidate and its h @ w_h block; previous states are the output."""
        batch, steps, width, hidden, directions = 16, 128, 32, 32, 2
        rng = np.random.default_rng(3)
        cells = [gru_params({}, "g", Rng(d), input_dim=width, hidden_dim=hidden) for d in range(directions)]
        x = Tensor(rng.normal(size=(batch, steps, width)))
        h0 = Tensor(np.zeros((batch, directions * hidden)))
        mask = np.ones((batch, steps))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = gru_sequence(*_rows(x), mask, h0, cells)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert out._backward is not None
        budget = (steps * directions * batch * 4 * hidden + batch * steps * directions * hidden) * 8
        assert held <= 1.1 * budget, f"{held / 2**20:.2f} MiB held, budget {budget / 2**20:.2f} MiB"

    def test_backward_stages_one_block_at_a_time(self):
        """Backward's rise, phase by phase: BPTT with one block staged, d_w_x, d_x, the table's gradient."""
        batch, steps, width, hidden, directions = 16, 128, 32, 32, 2
        rng = np.random.default_rng(4)
        cells = [gru_params({}, "g", Rng(d), input_dim=width, hidden_dim=hidden) for d in range(directions)]
        x = Tensor(rng.normal(size=(batch, steps, width)))
        h0 = Tensor(np.zeros((batch, directions * hidden)))
        mask = (np.arange(steps) < rng.integers(1, steps + 1, size=(batch, 1))).astype(float)
        out = gru_sequence(*_rows(x), mask, h0, cells)
        g = rng.normal(size=out.shape)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grads = out._backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert len(grads) == 2 + 3 * directions
        d_gates_x = directions * batch * steps * 3 * hidden
        d_x = batch * steps * width
        staging = 2 * nn._PROJECTION_BLOCK * directions * batch * hidden
        flat_x = batch * steps * width  # the inputs d_w_x reads, gathered from the table
        cells = batch * steps * width  # the scatter's int64 cell per input value
        d_table = batch * steps * width  # the table's gradient: one row per position here
        phases = (
            d_gates_x + staging,  # BPTT
            d_gates_x + flat_x,  # d_w_x
            d_gates_x + 2 * d_x,  # d_x and one direction's product
            d_x + cells + d_table,  # the scatter, after d_gates_x is freed
        )
        budget = max(phases) * 8
        assert peak <= 1.1 * budget, f"{peak / 2**20:.2f} MiB peak, budget {budget / 2**20:.2f} MiB"

    def test_graph_free_call_holds_one_block_of_each(self):
        """A graph-free call at the serve encoder shape: the output, one projection block and one state block.

        Besides these the call holds the two directions' stacked weights and,
        while it projects, one direction's distinct rows and their projection
        (a vocabulary's worth at most, small at the serve model's input
        vocabulary). The gate arrays are made once per call.
        """
        batch, steps, width, hidden, directions, vocab = 20, 128, 32, 32, 2, 40
        rng = np.random.default_rng(5)
        cells = [gru_params({}, "g", Rng(d), input_dim=width, hidden_dim=hidden) for d in range(directions)]
        table = Tensor(rng.normal(size=(vocab, width)))
        ids = rng.integers(0, vocab, size=(batch, steps))
        h0 = Tensor(np.zeros((batch, directions * hidden)))
        mask = (np.arange(steps) < rng.integers(1, steps + 1, size=(batch, 1))).astype(float)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = gru_sequence(table, ids, mask, h0, cells, keep_graph=False)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        output = batch * steps * directions * hidden
        projection_block = directions * nn._PROJECTION_BLOCK * batch * 3 * hidden
        state_block = nn._STATE_BLOCK * directions * batch * hidden
        weights = directions * (width + hidden + 1) * 3 * hidden
        distinct = vocab * (width + 3 * hidden)
        budget = (output + projection_block + state_block + weights + distinct) * 8
        assert out.shape == (batch, steps, directions * hidden)
        assert peak <= 1.1 * budget, f"{peak / 2**20:.2f} MiB peak, budget {budget / 2**20:.2f} MiB"

    def test_without_graph_same_values_no_parents(self):
        _, cells, x, h0, mask, _ = self.make()
        free = gru_sequence(*_rows(x), mask, h0, cells, keep_graph=False)
        assert free._parents == () and free._backward is None
        assert np.array_equal(free.data, gru_sequence(*_rows(x), mask, h0, cells).data)

    def test_shape_validation(self):
        _, cells, x, h0, mask, _ = self.make()
        table, ids = _rows(x)
        with pytest.raises(ShapeMismatch):
            gru_sequence(table, ids, mask[:, :5], h0, cells)
        with pytest.raises(ShapeMismatch):
            gru_sequence(table, ids[:, 0], mask, h0, cells)
        with pytest.raises(ShapeMismatch):
            gru_sequence(table, ids[..., None], mask, h0, cells)
        with pytest.raises(ShapeMismatch):
            gru_sequence(table[:, :4], ids, mask, h0, cells)
        with pytest.raises(ShapeMismatch, match="2-D"):
            gru_sequence(x, ids, mask, h0, cells)
        with pytest.raises(ShapeMismatch):
            gru_sequence(table, ids, mask, h0[:3], cells)
        with pytest.raises(ShapeMismatch):  # one or two directions, no other count
            gru_sequence(table, ids, mask, h0, ())
        with pytest.raises(ShapeMismatch):
            gru_sequence(table, ids, mask, Tensor(np.zeros((4, 18))), (*cells, cells[0]))

    def test_ids_without_steps_are_a_shape_mismatch(self):
        _, cells, x, h0, mask, _ = self.make()
        table, ids = _rows(x)
        with pytest.raises(ShapeMismatch):
            gru_sequence(table, ids[:, :0], mask[:, :0], h0, cells)

    @pytest.mark.parametrize("bad", [-1, 28], ids=["negative", "past-the-table"])
    def test_ids_must_be_rows_of_the_table(self, bad):
        _, cells, x, h0, mask, _ = self.make()
        table, ids = _rows(x)
        ids[2, 3] = bad
        with pytest.raises(ShapeMismatch, match="out of range"):
            gru_sequence(table, ids, mask, h0, cells)

    @pytest.mark.parametrize("dtype", [np.float64, bool], ids=["float", "bool"])
    def test_ids_must_be_integers(self, dtype):
        """A float id would reach numpy's indexing; a bool array would pass the range check and index as a mask."""
        _, cells, x, h0, mask, _ = self.make()
        table, ids = _rows(x)
        with pytest.raises(ShapeMismatch, match="integers"):
            gru_sequence(table, (ids % 2).astype(dtype), mask, h0, cells)

    def test_initial_width_must_be_directions_times_hidden(self):
        _, cells, x, h0, mask, _ = self.make()
        with pytest.raises(ShapeMismatch, match="initial"):
            gru_sequence(*_rows(x), mask, h0[:, :6], cells)
        with pytest.raises(ShapeMismatch, match="initial"):
            gru_sequence(*_rows(x), mask, h0, cells[:1])

    def test_directions_must_share_parameter_shapes(self):
        params, cells, x, h0, mask, _ = self.make()
        narrow = gru_params(params, "narrow", Rng(9), input_dim=5, hidden_dim=4)
        wide_input = gru_params(params, "wide", Rng(9), input_dim=7, hidden_dim=6)
        for other in (narrow, wide_input):
            with pytest.raises(ShapeMismatch):
                gru_sequence(*_rows(x), mask, h0, (cells[0], other))

    def test_non_finite_output_raises(self):
        _, cells, x, h0, mask, _ = self.make()
        cells[0].w_x.data *= 1e300
        x.data *= 1e10  # x @ w_x now exceeds the largest float64
        with pytest.raises(NonFiniteValue, match="overflow encountered in matmul"), nn.checked():
            gru_sequence(*_rows(x), mask, h0[:, :6], cells[:1])

    def test_overflow_in_the_reverse_direction_alone_raises(self):
        _, cells, x, h0, mask, _ = self.make()
        cells[1].w_x.data *= 1e300
        x.data *= 1e10
        with nn.checked():
            gru_sequence(*_rows(x), mask, h0[:, :6], cells[:1])  # the forward direction alone stays finite
        with pytest.raises(NonFiniteValue, match="overflow encountered in matmul"), nn.checked():
            gru_sequence(*_rows(x), mask, h0, cells)


@settings(max_examples=60)
@given(
    vocab=st.integers(1, 60),
    steps=st.integers(1, 70),
    batch=st.sampled_from([1, 3, 16]),
    directions=st.sampled_from([1, 2]),
    random_initial=st.booleans(),
    into=st.booleans(),
    seed=st.integers(0, 2**16),
)
def test_reading_through_the_table_equals_reading_its_rows(vocab, steps, batch, directions, random_initial, into, seed):
    """Ids projected once per distinct id give the bits of a table with one row per position.

    A vocabulary of one takes _product's one-row path; small vocabularies
    repeat ids within and across blocks of _PROJECTION_BLOCK steps. The
    table's gradient is embedding_lookup's scatter of the rows' gradient.
    """
    width, hidden = 5, 6
    rng = np.random.default_rng(seed)
    cells = [gru_params({}, "g", Rng(seed + d), input_dim=width, hidden_dim=hidden) for d in range(directions)]
    for cell in cells:
        cell.b.data = rng.normal(size=3 * hidden)
    table = Tensor(rng.normal(size=(vocab, width)))
    ids = rng.integers(0, vocab, size=(batch, steps))
    lengths = rng.integers(1, steps + 1, size=batch)
    lengths[0] = steps
    mask = (np.arange(steps) < lengths[:, None]).astype(float)
    h0 = Tensor(rng.normal(size=(batch, directions * hidden)) if random_initial else np.zeros((batch, directions * hidden)))
    g = rng.normal(size=(batch, steps, directions * hidden))
    rows = Tensor(table.data[ids].reshape(-1, width))
    expected = gru_sequence(rows, np.arange(batch * steps).reshape(batch, steps), mask, h0, cells)
    frame = np.full((batch, steps, directions * hidden + 2), np.nan)
    out = frame[:, :, 1:-1] if into else None
    result = gru_sequence(table, ids, mask, h0, cells, out=out)
    assert np.array_equal(result.data, expected.data)
    d_table, *rest = result._backward(g)
    d_rows, *expected_rest = expected._backward(g)
    (scattered,) = embedding_lookup(table, ids)._backward(d_rows.reshape(batch, steps, width))
    assert np.array_equal(d_table, scattered)
    for got, want in zip(rest, expected_rest):
        assert np.array_equal(got, want)


class TestAdam:
    def test_first_step_is_signed_learning_rate(self):
        p = Tensor(np.zeros(4))
        p.grad = np.array([0.3, -0.7, 2.0, -0.001])
        adam_step({"p": p}, AdamState(), lr=1e-3)
        assert np.allclose(p.data, -1e-3 * np.sign(p.grad), atol=1e-5)

    def test_moments_accumulate_deterministically(self):
        def run():
            p = Tensor(np.ones((2, 2)))
            state = AdamState()
            for step in range(5):
                p.grad = np.full((2, 2), 0.1 * (step + 1))
                adam_step({"p": p}, state, lr=1e-3)
            return p.data

        assert np.array_equal(run(), run())

    def test_gradient_shape_checked(self):
        p = Tensor(np.zeros(4))
        p.grad = np.zeros(5)
        with pytest.raises(ShapeMismatch):
            adam_step({"p": p}, AdamState(), lr=1e-3)


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

