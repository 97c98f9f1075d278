"""The GRUs that gru_sequence is tested against.

gru_cell is one step composed of the autodiff primitives, so its
gradients come from the generic backward pass, while gru_sequence runs
its own hand-written BPTT. reference_gru_sequence is an earlier
gru_sequence, which saved more for backward; the current op must give
the same bits. Both run their products through nn._product, so the
comparison checks how BPTT is laid out, not how BLAS routes a product.
"""

from __future__ import annotations

import numpy as np

from lemname.nn import (
    _PROJECTION_BLOCK,
    GruParams,
    Rng,
    ShapeMismatch,
    Tensor,
    _product,
    _step_order,
    add,
    linear_init,
    matmul,
    sigmoid,
    tanh,
)


def _sigmoid(data: np.ndarray) -> np.ndarray:
    """The logistic function as gru_sequence computed it before its projection carried the gates' sign."""
    return 1.0 / (1.0 + np.exp(-np.clip(data, -709.0, 709.0)))


def gru_params(parameters: dict, prefix: str, rng: Rng, input_dim: int, hidden_dim: int) -> GruParams:
    """Fresh GRU weights added to the `parameters` dict: w_x, then w_h, drawn from rng, and a zero bias."""
    cell = GruParams(
        w_x=Tensor(linear_init(rng, input_dim, 3 * hidden_dim)),
        w_h=Tensor(linear_init(rng, hidden_dim, 3 * hidden_dim)),
        b=Tensor(np.zeros(3 * hidden_dim)),
    )
    parameters.update({f"{prefix}.{part}": tensor for part, tensor in vars(cell).items()})
    return cell


def gru_cell(x: Tensor, h: Tensor, params: GruParams) -> Tensor:
    """One GRU step over a batch: x is (B, in), h is (B, hidden).

    With all parameters zero the gates sit at 0.5 and the candidate at 0,
    so the new state is exactly 0.5 * h; saturating the update gate keeps
    the state unchanged.
    """
    hidden = h.shape[-1]
    if params.w_x.shape != (x.shape[-1], 3 * hidden) or params.w_h.shape != (hidden, 3 * hidden):
        raise ShapeMismatch(
            f"gru_cell: x {x.shape}, h {h.shape}, w_x {params.w_x.shape}, w_h {params.w_h.shape}"
        )
    gates_x = add(matmul(x, params.w_x), params.b)
    gates_h = matmul(h, params.w_h)
    reset = sigmoid(gates_x[:, :hidden] + gates_h[:, :hidden])
    update = sigmoid(gates_x[:, hidden : 2 * hidden] + gates_h[:, hidden : 2 * hidden])
    candidate = tanh(gates_x[:, 2 * hidden :] + reset * gates_h[:, 2 * hidden :])
    return update * h + (1.0 - update) * candidate


def reference_gru_sequence(x: Tensor, mask, initial: Tensor, params) -> Tensor:
    """gru_sequence as it was before it read previous states from its output.

    Each step saves its previous state beside the gates, the candidate and
    the candidate block of h @ w_h, and backward stacks the whole incoming
    gradient step-major at once. The op's output and every gradient must
    equal this one exactly.
    """
    params = tuple(params)
    mask = np.asarray(mask)
    directions = len(params)
    hidden = params[0].w_h.shape[0] if params else 0
    if (
        directions not in (1, 2)
        or x.data.ndim != 3
        or mask.shape != x.shape[:2]
        or initial.shape != (x.shape[0], directions * hidden)
        or any(
            (p.w_x.shape, p.w_h.shape, p.b.shape) != ((x.shape[2], 3 * hidden), (hidden, 3 * hidden), (3 * hidden,))
            for p in params
        )
    ):
        raise ShapeMismatch(
            f"reference_gru_sequence: x {x.shape}, mask {mask.shape}, initial {initial.shape}, "
            + ", ".join(f"w_x {p.w_x.shape}, w_h {p.w_h.shape}, b {p.b.shape}" for p in params)
        )
    batch, length, width = x.shape
    # One direction's weights are views; two are stacked for the batched products.
    stack = np.stack if directions == 2 else (lambda arrays: arrays[0][None])
    w_x = stack([p.w_x.data for p in params])
    w_h = stack([p.w_h.data for p in params])
    bias = stack([p.b.data for p in params])[:, None, :]
    inputs = _step_order([x.data] * directions)
    real = np.stack(_step_order([mask > 0] * directions)).transpose(2, 0, 1)[..., None]  # (T, D, B, 1)
    padded = ~real.reshape(length, -1).all(axis=1)  # steps where some row carries its state
    out = np.empty((batch, length, directions, hidden))
    out_steps = _step_order([out[:, :, d] for d in range(directions)])
    saved = []  # per step: previous states, reset|update gates, candidates, h @ w_h candidate blocks
    h = np.ascontiguousarray(initial.data.reshape(batch, directions, hidden).transpose(1, 0, 2))
    for start in range(0, length, _PROJECTION_BLOCK):
        stop = min(start + _PROJECTION_BLOCK, length)
        block = np.stack([seq[:, start:stop] for seq in inputs]).reshape(directions, -1, width)
        gates_x = _product(block, w_x)
        gates_x += bias  # in place: no second projection-sized array
        gates_x = gates_x.reshape(directions, batch, stop - start, 3 * hidden)
        for t in range(start, stop):
            gx = gates_x[:, :, t - start]
            gh = _product(h, w_h)
            gates = _sigmoid(gx[..., : 2 * hidden] + gh[..., : 2 * hidden])
            reset, update = gates[..., :hidden], gates[..., hidden:]
            candidate = np.tanh(gx[..., 2 * hidden :] + reset * gh[..., 2 * hidden :])
            saved.append((h, gates, candidate, gh[..., 2 * hidden :].copy()))
            h_next = update * h + (1.0 - update) * candidate
            h = np.where(real[t], h_next, h) if padded[t] else h_next
            for view, state in zip(out_steps, h):
                view[:, t] = state
    out = out.reshape(batch, length, directions * hidden)

    def backward(g):
        g = g.reshape(batch, length, directions, hidden)
        g_steps = np.stack(_step_order([g[:, :, d] for d in range(directions)])).transpose(2, 0, 1, 3)  # (T, D, B, .)
        d_gates_x = np.zeros((directions, batch, length, 3 * hidden))
        d_steps = _step_order(list(d_gates_x))
        d_w_h = np.zeros_like(w_h)
        w_h_t = w_h.transpose(0, 2, 1)
        carry = np.zeros((directions, batch, hidden))
        for t in range(length - 1, -1, -1):
            h_prev, gates, candidate, gh_candidate = saved[t]
            reset, update = gates[..., :hidden], gates[..., hidden:]
            d_h = g_steps[t] + carry
            d_out = np.where(real[t], d_h, 0.0) if padded[t] else d_h
            d_candidate = d_out * (1.0 - update) * (1.0 - candidate * candidate)
            d_step = np.empty((directions, batch, 3 * hidden))
            d_step[..., :hidden] = d_candidate * gh_candidate
            d_step[..., hidden : 2 * hidden] = d_out * (h_prev - candidate)
            d_step[..., : 2 * hidden] *= gates * (1.0 - gates)
            d_step[..., 2 * hidden :] = d_candidate
            for view, grad in zip(d_steps, d_step):
                view[:, t] = grad
            d_gates_h = d_step  # stored above, so the reset factor may now go in place
            d_gates_h[..., 2 * hidden :] *= reset
            d_w_h += _product(h_prev.transpose(0, 2, 1), d_gates_h)
            carry = d_out * update + _product(d_gates_h, w_h_t)
            if padded[t]:
                carry = np.where(real[t], carry, d_h)
        flat_x = x.data.reshape(batch * length, width)
        d_flat = d_gates_x.reshape(directions, batch * length, 3 * hidden)
        d_x = _product(d_flat[0], w_x[0].T)
        for d in range(1, directions):
            d_x += _product(d_flat[d], w_x[d].T)
        per_direction = [(_product(flat_x.T, d_flat[d]), d_w_h[d], d_flat[d].sum(axis=0)) for d in range(directions)]
        return (
            d_x.reshape(batch, length, width),
            carry.transpose(1, 0, 2).reshape(batch, directions * hidden),
            *(grad for grads in per_direction for grad in grads),
        )

    parents = (x, initial, *(tensor for p in params for tensor in (p.w_x, p.w_h, p.b)))
    return Tensor(out, parents, backward)
