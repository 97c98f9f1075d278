"""The single-step GRU that gru_sequence is tested against.

It composes the autodiff primitives, so its gradients come from the
generic backward pass, while gru_sequence runs its own hand-written BPTT.
"""

from __future__ import annotations

from lemname.nn import GruParams, ShapeMismatch, Tensor, add, matmul, sigmoid, tanh


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
