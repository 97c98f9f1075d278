"""The single-step GRU that gru_sequence is tested against.

It composes the autodiff primitives, so its gradients come from the
generic backward pass, while gru_sequence runs its own hand-written BPTT.
"""

from __future__ import annotations

import numpy as np

from lemname.nn import GruParams, Parameters, Rng, ShapeMismatch, Tensor, add, linear_init, matmul, sigmoid, tanh


def gru_params(parameters: Parameters, prefix: str, rng: Rng, input_dim: int, hidden_dim: int) -> GruParams:
    """Fresh GRU weights added to `parameters`: w_x, then w_h, drawn from rng, and a zero bias."""
    return GruParams(
        w_x=parameters.add(f"{prefix}.w_x", linear_init(rng, input_dim, 3 * hidden_dim)),
        w_h=parameters.add(f"{prefix}.w_h", linear_init(rng, hidden_dim, 3 * hidden_dim)),
        b=parameters.add(f"{prefix}.b", np.zeros(3 * hidden_dim)),
    )


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
