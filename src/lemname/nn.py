"""Reverse-mode autodiff over dense float64 arrays, plus GRU and Adam.

A Tensor wraps a numpy array and remembers how it was computed; backward
walks the recorded graph once, iteratively, and accumulates gradients
into .grad. Numerical checks happen in one place, `checked`: under it
numpy raises at the first operation that overflows, divides by zero or
makes a NaN, and the NonFiniteValue it becomes names that operation
("overflow encountered in matmul"). No op scans its output; backward,
adam_step and the model's loss and decoder run checked. A NaN that comes
in from outside sets no flag, so Parameters.load_state rejects
non-finite values. gru_sequence runs a whole recurrent direction as one
op. It is the only GRU the model runs (encoder directions and the
decoder); gru_cell is the single-step reference it is tested against.
Everything downstream of a fixed seed is bit-reproducible.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np


class ShapeMismatch(Exception):
    pass


class NonFiniteValue(Exception):
    pass


@contextmanager
def checked():
    """Turn the first overflow, division by zero or NaN into NonFiniteValue.

    Also a decorator (@checked()). numpy's message names the operation.
    """
    with np.errstate(over="raise", divide="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as err:
            raise NonFiniteValue(str(err)) from err


class Tensor:
    """A float64 array plus the recipe for its gradient."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    def __init__(self, data, _parents=(), _backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = _parents
        self._backward = _backward

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    # Convenience arithmetic; scalars and arrays are wrapped as constants.
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

    def __getitem__(self, key):
        return index(self, key)


def _wrap(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    squeezed = tuple(i for i, size in enumerate(shape) if size == 1 and grad.shape[i] != 1)
    if squeezed:
        grad = grad.sum(axis=squeezed, keepdims=True)
    return grad


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data
    return Tensor(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    out = a.data - b.data
    return Tensor(out, (a, b), lambda g: (_unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data
    return Tensor(
        out,
        (a, b),
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)),
    )


def div(a: Tensor, b: Tensor) -> Tensor:
    out = a.data / b.data
    return Tensor(
        out,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.shape),
        ),
    )


def neg(a: Tensor) -> Tensor:
    return Tensor(-a.data, (a,), lambda g: (-g,))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    out = a.data @ b.data
    return Tensor(out, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def bmm(a: Tensor, b: Tensor) -> Tensor:
    """Batched matmul over stacks of matrices: (B,m,k) @ (B,k,n)."""
    if a.data.ndim != 3 or b.data.ndim != 3 or a.shape[0] != b.shape[0] or a.shape[2] != b.shape[1]:
        raise ShapeMismatch(f"bmm {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)
    return Tensor(
        out,
        (a, b),
        lambda g: (
            np.matmul(g, b.data.transpose(0, 2, 1)),
            np.matmul(a.data.transpose(0, 2, 1), g),
        ),
    )


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


def _sigmoid(data: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(data, -709.0, 709.0)))


def sigmoid(a: Tensor) -> Tensor:
    out = _sigmoid(a.data)
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return Tensor(out, (a,), lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    out = np.log(a.data)
    return Tensor(out, (a,), lambda g: (g / a.data,))


def reshape(a: Tensor, shape) -> Tensor:
    original = a.shape
    return Tensor(a.data.reshape(shape), (a,), lambda g: (g.reshape(original),))


def transpose(a: Tensor, axes) -> Tensor:
    inverse = tuple(np.argsort(axes))
    return Tensor(a.data.transpose(axes), (a,), lambda g: (g.transpose(inverse),))


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ShapeMismatch("concat of no tensors")
    sizes = [t.shape[axis] for t in tensors]
    out = np.concatenate([t.data for t in tensors], axis=axis)
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(sizes))
        )

    return Tensor(out, tuple(tensors), backward)


def index(a: Tensor, key) -> Tensor:
    """Basic indexing (ints, slices, tuples thereof); views are disjoint."""
    out = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return Tensor(out, (a,), backward)


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out, (a,), backward)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out = exps / exps.sum(axis=axis, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return Tensor(out, (a,), backward)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of a (V, E) table selected by an integer id array."""
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeMismatch(f"embedding table must be 2-D, got {table.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch("embedding id out of range")
    out = table.data[ids]

    def backward(g):
        full = np.zeros_like(table.data)
        np.add.at(full, ids.reshape(-1), g.reshape(-1, table.shape[1]))
        return (full,)

    return Tensor(out, (table,), backward)


def gather_index(a: Tensor, ids) -> Tensor:
    """Pick one column per row of a (B, V) tensor: out[b] = a[b, ids[b]]."""
    ids = np.asarray(ids)
    if a.data.ndim != 2 or ids.shape != (a.shape[0],):
        raise ShapeMismatch(f"gather_index on {a.shape} with ids {ids.shape}")
    rows = np.arange(a.shape[0])
    out = a.data[rows, ids]

    def backward(g):
        full = np.zeros_like(a.data)
        full[rows, ids] = g
        return (full,)

    return Tensor(out, (a,), backward)


def _topological_order(root: Tensor) -> list:
    """Parents-before-children order, built iteratively (graphs get deep)."""
    order: list = []
    visited: set = set()
    stack: list = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


@checked()
def backward(loss: Tensor, parameters: "Parameters | None" = None) -> None:
    """Populate .grad on every tensor the loss depends on.

    Gradients of previous calls are discarded for reachable tensors; if a
    parameter set is given, its unreachable members get zero gradients so
    an optimizer step sees a complete gradient map.
    """
    if loss.data.size != 1:
        raise ShapeMismatch(f"backward needs a scalar loss, got shape {loss.shape}")
    order = _topological_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is None or node.grad is None:
            continue
        for parent, grad in zip(node._parents, node._backward(node.grad)):
            if grad is None:
                continue
            if grad.shape != parent.data.shape:
                raise ShapeMismatch(
                    f"gradient shape {grad.shape} for parameter of shape {parent.data.shape}"
                )
            parent.grad = grad if parent.grad is None else parent.grad + grad
    if parameters is not None:
        reachable = {id(node) for node in order}
        for _, tensor in parameters.items():
            if id(tensor) not in reachable:
                tensor.grad = np.zeros_like(tensor.data)


class Parameters:
    """Named trainable tensors, iterated in insertion order."""

    def __init__(self):
        self._tensors: dict = {}

    def add(self, name: str, data) -> Tensor:
        if name in self._tensors:
            raise ValueError(f"duplicate parameter name: {name}")
        tensor = Tensor(np.array(data, dtype=np.float64))
        self._tensors[name] = tensor
        return tensor

    def __getitem__(self, name: str) -> Tensor:
        return self._tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def items(self):
        return self._tensors.items()

    def names(self):
        return list(self._tensors)

    def gradients(self) -> dict:
        return {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in self._tensors.items()
        }

    def state(self) -> dict:
        return {name: t.data.copy() for name, t in self._tensors.items()}

    def load_state(self, state: dict) -> None:
        """All or nothing; rejects non-finite values, which would set no flag in `checked`."""
        missing, extra = set(self._tensors) - set(state), set(state) - set(self._tensors)
        if missing or extra:
            raise ValueError(f"parameter names differ: missing {sorted(missing)}, unexpected {sorted(extra)}")
        values = {name: np.array(state[name], dtype=np.float64) for name in self._tensors}
        for name, value in values.items():
            shape = self._tensors[name].data.shape
            if value.shape != shape:
                raise ShapeMismatch(f"parameter {name}: {value.shape} != {shape}")
            if not np.isfinite(value).all():
                raise ValueError(f"parameter {name} holds non-finite values")
        for name, value in values.items():
            self._tensors[name].data = value


class Rng:
    """Counter-based random stream (Philox); same seed, same sequence everywhere."""

    def __init__(self, seed: int):
        self.seed = seed
        self._gen = np.random.Generator(np.random.Philox(seed))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape).astype(np.float64)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)


def linear_init(rng: Rng, fan_in: int, fan_out: int) -> np.ndarray:
    """Uniform(-a, a) with a = sqrt(6 / (fan_in + fan_out))."""
    bound = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, (fan_in, fan_out))


def embedding_init(rng: Rng, vocab_size: int, dim: int) -> np.ndarray:
    return rng.uniform(-0.1, 0.1, (vocab_size, dim))


@dataclass
class GruParams:
    """Gate weights packed side by side: reset, update, candidate."""

    w_x: Tensor  # (input_dim, 3 * hidden_dim)
    w_h: Tensor  # (hidden_dim, 3 * hidden_dim)
    b: Tensor  # (3 * hidden_dim,)


def gru_params(parameters: Parameters, prefix: str, rng: Rng, input_dim: int, hidden_dim: int) -> GruParams:
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


def gru_sequence(
    x: Tensor, mask, initial: Tensor, params: GruParams, reverse: bool = False, keep_graph: bool = True
) -> Tensor:
    """One GRU direction over a padded batch: x is (B, T, in), mask is (B, T).

    Returns every position's state as one (B, T, hidden) tensor, starting
    from the (B, hidden) initial state. Where the mask is 0 the state is
    carried unchanged, so out[:, -1] (forward) or out[:, 0] (reverse) is
    each row's state after its last real position. The values equal a
    chain of gru_cell steps with that carry, but x @ w_x + b is one GEMM
    outside the time loop, and backward is hand-written BPTT that leaves
    dx, dw_x and db to one GEMM or reduction each after the loop; the
    initial state's gradient is what the loop carries out of its first
    step. Without keep_graph no per-step activations are kept and the
    result has no gradient.
    """
    mask = np.asarray(mask)
    hidden = params.w_h.shape[0]
    if (
        x.data.ndim != 3
        or mask.shape != x.shape[:2]
        or initial.shape != (x.shape[0], hidden)
        or params.w_x.shape != (x.shape[2], 3 * hidden)
        or params.w_h.shape != (hidden, 3 * hidden)
        or params.b.shape != (3 * hidden,)
    ):
        raise ShapeMismatch(
            f"gru_sequence: x {x.shape}, mask {mask.shape}, initial {initial.shape}, "
            f"w_x {params.w_x.shape}, w_h {params.w_h.shape}, b {params.b.shape}"
        )
    batch, length, width = x.shape
    w_x, w_h = params.w_x.data, params.w_h.data
    flat_x = x.data.reshape(batch * length, width)
    gates_x = flat_x @ w_x
    gates_x += params.b.data  # in place: no second (B*T, 3*hidden) array at peak memory
    gates_x = gates_x.reshape(batch, length, 3 * hidden)
    real = (mask > 0)[:, :, None]
    steps = range(length - 1, -1, -1) if reverse else range(length)
    out = np.empty((batch, length, hidden))
    saved = []  # per step: previous state, reset|update gates, candidate, h @ w_h candidate block
    h = initial.data
    for t in steps:
        gx = gates_x[:, t]
        gh = h @ w_h
        gates = _sigmoid(gx[:, : 2 * hidden] + gh[:, : 2 * hidden])
        reset, update = gates[:, :hidden], gates[:, hidden:]
        candidate = np.tanh(gx[:, 2 * hidden :] + reset * gh[:, 2 * hidden :])
        if keep_graph:
            saved.append((h, gates, candidate, gh[:, 2 * hidden :]))
        h = np.where(real[:, t], update * h + (1.0 - update) * candidate, h)
        out[:, t] = h
    if not keep_graph:
        return Tensor(out)

    def backward(g):
        d_gates_x = np.zeros((batch, length, 3 * hidden))
        d_w_h = np.zeros_like(w_h)
        carry = np.zeros((batch, hidden))
        for t, (h_prev, gates, candidate, gh_candidate) in zip(reversed(steps), reversed(saved)):
            reset, update = gates[:, :hidden], gates[:, hidden:]
            d_h = g[:, t] + carry
            d_out = np.where(real[:, t], d_h, 0.0)
            d_step = d_gates_x[:, t]
            d_candidate = d_out * (1.0 - update) * (1.0 - candidate * candidate)
            d_step[:, :hidden] = d_candidate * gh_candidate
            d_step[:, hidden : 2 * hidden] = d_out * (h_prev - candidate)
            d_step[:, : 2 * hidden] *= gates * (1.0 - gates)
            d_step[:, 2 * hidden :] = d_candidate
            d_gates_h = d_step.copy()
            d_gates_h[:, 2 * hidden :] *= reset
            d_w_h += h_prev.T @ d_gates_h
            carry = np.where(real[:, t], d_out * update + d_gates_h @ w_h.T, d_h)
        d_flat = d_gates_x.reshape(batch * length, 3 * hidden)
        return (
            (d_flat @ w_x.T).reshape(batch, length, width),
            carry,
            flat_x.T @ d_flat,
            d_w_h,
            d_flat.sum(axis=0),
        )

    return Tensor(out, (x, initial, params.w_x, params.w_h, params.b), backward)


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict = {}
        self.v: dict = {}


@checked()
def adam_step(
    parameters: Parameters,
    gradients: dict,
    state: AdamState,
    lr: float = 1e-3,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, in place."""
    state.step += 1
    t = state.step
    for name, tensor in parameters.items():
        grad = gradients[name]
        if grad.shape != tensor.data.shape:
            raise ShapeMismatch(f"gradient for {name}: {grad.shape} != {tensor.data.shape}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            v = np.zeros_like(tensor.data)
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + eps)
