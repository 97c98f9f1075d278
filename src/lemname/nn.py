"""Reverse-mode autodiff over dense float64 arrays, plus GRU and Adam.

A Tensor wraps a numpy array and remembers how it was computed; backward
walks the recorded graph once, iteratively, and accumulates gradients
into .grad. Only leaves (tensors no op computed, every parameter among
them) keep their gradients: an intermediate node's gradient is freed as
soon as its own backward has consumed it. Numerical checks happen in one
place, `checked`: under it numpy raises at the first operation that
overflows, divides by zero or makes a NaN, and the NonFiniteValue it
becomes names that operation ("overflow encountered in matmul"). No op
scans its output; backward, adam_step and the model's loss and decoder
run checked. A NaN that comes in from outside sets no flag, so
model.load_checkpoint rejects non-finite parameters. gru_sequence runs one
or two recurrent directions over a whole sequence as one op, both
directions in one time loop. It reads its inputs as rows of an
embedding table by integer id and, per block of steps, projects each
distinct id a direction reads in the block once, so no (B, T, in) input
exists. Its steps run in place, on arrays made once per call: the
projection carries the reset and update gates' sign, so the gates take
no negation pass, and the states are staged 8 steps at a time. A
one-step call with no padded row (a beam step) skips the per-block
set-up. It saves for backward only what BPTT reads: 4*hidden values per
step, direction and row, since BPTT reads each previous state from the
op's own output (or the initial state) and stages its inputs one block
of steps at a time. It can write its output into a caller's array, so
the encoder's streams fill one array that `joined` presents as their
concat without copying. It is the only GRU the model runs (one call per
encoder stream, one for the decoder, which passes its looked-up inputs
as a table with one row per position); the tests check it against a
chain of single GRU steps and, bit for bit, against an earlier version
that saved the previous states and against itself reading one table row
per position.
Each concept has one op. matmul multiplies 2-D operands or equal stacks
of them; index takes basic keys and gather keys such as
(np.arange(rows), ids); softmax normalizes the last axis, for both the
output vocabulary and the decoder's attention, which passes a 0/1 mask
so padding gets exactly 0.
A fixed seed does not make every result bit-reproducible: BLAS may sum
a product in another order when its thread count changes, so checkpoint
bytes can depend on the BLAS thread count. Every matrix product in nn
and model runs through _product (matmul, gru_sequence), so each row of a
product rounds as it would among any other rows; tests/test_nn.py checks
that no other product appears in the two modules. A lemma's suggestion
scores still depend, in the last bits, on its batch's padded length
(attention's max and sum run over padding).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

try:  # the clip ufunc itself: np.clip's argument handling costs more than the clip
    from numpy._core.umath import clip as _clip
except ImportError:  # numpy < 2
    from numpy.core.umath import clip as _clip

from . import DomainError


class ShapeMismatch(Exception):
    pass


class NonFiniteValue(DomainError):
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

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for 2-D or stacked operands, each row rounded as among any other rows.

    BLAS sums a one-row or one-column product in gemv, in another order than
    GEMM; so a one-column b is a row-wise product and sum, a one-row a runs twice.
    """
    if b.shape[-1] == 1:
        return (a * np.swapaxes(b, -1, -2)).sum(axis=-1, keepdims=True)
    if a.shape[-2] == 1:
        return np.matmul(np.concatenate([a, a], axis=-2), b)[..., :1, :]
    return np.matmul(a, b)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """(m, k) @ (k, n), or equal stacks of such operands, e.g. (B, m, k) @ (B, k, n).

    Forward and backward run through _product, so a stacked product equals
    the 2-D products of its slices bit for bit.
    """
    if a.data.ndim < 2 or b.data.ndim != a.data.ndim or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeMismatch(f"matmul {a.shape} @ {b.shape}")
    out = _product(a.data, b.data)
    return Tensor(
        out,
        (a, b),
        lambda g: (_product(g, np.swapaxes(b.data, -1, -2)), _product(np.swapaxes(a.data, -1, -2), g)),
    )


def tanh(a: Tensor) -> Tensor:
    out = np.tanh(a.data)
    return Tensor(out, (a,), lambda g: (g * (1.0 - out * out),))


# 0-d arrays: at a GRU step's sizes numpy converts a Python float (or
# broadcasts a one-element array) slower than it does the arithmetic.
_ONE, _CLIP_LOW, _CLIP_HIGH = np.array(1.0), np.array(-709.0), np.array(709.0)


def _negated_sigmoid(z: np.ndarray) -> np.ndarray:
    """sigmoid(-z), the one gate formula, in place in z: the clip keeps exp(z) finite."""
    _clip(z, _CLIP_LOW, _CLIP_HIGH, out=z)
    np.exp(z, out=z)
    np.add(z, _ONE, out=z)
    return np.divide(_ONE, z, out=z)


def sigmoid(a: Tensor) -> Tensor:
    out = _negated_sigmoid(-a.data)
    return Tensor(out, (a,), lambda g: (g * out * (1.0 - out),))


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
    return joined(np.concatenate([t.data for t in tensors], axis=axis), tensors, axis)


def joined(data: np.ndarray, tensors, axis: int) -> Tensor:
    """`data` as the concat of `tensors`, whose data already fill it in order along axis.

    Nothing is copied: each tensor's data must be its slice of `data`, as
    gru_sequence writes it through `out` (concat passes a fresh copy).
    Backward hands each tensor its slice of the gradient as a view.
    """
    tensors = tuple(tensors)
    offsets = np.cumsum([0] + [t.shape[axis] for t in tensors])
    others = data.shape[:axis] + data.shape[axis + 1 :]
    if offsets[-1] != data.shape[axis] or any(t.shape[:axis] + t.shape[axis + 1 :] != others for t in tensors):
        raise ShapeMismatch(f"joined: {data.shape} from {[t.shape for t in tensors]} along axis {axis}")
    lead = (slice(None),) * axis

    def backward(g):
        return tuple(g[(*lead, slice(a, b))] for a, b in zip(offsets[:-1], offsets[1:]))

    return Tensor(data, tensors, backward)


def index(a: Tensor, key) -> Tensor:
    """a.data[key] for basic keys (ints, slices) and gather keys (integer arrays).

    `Tensor[(np.arange(rows), ids)]` picks one entry per row. The backward
    assigns the gradient into a zero array, so a key must select each entry
    at most once; embedding_lookup is the op for repeated ids (it adds).
    """
    out = a.data[key]

    def backward(g):
        full = np.zeros_like(a.data)
        full[key] = g
        return (full,)

    return Tensor(out, (a,), backward)


def sum_(a: Tensor, axis=None) -> Tensor:
    out = a.data.sum(axis=axis)

    def backward(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor(out, (a,), backward)


def softmax(a: Tensor, mask=None) -> Tensor:
    """exp(a) normalized over the last axis; entries where a 0/1 mask is 0 are exactly 0.

    The shift is the maximum over every entry, masked ones included, and
    the mask multiplies the exps before they are summed. Each row needs a
    mask-1 entry (attention has one: every record has a real position); a
    fully masked row sums to 0 and under checked() raises NonFiniteValue.
    The backward, (g - sum(g * out)) * out, is 0 wherever out is.
    """
    shifted = a.data - a.data.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    if mask is not None:
        exps *= mask
    out = exps / exps.sum(axis=-1, keepdims=True)

    def backward(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return ((g - inner) * out,)

    return Tensor(out, (a,), backward)


def _embedding_ids(table: Tensor, ids) -> np.ndarray:
    """ids as an array of rows of the 2-D table, or ShapeMismatch."""
    ids = np.asarray(ids)
    if table.data.ndim != 2:
        raise ShapeMismatch(f"embedding table must be 2-D, got {table.shape}")
    if not np.issubdtype(ids.dtype, np.integer):  # a bool array would index as a row mask
        raise ShapeMismatch(f"embedding ids must be integers, got {ids.dtype}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch("embedding id out of range")
    return ids


def _scatter_rows(ids: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """The (V, E) table gradient of rows picked by ids: g's rows summed per id, in id order."""
    rows, width = shape
    cells = (ids.reshape(-1, 1) * width + np.arange(width)).ravel()
    return np.bincount(cells, weights=g.ravel(), minlength=rows * width).reshape(rows, width)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Rows of a (V, E) table selected by an integer id array."""
    ids = _embedding_ids(table, ids)
    return Tensor(table.data[ids], (table,), lambda g: (_scatter_rows(ids, g, table.shape),))


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
def backward(loss: Tensor, parameters: dict | None = None) -> None:
    """Populate .grad on every leaf the loss depends on.

    Leaves are tensors without a recorded backward; every parameter is
    one. An intermediate node's gradient is set to None as soon as its
    backward has run, so at most the gradients still to be consumed are
    alive at once. Gradients are summed into new arrays, never in place,
    so an op's backward may hand its parents views of its gradient.
    Gradients of previous calls are discarded for reachable tensors; if
    a {name: Tensor} parameter dict is given, its unreachable members get
    zero gradients, so every parameter has a .grad for adam_step to read.
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
        grads = node._backward(node.grad)
        node.grad = None
        for parent, grad in zip(node._parents, grads):
            if grad.shape != parent.data.shape:
                raise ShapeMismatch(
                    f"gradient shape {grad.shape} for parameter of shape {parent.data.shape}"
                )
            parent.grad = grad if parent.grad is None else parent.grad + grad
    if parameters is not None:
        reachable = {id(node) for node in order}
        for tensor in parameters.values():
            if id(tensor) not in reachable:
                tensor.grad = np.zeros_like(tensor.data)


class Rng:
    """Counter-based random stream (Philox); same seed, same sequence everywhere."""

    def __init__(self, seed: int):
        self._gen = np.random.Generator(np.random.Philox(seed))

    def uniform(self, low: float, high: float, shape) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

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


# Time steps whose input projection is made at once, and whose BPTT inputs
# are staged as one copy. A block rather than the whole sequence bounds the
# projection at (D, B*32, 3*hidden) and the staging at 2 * (32, D, B, hidden),
# so long inputs never hold either for the whole sequence.
_PROJECTION_BLOCK = 32

# Steps whose states are staged step-major, then copied into the output at
# once: 32 steps raised serve's peak RSS, one copy per step was slower.
_STATE_BLOCK = 8


def _distinct(ids: np.ndarray, slot: np.ndarray) -> tuple:
    """(distinct, inverse) of a flat id array: each id once, and ids == distinct[inverse].

    slot is scratch with an entry per table row; only the entries of ids
    are written, then read. Which position of an id wins the first write
    does not matter: each id keeps the one position that reads itself
    back. The second write gives each distinct id its index. It sorts
    nothing, so on a block of 32 to 640 ids it takes a quarter to a
    third of the time of np.unique(ids, return_inverse=True).
    """
    positions = np.arange(len(ids))
    slot[ids] = positions
    distinct = ids[slot[ids] == positions]
    slot[distinct] = positions[: len(distinct)]
    return distinct, slot[ids]


def _step_order(arrays: list) -> list:
    """Direction d's (B, T, ...) array as a view in the order its steps visit T."""
    return [a if d == 0 else a[:, ::-1] for d, a in enumerate(arrays)]


def _folded_projection(rows: np.ndarray, w_x: np.ndarray, bias: np.ndarray, hidden: int) -> np.ndarray:
    """rows @ w_x + bias, its reset and update columns negated: minus h @ w_h, the gates' negated input."""
    projected = _product(rows, w_x)
    projected += bias
    np.negative(projected[..., : 2 * hidden], out=projected[..., : 2 * hidden])
    return projected


def _direction_steps(a: np.ndarray, directions: int) -> list:
    """Direction d's columns of a (B, T, D*hidden) array as (B, T, hidden) views, in the order its steps visit T."""
    batch, length, width = a.shape
    split = a.reshape(batch, length, directions, width // directions)  # a view: only the last axis splits
    return _step_order([split[:, :, d] for d in range(directions)])


def gru_sequence(table: Tensor, ids, mask, initial: Tensor, params, keep_graph: bool = True, out=None) -> Tensor:
    """D = len(params) GRU directions over one padded batch of ids, in one time loop.

    The input at position (b, t) is row ids[b, t] of the 2-D (V, in)
    table. ids is a (B, T) integer array with T >= 1 (ShapeMismatch for
    another dtype, no steps or an id outside the table) and mask (B, T);
    every direction reads both. D is 1 or 2; direction 0 runs from the
    first position to the last, direction 1 from the last to the first.
    initial is (B, D*hidden) and the result (B, T, D*hidden), direction d
    in columns d*hidden:(d+1)*hidden. The result is written into `out`
    when one is given, a float64 array of that shape (a slice of a larger
    array will do), and the result's data is then `out` itself; BPTT
    reads it, so it must not change before backward. Where the mask is 0 a direction
    carries its state unchanged, so out[:, -1, :hidden] and
    out[:, 0, hidden:] are each row's states after its last real
    position. Values equal a chain of single GRU steps per direction with
    that carry.
    Forward: the input projection table[id] @ w_x + b is made per block
    of _PROJECTION_BLOCK steps, one GEMM per direction over the distinct
    ids the direction reads in the block, and laid out per step; so the
    forward holds at most (D, B*32, 3*hidden) of it plus one direction's
    distinct rows, and no (B, T, in) input. As every product runs through
    _product, each row equals the one a per-position projection makes,
    bit for bit. Its reset and update columns come out negated
    (_folded_projection, exact), so a step's gates are _negated_sigmoid
    of gx - h @ w_h. A step runs every direction at once: one
    (D, B, hidden) @ (D, hidden, 3*hidden) product, then the gate
    arithmetic in place into arrays made once per call (keep_graph makes
    anew the gates and candidate it saves). States are staged step-major,
    _STATE_BLOCK steps at a time, then copied into the output. A call with
    one step and no padded row (a beam step) projects table[ids[:, 0]]
    and writes into the output, with no per-block or padding set-up.
    Backward is hand-written BPTT over the same loop; after it, d_x, dw_x
    and db are one GEMM or reduction per direction (dw_x reads the
    inputs, gathered from the table only then), and d_x sums over
    directions. The table's gradient is d_x summed per id, as
    embedding_lookup's backward sums it. The initial state's gradient is
    what the loop carries out of its first step. For BPTT each step saves
    4*hidden values per direction and row: the reset and update gates,
    the candidate and the candidate block of h @ w_h (copied out, so the
    rest of that product is freed). A step's previous state is read from
    the output (the previous step's state, padding included, since
    padding carries it) or, at the first step, from `initial`. BPTT
    stages its inputs once per block of _PROJECTION_BLOCK steps: one
    (steps, D, B, hidden) copy of the block's incoming gradient and one
    of its previous states.
    Without keep_graph nothing is saved and the result has no gradient.
    One direction reads its weights as views, not stacked copies, and a
    step where no row is padded skips the carry.
    """
    params = tuple(params)
    ids = _embedding_ids(table, ids)
    mask = np.asarray(mask)
    directions = len(params)
    hidden = params[0].w_h.shape[0] if params else 0
    shape = (*ids.shape[:2], directions * hidden)
    if (
        directions not in (1, 2)
        or ids.ndim != 2
        or ids.shape[1] == 0
        or mask.shape != ids.shape
        or initial.shape != (ids.shape[0], directions * hidden)
        or any(
            (p.w_x.shape, p.w_h.shape, p.b.shape) != ((table.shape[1], 3 * hidden), (hidden, 3 * hidden), (3 * hidden,))
            for p in params
        )
        or (out is not None and (out.shape != shape or out.dtype != np.float64))
    ):
        raise ShapeMismatch(
            f"gru_sequence: table {table.shape}, ids {ids.shape}, mask {mask.shape}, initial {initial.shape}, "
            + ", ".join(f"w_x {p.w_x.shape}, w_h {p.w_h.shape}, b {p.b.shape}" for p in params)
            + ("" if out is None else f", out {out.shape} {out.dtype}")
        )
    batch, length = ids.shape
    # One direction's weights are views; two are stacked for the batched products.
    stack = np.stack if directions == 2 else (lambda arrays: arrays[0][None])
    w_x = stack([p.w_x.data for p in params])
    w_h = stack([p.w_h.data for p in params])
    bias = stack([p.b.data for p in params])[:, None, :]
    if out is None:
        out = np.empty(shape)
    saved = []  # per step: reset|update gates, candidates, h @ w_h candidate blocks
    # What a step writes in place; with keep_graph the saved gates and candidate are made anew.
    gates = np.empty((directions, batch, 2 * hidden))
    reset, update = gates[..., :hidden], gates[..., hidden:]
    candidate = np.empty((directions, batch, hidden))
    spare = np.empty_like(candidate)

    def step(gx_gates, gx_candidate, h, h_next):
        """One step of every direction from state h into h_next, from the step's folded projection."""
        nonlocal gates, reset, update, candidate
        if keep_graph:
            gates, candidate = np.empty_like(gates), np.empty_like(candidate)
            reset, update = gates[..., :hidden], gates[..., hidden:]
        gh = _product(h, w_h)
        _negated_sigmoid(np.subtract(gx_gates, gh[..., : 2 * hidden], out=gates))
        gh_candidate = gh[..., 2 * hidden :]
        np.multiply(reset, gh_candidate, out=candidate)
        candidate += gx_candidate
        np.tanh(candidate, out=candidate)
        if keep_graph:
            saved.append((gates, candidate, gh_candidate.copy()))
        np.multiply(update, h, out=h_next)
        np.subtract(_ONE, update, out=spare)
        np.multiply(spare, candidate, out=spare)
        h_next += spare

    first = np.ascontiguousarray(initial.data.reshape(batch, directions, hidden).transpose(1, 0, 2))
    if length == 1 and (mask > 0).all():
        real, padded = None, (False,)  # no row carries, so backward reads no mask
        gx = _folded_projection(table.data[ids[:, 0]], w_x, bias, hidden)
        step(gx[..., : 2 * hidden], gx[..., 2 * hidden :], first, out.reshape(batch, directions, hidden).transpose(1, 0, 2))
    else:
        step_ids = _step_order([ids] * directions)
        gates_x = np.empty((directions, min(_PROJECTION_BLOCK, length), batch, 3 * hidden))  # one block, step-major
        # Per-step views, made once: a list index costs less than numpy's.
        gx_gates = list(gates_x[..., : 2 * hidden].swapaxes(0, 1))
        gx_candidates = list(gates_x[..., 2 * hidden :].swapaxes(0, 1))
        slot = np.empty(table.shape[0], dtype=np.intp)
        real = np.stack(_step_order([mask > 0] * directions)).transpose(2, 0, 1)[..., None]  # (T, D, B, 1)
        padded = (~real.reshape(length, -1).all(axis=1)).tolist()  # steps where some row carries its state
        carried = ~real
        states = np.empty((min(_STATE_BLOCK, length), directions, batch, hidden))  # one block, step-major
        state_steps = list(states)
        out_steps = _direction_steps(out, directions)
        h = first
        for start in range(0, length, _PROJECTION_BLOCK):
            stop = min(start + _PROJECTION_BLOCK, length)
            for d, seq in enumerate(step_ids):
                distinct, inverse = _distinct(seq[:, start:stop].T.ravel(), slot)
                projected = _folded_projection(table.data[distinct], w_x[d], bias[d], hidden)
                np.take(projected, inverse.reshape(stop - start, batch), axis=0, out=gates_x[d, : stop - start], mode="clip")
            for t in range(start, stop):
                i = t % _STATE_BLOCK
                h_next = state_steps[i]
                step(gx_gates[t - start], gx_candidates[t - start], h, h_next)
                if padded[t]:
                    np.copyto(h_next, h, where=carried[t])
                h = h_next
                if i == len(states) - 1 or t == length - 1:
                    for d, view in enumerate(out_steps):
                        view[:, t - i : t + 1] = states[: i + 1, d].swapaxes(0, 1)
    if not keep_graph:
        return Tensor(out)

    def backward(g):
        g_steps = _direction_steps(g, directions)
        out_steps = _direction_steps(out, directions)
        d_gates_x = np.zeros((directions, batch, length, 3 * hidden))
        d_steps = _step_order(list(d_gates_x))
        d_w_h = np.zeros_like(w_h)
        w_h_t = w_h.transpose(0, 2, 1)
        carry = np.zeros((directions, batch, hidden))
        # Step-major (steps, D, B, hidden) staging, filled once per block.
        g_block = np.empty((min(_PROJECTION_BLOCK, length), directions, batch, hidden))
        h_block = np.empty_like(g_block)
        for start in reversed(range(0, length, _PROJECTION_BLOCK)):
            stop = min(start + _PROJECTION_BLOCK, length)
            skip = 1 if start == 0 else 0  # the first step's previous state is the initial one
            if skip:
                h_block[0] = first
            for d in range(directions):
                g_block[: stop - start, d] = g_steps[d][:, start:stop].swapaxes(0, 1)
                h_block[skip : stop - start, d] = out_steps[d][:, start - 1 + skip : stop - 1].swapaxes(0, 1)
            for t in range(stop - 1, start - 1, -1):
                gates, candidate, gh_candidate = saved[t]
                h_prev = h_block[t - start]
                reset, update = gates[..., :hidden], gates[..., hidden:]
                d_h = g_block[t - start] + carry
                d_out = np.where(real[t], d_h, 0.0) if padded[t] else d_h
                d_candidate = d_out * (1.0 - update) * (1.0 - candidate * candidate)
                d_step = np.empty((directions, batch, 3 * hidden))
                d_step[..., :hidden] = d_candidate * gh_candidate
                d_step[..., hidden : 2 * hidden] = d_out * (h_prev - candidate)
                d_step[..., : 2 * hidden] *= gates * (1.0 - gates)
                d_step[..., 2 * hidden :] = d_candidate
                for d in range(directions):  # no loop variable left holding a view of d_gates_x
                    d_steps[d][:, t] = d_step[d]
                d_gates_h = d_step  # stored above, so the reset factor may now go in place
                d_gates_h[..., 2 * hidden :] *= reset
                d_w_h += _product(h_prev.transpose(0, 2, 1), d_gates_h)
                carry = d_out * update + _product(d_gates_h, w_h_t)
                if padded[t]:
                    carry = np.where(real[t], carry, d_h)
        del g_block, h_block, h_prev  # the staging, before d_x is made
        d_flat = d_gates_x.reshape(directions, batch * length, 3 * hidden)
        flat_x = table.data[ids.reshape(-1)]  # the inputs, gathered for d_w_x alone
        per_direction = [(_product(flat_x.T, d_flat[d]), d_w_h[d], d_flat[d].sum(axis=0)) for d in range(directions)]
        del flat_x
        d_x = _product(d_flat[0], w_x[0].T)
        for d in range(1, directions):
            d_x += _product(d_flat[d], w_x[d].T)
        del d_gates_x, d_steps, d_flat  # before the scatter's cells and table gradient
        return (
            _scatter_rows(ids, d_x, table.shape),
            carry.transpose(1, 0, 2).reshape(batch, directions * hidden),
            *(grad for grads in per_direction for grad in grads),
        )

    parents = (table, initial, *(tensor for p in params for tensor in (p.w_x, p.w_h, p.b)))
    return Tensor(out, parents, backward)


class AdamState:
    """First/second moment accumulators plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict = {}
        self.v: dict = {}


# Adam's moment decays and denominator floor; no caller sets others.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@checked()
def adam_step(parameters: dict, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update, in place, from each parameter's .grad.

    backward(loss, parameters) gives every parameter a .grad, zero where
    the loss does not reach it.
    """
    state.step += 1
    t = state.step
    for name, tensor in parameters.items():
        grad = tensor.grad
        if grad.shape != tensor.data.shape:
            raise ShapeMismatch(f"gradient for {name}: {grad.shape} != {tensor.data.shape}")
        m = state.m.get(name)
        v = state.v.get(name)
        if m is None:
            m = np.zeros_like(tensor.data)
            v = np.zeros_like(tensor.data)
        m = _BETA1 * m + (1.0 - _BETA1) * grad
        v = _BETA2 * v + (1.0 - _BETA2) * grad * grad
        state.m[name] = m
        state.v[name] = v
        m_hat = m / (1.0 - _BETA1**t)
        v_hat = v / (1.0 - _BETA2**t)
        tensor.data = tensor.data - lr * m_hat / (np.sqrt(v_hat) + _EPS)
