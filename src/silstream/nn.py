"""Small float64 neural-net primitives with hand-written backward passes.

Parameters live in flat ``dict[str, np.ndarray]`` maps keyed by dotted names
("enc0.W", "att.sel.v", ...). Gradients use the same keys, which makes
per-group finite-difference checks straightforward.
"""
from __future__ import annotations

import numpy as np


def sigmoid(x):
    """Logistic function ``exp(min(x, 0)) / (1 + exp(-|x|))``; exp never sees a
    positive argument, so it cannot overflow."""
    x = np.asarray(x, dtype=np.float64)
    return np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, so a stack of rows normalizes row by row."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def matvecs(W: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``W @ x`` for every row ``x`` of ``X``; ``W`` is a matrix, giving (rows, out),
    or a stack of them, giving (stack, rows, out).

    Stacked matrix-vector products give each row and each matrix bit for bit
    what ``w @ x`` gives it alone; ``X @ W.T`` and a concatenated stack do not.
    """
    if len(X) == 1:  # the same products, without the cost of a stacked call
        return (W @ X[0])[..., None, :]
    return np.matmul(W[..., None, :, :], X[:, :, None])[..., 0]


def glorot(rng: np.random.Generator, fan_out: int, fan_in: int) -> np.ndarray:
    scale = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-scale, scale, size=(fan_out, fan_in))


def check_shapes(params: dict, reference: dict) -> None:
    """Raise ValueError unless ``params`` holds exactly the tensors of ``reference``, in their shapes."""
    want, got = ({(name, value.shape) for name, value in p.items()} for p in (reference, params))
    if got != want:
        raise ValueError(f"tensors expected {sorted(want - got)}, given {sorted(got - want)}")


def init_gru(params: dict, prefix: str, input_dim: int, hidden: int, rng: np.random.Generator):
    """A GRU's tensors, each stacking its z, r and n gates in that order."""
    W, U = np.zeros((3, hidden, input_dim)), np.zeros((3, hidden, hidden))
    for g in range(3):  # each gate's W, then its U: the draws of one tensor per gate
        W[g], U[g] = glorot(rng, hidden, input_dim), glorot(rng, hidden, hidden)
    params.update({f"{prefix}.W": W, f"{prefix}.U": U, f"{prefix}.b": np.zeros((3, hidden))})


def gru_step(params: dict, prefix: str, x: np.ndarray, h: np.ndarray):
    """One GRU step of the state vector ``h`` on the input vector ``x``: ``gru_steps``
    on one row. Returns (h_new, gates), the gates as one-row arrays."""
    h_new, gates = gru_steps(params, prefix, gru_inputs(params, prefix, x[None]), h[None])
    return h_new[0], gates


def gru_inputs(params: dict, prefix: str, X: np.ndarray) -> np.ndarray:
    """The input terms ``W[g] @ x`` of every gate g and row ``x`` of ``X``, as
    (3, rows, hidden) from one gate-batched product, for ``gru_steps``.

    They do not depend on the hidden state, so a recurrence computes them for
    all its steps at once.
    """
    return matvecs(params[f"{prefix}.W"], X)


def gru_steps(params: dict, prefix: str, wx: np.ndarray, H: np.ndarray, gates: np.ndarray | None = None):
    """One GRU step of every row of ``H``, given its input's terms ``wx`` from ``gru_inputs``.

    One gate-batched product gives every row's ``U[g] @ h`` (``matvecs``, so a
    row's new state does not depend on the other rows, bit for bit) and one
    ``sigmoid`` squashes the (2, rows, hidden) z and r pre-activations. The
    terms are gate-major, so each gate's rows are contiguous. Returns (H_new,
    (z, r, U[n] @ h, n)), the gates ``GruBackward`` needs. Given caller storage
    ``gates``, (4, rows, hidden), they are also written into it, n computed there.
    """
    uh, b = matvecs(params[f"{prefix}.U"], H), params[f"{prefix}.b"]
    z, r = zr = sigmoid(wx[:2] + uh[:2] + b[:2, None])
    if gates is not None:
        gates[:2], gates[2] = zr, uh[2]
    n = np.tanh(wx[2] + r * uh[2] + b[2], out=None if gates is None else gates[3])
    return (1.0 - z) * n + z * H, (z, r, uh[2], n)


class GruBackward:
    """Back through a run of ``gru_steps``: row i of ``gates`` and ``H`` is one
    step's gates and the state it started from.

    A step's gradients of h through the z gate, of ``U[n] @ h`` and of the z,
    r and n pre-activations are the gradient of its new state times
    coefficients of its gates, computed here for the whole run as five blocks
    of ``hidden`` per row of ``deltas``; ``carry`` turns them into the deltas.
    ``W`` reads the gate-stacked input weights as one matrix, a view.
    """

    def __init__(self, params: dict, prefix: str, gates: tuple, H: np.ndarray):
        z, r, uh, n = gates
        self.coef = c = np.empty((len(H), 5, H.shape[1]))  # filled in place: fewer temporaries at peak
        c[:, 0] = z
        np.multiply(1.0 - z, 1.0 - n * n, out=c[:, 4])
        np.multiply(c[:, 4], r, out=c[:, 1])
        np.multiply((H - n) * z, 1.0 - z, out=c[:, 2])
        np.multiply(c[:, 1] * uh, 1.0 - r, out=c[:, 3])
        self.deltas = c.reshape(len(H), -1)  # the same memory, one row per step
        self.prefix, self.H, self.hidden = prefix, H, H.shape[1]
        W, U = params[f"{prefix}.W"], params[f"{prefix}.U"]
        self.U = np.concatenate((np.eye(self.hidden), U[2], U[0], U[1]))  # [I; U[n]; U[z]; U[r]]
        self.W = W.reshape(-1, W.shape[2])

    def carry(self, a: int, b: int, dH_new: np.ndarray) -> np.ndarray:
        """The deltas of rows a..b from the gradient of their new states; returns the
        gradient of the states they started from, one product with ``[I; U[n]; U[z]; U[r]]``."""
        np.multiply(self.coef[a:b], dH_new[:, None], out=self.coef[a:b])
        return self.deltas[a:b, : 4 * self.hidden] @ self.U

    @property
    def gate_deltas(self) -> np.ndarray:
        """The gradients of the z, r and n pre-activations, row by row."""
        return self.deltas[:, 2 * self.hidden :]

    def param_grads(self, X: np.ndarray, grads: dict):
        """Add the weight and bias gradients into grads, one add per tensor; row i
        of ``X`` is step i's input."""
        h, d_gates = self.hidden, self.gate_deltas
        grads[f"{self.prefix}.W"] += (d_gates.T @ X).reshape(3, h, -1)
        grads[f"{self.prefix}.b"] += d_gates.sum(axis=0).reshape(3, h)
        grads[f"{self.prefix}.U"] += (self.deltas[:, h : 4 * h].T @ self.H).reshape(3, h, h)[[1, 2, 0]]


def zero_grads(params: dict) -> dict:
    return {k: np.zeros_like(v) for k, v in params.items()}

