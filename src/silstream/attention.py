"""Monotonic chunkwise attention.

Two modes share one parameterization:

* hard mode (inference): each hypothesis scans encoded frames left to right
  from its previous selection (``mocha_infer_step``); the first frame whose
  selection probability sigmoid(e) reaches 0.5, that is whose energy is
  ``e >= 0``, is chosen (``crossings``; no energy is squashed). The scan
  scores windows of ``chunk_size``, then twice as many rows, and so on, and
  stops at the first window with a crossing, so a step costs about the
  distance it moves rather than the whole buffer tail. A beam step scores the
  uncut first windows in one stacked call and decides their crossings in one
  pass (``first_selections``); only a cut window or a row that does not cross
  in its first window is scanned alone.
  Then one chunk stage for every selection of a beam step (``chunk_attend``)
  takes a softmax over the chunk ending at each selected frame, which yields
  its context.
* soft mode (training): expected-alignment recurrence over selection
  probabilities, followed by the induced chunkwise distribution.

Energies are additive (tanh) with a learned scalar offset on the selection
energy, initialized negative so early training attends broadly. Both modes
score with the same ``energies`` on projected terms: each frame's key terms
``Wk @ h`` are computed once (``project_keys``) and each decoder state's
query terms ``Wq @ s + b`` once (``project_queries``), so a step adds and
squashes but multiplies no frame by ``Wk``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn


@dataclass(frozen=True)
class AttentionConfig:
    chunk_size: int = 3
    energy_hidden: int = 16

    def __post_init__(self):
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.energy_hidden < 1:
            raise ValueError("energy_hidden must be positive")


@dataclass
class AttentionState:
    prev_index: int = -1


@dataclass
class AttentionStepResult:
    status: str  # "selected" or "exhausted"
    context: np.ndarray | None = None
    selected_index: int = -1
    peak_index: int = -1
    forced: bool = False


EXHAUSTED = AttentionStepResult(status="exhausted")


def init_attention_params(cfg: AttentionConfig, query_dim: int, key_dim: int, rng: np.random.Generator) -> dict:
    params = {}
    for name in ("sel", "chunk"):
        prefix = f"att.{name}"
        params[f"{prefix}.Wq"] = nn.glorot(rng, cfg.energy_hidden, query_dim)
        params[f"{prefix}.Wk"] = nn.glorot(rng, cfg.energy_hidden, key_dim)
        params[f"{prefix}.b"] = np.zeros(cfg.energy_hidden)
        params[f"{prefix}.v"] = nn.glorot(rng, 1, cfg.energy_hidden)[0]
    params["att.sel.r"] = np.array([-1.0])
    return params


def project_keys(params: dict, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Selection and chunk key terms ``Wk @ h`` of every frame row.

    Rows are projected one by one (``nn.matvecs``), so a frame's keys do not
    depend on which frames are projected with it.
    """
    return nn.matvecs(params["att.sel.Wk"], frames), nn.matvecs(params["att.chunk.Wk"], frames)


def project_queries(params: dict, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Selection and chunk query terms ``Wq @ s + b`` of every query row."""
    return tuple(nn.matvecs(params[f"att.{kind}.Wq"], queries) + params[f"att.{kind}.b"] for kind in ("sel", "chunk"))


def energies(params: dict, kind: str, query: np.ndarray, keys: np.ndarray):
    """Additive energies ``v . tanh(k + q)`` of one query term ``q`` (a row of
    ``project_queries``) against key term rows ``k`` (``project_keys``), plus
    the selection offset. Returns (e, tanh activations, which ``trainer.backward`` reads).
    """
    act = np.tanh(keys + query)
    e = act @ params[f"att.{kind}.v"]
    if kind == "sel":
        e = e + params["att.sel.r"][0]
    return e, act


def crossings(e: np.ndarray) -> np.ndarray:
    """Index of the first selection energy ``>= 0`` along the last axis of ``e``, else -1: where sigmoid(e)
    reaches 0.5 in exact arithmetic, read off the sign, so a tiny negative ``e`` whose ``nn.sigmoid`` rounds
    to 0.5 does not cross. NaN never crosses; -0.0 does."""
    hit = e >= 0.0
    return np.where(hit.any(axis=-1), hit.argmax(axis=-1), -1)


def mocha_infer_step(
    params: dict,
    cfg: AttentionConfig,
    query: np.ndarray,
    frames: np.ndarray,
    state: AttentionState,
    force: bool = False,
    *,
    keys: np.ndarray,
) -> AttentionStepResult:
    """Hard-mode scan of one hypothesis: the frame its step selects.

    ``force`` converts an exhausted scan into a forced step so decoding can
    always make progress (e.g. at finalization): the position pins to the
    last frame but the context is zero, mirroring what soft training
    produces when the expected alignment runs off the end of the input.
    A selected, unforced step is returned without its context and peak
    (None and -1): ``chunk_attend`` computes them for every such step of a
    beam at once.

    ``query`` is the selection query term (a row of ``project_queries``) and
    ``keys`` the selection key terms of ``frames`` (``project_keys``), so
    callers stepping many queries over one buffer project every frame once.
    Selection energies are scored in windows from the previous selection
    (``chunk_size`` rows, then each twice the last) up to the first crossing;
    they are row-wise, so the frame selected is the one a whole-tail scan
    selects, and the one ``first_selections`` decides for a row it stacks.
    A window crosses at its first energy ``>= 0`` (``crossings``).
    """
    n = frames.shape[0]
    if n == 0:
        return EXHAUSTED
    start, width = max(state.prev_index, 0), cfg.chunk_size
    while start < n:
        stop = min(n, start + width)
        rel = int(crossings(energies(params, "sel", query, keys[start:stop])[0]))
        if rel >= 0:
            return AttentionStepResult(status="selected", selected_index=start + rel)
        start, width = stop, 2 * width
    if not force or state.prev_index >= n:
        return EXHAUSTED
    return AttentionStepResult("selected", np.zeros(frames.shape[1]), n - 1, n - 1, forced=True)


def first_selections(params: dict, queries: np.ndarray, keys: np.ndarray, states: list[AttentionState],
                     chunk_size: int) -> list[int | None]:
    """The frame each row's first scan window, ``chunk_size`` keys from ``max(prev_index, 0)``, selects, from
    one stacked ``energies`` call over every window and one ``crossings``. None where the buffer end cuts the
    window, which is never padded, and where the window does not cross: that row's ``mocha_infer_step`` scans
    from its first window."""
    rows = [i for i, state in enumerate(states) if max(state.prev_index, 0) + chunk_size <= len(keys)]
    out = [None] * len(states)
    if rows:
        lo = [max(states[i].prev_index, 0) for i in rows]
        stacked = queries if len(rows) == len(states) else queries[rows]  # no window is cut in the common case
        e = energies(params, "sel", stacked[:, None], keys[np.array(lo)[:, None] + np.arange(chunk_size)])[0]
        for i, start, rel in zip(rows, lo, crossings(e).tolist()):
            out[i] = start + rel if rel >= 0 else None
    return out


def chunk_attend(params: dict, queries: np.ndarray, selected, frames: np.ndarray, keys: np.ndarray,
                 chunk_size: int) -> tuple[np.ndarray, list[int]]:
    """Chunk stage of hard-mode steps: the contexts, one row each, and the peak
    indices of the rows i, from a softmax over the chunk of ``chunk_size``
    frames that ends at ``selected[i]`` (fewer at the stream start), scored by
    the chunk query term ``queries[i]`` against the chunk key terms ``keys``.

    The rows of one chunk length are stacked: one ``energies`` over their
    (rows, length, energy_hidden) terms, a softmax per row and one batched
    context product. No chunk is padded, so each row is bit for bit the row
    computed alone. Rows of one length, as at every step after the stream
    start, are neither gathered nor scattered. Argmax ties resolve to the
    lowest index.
    """
    selected = np.asarray(selected, dtype=int)
    lengths = np.minimum(selected + 1, chunk_size)
    if len(set(lengths.tolist())) != 1:  # no row, or short chunks at the stream start: one call per length
        contexts, peaks = np.empty((len(selected), frames.shape[1])), np.empty(len(selected), dtype=int)
        for m in set(lengths.tolist()):
            rows = lengths == m
            contexts[rows], peaks[rows] = chunk_attend(params, queries[rows], selected[rows], frames, keys, m)
        return contexts, peaks.tolist()
    m = int(lengths[0])
    lo = selected - m + 1
    idx = lo[:, None] + np.arange(m)
    u = energies(params, "chunk", queries[:, None], keys[idx])[0]
    ex = np.exp(u - u.max(axis=1, keepdims=True))
    weights = ex / ex.sum(axis=1, keepdims=True)
    return np.matmul(weights[:, None], frames[idx])[:, 0], (lo + weights.argmax(axis=1)).tolist()


def _moving_sum_back(x: np.ndarray, w: int) -> np.ndarray:
    """out[k] = sum of x[max(0, k-w+1) .. k], as w - 1 shifted adds: differences of
    a running sum cancel to nothing for a window far below the sum's largest terms."""
    out = x.copy()
    for s in range(1, w):
        out[s:] += x[:-s]
    return out


def _moving_sum_fwd(x: np.ndarray, w: int) -> np.ndarray:
    """out[j] = sum of x[j .. min(len-1, j+w-1)], as w - 1 shifted adds."""
    out = x.copy()
    for s in range(1, w):
        out[:-s] += x[s:]
    return out


def soft_step(p: np.ndarray, u: np.ndarray, alpha_prev: np.ndarray, chunk_size: int):
    """Expected-alignment step.

    Given selection probabilities ``p``, chunk energies ``u`` and the previous
    step's expected alignment, returns (alpha, beta, cache). Mass that scans
    past the last frame is dropped, so sum(alpha) <= sum(alpha_prev). The
    carry runs on Python floats, which round as numpy's float64 scalars do.
    """
    n = len(p)
    keep, q = (1.0 - p).tolist(), alpha_prev[:1].tolist()
    for t, a in enumerate(alpha_prev[1:].tolist()):
        q.append(keep[t] * q[t] + a)
    q = np.array(q)
    alpha = p * q
    if chunk_size == 1:
        beta = alpha.copy()
        cache = (p, q, alpha, None, None, None, chunk_size)
        return alpha, beta, cache
    shift = np.max(u) if n else 0.0
    expu = np.exp(u - shift)
    denom = np.maximum(_moving_sum_back(expu, chunk_size), 1e-300)
    ratio = alpha / denom
    spread = _moving_sum_fwd(ratio, chunk_size)
    beta = expu * spread
    cache = (p, q, alpha, expu, denom, spread, chunk_size)
    return alpha, beta, cache


def soft_step_backward(cache, d_alpha: np.ndarray, d_beta: np.ndarray):
    """Backward of soft_step. Returns (dp, du, d_alpha_prev)."""
    p, q, alpha, expu, denom, spread, w = cache
    n = len(p)
    d_alpha = np.array(d_alpha, dtype=np.float64)
    if w == 1:
        d_alpha += d_beta
        du = np.zeros(n)
    else:
        d_expu = d_beta * spread
        d_spread = d_beta * expu
        d_ratio = _moving_sum_back(d_spread, w)
        d_alpha += d_ratio / denom
        d_denom = -d_ratio * alpha / denom / denom
        d_expu += _moving_sum_fwd(d_denom, w)
        du = d_expu * expu
    dp, dq = (d_alpha * q).tolist(), (d_alpha * p).tolist()
    keep, q = (1.0 - p).tolist(), q.tolist()
    for t in range(n - 1, 0, -1):
        dp[t - 1] -= q[t - 1] * dq[t]
        dq[t - 1] += keep[t - 1] * dq[t]
    return np.array(dp), du, np.array(dq) + 0.0  # + 0.0 as in accumulating onto zeros: -0.0 becomes 0.0


def initial_alpha(n: int) -> np.ndarray:
    """Expected alignment before the first output step: all mass at frame 0."""
    a = np.zeros(n)
    if n:
        a[0] = 1.0
    return a
