"""Minimal dense tensors with reverse-mode automatic differentiation.

Covers exactly the operations the engagement model needs: the two fused
nodes the network is built from, ``linear`` (an affine map over any leading
dims as one gemm) and ``attention`` (multi-head scaled dot-product attention,
heads split and merged inside the op); layer norm, gelu, pointwise ops,
concat, reshape and scalar reductions, plus inverted dropout as one node.

A thread-local tape records the forward pass in creation order (which is
already a topological order) as ``(slot, backward_fn)`` pairs. A slot is
where a tensor's gradient accumulates: a leaf is its own slot, and an op
output gets a small ``_Slot`` (its own ``.grad`` stays ``None``).
``backward`` consumes the tape, popping one pair at a time and releasing
that slot's gradient, so intermediate gradients are freed during the sweep
and only leaf tensors keep ``.grad``.

The tape holds no tensor: each ``backward_fn`` captures its inputs' slots
and only the arrays its formula reads, so an activation that no backward
reads is freed as soon as the forward drops it. Per op, it keeps:

- ``linear``: the flattened input if the weight needs a gradient, the weight if the input does;
- ``mul``: each operand only if the other one needs a gradient;
- ``div``: the divisor, and the dividend if the divisor needs a gradient;
- ``attention``: the scaled queries, the key and value views, the
  unnormalized exponentials ``E`` and their reciprocal row sums ``r``;
  it also reads its own output, which the output projection keeps;
- ``layer_norm``: x̂, 1/σ and gamma;
- ``gelu``: its input and ``h``;
- ``dropout``: the boolean keep mask (one byte per unit) and the scale;
- ``add``, ``sub``, ``scale``, ``concat``, ``reshape``, ``sum``:
  no array.

Float64 is the default dtype so finite-difference checks are meaningful;
float32 arrays pass through unchanged for training throughput. No op checks
its output for NaN or Inf; ``backward`` checks the loss.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Sequence

import numpy as np

_GELU_C = math.sqrt(2.0 / math.pi)
_LOG2E = 1.0 / math.log(2.0)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class NonFiniteError(ArithmeticError):
    """A NaN or Inf appeared where the contract requires finite values."""


class GradCheckError(ArithmeticError):
    """Analytic and numeric gradients disagree beyond the given tolerance."""


class _TapeState(threading.local):
    def __init__(self):
        self.nodes: list[tuple[Tensor | _Slot, Callable[[np.ndarray], None]]] = []
        self.enabled = True


_STATE = _TapeState()


def reset_tape() -> None:
    """Drop all recorded nodes on the current thread's tape."""
    _STATE.nodes = []


def tape_size() -> int:
    return len(_STATE.nodes)


class no_grad:
    """Context manager that disables tape recording on this thread."""

    def __enter__(self):
        self._prev = _STATE.enabled
        _STATE.enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.enabled = self._prev
        return False


class Tensor:
    """Dense n-dimensional float array with an optional gradient buffer."""

    __slots__ = ("data", "requires_grad", "grad", "_slot")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data)
        if not np.issubdtype(arr.dtype, np.floating):
            arr = arr.astype(np.float64)
        self.data: np.ndarray = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._slot: _Slot | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _Slot:
    """The gradient of one op output, held apart from the output so that
    the tape and later backward_fns never keep the output's ``data``."""

    __slots__ = ("grad",)

    def __init__(self):
        self.grad: np.ndarray | None = None


def _slot_of(t: Tensor) -> Tensor | _Slot | None:
    """Where ``t``'s gradient goes: ``None`` if it needs none, ``t`` itself
    for a leaf, else the slot its op recorded. A leaf never refers to
    itself, so a dropped leaf is freed by its reference count at once."""
    if not t.requires_grad:
        return None
    return t if t._slot is None else t._slot


def _accumulate(slot: Tensor | _Slot, g: np.ndarray) -> None:
    # Ownership rule: `backward` releases each slot's gradient before its
    # backward_fn runs, so a backward_fn owns `g` and every array it derives
    # from it. `slot` adopts what it is handed and may later add into it in
    # place; a backward_fn therefore hands one buffer (or overlapping views
    # of it) to at most one input, and never a read-only array. No caller
    # passes None: a single-input op is taped only if its input needs `g`.
    if slot.grad is None:
        slot.grad = g
    else:
        slot.grad += g


def _record(slots: tuple, out_data: np.ndarray,
            backward_fn: Callable[[np.ndarray], None]) -> Tensor:
    """Wrap ``out_data`` as the output of an op whose inputs have the
    gradient ``slots``; tape ``backward_fn`` if any of them needs one."""
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out.grad = None
    out._slot = None
    out.requires_grad = _STATE.enabled and any(s is not None for s in slots)
    if out.requires_grad:
        out._slot = _Slot()
        _STATE.nodes.append((out._slot, backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `g` down to `shape` over its leading axes; the rest already match,
    since `_check_suffix_broadcast` admits only equal shapes or a suffix."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    return g


def _check_suffix_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    # Only scalar or trailing-suffix broadcasting is supported; anything
    # fancier is a shape bug in the caller, not a feature.
    sa, sb = a.shape, b.shape
    if sa == sb:
        return
    small, large = (sa, sb) if len(sa) <= len(sb) else (sb, sa)
    if small == large[len(large) - len(small):]:
        return
    raise ShapeError(f"{op}: shapes {sa} and {sb} are not equal or suffix-broadcastable")


def constant(x) -> Tensor:
    """Non-trainable tensor wrapping `x` (no copy of a float array)."""
    return Tensor(x, requires_grad=False)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """``x @ w + b`` for ``x`` of shape ``[..., in]``, as one 2-D gemm.

    The leading dims are flattened, so the weight gradient is one gemm over
    all rows rather than one per batch item followed by a sum; ``x``'s
    gradient is formed only when ``x`` requires it, and ``x`` is kept for
    the backward only when ``w`` requires a gradient.
    """
    n_in, n_out = w.shape
    if x.shape[-1] != n_in:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    if b is not None and b.shape != (n_out,):
        raise ShapeError(f"linear: bias must have shape ({n_out},), got {b.shape}")
    x2 = x.data.reshape(-1, n_in)
    out2 = x2 @ w.data
    if b is not None:
        out2 += b.data
    x_shape = x.shape
    sx, sw, sb = _slot_of(x), _slot_of(w), None if b is None else _slot_of(b)
    x2 = x2 if sw is not None else None
    w_data = w.data if sx is not None else None

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(-1, n_out)
        if sx is not None:
            _accumulate(sx, (g2 @ w_data.T).reshape(x_shape))
        if sw is not None:
            _accumulate(sw, x2.T @ g2)
        if sb is not None:
            _accumulate(sb, g2.sum(axis=0))

    return _record((sx, sw, sb), out2.reshape(x_shape[:-1] + (n_out,)), backward)


def attention(q: Tensor, k: Tensor, v: Tensor, heads: int,
              weights: bool = False) -> tuple[Tensor, np.ndarray | None]:
    """Multi-head scaled dot-product attention as one node.

    ``q`` is ``[B, Lq, D]`` and ``k``, ``v`` are ``[B, Lk, D]``, each holding
    ``heads`` heads of width ``d_k = D / heads`` side by side. Per head,
    ``P = softmax(q k^T / sqrt(d_k))`` and the context is ``P v``; the heads
    are merged back into ``[B, Lq, D]``.

    The 1/sqrt(d_k) and the log2(e) of ``exp(x) = exp2(x log2 e)`` are folded
    into the L x d_k query rather than the L x L scores. The unnormalized
    exponentials ``E`` for every (window, head) are one zero-padded
    ``[Lk, B * heads * Lq]`` array, keys down the rows, so the max and the
    sum run over long contiguous rows. The reciprocal row sums ``r`` scale
    the small context ``E v`` instead of dividing ``E``, so no pass over
    ``E`` follows the exponential. The backward keeps ``E`` and ``r`` and
    reads the op's own output, which the output projection keeps anyway.
    Returns the context and, only when ``weights`` is true, a fresh
    ``[B, heads, Lq, Lk]`` array of ``P`` (else ``None``).
    """
    if q.ndim != 3 or k.ndim != 3 or v.ndim != 3:
        raise ShapeError(f"attention: need 3-d q, k, v, got {q.shape}, {k.shape}, {v.shape}")
    b, lq, d = q.shape
    lk = k.shape[1]
    if k.shape != (b, lk, d) or v.shape != k.shape:
        raise ShapeError(f"attention: q {q.shape}, k {k.shape} and v {v.shape} disagree")
    if d % heads != 0:
        raise ShapeError(f"attention: {heads} heads do not divide width {d}")
    d_k = d // heads
    s = 1.0 / math.sqrt(d_k)

    def split(a: np.ndarray, length: int) -> np.ndarray:
        return a.reshape(b, length, heads, d_k).transpose(0, 2, 1, 3)

    def merge(a: np.ndarray, length: int) -> np.ndarray:
        return a.transpose(0, 2, 1, 3).reshape(b, length, d)

    qs = np.multiply(split(q.data, lq), s * _LOG2E, order="C")
    kh = split(k.data, lk)      # strided views: BLAS reads them as they are
    vh = split(v.data, lk)
    n = b * heads * lq
    dtype = np.result_type(qs, kh)
    line = 64 // dtype.itemsize
    width = (-(-n // line) | 1) * line

    def keys_by_rows() -> tuple[np.ndarray, np.ndarray]:
        # An [Lk, width] array and its [B, heads, Lk, Lq] view: numpy reduces
        # over a leading axis one whole contiguous row per step, several times
        # faster than over a short last axis. A row spans an odd number of
        # 64-byte lines: with a power-of-two row stride the rows of a gemm's
        # output tile share cache sets, and the desk scores gemm took 1.5x.
        a = np.empty((lk, width), dtype)
        a[:, n:] = 0
        return a, a[:, :n].reshape(lk, b, heads, lq).transpose(1, 2, 0, 3)

    e2, et = keys_by_rows()
    np.matmul(kh, qs.swapaxes(-1, -2), out=et)
    e2 -= e2.max(axis=0)
    np.exp2(e2, out=e2)
    r = e2.sum(axis=0)
    np.reciprocal(r, out=r)
    r4 = r[:n].reshape(b, heads, lq, 1)
    ctx = et.swapaxes(-1, -2) @ vh
    ctx *= r4
    out_data = merge(ctx, lq)
    p = (e2[:, :n] * r[:n]).reshape(lk, b, heads, lq).transpose(1, 2, 3, 0) if weights else None
    sq, sk, sv = _slot_of(q), _slot_of(k), _slot_of(v)

    def backward(g: np.ndarray) -> None:
        # With P = E diag(r) per row and g' = r g: dV = E^T g', and the
        # softmax gradient P (dP - rowsum(dP P)) = E (dP' - D') with
        # dP' = g' V^T and D' = rowsum(g' O), since rowsum(dP P) = rowsum(g O).
        gh = np.multiply(split(g, lq), r4, order="C")
        if sv is not None:
            _accumulate(sv, merge(et @ gh, lk))
        d2, dst = keys_by_rows()
        np.matmul(vh, gh.swapaxes(-1, -2), out=dst)
        dd = np.zeros(width, dtype)
        np.einsum("bhqd,bhqd->bhq", gh, split(out_data, lq), out=dd[:n].reshape(b, heads, lq))
        d2 -= dd
        d2 *= e2
        if sq is not None:
            dq = dst.swapaxes(-1, -2) @ kh
            dq *= s
            _accumulate(sq, merge(dq, lq))
        if sk is not None:
            dk = dst @ qs
            dk *= 1.0 / _LOG2E
            _accumulate(sk, merge(dk, lk))

    return _record((sq, sk, sv), out_data, backward), p


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_broadcast("add", a, b)
    out_data = a.data + b.data
    sa, sb = _slot_of(a), _slot_of(b)
    a_shape, b_shape = a.shape, b.shape

    def backward(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, _unbroadcast(g, a_shape))
        if sb is not None:
            gb = _unbroadcast(g, b_shape)
            # With equal shapes `a`'s slot may have adopted `g` itself.
            _accumulate(sb, g.copy() if gb is g and sa is not None and sa.grad is g else gb)

    return _record((sa, sb), out_data, backward)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_broadcast("sub", a, b)
    out_data = a.data - b.data
    sa, sb = _slot_of(a), _slot_of(b)
    a_shape, b_shape = a.shape, b.shape

    def backward(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, _unbroadcast(g, a_shape))
        if sb is not None:
            _accumulate(sb, _unbroadcast(-g, b_shape))

    return _record((sa, sb), out_data, backward)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_broadcast("mul", a, b)
    out_data = a.data * b.data
    sa, sb = _slot_of(a), _slot_of(b)
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if sb is not None else None
    b_data = b.data if sa is not None else None

    def backward(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, _unbroadcast(g * b_data, a_shape))
        if sb is not None:
            _accumulate(sb, _unbroadcast(g * a_data, b_shape))

    return _record((sa, sb), out_data, backward)


def div(a: Tensor, b: Tensor) -> Tensor:
    _check_suffix_broadcast("div", a, b)
    out_data = a.data / b.data
    sa, sb = _slot_of(a), _slot_of(b)
    a_shape, b_shape = a.shape, b.shape
    a_data = a.data if sb is not None else None
    b_data = b.data

    def backward(g: np.ndarray) -> None:
        if sa is not None:
            _accumulate(sa, _unbroadcast(g / b_data, a_shape))
        if sb is not None:
            db = -g * a_data / (b_data * b_data)
            _accumulate(sb, _unbroadcast(db, b_shape))

    return _record((sa, sb), out_data, backward)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out_data = a.data * s
    sa = _slot_of(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(sa, g * s)

    return _record((sa,), out_data, backward)


def gelu(a: Tensor) -> Tensor:
    """GELU, tanh approximation: x * h with h = (1 + tanh u) / 2 and
    u = c (x + 0.044715 x^3). The backward keeps ``x`` and ``h``, not the
    output, and uses 1 - tanh(u)^2 = 4 h (1 - h)."""
    x = a.data
    h = x * x
    h *= 0.044715
    h += 1.0
    h *= x
    h *= _GELU_C
    np.tanh(h, out=h)
    h += 1.0
    h *= 0.5
    out_data = x * h
    sa = _slot_of(a)

    def backward(g: np.ndarray) -> None:
        # d(x h)/dx = h + x h', h' = 2 h (1 - h) c (1 + 3 * 0.044715 x^2)
        local = x * x
        local *= 0.134145
        local += 1.0
        local *= x
        local *= _GELU_C * 2.0
        local *= h
        local *= 1.0 - h
        local += h
        local *= g
        _accumulate(sa, local)

    return _record((sa,), out_data, backward)


def dropout(a: Tensor, keep: np.ndarray, scale: np.floating) -> Tensor:
    """``a * keep * scale`` for a boolean ``keep`` of ``a``'s shape, the
    forward and backward of inverted dropout. The mask is applied before
    the scale, so each value equals a product with the float mask
    ``keep * scale``; the backward keeps the mask at one byte per unit."""
    out_data = a.data * keep
    out_data *= scale
    sa = _slot_of(a)

    def backward(g: np.ndarray) -> None:
        g *= keep
        g *= scale
        _accumulate(sa, g)

    return _record((sa,), out_data, backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    Row means, in the forward and for the backward's mean of dx̂, are one
    gemv of the ``[rows, d]`` array against a ``1/d`` column, which is
    faster than ``mean`` over a short last axis; 1/σ is formed in place on
    the ``[rows, 1]`` variances. The backward keeps x̂, 1/σ and gamma.
    """
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({d},), got {gamma.shape} and {beta.shape}")
    x_shape = x.shape
    col = np.full((d, 1), 1.0 / d, dtype=x.dtype)

    def row_mean(a: np.ndarray) -> np.ndarray:
        return (a.reshape(-1, d) @ col).reshape(x_shape[:-1] + (1,))

    xhat = x.data - row_mean(x.data)
    inv_std = np.einsum("...i,...i->...", xhat, xhat)[..., None]
    inv_std /= d
    inv_std += eps
    np.sqrt(inv_std, out=inv_std)
    np.reciprocal(inv_std, out=inv_std)
    xhat *= inv_std
    out_data = xhat * gamma.data
    out_data += beta.data
    sx, sg, sb = _slot_of(x), _slot_of(gamma), _slot_of(beta)
    gamma_data = gamma.data

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(-1, d)
        if sg is not None:
            _accumulate(sg, np.einsum("ni,ni->i", g2, xhat.reshape(-1, d)))
        if sb is not None:
            _accumulate(sb, g2.sum(axis=0))
        if sx is not None:
            dxhat = g * gamma_data
            m2 = np.einsum("...i,...i->...", dxhat, xhat)[..., None]
            m2 /= d
            dxhat -= row_mean(dxhat)
            dxhat -= xhat * m2
            dxhat *= inv_std
            _accumulate(sx, dxhat)

    return _record((sx, sg, sb), out_data, backward)


def concat(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    if not tensors:
        raise ShapeError("concat: need at least one tensor")
    ref = tensors[0].shape
    ax = axis if axis >= 0 else len(ref) + axis
    for t in tensors[1:]:
        s = t.shape
        if len(s) != len(ref) or any(i != ax and s[i] != ref[i] for i in range(len(ref))):
            raise ShapeError(f"concat: incompatible shapes {ref} and {s} along axis {axis}")
    out_data = np.concatenate([t.data for t in tensors], axis=ax)
    extents = [t.shape[ax] for t in tensors]
    offsets = np.cumsum([0] + extents)
    slots = tuple(_slot_of(t) for t in tensors)

    def backward(g: np.ndarray) -> None:
        for slot, lo, hi in zip(slots, offsets[:-1], offsets[1:]):
            if slot is not None:
                idx = [slice(None)] * g.ndim
                idx[ax] = slice(lo, hi)
                _accumulate(slot, g[tuple(idx)])

    return _record(slots, out_data, backward)


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    out_data = a.data.reshape(tuple(shape))
    sa, a_shape = _slot_of(a), a.shape

    def backward(g: np.ndarray) -> None:
        _accumulate(sa, g.reshape(a_shape))

    return _record((sa,), out_data, backward)


def tensor_sum(a: Tensor) -> Tensor:
    out_data = np.asarray(a.data.sum())
    sa, a_shape = _slot_of(a), a.shape

    def backward(g: np.ndarray) -> None:
        _accumulate(sa, np.broadcast_to(g, a_shape).copy())

    return _record((sa,), out_data, backward)


def mean(a: Tensor) -> Tensor:
    return scale(tensor_sum(a), 1.0 / a.data.size)


def backward(loss: Tensor) -> None:
    """Reverse-sweep the tape from a scalar loss, consuming it.

    Gradients accumulate additively into every slot reached, so a tensor
    used in several places receives the sum of all path contributions. Each
    op output's gradient is released as its node is popped, so afterwards
    only leaf tensors hold ``.grad`` and the tape is empty.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward: loss must be scalar, got shape {loss.shape}")
    nodes = _STATE.nodes
    if not nodes:
        raise RuntimeError("backward: tape is empty (already consumed, or forward "
                           "ran under no_grad)")
    if not loss.requires_grad:
        raise RuntimeError("backward: loss does not depend on any tracked tensor")
    if not np.all(np.isfinite(loss.data)):
        raise NonFiniteError("backward: loss is not finite")
    _slot_of(loss).grad = np.ones_like(loss.data)
    while nodes:
        slot, backward_fn = nodes.pop()
        g, slot.grad = slot.grad, None
        if g is not None:
            backward_fn(g)


def grad_check(f: Callable[[], Tensor], named: Sequence[tuple[str, Tensor]], h: float = 1e-5,
               tol: float | None = None, max_coords_per_param: int = 16) -> float:
    """Compare analytic gradients of a taped scalar function to central differences.

    `f` must be deterministic (dropout off); `named` holds ``(name, tensor)``
    pairs. Returns the max over sampled coordinates (a fixed seed picks them)
    of |analytic - numeric| / max(|analytic|, |numeric|, 1e-8); raises
    GradCheckError when `tol` is given and breached, NonFiniteError on NaN/Inf
    with the offending coordinate identified.
    """
    rng = np.random.default_rng(0)

    for _, p in named:
        p.zero_grad()
    loss = f()
    backward(loss)
    analytic = {name: (np.zeros_like(p.data) if p.grad is None else p.grad.copy())
                for name, p in named}

    worst = 0.0
    worst_at = ""
    for name, p in named:
        flat = p.data.reshape(-1)
        n = flat.size
        coords = (np.arange(n) if n <= max_coords_per_param
                  else rng.choice(n, size=max_coords_per_param, replace=False))
        a_flat = analytic[name].reshape(-1)
        for c in coords:
            orig = flat[c]
            flat[c] = orig + h
            with no_grad():
                f_plus = f().item()
            flat[c] = orig - h
            with no_grad():
                f_minus = f().item()
            flat[c] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            if not (math.isfinite(numeric) and math.isfinite(a_flat[c])):
                raise NonFiniteError(f"grad_check: non-finite value at {name}[{c}]")
            err = abs(a_flat[c] - numeric) / max(abs(a_flat[c]), abs(numeric), 1e-8)
            if err > worst:
                worst, worst_at = err, f"{name}[{c}]"
    for _, p in named:
        p.zero_grad()
    if tol is not None and worst > tol:
        raise GradCheckError(f"grad_check: max rel err {worst:.3e} at {worst_at} "
                             f"exceeds tol {tol:.1e}")
    return worst
