"""Reusable network blocks built on the autograd tensor core.

Linear projection, multi-head attention (self and cross), position-wise
feed-forward, sinusoidal positional encoding, inverted dropout, and a
standard pre-norm transformer encoder layer, which can compute only some of
its window rows (``keep``) for no-grad scoring. Blocks accept either a single
window ``[L, D]`` or a batch of windows ``[B, L, D]``; a mismatched input
width raises ``T.linear``'s ``ShapeError``.

Blocks take no dtype and no seed: they draw their float64 init from the
``np.random.Generator`` they are given, and a model casts each block's
parameters once (``model._Architecture``). Dropout's draw and scale and the
positional table follow the input's dtype.

Every block is a ``Module``: ``named_parameters`` walks its attributes in the
order ``__init__`` set them and names each ``Tensor`` by its attribute path.
It descends into sub-modules (``attr.<name>``), lists (``attr.<i>.<name>``)
and dicts (``attr.<key>.<name>``). No two attributes hold the same module, so
every tensor has one path. These names key the optimizer state and the
checkpoints.
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor


class Module:
    """Base of every block and model; see the module docstring for the
    parameter naming rule."""

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        found: list[tuple[str, Tensor]] = []

        def walk(value, path: str) -> None:
            if isinstance(value, Module):
                value = vars(value)
            elif isinstance(value, list):
                value = dict(enumerate(value))
            if isinstance(value, Tensor):
                found.append((path, value))
            elif isinstance(value, dict):
                for key, item in value.items():
                    walk(item, f"{path}.{key}" if path else str(key))

        walk(self, "")
        return found

    def zero_grad(self) -> None:
        for _, p in self.named_parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        return sum(p.data.size for _, p in self.named_parameters())


def dropout(x: Tensor, rate: float, train: bool,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate); identity in eval.

    A unit is kept where a uniform draw in ``x``'s dtype is ``>= rate``, one
    draw per unit. The scale is 1/(1-rate) in that dtype, and ``T.dropout``
    keeps the mask for the backward as booleans, one byte per unit."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout in train mode needs an rng")
    keep = rng.random(x.shape, dtype=x.dtype) >= rate
    dt = x.dtype.type
    return T.dropout(x, keep, dt(1.0) / dt(1.0 - rate))


class Linear(Module):
    """Affine map x @ W + b with Xavier-uniform init (bias optional)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator, bias: bool = True):
        limit = math.sqrt(6.0 / (in_dim + out_dim))
        self.weight = Tensor(rng.uniform(-limit, limit, (in_dim, out_dim)),
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_dim), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        return T.linear(x, self.weight, self.bias)

    @staticmethod
    def param_count(in_dim: int, out_dim: int, bias: bool = True) -> int:
        return in_dim * out_dim + (out_dim if bias else 0)


class LayerNorm(Module):
    def __init__(self, dim: int):
        self.gamma = Tensor(np.ones(dim), requires_grad=True)
        self.beta = Tensor(np.zeros(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)

    @staticmethod
    def param_count(dim: int) -> int:
        return 2 * dim


class MultiHeadAttention(Module):
    """Scaled dot-product attention with per-head splitting.

    Query, key and value each go through their own projection; one
    ``T.attention`` node splits the heads, scales by 1/sqrt(d_k) with
    d_k = dim / heads, applies the softmax and merges the head outputs,
    which pass through the output projection (with dropout in train mode).
    Cross attention is the q_in != kv_in case. With ``keep_weights``,
    ``T.attention`` also forms the attention weights, and they are stored in
    ``last_weights``, shaped ``[B, heads, Lq, Lk]`` (``[1, heads, Lq, Lk]``
    for 2-d input).
    """

    def __init__(self, dim: int, heads: int, dropout_rate: float, rng: np.random.Generator):
        if dim % heads != 0:
            raise ValueError(f"heads ({heads}) must divide model dim ({dim})")
        self.heads = heads
        self.dropout_rate = dropout_rate
        self.wq = Linear(dim, dim, rng)
        # No key bias: softmax(q k^T) is invariant to a per-row shift, so a
        # key-side bias would be a dead parameter with an exactly-zero grad.
        self.wk = Linear(dim, dim, rng, bias=False)
        self.wv = Linear(dim, dim, rng)
        self.wo = Linear(dim, dim, rng)
        self.last_weights: np.ndarray | None = None

    def __call__(self, q_in: Tensor, kv_in: Tensor, train: bool = False,
                 rng: np.random.Generator | None = None,
                 keep_weights: bool = False) -> Tensor:
        squeeze = q_in.ndim == 2
        if squeeze:
            q_in = T.reshape(q_in, (1,) + q_in.shape)
            kv_in = T.reshape(kv_in, (1,) + kv_in.shape)
        ctx, weights = T.attention(self.wq(q_in), self.wk(kv_in), self.wv(kv_in), self.heads,
                                   weights=keep_weights)
        if keep_weights:
            self.last_weights = weights
        out = dropout(self.wo(ctx), self.dropout_rate, train, rng)
        if squeeze:
            out = T.reshape(out, out.shape[1:])
        return out

    @staticmethod
    def param_count(dim: int) -> int:
        return 3 * Linear.param_count(dim, dim) + Linear.param_count(dim, dim, bias=False)


class FeedForward(Module):
    """Two-layer MLP: in_dim -> hidden -> out_dim with GELU and hidden dropout."""

    def __init__(self, in_dim: int, hidden: int, out_dim: int, dropout_rate: float,
                 rng: np.random.Generator):
        self.dropout_rate = dropout_rate
        self.lin1 = Linear(in_dim, hidden, rng)
        self.lin2 = Linear(hidden, out_dim, rng)

    def __call__(self, x: Tensor, train: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
        h = dropout(T.gelu(self.lin1(x)), self.dropout_rate, train, rng)
        return self.lin2(h)

    @staticmethod
    def param_count(in_dim: int, hidden: int, out_dim: int) -> int:
        return Linear.param_count(in_dim, hidden) + Linear.param_count(hidden, out_dim)


def keep_rows(x: Tensor, keep: slice) -> Tensor:
    """Window rows ``keep`` of ``[.., L, D]`` features. The cut records no
    gradient, so only no-grad scoring keeps fewer than all rows."""
    return x if keep == slice(None) else T.constant(x.data[..., keep, :])


class TransformerEncoderLayer(Module):
    """Pre-norm transformer layer: x + Attn(Norm(x)), then + FFN(Norm(.)).

    Every output row comes from one query row, so ``keep`` (a slice of the
    window rows) computes only those rows: the queries (``norm1`` rows) and
    the residual are cut to them, keys and values still span the whole
    window, and ``norm2`` and the FFN run on the kept rows alone. The cut
    records no gradient (``keep_rows``), so only no-grad scoring keeps fewer
    than all rows.
    """

    def __init__(self, dim: int, heads: int, dropout_rate: float, rng: np.random.Generator,
                 ffn_mult: int = 4):
        self.dim = dim
        self.norm1 = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, dropout_rate, rng)
        self.norm2 = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_mult * dim, dim, dropout_rate, rng)

    def __call__(self, x: Tensor, train: bool = False,
                 rng: np.random.Generator | None = None,
                 keep: slice = slice(None)) -> Tensor:
        n1 = self.norm1(x)
        h = T.add(keep_rows(x, keep), self.attn(keep_rows(n1, keep), n1, train, rng))
        return T.add(h, self.ffn(self.norm2(h), train, rng))

    @staticmethod
    def param_count(dim: int, ffn_mult: int = 4) -> int:
        return (2 * LayerNorm.param_count(dim)
                + MultiHeadAttention.param_count(dim)
                + FeedForward.param_count(dim, ffn_mult * dim, dim))


class PositionalEncoding(Module):
    """Fixed sinusoidal table [max_len, dim], added in the input's dtype."""

    def __init__(self, max_len: int, dim: int):
        pos = np.arange(max_len)[:, None]
        i = np.arange(dim)[None, :]
        angle = pos / np.power(10000.0, 2.0 * (i // 2) / dim)
        self.max_len = max_len
        self.table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))

    def __call__(self, x: Tensor) -> Tensor:
        length = x.shape[-2]
        if length > self.max_len:
            raise T.ShapeError(f"positional encoding: sequence length {length} exceeds "
                               f"table size {self.max_len}")
        return T.add(x, T.constant(self.table[:length].astype(x.dtype, copy=False)))
