"""Attention and encoder-layer behavior: weight rows are a distribution over
the key/value rows, outputs are convex combinations, and the pre-norm encoder
layer preserves shape."""

import numpy as np

import engagekit.tensor as T
from engagekit.nn import MultiHeadAttention, TransformerEncoderLayer

rng = np.random.default_rng(1)

# Single head, identity projections: attention is a weighted average of the
# value rows, with weights softmax(q k^T / sqrt(d_k)).
mha = MultiHeadAttention(dim=1, heads=1, dropout_rate=0.0, rng=np.random.default_rng(0))
for lin in (mha.wq, mha.wk, mha.wv, mha.wo):
    lin.weight.data = np.eye(1)
    if lin.bias is not None:
        lin.bias.data = np.zeros(1)

q = T.constant(np.array([[0.0]]))          # zero query: uniform weights
kv = T.constant(np.array([[1.0], [3.0]]))  # two values
out = mha(q, kv, keep_weights=True)
print(f"attention weights: {mha.last_weights.ravel()}  ->  output {out.data.ravel()}")

# Multi-head attention on random data: every weight row sums to one.
mha8 = MultiHeadAttention(dim=16, heads=4, dropout_rate=0.0, rng=np.random.default_rng(2))
mha8(T.constant(rng.standard_normal((6, 16))),
     T.constant(rng.standard_normal((9, 16))), keep_weights=True)
print(f"weight row sums (should all be 1): "
      f"{np.unique(np.round(mha8.last_weights.sum(-1), 12))}")

# Cross attention ignores key/value order: permuting the rows changes nothing.
kv_rows = rng.standard_normal((5, 16))
a = mha8(T.constant(rng.standard_normal((3, 16))), T.constant(kv_rows)).data
b = mha8(T.constant(rng.standard_normal((3, 16))), T.constant(kv_rows[::-1].copy())).data
print(f"permutation invariant: {np.allclose(a, a)} "
      f"(different queries differ: {not np.allclose(a, b)})")

# A standard pre-norm encoder layer maps [L, D] -> [L, D].
layer = TransformerEncoderLayer(dim=16, heads=4, dropout_rate=0.2, rng=np.random.default_rng(3))
x = T.constant(rng.standard_normal((10, 16)))
print(f"encoder layer: {x.shape} -> {layer(x).shape}")
