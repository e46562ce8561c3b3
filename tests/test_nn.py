import numpy as np
import pytest

import engagekit.tensor as T
from engagekit.nn import (Linear, LayerNorm, MultiHeadAttention, FeedForward,
                          TransformerEncoderLayer, PositionalEncoding, dropout)
from engagekit.tensor import Tensor, grad_check


def make_identity_mha(dim=1, heads=1):
    mha = MultiHeadAttention(dim, heads, dropout_rate=0.0, rng=np.random.default_rng(0))
    for lin in (mha.wq, mha.wk, mha.wv, mha.wo):
        lin.weight.data = np.eye(dim)
        if lin.bias is not None:
            lin.bias.data = np.zeros(dim)
    return mha


# ---------------------------------------------------------------- linear

def test_linear_identity():
    lin = Linear(3, 3, rng=np.random.default_rng(0))
    lin.weight.data = np.eye(3)
    lin.bias.data = np.zeros(3)
    x = T.constant(np.arange(6.0).reshape(2, 3))
    assert np.array_equal(lin(x).data, x.data)


def test_linear_param_count():
    lin = Linear(2, 3, rng=np.random.default_rng(0))
    assert sum(p.data.size for _, p in lin.named_parameters()) == 9
    assert Linear.param_count(2, 3) == 9


def test_linear_projects_audio_stream_to_model_width():
    lin = Linear(88, 512, rng=np.random.default_rng(0))
    out = lin(T.constant(np.random.default_rng(0).standard_normal((96, 88))))
    assert out.shape == (96, 512)


def test_linear_rejects_wrong_input_dim():
    with pytest.raises(T.ShapeError):
        Linear(4, 2, rng=np.random.default_rng(0))(T.constant(np.zeros((3, 5))))


# ---------------------------------------------------------------- attention

@pytest.mark.parametrize("q_dim, kv_dim", [(6, 8), (8, 6)], ids=["query", "key_value"])
def test_attention_rejects_wrong_input_width(q_dim, kv_dim):
    mha = MultiHeadAttention(8, 2, 0.0, rng=np.random.default_rng(0))
    with pytest.raises(T.ShapeError):
        mha(T.constant(np.zeros((3, q_dim))), T.constant(np.zeros((5, kv_dim))))


def test_attention_uniform_weights_average_values():
    mha = make_identity_mha()
    q = T.constant(np.array([[0.0]]))
    kv = T.constant(np.array([[1.0], [3.0]]))
    out = mha(q, kv, keep_weights=True)
    assert np.allclose(mha.last_weights, 0.5)
    assert np.allclose(out.data, [[2.0]])


def test_attention_identical_queries_give_identical_rows():
    rng = np.random.default_rng(0)
    mha = MultiHeadAttention(8, 2, 0.0, rng=np.random.default_rng(1))
    q = T.constant(np.tile(rng.standard_normal(8), (4, 1)))
    kv = T.constant(rng.standard_normal((5, 8)))
    out = mha(q, kv).data
    assert np.allclose(out, out[0])


def test_attention_weight_rows_sum_to_one():
    rng = np.random.default_rng(1)
    mha = MultiHeadAttention(16, 4, 0.0, rng=np.random.default_rng(2))
    mha(T.constant(rng.standard_normal((6, 16))),
        T.constant(rng.standard_normal((9, 16))), keep_weights=True)
    sums = mha.last_weights.sum(axis=-1)
    assert np.max(np.abs(sums - 1.0)) < 1e-12


def test_attention_keeps_weights_only_on_request(monkeypatch):
    asked = []
    attention = T.attention

    def recording(q, k, v, heads, weights=False):
        asked.append(weights)
        return attention(q, k, v, heads, weights)

    monkeypatch.setattr(T, "attention", recording)
    rng = np.random.default_rng(1)
    mha = MultiHeadAttention(16, 4, 0.0, rng=np.random.default_rng(2))
    q, kv = T.constant(rng.standard_normal((6, 16))), T.constant(rng.standard_normal((9, 16)))
    mha(q, kv)
    assert asked == [False] and mha.last_weights is None
    mha(q, kv, keep_weights=True)
    assert asked == [False, True] and mha.last_weights.shape == (1, 4, 6, 9)


def test_attention_output_is_convex_combination_of_values():
    # With value/output projections pinned to identity, each output lies in
    # the per-column [min, max] envelope of the value rows.
    rng = np.random.default_rng(2)
    mha = MultiHeadAttention(4, 1, 0.0, rng=np.random.default_rng(3))
    mha.wv.weight.data = np.eye(4)
    mha.wv.bias.data = np.zeros(4)
    mha.wo.weight.data = np.eye(4)
    mha.wo.bias.data = np.zeros(4)
    kv = rng.standard_normal((7, 4))
    out = mha(T.constant(rng.standard_normal((5, 4))), T.constant(kv)).data
    assert np.all(out <= kv.max(axis=0) + 1e-12)
    assert np.all(out >= kv.min(axis=0) - 1e-12)


def test_attention_kv_permutation_invariance():
    rng = np.random.default_rng(3)
    mha = MultiHeadAttention(8, 4, 0.0, rng=np.random.default_rng(4))
    q = T.constant(rng.standard_normal((3, 8)))
    kv = rng.standard_normal((6, 8))
    out1 = mha(q, T.constant(kv)).data
    perm = rng.permutation(6)
    out2 = mha(q, T.constant(kv[perm])).data
    assert np.allclose(out1, out2, atol=1e-12)


def test_attention_grad_fd():
    rng = np.random.default_rng(4)
    mha = MultiHeadAttention(16, 4, 0.0, rng=np.random.default_rng(5))
    x = Tensor(rng.standard_normal((8, 16)), requires_grad=True)
    c = T.constant(rng.standard_normal((8, 16)))

    def f():
        return T.tensor_sum(T.mul(mha(x, x), c))

    params = [("x", x)] + mha.named_parameters()
    assert grad_check(f, params, max_coords_per_param=6) < 1e-5


@pytest.mark.parametrize("q_shape,kv_shape,weights_shape", [
    ((3, 6, 8), (3, 9, 8), (3, 4, 6, 9)),
    ((6, 8), (9, 8), (1, 4, 6, 9)),
])
def test_attention_last_weights_shape(q_shape, kv_shape, weights_shape):
    rng = np.random.default_rng(5)
    mha = MultiHeadAttention(8, 4, 0.0, rng=np.random.default_rng(6))
    mha(T.constant(rng.standard_normal(q_shape)), T.constant(rng.standard_normal(kv_shape)),
        keep_weights=True)
    assert mha.last_weights.shape == weights_shape


def test_attention_head_divisibility_enforced():
    with pytest.raises(ValueError):
        MultiHeadAttention(10, 4, 0.0, rng=np.random.default_rng(0))


# ---------------------------------------------------------------- encoder layer

@pytest.mark.parametrize("length,dim", [(1, 8), (32, 8), (96, 8), (4, 512)])
def test_encoder_layer_preserves_shape(length, dim):
    layer = TransformerEncoderLayer(dim, 8, 0.2, rng=np.random.default_rng(6))
    x = T.constant(np.random.default_rng(5).standard_normal((length, dim)))
    assert layer(x).shape == (length, dim)


def test_encoder_layer_eval_is_deterministic():
    layer = TransformerEncoderLayer(8, 2, 0.5, rng=np.random.default_rng(7))
    x = T.constant(np.random.default_rng(6).standard_normal((10, 8)))
    a = layer(x, train=False).data
    b = layer(x, train=False).data
    assert a.tobytes() == b.tobytes()


def test_encoder_layer_grad_fd():
    rng = np.random.default_rng(7)
    layer = TransformerEncoderLayer(8, 2, 0.0, rng=np.random.default_rng(8))
    x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
    c = T.constant(rng.standard_normal((4, 8)))

    def f():
        return T.tensor_sum(T.mul(layer(x), c))

    params = [("x", x)] + layer.named_parameters()
    assert grad_check(f, params, max_coords_per_param=4) < 1e-5


def test_encoder_layer_batched_matches_loop():
    rng = np.random.default_rng(8)
    layer = TransformerEncoderLayer(8, 2, 0.0, rng=np.random.default_rng(9))
    batch = rng.standard_normal((3, 5, 8))
    stacked = layer(T.constant(batch)).data
    for i in range(3):
        single = layer(T.constant(batch[i])).data
        assert np.allclose(stacked[i], single, atol=1e-12)


def test_encoder_layer_keep_computes_those_rows_of_the_full_output():
    rng = np.random.default_rng(9)
    layer = TransformerEncoderLayer(8, 2, 0.0, rng=np.random.default_rng(10))
    x = T.constant(rng.standard_normal((3, 9, 8)))
    with T.no_grad():
        full = layer(x).data
        core = layer(x, keep=slice(2, 6)).data
        single = layer(T.constant(x.data[1]), keep=slice(2, 6)).data
    assert np.array_equal(core, full[:, 2:6])
    assert single.shape == (4, 8)


def test_block_param_count_formulas():
    dim, mult = 16, 4
    layer = TransformerEncoderLayer(dim, 4, 0.0, rng=np.random.default_rng(10), ffn_mult=mult)
    assert (sum(p.data.size for _, p in layer.named_parameters())
            == TransformerEncoderLayer.param_count(dim, mult))
    ffn = FeedForward(dim, mult * dim, dim, 0.0, rng=np.random.default_rng(11))
    assert sum(p.data.size for _, p in ffn.named_parameters()) == \
        FeedForward.param_count(dim, mult * dim, dim)
    mha = MultiHeadAttention(dim, 4, 0.0, rng=np.random.default_rng(12))
    assert (sum(p.data.size for _, p in mha.named_parameters())
            == MultiHeadAttention.param_count(dim) == 4 * dim * dim + 3 * dim)
    assert LayerNorm.param_count(dim) == 2 * dim


# ---------------------------------------------------------------- positional

def test_positional_table_bounded_and_zero_at_origin():
    pe = PositionalEncoding(64, 10)
    assert np.all(np.abs(pe.table) <= 1.0)
    assert np.allclose(pe.table[0, 0::2], 0.0)  # sin(0) on even channels
    assert np.allclose(pe.table[0, 1::2], 1.0)  # cos(0) on odd channels


def test_positional_add_to_zeros_reproduces_table():
    pe = PositionalEncoding(16, 6)
    out = pe(T.constant(np.zeros((5, 6))))
    assert np.array_equal(out.data, pe.table[:5])


def test_positional_length_guard():
    pe = PositionalEncoding(4, 6)
    with pytest.raises(T.ShapeError):
        pe(T.constant(np.zeros((5, 6))))


# ---------------------------------------------------------------- dropout

def test_dropout_rate_zero_and_eval_are_identity():
    x = T.constant(np.ones((4, 4)))
    rng = np.random.default_rng(9)
    assert dropout(x, 0.0, True, rng) is x
    assert dropout(x, 0.9, False) is x


def test_dropout_statistics():
    x = T.constant(np.ones(100_000))
    out = dropout(x, 0.2, True, np.random.default_rng(10)).data
    assert abs(out.mean() - 1.0) < 0.02
    assert abs((out == 0).mean() - 0.2) < 0.01


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_mask_is_drawn_in_input_dtype(dtype):
    x = Tensor(np.ones((4, 6), dtype=dtype), requires_grad=True)
    T.backward(T.tensor_sum(dropout(x, 0.25, True, np.random.default_rng(11))))
    draws = np.random.default_rng(11).random((4, 6), dtype=dtype)
    assert x.grad.dtype == dtype
    assert np.array_equal(x.grad, (draws >= 0.25).astype(dtype) / dtype(0.75))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_draws_one_uniform_per_unit(dtype):
    rng = np.random.default_rng(12)
    dropout(T.constant(np.ones((5, 7), dtype=dtype)), 0.3, True, rng)
    ref = np.random.default_rng(12)
    ref.random((5, 7), dtype=dtype)
    assert rng.random(4).tolist() == ref.random(4).tolist()


def test_dropout_rejects_bad_rate():
    with pytest.raises(ValueError):
        dropout(T.constant(np.ones(3)), 1.0, True, np.random.default_rng(0))


def test_dropout_in_train_mode_needs_an_rng():
    with pytest.raises(ValueError, match="dropout in train mode needs an rng"):
        dropout(T.constant(np.ones(3)), 0.5, True)
