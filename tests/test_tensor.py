import math
import tracemalloc
import weakref

import numpy as np
import pytest

import engagekit.tensor as T
from engagekit.nn import dropout
from engagekit.tensor import Tensor, backward, grad_check


def t(data, grad=True):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------- linear

@pytest.mark.parametrize("with_bias", [True, False])
@pytest.mark.parametrize("x_grad", [True, False])
def test_linear_grad_3d(with_bias, x_grad):
    rng = np.random.default_rng(12)
    x = t(rng.standard_normal((2, 5, 4)), grad=x_grad)
    w = t(rng.standard_normal((4, 3)))
    b = t(rng.standard_normal(3)) if with_bias else None
    c = T.constant(rng.standard_normal((2, 5, 3)))
    params = [("w", w)] + ([("b", b)] if with_bias else []) + ([("x", x)] if x_grad else [])
    err = grad_check(lambda: T.tensor_sum(T.mul(T.linear(x, w, b), c)), params)
    assert err < 1e-6
    if not x_grad:
        assert x.grad is None


def test_linear_matches_matmul_add():
    rng = np.random.default_rng(13)
    x = t(rng.standard_normal((3, 7, 5)), grad=False)
    w = t(rng.standard_normal((5, 4)), grad=False)
    b = t(rng.standard_normal(4), grad=False)
    np.testing.assert_allclose(T.linear(x, w, b).data, x.data @ w.data + b.data, rtol=1e-12)


# ---------------------------------------------------------------- attention

def numpy_attention(q, k, v, heads, g):
    """Per-head ``softmax(q k^T / sqrt(d_k)) v`` and its textbook gradients
    for the upstream gradient ``g``, in plain numpy."""
    b, lq, d = q.shape
    lk = k.shape[1]
    d_k = d // heads
    s = 1.0 / math.sqrt(d_k)

    def split(a, length):
        return a.reshape(b, length, heads, d_k).transpose(0, 2, 1, 3)

    def merge(a, length):
        return a.transpose(0, 2, 1, 3).reshape(b, length, d)

    qh, kh, vh, gh = split(q, lq), split(k, lk), split(v, lk), split(g, lq)
    scores = qh @ kh.swapaxes(-1, -2) * s
    p = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    dp = gh @ vh.swapaxes(-1, -2)
    ds = p * (dp - (dp * p).sum(axis=-1, keepdims=True))
    return (merge(p @ vh, lq), p,
            merge(ds @ kh * s, lq), merge(ds.swapaxes(-1, -2) @ qh * s, lk),
            merge(p.swapaxes(-1, -2) @ gh, lk))


def test_attention_matches_composed_chain():
    rng = np.random.default_rng(14)
    q = t(rng.standard_normal((2, 3, 8)))
    k = t(rng.standard_normal((2, 5, 8)))
    v = t(rng.standard_normal((2, 5, 8)))
    c = rng.standard_normal((2, 3, 8))
    out, weights = T.attention(q, k, v, 2, weights=True)
    backward(T.tensor_sum(T.mul(out, T.constant(c))))
    fused = (out.data, weights, q.grad, k.grad, v.grad)
    reference = numpy_attention(q.data, k.data, v.data, 2, c)
    assert fused[1].shape == (2, 2, 3, 5)
    for a, b in zip(fused[:2], reference[:2]):
        np.testing.assert_allclose(a, b, rtol=1e-12)
    for a, b in zip(fused[2:], reference[2:]):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-14)


def test_attention_self_grad():
    rng = np.random.default_rng(15)
    x = t(rng.standard_normal((2, 6, 8)))
    c = T.constant(rng.standard_normal((2, 6, 8)))
    err = grad_check(lambda: T.tensor_sum(T.mul(T.attention(x, x, x, 4)[0], c)), [("x", x)],
                     max_coords_per_param=32)
    assert err < 1e-6


def test_attention_cross_grad_batched():
    rng = np.random.default_rng(16)
    q = t(rng.standard_normal((3, 4, 6)))
    k = t(rng.standard_normal((3, 7, 6)))
    v = t(rng.standard_normal((3, 7, 6)))
    c = T.constant(rng.standard_normal((3, 4, 6)))
    err = grad_check(lambda: T.tensor_sum(T.mul(T.attention(q, k, v, 2)[0], c)),
                     [("q", q), ("k", k), ("v", v)], max_coords_per_param=32)
    assert err < 1e-6


@pytest.mark.parametrize("d_k", [4, 8, 12])
def test_attention_float32_at_extreme_logits(d_k):
    # Queries and keys scaled so the largest |logit| is 80, near float32's
    # exp overflow at 88.7: many rows are close to one-hot. Errors are
    # measured against each array's largest value; a logit of 80 carries
    # up to 80 float32 rounding units, so 80 eps bounds what rounding
    # alone can cause.
    heads, b, lq, lk = 8, 3, 16, 24
    d = heads * d_k
    rng = np.random.default_rng(d_k)
    q, k, v, c = (rng.standard_normal(shape) for shape in
                  ((b, lq, d), (b, lk, d), (b, lk, d), (b, lq, d)))
    qh = q.reshape(b, lq, heads, d_k).transpose(0, 2, 1, 3)
    kh = k.reshape(b, lk, heads, d_k).transpose(0, 2, 1, 3)
    logits = qh @ kh.swapaxes(-1, -2) / math.sqrt(d_k)
    f = math.sqrt(80.0 / np.abs(logits).max())
    q32, k32, v32, c32 = (a.astype(np.float32) for a in (q * f, k * f, v, c))
    qt, kt, vt = (Tensor(a, requires_grad=True) for a in (q32, k32, v32))
    out, weights = T.attention(qt, kt, vt, heads, weights=True)
    backward(T.tensor_sum(T.mul(out, T.constant(c32))))
    got = (out.data, qt.grad, kt.grad, vt.grad)
    ref_out, _, ref_dq, ref_dk, ref_dv = numpy_attention(
        *(a.astype(np.float64) for a in (q32, k32, v32)), heads, c32.astype(np.float64))
    tol = 80 * np.finfo(np.float32).eps
    for name, a, ref in zip(("out", "dq", "dk", "dv"), got, (ref_out, ref_dq, ref_dk, ref_dv)):
        assert a.dtype == np.float32, name
        assert np.all(np.isfinite(a)), name
        assert np.max(np.abs(a - ref)) <= tol * np.max(np.abs(ref)), name
    assert weights.dtype == np.float32 and np.all(np.isfinite(weights))
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-5


def test_attention_forms_weights_only_on_request():
    rng = np.random.default_rng(17)
    q, k, v = (t(rng.standard_normal(shape)) for shape in ((2, 3, 8), (2, 5, 8), (2, 5, 8)))
    out, weights = T.attention(q, k, v, 2)
    assert weights is None
    out_w, weights = T.attention(q, k, v, 2, weights=True)
    assert np.array_equal(out.data, out_w.data)
    assert weights.shape == (2, 2, 3, 5)
    assert np.max(np.abs(weights.sum(axis=-1) - 1.0)) < 1e-12


def test_attention_shape_errors():
    x = t(np.zeros((2, 3, 8)))
    with pytest.raises(T.ShapeError):
        T.attention(x, t(np.zeros((2, 3, 6))), t(np.zeros((2, 3, 6))), 2)
    with pytest.raises(T.ShapeError):
        T.attention(x, x, x, 3)


# ---------------------------------------------------------------- layer norm

def test_layer_norm_constant_row_collapses_to_beta():
    x = t([[3.0, 3.0, 3.0]])
    out = T.layer_norm(x, t(np.ones(3), grad=False), t(np.zeros(3), grad=False))
    assert np.allclose(out.data, 0.0, atol=1e-3)  # eps keeps it finite, near zero


def test_layer_norm_two_point_row():
    x = t([[1.0, 3.0]])
    out = T.layer_norm(x, t(np.ones(2), grad=False), t(np.zeros(2), grad=False), eps=1e-12)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-9)


def test_layer_norm_pre_affine_mean_is_zero():
    rng = np.random.default_rng(4)
    x = t(rng.standard_normal((6, 16)) * 5 + 2)
    out = T.layer_norm(x, t(np.ones(16), grad=False), t(np.zeros(16), grad=False))
    assert np.max(np.abs(out.data.mean(axis=-1))) < 1e-10


def test_layer_norm_grad_fd():
    rng = np.random.default_rng(5)
    x = t(rng.standard_normal((4, 8)))
    gamma = t(rng.standard_normal(8))
    beta = t(rng.standard_normal(8))
    c = T.constant(rng.standard_normal((4, 8)))

    def f():
        return T.tensor_sum(T.mul(T.layer_norm(x, gamma, beta), c))

    err = grad_check(f, [("x", x), ("gamma", gamma), ("beta", beta)])
    assert err < 1e-5


# ---------------------------------------------------------------- elementwise

def test_add_identity_and_shape_error():
    x = t([[1.0, -2.0]])
    assert np.array_equal(T.add(x, t(np.zeros((1, 2)), grad=False)).data, x.data)
    with pytest.raises(T.ShapeError):
        T.add(x, t(np.zeros((3, 3))))


def test_suffix_broadcast_add_grad():
    rng = np.random.default_rng(6)
    x = t(rng.standard_normal((2, 5, 3)))
    b = t(rng.standard_normal(3))
    err = grad_check(lambda: T.tensor_sum(T.mul(T.add(x, b), T.add(x, b))),
                     [("x", x), ("b", b)])
    assert err < 1e-6


def test_gelu_zero_and_grad():
    assert T.gelu(t([0.0])).data[0] == 0.0
    rng = np.random.default_rng(7)
    x = t(rng.standard_normal(12) * 2)
    err = grad_check(lambda: T.tensor_sum(T.mul(T.gelu(x), T.gelu(x))), [("x", x)])
    assert err < 1e-5


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_and_layer_norm_match_reference_formulas(dtype):
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 5, 16)) * 3
    g = rng.standard_normal(x.shape)
    gamma, beta = rng.standard_normal(16), rng.standard_normal(16)
    # float64 references, written straight from the formulas
    c = math.sqrt(2.0 / math.pi)
    th = np.tanh(c * (x + 0.044715 * x ** 3))
    gelu_ref = 0.5 * x * (1.0 + th)
    dgelu_ref = g * (0.5 * (1.0 + th)
                     + 0.5 * x * (1.0 - th ** 2) * c * (1.0 + 3 * 0.044715 * x ** 2))
    centered = x - x.mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5)
    xhat = centered * inv_std
    dxhat = g * gamma
    dx_ref = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    def close(actual, ref):
        tol = 64 * np.finfo(dtype).eps
        assert actual.dtype == dtype
        np.testing.assert_allclose(actual, ref, rtol=tol, atol=tol * np.abs(ref).max())

    xt = Tensor(x.astype(dtype), requires_grad=True)
    y = T.gelu(xt)
    close(y.data, gelu_ref)
    backward(T.tensor_sum(T.mul(y, T.constant(g.astype(dtype)))))
    close(xt.grad, dgelu_ref)

    xt = Tensor(x.astype(dtype), requires_grad=True)
    gt = Tensor(gamma.astype(dtype), requires_grad=True)
    bt = Tensor(beta.astype(dtype), requires_grad=True)
    y = T.layer_norm(xt, gt, bt)
    close(y.data, xhat * gamma + beta)
    backward(T.tensor_sum(T.mul(y, T.constant(g.astype(dtype)))))
    close(xt.grad, dx_ref)
    close(gt.grad, (g * xhat).sum(axis=(0, 1)))
    close(bt.grad, g.sum(axis=(0, 1)))


def test_div_grads():
    rng = np.random.default_rng(8)
    x = t(rng.standard_normal(9) + 3.0)
    y = t(rng.standard_normal(9) + 5.0)   # away from zero denominators
    err = grad_check(lambda: T.tensor_sum(T.div(x, y)), [("x", x), ("y", y)])
    assert err < 1e-6


# ---------------------------------------------------------------- concat

def test_concat_round_trip_exact():
    rng = np.random.default_rng(9)
    a = t(rng.standard_normal((4, 2)))
    b = t(rng.standard_normal((4, 3)))
    out = T.concat([a, b], axis=-1)
    assert out.shape == (4, 5)
    assert np.array_equal(out.data[:, :2], a.data)
    assert np.array_equal(out.data[:, 2:], b.data)


def test_concat_paper_scale_widths():
    length = 7
    audio = T.concat([t(np.zeros((length, 512)), grad=False),
                      t(np.zeros((length, 512)), grad=False)], axis=-1)
    assert audio.shape == (length, 1024)
    head_in = T.concat([t(np.zeros((length, 1024)), grad=False),
                        t(np.zeros((length, 1536)), grad=False)], axis=-1)
    assert head_in.shape == (length, 2560)


def test_concat_backward_routes_slices_exactly():
    a = t(np.zeros((2, 2)))
    b = t(np.zeros((2, 3)))
    out = T.concat([a, b], axis=-1)
    weights = np.arange(10.0).reshape(2, 5)
    backward(T.tensor_sum(T.mul(out, T.constant(weights))))
    assert np.array_equal(a.grad, weights[:, :2])
    assert np.array_equal(b.grad, weights[:, 2:])


def test_concat_incompatible_shapes():
    with pytest.raises(T.ShapeError):
        T.concat([t(np.zeros((2, 2))), t(np.zeros((3, 2)))], axis=-1)


# ---------------------------------------------------------------- backward

def test_backward_sum_gives_ones():
    x = t(np.arange(6.0).reshape(2, 3))
    backward(T.tensor_sum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_square_gives_2x():
    x = t([1.0, -2.0, 3.0])
    backward(T.tensor_sum(T.mul(x, x)))
    assert np.array_equal(x.grad, 2 * x.data)


def test_backward_accumulates_over_reuse():
    x = t([2.0])
    y = T.add(T.mul(x, x), T.scale(x, 3.0))  # x^2 + 3x -> grad 2x + 3
    backward(T.tensor_sum(y))
    assert np.allclose(x.grad, [7.0])


def test_backward_consumes_tape_and_keeps_only_leaf_grads():
    x = t([1.0, -2.0])
    h = T.scale(x, 3.0)
    loss = T.tensor_sum(h)
    backward(loss)
    assert T.tape_size() == 0
    assert h.grad is None and loss.grad is None
    assert np.array_equal(x.grad, [3.0, 3.0])
    assert x.grad.flags.writeable


@pytest.mark.parametrize("double", [lambda x: T.add(x, x), lambda x: T.concat([x, x])],
                         ids=["add", "concat"])
def test_one_tensor_used_twice_gets_both_gradients(double):
    x = t([1.0, -2.0, 3.0])
    backward(T.tensor_sum(double(x)))
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_add_gives_each_operand_its_own_gradient():
    # `a` and `b` are distinct tensors of one shape, so add's gradient buffer
    # must not reach both: `c`'s contribution lands in x.grad between b's and
    # a's backward and would otherwise leak into what `a` hands on.
    x = t([1.0, -2.0])
    a = T.reshape(x, (2,))
    c = T.scale(x, 1.0)
    b = T.reshape(x, (2,))
    backward(T.add(T.tensor_sum(T.add(a, b)), T.tensor_sum(c)))
    assert np.array_equal(x.grad, [3.0, 3.0])


# ---------------------------------------------------------------- what the tape keeps

def _owner(a: np.ndarray) -> np.ndarray:
    """The array that owns ``a``'s memory."""
    while a.base is not None:
        a = a.base
    return a


_KEEP = np.arange(24).reshape(2, 3, 4) % 3 != 1
_CHAINS = {
    "add->layer_norm": (lambda p: T.add(p["x"], p["y"]),
                        lambda h, p: T.layer_norm(h, p["gamma"], p["beta"])),
    "linear->dropout": (lambda p: T.linear(p["x"], p["w"], p["bias"]),
                        lambda h, p: T.dropout(h, _KEEP, np.float64(1.25))),
    "gelu->dropout": (lambda p: T.gelu(p["x"]),
                      lambda h, p: T.dropout(h, _KEEP, np.float64(1.25))),
}


@pytest.mark.parametrize("chain", _CHAINS)
def test_an_output_no_backward_reads_is_freed_when_dropped(chain):
    first, second = _CHAINS[chain]
    grads = []
    for hold in (True, False):
        rng = np.random.default_rng(21)
        p = {"x": t(rng.standard_normal((2, 3, 4))), "y": t(rng.standard_normal((2, 3, 4))),
             "gamma": t(rng.standard_normal(4)), "beta": t(rng.standard_normal(4)),
             "w": t(rng.standard_normal((4, 4))), "bias": t(rng.standard_normal(4))}
        h = first(p)
        freed = weakref.ref(_owner(h.data))
        out = second(h, p)
        held = h if hold else None
        del h
        assert (freed() is None) != hold
        backward(T.tensor_sum(T.mul(out, T.constant(np.arange(24.0).reshape(2, 3, 4)))))
        grads.append({name: leaf.grad for name, leaf in p.items()})
        del held
    held_grads, dropped_grads = grads
    assert held_grads.keys() == dropped_grads.keys()
    for name, g in held_grads.items():
        assert (g is None) == (dropped_grads[name] is None), name
        assert g is None or np.array_equal(g, dropped_grads[name]), name


@pytest.mark.parametrize("weight_learns", [True, False])
def test_linear_keeps_its_input_only_for_the_weight_gradient(weight_learns):
    rng = np.random.default_rng(22)
    x = t(rng.standard_normal((2, 3, 4)))
    w = Tensor(rng.standard_normal((4, 5)), requires_grad=weight_learns)
    a = T.scale(x, 1.0)
    kept = weakref.ref(_owner(a.data))
    out = T.linear(a, w)
    del a
    assert (kept() is not None) == weight_learns
    backward(T.tensor_sum(out))
    assert np.allclose(x.grad, np.ones((2, 3, 5)) @ w.data.T)
    if weight_learns:
        assert np.allclose(w.grad, x.data.reshape(-1, 4).T @ np.ones((6, 5)))


def test_mul_keeps_an_operand_only_for_the_other_ones_gradient():
    rng = np.random.default_rng(23)
    x = t(rng.standard_normal(6))
    a = T.scale(x, 1.0)                      # needs a gradient
    b = T.constant(rng.standard_normal(6))   # needs none
    b_values = b.data.copy()
    a_kept, b_kept = weakref.ref(_owner(a.data)), weakref.ref(_owner(b.data))
    out = T.mul(a, b)
    del a, b
    assert a_kept() is None       # only b's gradient would read a
    assert b_kept() is not None   # a's gradient reads b
    backward(T.tensor_sum(out))
    assert np.array_equal(x.grad, b_values)


def test_dropout_keeps_one_byte_per_unit():
    # The backward keeps only the boolean mask: about 1 byte per unit where a
    # float32 mask would take 4, and the output is not kept at all.
    x = Tensor(np.ones(1_000_000, dtype=np.float32), requires_grad=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = T.tensor_sum(dropout(x, 0.5, True, np.random.default_rng(24)))
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert 1_000_000 <= retained < 1_100_000
    backward(loss)
    assert x.grad.dtype == np.float32 and set(np.unique(x.grad)) <= {0.0, 2.0}


def test_backward_rejects_non_scalar():
    x = t([1.0, 2.0])
    with pytest.raises(T.ShapeError):
        backward(T.add(x, x))


def test_backward_twice_without_new_tape_fails():
    x = t([1.0, 2.0])
    loss = T.tensor_sum(x)
    backward(loss)
    with pytest.raises(RuntimeError):
        backward(loss)


def test_no_grad_blocks_recording():
    x = t([1.0, 2.0])
    with T.no_grad():
        loss = T.tensor_sum(x)
    assert not loss.requires_grad
    with pytest.raises(RuntimeError):
        backward(loss)


def test_forward_is_deterministic():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((2, 5, 5))
    outs = []
    for _ in range(2):
        x = t(data.copy())
        outs.append(T.attention(x, x, x, 1)[0].data.tobytes())
    assert outs[0] == outs[1]


# ---------------------------------------------------------------- grad_check

def test_grad_check_linear_layer():
    rng = np.random.default_rng(11)
    w = t(rng.standard_normal((4, 3)))
    b = t(rng.standard_normal(3))
    x = T.constant(rng.standard_normal((6, 4)))
    c = T.constant(rng.standard_normal((6, 3)))

    def f():
        return T.tensor_sum(T.mul(T.linear(x, w, b), c))

    err = grad_check(f, [("w", w), ("b", b)])
    assert err < 1e-6


def test_grad_check_raises_on_breach():
    x = t([1.0])

    def wrong():
        # value path says x^2 but we corrupt the comparison via tol=0 anyway
        return T.mul(x, x)

    with pytest.raises(T.GradCheckError):
        grad_check(wrong, [("x", x)], tol=0.0)
