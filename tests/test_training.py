import numpy as np
import pytest

import engagekit.tensor as T
from engagekit.data import SynthConfig, synth_session
from engagekit.metrics import evaluate_sessions, predict_session
from engagekit.model import EngagementModel, load_checkpoint
from engagekit.nn import Module
from engagekit.segmentation import make_segments, build_window_batch
from engagekit.tensor import Tensor
from engagekit.training import (Adam, EmaState, TrainConfig, DivergenceError,
                                train, evaluate_with_ema, _batch_loss)

from conftest import toy_config, TOY_FEATURE_DIMS


def tiny_sessions(n, frames=60, seed=0):
    cfg = SynthConfig(sessions=n, num_frames=frames, seed=seed,
                      feature_dims=dict(TOY_FEATURE_DIMS))
    return [synth_session(cfg, i) for i in range(n)]


def desk_train_cfg(**overrides):
    base = dict(lr=1e-3, batch_size=8, epochs=2, ema_decay=0.9, seed=5)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------- adam

def test_adam_zero_grad_is_noop_and_moments_decay():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=0.1)
    opt.m[0][:] = 0.5
    opt.v[0][:] = 0.25
    before = p.data.copy()
    p.grad = None
    opt.step()
    # fresh moments stay zero on a zero-grad step; preloaded ones decay
    assert np.allclose(opt.m[0], 0.45)
    assert np.allclose(opt.v[0], 0.25 * 0.999)
    # a genuinely fresh optimizer leaves parameters untouched
    q = Tensor(np.array([3.0]), requires_grad=True)
    opt_q = Adam([("q", q)], lr=0.1)
    opt_q.step()
    assert np.array_equal(q.data, [3.0])
    assert not np.array_equal(p.data, before)  # preloaded moments do move p


def test_adam_first_step_magnitude_is_lr():
    for g in (0.5, -3.0, 1e3):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([g])
        Adam([("p", p)], lr=0.01).step()
        assert abs(abs(p.data[0] - 1.0) - 0.01) < 0.01 * 0.01


def test_adam_matches_independent_scalar_recurrence():
    # oracle: the textbook recurrence in plain python floats on f(x) = x^2
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    x_ref, m, v = 1.0, 0.0, 0.0
    trajectory = []
    for t in range(1, 201):
        g = 2.0 * x_ref
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x_ref -= lr * (m / (1 - b1 ** t)) / ((v / (1 - b2 ** t)) ** 0.5 + eps)
        trajectory.append(x_ref)

    p = Tensor(np.array([1.0]), requires_grad=True)
    opt = Adam([("p", p)], lr=lr, beta1=b1, beta2=b2, eps=eps)
    for t in range(200):
        p.grad = 2.0 * p.data
        opt.step()
        assert p.data[0] == pytest.approx(trajectory[t], rel=1e-12)
    assert abs(p.data[0]) < 1e-2


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_and_ema_in_place_equal_the_textbook_formulas_bitwise(dtype):
    rng = np.random.default_rng(3)
    p = Tensor(rng.standard_normal((4, 3)).astype(dtype), requires_grad=True)
    lr, b1, b2, eps, wd, decay = 0.01, 0.9, 0.999, 1e-8, 0.1, 0.99
    opt = Adam([("p", p)], lr, b1, b2, eps, wd)
    ema = EmaState([("p", p)], decay)
    w, m, v, shadow = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data), p.data.copy()
    for t in range(1, 6):
        g = rng.standard_normal((4, 3)).astype(dtype)
        p.grad = g.copy()
        opt.step()
        ema.update()
        g = g + wd * w
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        w = w - lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)
        shadow = decay * shadow + (1.0 - decay) * w
        assert p.data.dtype == dtype
        assert p.data.tobytes() == w.tobytes()
        assert ema.shadow["p"].tobytes() == shadow.tobytes()


def test_adam_aborts_on_non_finite_grad():
    p = Tensor(np.ones(3), requires_grad=True)
    p.grad = np.array([1.0, np.nan, 0.0])
    with pytest.raises(DivergenceError, match="head.weight"):
        Adam([("head.weight", p)], lr=0.1).step()


# ---------------------------------------------------------------- ema

def test_ema_decay_zero_tracks_parameters():
    p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    ema = EmaState([("p", p)], decay=0.0)
    p.data = np.array([5.0, 6.0])
    ema.update()
    assert np.array_equal(ema.shadow["p"], [5.0, 6.0])


def test_ema_single_update_arithmetic():
    p = Tensor(np.array([0.0]), requires_grad=True)
    ema = EmaState([("p", p)], decay=0.999)
    ema.shadow["p"][:] = 1.0
    ema.update()
    assert ema.shadow["p"][0] == pytest.approx(0.999, abs=1e-15)


def test_ema_geometric_convergence():
    p = Tensor(np.array([2.0]), requires_grad=True)
    decay = 0.8
    ema = EmaState([("p", p)], decay=decay)
    ema.shadow["p"][:] = 0.0
    for _ in range(10):
        ema.update()
    assert abs(ema.shadow["p"][0] - 2.0) == pytest.approx(decay ** 10 * 2.0, rel=1e-12)


def test_ema_swap_round_trip_bitwise():
    rng = np.random.default_rng(0)
    params = [(f"p{i}", Tensor(rng.standard_normal(4), requires_grad=True))
              for i in range(3)]
    ema = EmaState(params, decay=0.5)
    before = [p.data.tobytes() for _, p in params]
    originals = [p.data for _, p in params]
    with ema.swapped():
        for (_, p), shadow in zip(params, ema.shadow.values()):
            pass  # inside the context the live values are the shadow copies
    after = [p.data.tobytes() for _, p in params]
    assert before == after
    assert all(a is b for a, b in zip(originals, [p.data for _, p in params]))


def test_evaluate_with_ema_decay_zero_equals_direct(rng):
    cfg = toy_config(core_len=8, context_len=4)
    model = EngagementModel(cfg, seed=0)
    sessions = tiny_sessions(1)
    ema = EmaState(model.named_parameters(), decay=0.0)
    ema.update()
    direct = evaluate_sessions(model, sessions)
    via_ema = evaluate_with_ema(model, ema, sessions)
    assert [r["ccc"] for r in direct.sessions] == [r["ccc"] for r in via_ema.sessions]
    # live parameters untouched (bitwise) by the swap round trip
    again = evaluate_sessions(model, sessions)
    assert [r["ccc"] for r in direct.sessions] == [r["ccc"] for r in again.sessions]


# ---------------------------------------------------------------- train loop

def test_train_step_changes_predictions(tmp_path):
    cfg = toy_config(core_len=8, context_len=4)
    model = EngagementModel(cfg, seed=1)
    sessions = tiny_sessions(2)
    before = predict_session(model, sessions[0]).copy()
    train(model, sessions, None, desk_train_cfg(epochs=1), quiet=True)
    after = predict_session(model, sessions[0])
    assert not np.array_equal(before, after)


def test_train_is_bitwise_deterministic(tmp_path):
    def run(out):
        cfg = toy_config(core_len=8, context_len=4, dropout=0.2)
        model = EngagementModel(cfg, seed=2)
        sessions = tiny_sessions(2)
        val = tiny_sessions(1, seed=9)
        return train(model, sessions, val, desk_train_cfg(epochs=3),
                     out_dir=out, quiet=True)

    r1 = run(tmp_path / "a")
    r2 = run(tmp_path / "b")
    assert r1.history == r2.history
    for name in ("best.ckpt", "last.ckpt", "history.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_history_and_checkpoints(tmp_path):
    cfg = toy_config(core_len=8, context_len=4)
    model = EngagementModel(cfg, seed=3)
    result = train(model, tiny_sessions(2), tiny_sessions(1, seed=11),
                   desk_train_cfg(epochs=2), out_dir=tmp_path, quiet=True)
    assert len(result.history) == 2
    assert result.best_epoch >= 0
    loaded, manifest = load_checkpoint(result.best_path)
    assert manifest["extra"]["checkpoint"].startswith("best@")
    lines = (tmp_path / "history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,val_ccc"
    assert len(lines) == 3


def test_train_aborts_on_divergence():
    cfg = toy_config(core_len=8, context_len=4)
    model = EngagementModel(cfg, seed=4)
    sessions = tiny_sessions(1)
    # A damaged weight, not a damaged stream: a non-finite stream value is
    # a data error (test_a_non_finite_stream_value_is_a_data_error).
    model.named_parameters()[0][1].data[:] = np.nan
    with pytest.raises(DivergenceError, match="epoch 0, batch 0"):
        train(model, sessions, None, desk_train_cfg(epochs=1), quiet=True)


class ConstantModel(Module):
    """Predicts one trainable level at every frame, whatever the input, so
    it reads no role's streams."""

    core_len, context_len = 8, 4
    roles = ()

    def __init__(self, level: float):
        self.level = Tensor(np.array([level]), requires_grad=True)

    def forward(self, target, partner=None, train=False, rng=None):
        frames = target["clip"].shape[:-1]
        return T.add(T.constant(np.zeros(frames + (1,))), self.level)


def test_train_degenerate_ccc_batch_is_divergence():
    # Constant predictions on constant labels of the same value make the
    # CCC loss 0/0: a numerical failure, reported with its position.
    sessions = tiny_sessions(1)
    sessions[0].roles["target"].labels[:] = 0.0
    with pytest.raises(DivergenceError, match="degenerate batch.*at epoch 0, batch 0"):
        train(ConstantModel(0.0), sessions, None, desk_train_cfg(loss="ccc", epochs=1),
              quiet=True)


def test_train_requires_labeled_sessions():
    sessions = tiny_sessions(1)
    sessions[0].roles["target"].labels = None
    model = EngagementModel(toy_config(core_len=8, context_len=4), seed=5)
    with pytest.raises(ValueError):
        train(model, sessions, None, desk_train_cfg(), quiet=True)


def test_train_checks_validation_sessions_before_the_first_step(monkeypatch):
    model = EngagementModel(toy_config(core_len=8, context_len=4), seed=5)
    calls = []
    forward = model.forward

    def counting(*args, **kwargs):
        calls.append(kwargs.get("train"))
        return forward(*args, **kwargs)

    monkeypatch.setattr(model, "forward", counting)
    val = tiny_sessions(2, seed=1)
    del val[1].roles["partner"]
    with pytest.raises(ValueError, match=f"session '{val[1].session_id}': .*partner"):
        train(model, tiny_sessions(1), val, desk_train_cfg(), quiet=True)
    assert calls == []



@pytest.mark.parametrize("where", ["train", "val"])
def test_train_checks_stream_dims_before_the_first_step(monkeypatch, where):
    model = EngagementModel(toy_config(core_len=8, context_len=4), seed=5)
    calls = []
    monkeypatch.setattr(model, "forward", lambda *args, **kwargs: calls.append(kwargs))
    sessions = tiny_sessions(2)
    odd = synth_session(SynthConfig(sessions=1, num_frames=60, seed=0,
                                    feature_dims={**TOY_FEATURE_DIMS, "clip": 7}), 2)
    train_sessions, val = (sessions + [odd], None) if where == "train" else (sessions, [odd])
    with pytest.raises(ValueError, match=rf"session '{odd.session_id}': target stream "
                                         rf"'clip' has dim 7, config expects 6"):
        train(model, train_sessions, val, desk_train_cfg(), quiet=True)
    assert calls == []

def test_train_checks_the_corpus_against_the_model_dims(monkeypatch):
    # The corpus agrees with itself; the model's config does not.
    model = EngagementModel(toy_config(core_len=8, context_len=4,
                                       feature_dims={**TOY_FEATURE_DIMS, "clip": 7}), seed=5)
    calls = []
    monkeypatch.setattr(model, "forward", lambda *args, **kwargs: calls.append(kwargs))
    sessions = tiny_sessions(2)
    with pytest.raises(ValueError, match=rf"session '{sessions[0].session_id}': target "
                                         rf"stream 'clip' has dim 6, config expects 7"):
        train(model, sessions, None, desk_train_cfg(), quiet=True)
    assert calls == []


def test_cosine_schedule_hands_adam_a_python_float(monkeypatch):
    seen = []
    step = Adam.step

    def recording(self):
        seen.append(type(self.lr) is float)
        step(self)

    monkeypatch.setattr(Adam, "step", recording)
    model = EngagementModel(toy_config(core_len=8, context_len=4, dtype="float32"), seed=5)
    train(model, tiny_sessions(1), None, desk_train_cfg(lr_schedule="cosine"), quiet=True)
    assert seen and all(seen)


def test_loss_ignores_non_core_labels(rng):
    # Mutating labels outside the supervised core never changes the loss or
    # any parameter gradient: pads and context carry zero loss weight.
    cfg = toy_config(core_len=8, context_len=4)
    model = EngagementModel(cfg, seed=6)
    session = tiny_sessions(1)[0]
    segs = make_segments(session.num_frames, cfg.core_len, cfg.context_len)[:3]
    batch = build_window_batch(session, segs)

    def loss_and_grads(batch):
        model.zero_grad()
        loss = _batch_loss(model, batch, "mse", None)
        T.backward(loss)
        grads = {n: p.grad.copy() for n, p in model.named_parameters()}
        return float(loss.data), grads

    value_a, grads_a = loss_and_grads(batch)
    batch.labels = batch.labels.copy()
    batch.labels[~batch.mask] = rng.uniform(0, 1, (~batch.mask).sum())
    value_b, grads_b = loss_and_grads(batch)
    assert value_a == value_b
    for name in grads_a:
        assert np.array_equal(grads_a[name], grads_b[name]), name


def test_ema_report_differs_from_raw_mid_training():
    cfg = toy_config(core_len=8, context_len=4)
    model = EngagementModel(cfg, seed=7)
    sessions = tiny_sessions(2)
    ema = EmaState(model.named_parameters(), decay=0.999)
    train_cfg = desk_train_cfg(epochs=1, ema_decay=0.999)
    train(model, sessions, None, train_cfg, quiet=True)
    ema.update()  # shadow still near init, far from the trained weights
    raw = evaluate_sessions(model, sessions)
    smoothed = evaluate_with_ema(model, ema, sessions)
    assert [r["ccc"] for r in raw.sessions] != [r["ccc"] for r in smoothed.sessions]
