import numpy as np
import pytest

import engagekit.tensor as T
from engagekit.data import SynthConfig, synth_session
from engagekit.metrics import (mse, ccc, ccc_loss, evaluate_sessions, EvalReport,
                               LabelEchoPredictor, predict_session, WINDOWS_PER_BATCH)
from engagekit.model import BaselineModel, DEFAULT_FEATURE_DIMS, EngagementModel, ModelConfig
from engagekit.segmentation import build_window_batch, make_segments, reassemble
from engagekit.tensor import Tensor, backward, grad_check

from conftest import TOY_FEATURE_DIMS, toy_config


def brute_force_ccc(x, y):
    """Independent streaming two-pass oracle: plain python accumulators."""
    n = 0
    sum_x = sum_y = 0.0
    for a, b in zip(x, y):
        n += 1
        sum_x += float(a)
        sum_y += float(b)
    mean_x, mean_y = sum_x / n, sum_y / n
    sxx = syy = sxy = 0.0
    for a, b in zip(x, y):
        dx, dy = float(a) - mean_x, float(b) - mean_y
        sxx += dx * dx
        syy += dy * dy
        sxy += dx * dy
    denom = sxx / n + syy / n + (mean_x - mean_y) ** 2
    return 2.0 * (sxy / n) / denom


# ---------------------------------------------------------------- mse

def test_mse_trivial_values():
    x = np.array([0.3, 0.7, 0.1])
    assert mse(T.constant(x), x).item() == 0.0
    assert mse(T.constant(np.zeros(2)), np.ones(2)).item() == 1.0


def test_mse_gradient_closed_form_and_fd(rng):
    pred = Tensor(rng.standard_normal(10), requires_grad=True)
    label = rng.standard_normal(10)
    mask = (rng.random(10) > 0.3).astype(float)
    loss = mse(pred, label, mask)
    backward(loss)
    expected = 2.0 * (pred.data - label) * mask / mask.sum()
    assert np.allclose(pred.grad, expected)
    assert grad_check(lambda: mse(pred, label, mask), [("pred", pred)]) < 1e-7


def test_mse_empty_mask_rejected(rng):
    with pytest.raises(ValueError):
        mse(T.constant(np.ones(4)), np.ones(4), np.zeros(4))


# ---------------------------------------------------------------- ccc metric

def test_ccc_perfect_and_constant():
    x = np.array([0.1, 0.5, 0.9, 0.3])
    assert ccc(x, x) == pytest.approx(1.0, abs=1e-12)
    assert ccc(x, np.full(4, 0.4)) == 0.0


def test_ccc_known_value():
    assert ccc([1, 2, 3], [2, 3, 4]) == pytest.approx(4.0 / 7.0, abs=1e-12)


def test_ccc_symmetry(rng):
    for _ in range(20):
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        assert abs(ccc(x, y) - ccc(y, x)) < 1e-12


def test_ccc_bounded_by_pearson(rng):
    for _ in range(20):
        x = rng.standard_normal(60)
        y = rng.standard_normal(60) + 0.5 * x
        r = np.corrcoef(x, y)[0, 1]
        c = ccc(x, y)
        assert abs(c) <= abs(r) + 1e-12 <= 1.0 + 1e-12


def test_ccc_mean_shift_penalty(rng):
    x = rng.standard_normal(80)
    shifts = [0.1, 0.5, 1.0, 2.0, 5.0]
    values = [ccc(x, x + a) for a in shifts]
    assert all(v < 1.0 for v in values)
    assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
    # closed form: ccc(x, x + a) = 2 var / (2 var + a^2)
    var = np.mean((x - x.mean()) ** 2)
    for a, v in zip(shifts, values):
        assert v == pytest.approx(2 * var / (2 * var + a * a), rel=1e-12)


def test_ccc_matches_brute_force_oracle(rng):
    for _ in range(100):
        n = int(rng.integers(2, 200))
        x = rng.standard_normal(n) * rng.uniform(0.1, 5)
        y = rng.standard_normal(n) + rng.uniform(-2, 2)
        assert ccc(x, y) == pytest.approx(brute_force_ccc(x, y), abs=1e-10)


def test_ccc_degenerate_and_errors():
    with pytest.raises(ValueError):
        ccc([1.0], [1.0])
    with pytest.warns(RuntimeWarning):
        assert ccc(np.full(5, 2.0), np.full(5, 2.0)) == 0.0
    # both constant, different means: denominator is the mean gap, ccc = 0
    assert ccc(np.full(5, 2.0), np.full(5, 3.0)) == 0.0


# ---------------------------------------------------------------- ccc loss

def test_ccc_loss_trivial_cases(rng):
    x = rng.uniform(0, 1, 32)
    assert ccc_loss(T.constant(x), x).item() == pytest.approx(0.0, abs=1e-12)
    assert ccc_loss(T.constant(np.full(32, 0.5)), x).item() == pytest.approx(1.0, abs=1e-12)


def test_ccc_loss_agrees_with_metric(rng):
    pred = rng.standard_normal(64)
    label = rng.standard_normal(64)
    loss = ccc_loss(T.constant(pred), label).item()
    assert loss == pytest.approx(1.0 - ccc(pred, label), abs=1e-12)


def test_ccc_loss_gradient_fd(rng):
    pred = Tensor(rng.standard_normal(64), requires_grad=True)
    label = rng.uniform(0, 1, 64)
    assert grad_check(lambda: ccc_loss(pred, label), [("pred", pred)],
                      max_coords_per_param=32) < 1e-5


def test_ccc_loss_masked_matches_subset(rng):
    pred_vals = rng.standard_normal(40)
    label = rng.uniform(0, 1, 40)
    mask = np.zeros(40)
    mask[5:25] = 1.0
    masked = ccc_loss(T.constant(pred_vals), label, mask).item()
    subset = ccc_loss(T.constant(pred_vals[5:25]), label[5:25]).item()
    assert masked == pytest.approx(subset, abs=1e-12)


def test_ccc_loss_too_few_frames(rng):
    with pytest.raises(ValueError):
        ccc_loss(T.constant(np.ones(4)), np.ones(4), np.array([1.0, 0, 0, 0]))


# ---------------------------------------------------------------- evaluation

def _sessions(n, frames=90, seed=0):
    cfg = SynthConfig(sessions=n, num_frames=frames, seed=seed,
                      feature_dims=dict(TOY_FEATURE_DIMS))
    return [synth_session(cfg, i) for i in range(n)]


def test_evaluate_sessions_oracle_predictor():
    sessions = _sessions(3)
    report = evaluate_sessions(LabelEchoPredictor(core_len=16, context_len=8), sessions)
    assert [row["ccc"] for row in report.sessions] == pytest.approx([1.0, 1.0, 1.0], abs=1e-12)
    assert report.mean_ccc == pytest.approx(1.0, abs=1e-12)
    assert [row["mse"] for row in report.sessions] == pytest.approx([0.0, 0.0, 0.0], abs=1e-14)


def test_evaluate_sessions_constant_predictor():
    class ConstantPredictor(LabelEchoPredictor):
        def forward(self, target, partner=None, train=False):
            return T.constant(np.full(target.shape, 0.5))

    report = evaluate_sessions(ConstantPredictor(16, 8), _sessions(2))
    assert [row["ccc"] for row in report.sessions] == pytest.approx([0.0, 0.0], abs=1e-12)


def test_evaluate_sessions_skips_unlabeled():
    sessions = _sessions(2)
    sessions[1].roles["target"].labels = None
    report = evaluate_sessions(LabelEchoPredictor(16, 8), sessions)
    assert len(report.sessions) == 1
    assert report.skipped == [sessions[1].session_id]


def test_label_echo_oracle_returns_the_target_labels():
    """The oracle runs the models' batching and stitching loop, so at every
    session length it gives back exactly the target labels."""
    for core, context in ((32, 16), (32, 0)):      # the desk geometry, and no context
        length = core + 2 * context
        many = 2 * WINDOWS_PER_BATCH * core + 1     # three batches
        for frames in (1, core - 1, length - 1, length, length + 1, many):
            session = _sessions(1, frames=frames, seed=frames)[0]
            series = predict_session(LabelEchoPredictor(core, context), session)
            assert np.array_equal(series, session.roles["target"].labels), \
                (core, context, frames)


def test_evaluate_sessions_names_a_session_too_short_to_score():
    sessions = _sessions(2)
    sessions[1] = _sessions(1, frames=1, seed=1)[0]
    sessions[1].session_id = "one-frame"
    with pytest.raises(ValueError, match="session 'one-frame': CCC needs num_frames >= 2"):
        evaluate_sessions(LabelEchoPredictor(16, 8), sessions)


def test_predict_session_clamps_and_covers_timeline():
    class WildPredictor(LabelEchoPredictor):
        def forward(self, target, partner=None, train=False):
            return T.constant(np.full(target.shape, 7.5))

    session = _sessions(1, frames=50)[0]
    series = predict_session(WildPredictor(16, 8), session)
    assert series.shape == (50,)
    assert np.all(series == 1.0)


def test_predict_session_refuses_non_finite_predictions():
    class NanPredictor(LabelEchoPredictor):
        def forward(self, target, partner=None, train=False):
            return T.constant(np.full(target.shape, np.nan))

    session = _sessions(1, frames=50)[0]
    with pytest.raises(T.NonFiniteError, match=session.session_id):
        predict_session(NanPredictor(16, 8), session)


def test_predict_session_batches_do_not_change_predictions():
    """The session path (one projection per frame and role, windows cut from
    the projected timeline, core rows only from the last layer of each stack
    read row by row, batches of WINDOWS_PER_BATCH) equals one
    ``predict_windows`` call over all the gathered windows, stitched, bit for
    bit."""
    desk = dict(model_dim=32, heads=8, core_len=32, context_len=16, dropout=0.1,
                feature_dims=dict(DEFAULT_FEATURE_DIMS), dtype="float32")
    arms = [(EngagementModel, toy_config(dtype="float32")),
            (EngagementModel, toy_config(dtype="float64")),
            (EngagementModel, toy_config(dtype="float32", cross_layers=2)),
            (EngagementModel, toy_config(dtype="float64", cross_layers=2)),
            (EngagementModel, toy_config(dtype="float32", use_partner_cross=False)),
            (EngagementModel, toy_config(dtype="float32", use_group_fusion=False)),
            (EngagementModel, toy_config(dtype="float64", use_group_fusion=False)),
            (BaselineModel, toy_config(dtype="float32")),
            (BaselineModel, toy_config(dtype="float64")),
            (EngagementModel, ModelConfig(**desk))]
    for arch, cfg in arms:
        model = arch(cfg, seed=3)
        core, length = cfg.core_len, cfg.window_len
        many = 2 * WINDOWS_PER_BATCH * core + 1        # three batches
        for frames in (1, core - 1, length - 1, length, length + 1, many):
            synth = SynthConfig(sessions=1, num_frames=frames, seed=frames,
                                feature_dims=dict(cfg.feature_dims))
            session = synth_session(synth, 0)
            segments = make_segments(frames, core, cfg.context_len)
            whole = model.predict_windows(build_window_batch(session, segments))
            expected = np.clip(reassemble(list(whole), segments, frames), 0.0, 1.0)
            assert np.array_equal(predict_session(model, session), expected), \
                (arch.arch, cfg.dtype, cfg.cross_layers, cfg.use_group_fusion,
                 cfg.use_partner_cross, frames)


def test_predict_session_cuts_rows_only_in_the_last_layers(monkeypatch):
    """On the session path only the last layer of each stack read row by row
    (the partner fusion under one cross layer, the target fusion without a
    partner cross, the baseline's fusion) and the last cross layer query the
    core rows; every other attention queries the whole window, and keys
    always span it."""
    calls = []
    attention = T.attention

    def recording(q, k, v, heads, weights=False):
        calls.append((q.shape[1], k.shape[1]))
        return attention(q, k, v, heads, weights)

    monkeypatch.setattr(T, "attention", recording)
    depth = 2
    cfg = toy_config(encoder_depth=depth)
    L, C = cfg.window_len, cfg.core_len

    def fusion(last, grouped=True):     # query rows of one role's fusion, in call order
        stack = [L] * (depth - 1) + [last]
        if not grouped:
            return stack * 5
        return [L] * depth * 5 + stack * 2

    arms = [("full", EngagementModel, {},
             fusion(L) + fusion(C) + [C, C]),
            ("cross_layers=2", EngagementModel, dict(cross_layers=2),
             fusion(L) + fusion(L) + [L, C, L, C]),
            ("no group fusion", EngagementModel, dict(use_group_fusion=False),
             fusion(L, grouped=False) + fusion(C, grouped=False) + [C, C]),
            ("no partner cross", EngagementModel, dict(use_partner_cross=False),
             fusion(C)),
            ("baseline", BaselineModel, {},
             [L] * depth * 5 + [L] * (depth - 1) + [C])]
    forwards = 2
    frames = (forwards - 1) * WINDOWS_PER_BATCH * C + 1
    for name, arch, overrides, rows in arms:
        cfg = toy_config(encoder_depth=depth, **overrides)
        session = synth_session(SynthConfig(sessions=1, num_frames=frames, seed=5,
                                            feature_dims=dict(cfg.feature_dims)), 0)
        calls.clear()
        predict_session(arch(cfg, seed=3), session)
        assert [q for q, _ in calls] == rows * forwards, name
        assert {k for _, k in calls} == {L}, name


def test_report_mean_is_arithmetic_average_and_serializes(tmp_path):
    report = EvalReport(sessions=[{"session_id": "a", "ccc": 0.25, "mse": 0.1, "frames": 10},
                                  {"session_id": "b", "ccc": 0.75, "mse": 0.2, "frames": 20}])
    assert report.mean_ccc == pytest.approx(0.5)
    report.write_json(tmp_path / "report.json")
    report.write_csv(tmp_path / "report.csv")
    import json
    loaded = json.loads((tmp_path / "report.json").read_text())
    assert loaded["mean_ccc"] == pytest.approx(0.5)
    assert loaded["sessions"][0]["session_id"] == "a"
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "session_id,ccc"
    assert lines[1].startswith("a,0.25")
