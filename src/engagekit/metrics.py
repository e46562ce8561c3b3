"""Losses and the concordance correlation coefficient (CCC).

CCC follows Lin's definition with population (1/n) moments:

    ccc(x, y) = 2 cov(x, y) / (var(x) + var(y) + (mean(x) - mean(y))^2)

The same moments are used in the differentiable CCC loss so metric and loss
agree. Every predictor, a model or the label-echo oracle, scores a session
through one loop (``predict_session``, which states the predictor
protocol): it cuts the session into windows, predicts their cores in
batches, stitches the cores, clamps and scores the full timeline.
"""

from __future__ import annotations

import csv
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .model import PARTNER_REQUIRED, _check_bundle
from .tensor import Tensor


def _masked_pair(pred: Tensor, label, mask):
    label = T.constant(np.asarray(label, dtype=pred.dtype))
    if label.shape != pred.shape:
        raise T.ShapeError(f"pred shape {pred.shape} != label shape {label.shape}")
    if mask is None:
        m = np.ones(pred.shape, dtype=pred.data.dtype)
    else:
        m = np.asarray(mask, dtype=pred.data.dtype)
        if m.shape != pred.shape:
            raise T.ShapeError(f"mask shape {m.shape} != pred shape {pred.shape}")
    count = float(m.sum())
    return label, T.constant(m), count


def mse(pred: Tensor, label, mask=None) -> Tensor:
    """Mean squared error over the masked frames; differentiable in `pred`."""
    label, m, count = _masked_pair(pred, label, mask)
    if count < 1:
        raise ValueError("mse: mask selects no frames")
    diff = T.sub(pred, label)
    return T.scale(T.tensor_sum(T.mul(T.mul(diff, diff), m)), 1.0 / count)


def ccc(x, y) -> float:
    """Concordance correlation coefficient of two series, in [-1, 1].

    Degenerate case (both series constant with equal means) is defined as 0
    and flagged with a warning.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError(f"ccc: need two equal-length 1-d series, got {x.shape} and {y.shape}")
    if x.size < 2:
        raise ValueError(f"ccc: need length >= 2, got {x.size}")
    # An exactly-constant series has zero variance and zero covariance by
    # definition; computing them numerically would leave rounding dust.
    const_x = bool(np.all(x == x[0]))
    const_y = bool(np.all(y == y[0]))
    mx = float(x[0]) if const_x else x.mean()
    my = float(y[0]) if const_y else y.mean()
    vx = 0.0 if const_x else np.mean((x - mx) ** 2)
    vy = 0.0 if const_y else np.mean((y - my) ** 2)
    cov = 0.0 if (const_x or const_y) else np.mean((x - mx) * (y - my))
    denom = vx + vy + (mx - my) ** 2
    if denom == 0.0:
        warnings.warn("ccc: both series constant with equal means; returning 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return float(2.0 * cov / denom)


def ccc_loss(pred: Tensor, label, mask=None) -> Tensor:
    """1 - CCC over the masked frames, differentiable in `pred`.

    All masked frames of the batch are pooled into one pair of series. Fewer
    than 2 masked frames raise ``ValueError``; a degenerate batch, where both
    series are constant with equal means and CCC is 0/0, raises
    ``NonFiniteError``.
    """
    label, m, count = _masked_pair(pred, label, mask)
    if count < 2:
        raise ValueError(f"ccc_loss: need >= 2 masked frames, got {int(count)}")
    inv = 1.0 / count
    xm = T.mul(pred, m)
    mean_x = T.scale(T.tensor_sum(xm), inv)
    mean_y = T.scale(T.tensor_sum(T.mul(label, m)), inv)
    # Center, re-mask so padded positions contribute nothing to the moments.
    cx = T.mul(T.sub(pred, mean_x), m)
    cy = T.mul(T.sub(label, mean_y), m)
    var_x = T.scale(T.tensor_sum(T.mul(cx, cx)), inv)
    var_y = T.scale(T.tensor_sum(T.mul(cy, cy)), inv)
    cov = T.scale(T.tensor_sum(T.mul(cx, cy)), inv)
    gap = T.sub(mean_x, mean_y)
    denom = T.add(T.add(var_x, var_y), T.mul(gap, gap))
    if float(denom.data) == 0.0:
        # 0/0: a numerical failure of the batch, not malformed input.
        raise T.NonFiniteError("ccc_loss: degenerate batch (both series constant, "
                               "equal means)")
    one = T.constant(np.ones((), dtype=pred.dtype))
    return T.sub(one, T.scale(T.div(cov, denom), 2.0))


@dataclass
class EvalReport:
    """One ``{session_id, ccc, mse, frames}`` row per scored session, in
    scoring order, and the ids of the skipped label-less sessions."""

    sessions: list[dict] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def mean_ccc(self) -> float:
        return float(np.mean([r["ccc"] for r in self.sessions])) if self.sessions else float("nan")

    def to_dict(self) -> dict:
        return {"sessions": self.sessions, "mean_ccc": self.mean_ccc, "skipped": self.skipped}

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.to_dict(), f, indent=2, sort_keys=True)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["session_id", "ccc"])
            for row in self.sessions:
                writer.writerow([row["session_id"], repr(row["ccc"])])


class LabelEchoPredictor:
    """Oracle predictor whose windows are the target's label cores and whose
    ``forward`` returns them; it runs the session path's batching and
    stitching end to end (perfect plumbing gives CCC = 1). It reads no stream."""

    roles = ()

    def __init__(self, core_len: int = 32, context_len: int = 32):
        self.core_len = core_len
        self.context_len = context_len

    def project_session(self, session):
        n = -(-session.num_frames // self.core_len)
        cores = np.take(session.roles["target"].labels, np.arange(n * self.core_len),
                        mode="clip").reshape(n, self.core_len, 1)
        return lambda lo, hi: (T.constant(cores[lo:hi]), None)

    def forward(self, target, partner=None, train=False):
        return target


# Windows per forward. A window's output does not depend on the other
# windows of its batch, so this changes no prediction; small batches keep
# the forward's temporaries small.
WINDOWS_PER_BATCH = 16


def check_session(model, session, scored: bool = False) -> None:
    """Raise ValueError naming the session if it has no frames, fewer than
    the 2 that CCC needs when it is ``scored``, lacks a role the model reads,
    or has a stream in one whose dim is not the model config's."""
    name, n = f"session '{session.session_id}'", session.num_frames
    if n < 1:
        raise ValueError(f"{name}: num_frames must be >= 1, got {n}")
    if scored and n < 2:
        raise ValueError(f"{name}: CCC needs num_frames >= 2, got {n}")
    for role in model.roles:
        if role not in session.roles:
            raise ValueError(f"{name}: {PARTNER_REQUIRED}")
        _check_bundle(session.roles[role].streams, model.cfg, f"{name}: {role}")


def predict_session(model, session) -> np.ndarray:
    """Score a session's T frames: cut it into n = ceil(T / core) windows,
    run the model over batches of WINDOWS_PER_BATCH windows, stitch the
    window cores back together, clamp to the label range.

    A predictor has ``core_len``, ``roles`` (the session roles whose streams
    it reads, with their dims in ``cfg``), ``project_session(session)``,
    which returns a ``windows(lo, hi)`` cutter of windows lo..hi-1 as
    (target, partner) inputs, and ``forward(target, partner, train=False)``,
    which returns their ``[hi - lo, core, 1]`` core predictions. Both run under
    ``no_grad``. The session needs no labels. Raises ValueError naming the
    session (``check_session``, run first). If a batch's output is not
    finite, raises DataFormatError naming the first non-finite stream value,
    or else NonFiniteError naming the session (damaged weights, say)."""
    check_session(model, session)
    num_windows = -(-session.num_frames // model.core_len)
    cores: list[np.ndarray] = []
    with T.no_grad():
        windows = model.project_session(session)
        for lo in range(0, num_windows, WINDOWS_PER_BATCH):
            hi = min(lo + WINDOWS_PER_BATCH, num_windows)
            out = model.forward(*windows(lo, hi), train=False).data[..., 0]
            if not np.all(np.isfinite(out)):
                session.check_finite()      # a damaged stream is a data error
                raise T.NonFiniteError(f"session '{session.session_id}': non-finite "
                                       f"predictions in windows {lo}..{hi - 1}")
            cores.append(out)
    # The cores tile [0, n * core); the last one runs past T by the padding.
    series = np.concatenate(cores, axis=None, dtype=np.float64)[:session.num_frames]
    return np.clip(series, 0.0, 1.0)


def evaluate_sessions(model, sessions) -> EvalReport:
    """Score a model per session (CCC and MSE against the target labels) and
    average across sessions. A session without target labels is not scored:
    its id goes to ``report.skipped``. Raises ValueError naming a scored
    session that ``check_session`` refuses."""
    report = EvalReport()
    for session in sessions:
        if session.roles["target"].labels is None:
            report.skipped.append(session.session_id)
            continue
        check_session(model, session, scored=True)
        series = predict_session(model, session)
        labels = session.roles["target"].labels
        report.sessions.append({"session_id": session.session_id, "ccc": ccc(series, labels),
                                "mse": float(np.mean((series - labels) ** 2)),
                                "frames": session.num_frames})
    return report
