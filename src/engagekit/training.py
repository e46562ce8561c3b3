"""Adam, EMA shadow weights, and the seeded train/validate loop.

One training step: draw a shuffled batch of windows across all sessions,
forward with dropout, loss on core frames only, backward, Adam update, EMA
update. Validation runs on the EMA weights with clamped predictions and CCC.
Everything is driven by explicit generators seeded from the config, so a
fixed seed reproduces history and checkpoints bit for bit in single-threaded
mode.
"""

from __future__ import annotations

import csv
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .metrics import mse, ccc_loss, check_session, evaluate_sessions, EvalReport
from .model import save_checkpoint
from .segmentation import make_segments, build_mixed_batch


class DivergenceError(ArithmeticError):
    """Training produced a non-finite loss or gradient."""


@dataclass
class TrainConfig:
    """Optimization settings. The defaults are the published setup: Adam
    5e-5, batch 128, 50 epochs, MSE, EMA decay 0.999."""

    lr: float = 5e-5
    batch_size: int = 128
    epochs: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    ema_decay: float = 0.999
    seed: int = 0
    loss: str = "mse"                    # "mse" | "ccc"
    grad_clip: float = 0.0               # 0 disables
    weight_decay: float = 0.0            # 0 disables
    lr_schedule: str = "none"            # "none" | "cosine" (per-epoch decay)
    eval_interval: int = 1               # epochs between validation passes

    def __post_init__(self):
        if not 0.0 < self.lr < math.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"beta1 and beta2 must be in [0, 1), got {self.beta1} "
                             f"and {self.beta2}")
        if not 0.0 < self.eps < math.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not 0.0 <= self.ema_decay < 1.0:
            raise ValueError("ema_decay must be in [0, 1)")
        if self.loss not in ("mse", "ccc"):
            raise ValueError(f"loss must be 'mse' or 'ccc', got {self.loss!r}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("batch_size and epochs must be >= 1")
        if not 0.0 <= self.grad_clip < math.inf:
            raise ValueError(f"grad_clip must be finite and >= 0, got {self.grad_clip}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.eval_interval < 1:
            raise ValueError("eval_interval must be >= 1")
        if self.lr_schedule not in ("none", "cosine"):
            raise ValueError(f"lr_schedule must be 'none' or 'cosine', "
                             f"got {self.lr_schedule!r}")


class Adam:
    """Standard Adam with bias correction over a named parameter list.

    The moments and the parameters are updated in place, in the order of the
    textbook formula, so the results are those of the formula bit for bit and
    no state array is reallocated."""

    def __init__(self, named_params, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8, weight_decay: float = 0.0):
        self.params = list(named_params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for _, p in self.params]
        self.v = [np.zeros_like(p.data) for _, p in self.params]

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        for i, (name, p) in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            if not np.all(np.isfinite(g)):
                raise DivergenceError(f"non-finite gradient in parameter '{name}'")
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m, v = self.m[i], self.v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            step = m / bc1                      # lr * m_hat / (sqrt(v_hat) + eps)
            step *= self.lr
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p.data -= step


class EmaState:
    """Exponentially smoothed shadow copy of the parameters."""

    def __init__(self, named_params, decay: float):
        self.params = list(named_params)
        self.decay = decay
        self.shadow = {name: p.data.copy() for name, p in self.params}

    def update(self) -> None:
        d = self.decay
        for name, p in self.params:
            shadow = self.shadow[name]
            shadow *= d
            shadow += (1.0 - d) * p.data

    def swap(self) -> None:
        """Exchange live parameters with the shadow; call twice to restore."""
        for name, p in self.params:
            self.shadow[name], p.data = p.data, self.shadow[name]

    @contextmanager
    def swapped(self):
        """The shadow weights are live inside the block, restored on exit."""
        self.swap()
        try:
            yield self
        finally:
            self.swap()


def evaluate_with_ema(model, ema: EmaState, sessions) -> EvalReport:
    """Evaluate using the smoothed weights; live parameters are untouched."""
    with ema.swapped():
        return evaluate_sessions(model, sessions)


def clip_gradients(named_params, max_norm: float) -> float:
    total = 0.0
    grads = [(p, p.grad) for _, p in named_params if p.grad is not None]
    for _, g in grads:
        total += float(np.sum(g * g))
    norm = float(np.sqrt(total))
    if max_norm > 0 and norm > max_norm:
        factor = max_norm / norm
        for p, g in grads:
            p.grad = g * factor
    return norm


@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_ccc: float = float("-inf")
    best_path: str | None = None
    last_path: str | None = None

    def write_history_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["epoch", "train_loss", "val_ccc"])
            for row in self.history:
                writer.writerow([row["epoch"], repr(row["train_loss"]), repr(row["val_ccc"])])


def _batch_loss(model, batch, loss_kind: str, rng):
    pred = model.forward(batch.target, batch.partner, train=True, rng=rng)
    pred = T.reshape(pred, pred.shape[:-1])
    mask = batch.mask.astype(pred.data.dtype)
    if loss_kind == "mse":
        return mse(pred, batch.labels, mask)
    return ccc_loss(pred, batch.labels, mask)


def train(model, train_sessions, val_sessions, cfg: TrainConfig,
          out_dir=None, quiet: bool = False) -> TrainResult:
    """Train a model; returns history plus best/last checkpoint paths.

    Checkpoints store the EMA weights, i.e. exactly what validation scored.
    Before the first step, raises ValueError if there is no training session,
    or naming a training or validation session that has no target labels or
    that ``check_session`` refuses (validation sessions as scored). Raises
    DivergenceError with the epoch/batch position if the loss or any
    gradient goes non-finite, or the loss is 0/0 (a degenerate CCC batch),
    but DataFormatError naming the stream and frame if a non-finite loss
    comes from a non-finite training stream value.
    """
    if not train_sessions:
        raise ValueError("no training sessions")
    for sessions, scored in ((train_sessions, False), (val_sessions or (), True)):
        for session in sessions:
            if session.roles["target"].labels is None:
                raise ValueError(f"session '{session.session_id}' has no target labels")
            check_session(model, session, scored)
    out_dir = Path(out_dir) if out_dir is not None else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)

    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    pairs = [(si, seg) for si, session in enumerate(train_sessions)
             for seg in make_segments(session.num_frames, model.core_len, model.context_len)]

    params = model.named_parameters()
    optimizer = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
    ema = EmaState(params, cfg.ema_decay)
    result = TrainResult()

    def checkpoint(path, label):
        with ema.swapped():
            save_checkpoint(path, model, extra={"checkpoint": label})
        return str(path)

    for epoch in range(cfg.epochs):
        t0 = time.time()
        if cfg.lr_schedule == "cosine":
            optimizer.lr = float(cfg.lr * 0.5 * (1.0 + np.cos(np.pi * epoch / cfg.epochs)))
        order = shuffle_rng.permutation(len(pairs))
        losses = []
        for bi, lo in enumerate(range(0, len(order), cfg.batch_size)):
            chosen = [pairs[j] for j in order[lo:lo + cfg.batch_size]]
            batch = build_mixed_batch((train_sessions[si], seg) for si, seg in chosen)
            model.zero_grad()
            try:
                loss = _batch_loss(model, batch, cfg.loss, dropout_rng)
            except T.NonFiniteError as exc:
                raise DivergenceError(f"{exc} at epoch {epoch}, batch {bi}") from exc
            if not np.isfinite(loss.data):
                for session in train_sessions:  # a damaged stream is a data error
                    session.check_finite()
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {bi}")
            T.backward(loss)
            if cfg.grad_clip:
                clip_gradients(params, cfg.grad_clip)
            optimizer.step()
            ema.update()
            losses.append(float(loss.data))
        train_loss = float(np.mean(losses)) if losses else float("nan")

        val_ccc = float("nan")
        due = (epoch + 1) % cfg.eval_interval == 0 or epoch == cfg.epochs - 1
        if val_sessions and due:
            val_report = evaluate_with_ema(model, ema, val_sessions)
            val_ccc = val_report.mean_ccc
        result.history.append({"epoch": epoch, "train_loss": train_loss, "val_ccc": val_ccc})
        if not quiet:
            print(f"epoch {epoch}: train_loss {train_loss:.6f} val_ccc {val_ccc:.4f} "
                  f"({time.time() - t0:.1f}s)")
        if val_sessions and val_ccc > result.best_val_ccc:
            result.best_val_ccc = val_ccc
            result.best_epoch = epoch
            if out_dir is not None:
                result.best_path = checkpoint(out_dir / "best.ckpt", f"best@epoch{epoch}")

    if out_dir is not None:
        result.last_path = checkpoint(out_dir / "last.ckpt", "last")
        if result.best_path is None:
            result.best_path = result.last_path
        result.write_history_csv(out_dir / "history.csv")
    return result
