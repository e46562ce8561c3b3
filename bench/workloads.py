"""The three benchmark workloads and the traced replicas they compare against.

Each workload is a closed loop with one client: the next operation starts
when the previous one has returned. A workload object does a complete
set-up (`setup`, repeated to measure `setup_s`) and a measurement
(`measure`), then applies the correctness gate (`check`). Untraced, the
measurement calls engagekit's public functions exactly as a user would;
traced, it calls the same functions one layer at a time inside spans.

Only the generated inputs depend on the benchmark seed. Model seeds,
training seeds and dropout generators are constants, so two seeds run the
same program on different data.
"""

from __future__ import annotations

import hashlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from engagekit import data as D
from engagekit import model as M
from engagekit import segmentation as S
from engagekit import tensor as T
from engagekit.cli import resolve_configs
from engagekit.metrics import LabelEchoPredictor, ccc, mse, predict_session
from engagekit.training import (Adam, DivergenceError, EmaState, TrainResult,
                                evaluate_with_ema, train)
from tracer import Tracer

UNTRACED = Tracer(False)

# An operation that raises one of these is counted as failed; the run goes on.
OP_FAILURES = (DivergenceError, T.NonFiniteError, D.DataFormatError)

LAYERS = ("tensor", "model", "segmentation", "metrics", "training", "data")
SCOPES = ("stream_encoders", "group_fusion", "partner_cross", "head")

# Metrics every run reports, whatever the workload; BENCHMARK.json lists the
# same names. Their meaning per workload is in README.md.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "eval_ms_per_window": "ms",
}

PER_LAYER = {
    "tensor.backward_ms": "ms",
    "tensor.tape_nodes_per_step": "count",
    **{f"model.{s}.fwd_ms": "ms" for s in SCOPES},
    **{f"model.{s}.tape_nodes": "count" for s in SCOPES},
    "model.predict_windows_ms": "ms",
    "model.save_checkpoint_ms": "ms",
    "model.load_checkpoint_ms": "ms",
    "model.fwd_bwd_gflop_per_window": "GFLOP",
    "model.achieved_gflop_per_s": "GFLOP/s",
    "training.adam_step_ms": "ms",
    "training.ema_update_ms": "ms",
    "training.evaluate_with_ema_ms": "ms",
    "segmentation.build_mixed_batch_ms": "ms",
    "segmentation.build_window_batch_ms": "ms",
    "segmentation.reassemble_ms": "ms",
    "segmentation.useful_frame_ratio": "ratio",
    "metrics.loss_ms": "ms",
    "metrics.ccc_ms": "ms",
    "metrics.predict_session_ms": "ms",
    "data.load_session_ms": "ms",
    "data.bytes_read": "bytes",
    "data.synth_session_ms": "ms",
    "data.save_session_ms": "ms",
    **{f"layer.{name}.self_ms": "ms" for name in LAYERS},
    "trace.glue_ms": "ms",
    "trace.op_ms": "ms",
    "trace.attributed_share": "ratio",
    "tracing_overhead_ms": "ms",
    "tracing_overhead_share": "ratio",
}


@dataclass(frozen=True)
class Sizes:
    """Input and model sizes. `FULL` is the benchmark; `TINY` only proves
    that every metric is emitted."""

    setup_repeats: int = 3
    desk_train_sessions: int = 4
    desk_frames: int = 512              # 16 windows of 32 core frames each
    desk_epochs: int = 3
    infer_sessions: int = 12
    infer_frames: tuple = (40, 2600)    # log-uniform, stratified per session
    ckpt_frames: int = 256
    paper_batch: int = 1
    paper_frames: int = 261             # 9 windows, the last one a partial core
    paper_overrides: dict = field(default_factory=lambda: {"dtype": "float32"})


FULL = Sizes()
TINY = Sizes(setup_repeats=1, desk_train_sessions=2, desk_frames=288, desk_epochs=1,
             infer_sessions=3, infer_frames=(40, 150), ckpt_frames=64, paper_frames=70,
             paper_overrides={"dtype": "float32", "model_dim": 16, "heads": 4})


# ------------------------------------------------------------------ helpers

class Outcome:
    """What one run attempted, what failed, and what the gate found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problems.append(message)

    def attempt(self, fn, *args):
        """Run one operation; a known failure is counted and yields None."""
        self.attempted += 1
        try:
            return fn(*args)
        except OP_FAILURES as exc:
            self.failed += 1
            self.failures.append(f"{type(exc).__name__}: {exc}")
            return None


class ForwardClock:
    """Timestamps every call of one model's public `forward`, and nothing
    else, so an untraced run can still tell train steps from evaluation."""

    def __init__(self, model):
        self.calls: list[tuple[float, float, bool, int]] = []
        inner = model.forward

        def forward(target, partner=None, train=False, rng=None):
            t0 = time.perf_counter()
            y = inner(target, partner, train=train, rng=rng)
            self.calls.append((t0, time.perf_counter(), train, y.shape[0]))
            return y

        model.forward = forward

    def step_seconds(self) -> list[float]:
        """Start-to-start intervals of consecutive training forwards with no
        evaluation in between: one full optimizer step each."""
        out = []
        for (t0, _, tr0, _), (t1, _, tr1, _) in zip(self.calls, self.calls[1:]):
            if tr0 and tr1:
                out.append(t1 - t0)
        return out

    def eval_totals(self) -> tuple[float, int]:
        """Seconds spent in evaluation forwards, and the windows they scored."""
        evals = [(t1 - t0, n) for t0, t1, tr, n in self.calls if not tr]
        return sum(s for s, _ in evals), sum(n for _, n in evals)


def fingerprint(sessions, *configs) -> str:
    h = hashlib.blake2b(digest_size=16)
    for cfg in configs:
        h.update(repr(cfg).encode())
    for s in sessions:
        h.update(f"{s.session_id}:{s.num_frames}".encode())
        for role in sorted(s.roles):
            rd = s.roles[role]
            for name in sorted(rd.streams):
                h.update(np.ascontiguousarray(rd.streams[name]).tobytes())
            if rd.labels is not None:
                h.update(np.ascontiguousarray(rd.labels).tobytes())
    return h.hexdigest()


def load_session(tracer, path: Path):
    nbytes = sum(p.stat().st_size for p in path.rglob("*") if p.is_file()) if tracer.enabled else 0
    with tracer.span("data.load_session") as sp:
        record = D.load_session(path)
        sp.count("bytes", nbytes)
    return record


def synth_and_save(tracer, cfg: D.SynthConfig, index: int, path: Path | None):
    with tracer.span("data.synth_session"):
        record = D.synth_session(cfg, index)
    if path is not None:
        with tracer.span("data.save_session"):
            D.save_session(path, record)
    return record


def matmul_flops_per_window(cfg: M.ModelConfig) -> tuple[float, float]:
    """Analytic matmul FLOPs of one window: (forward, forward + backward).

    Backward forms both operand gradients of every matmul except the input
    projections, whose inputs are constants."""
    L, d, m = cfg.window_len, cfg.model_dim, cfg.ffn_mult

    def encoder(dim):   # q, k, v, o projections; scores and context; FFN
        return 8 * L * dim * dim + 4 * L * L * dim + 4 * m * L * dim * dim

    proj = sum(2 * L * f * d for f in cfg.feature_dims.values())
    body = 5 * encoder(d)
    if cfg.use_group_fusion:
        body += encoder(2 * d) + encoder(3 * d)
    body *= cfg.encoder_depth
    roles = 2 if cfg.use_partner_cross else 1
    cross = cfg.cross_layers * (encoder(2 * d) + encoder(3 * d)) if cfg.use_partner_cross else 0
    hidden = cfg.head_hidden_dim
    head = 2 * L * cfg.head_in_dim * hidden + 2 * L * hidden
    fwd = roles * (proj + body) + cross + head
    return float(fwd), float(3 * fwd - roles * proj)


def percentile_ms(seconds, q) -> float:
    return float(np.percentile(np.asarray(seconds) * 1e3, q))


def fresh_dir(path: Path) -> Path:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


# ------------------------------------------------- traced replicas of the API

def decomposed_forward(model, target, partner, train, rng, tracer):
    """`EngagementModel.forward` one module scope at a time, in the same
    order (and so with the same dropout draws); must match it bitwise."""
    cfg = model.cfg

    def fuse(fusion, bundle):
        with tracer.span("model.stream_encoders"):
            enc = fusion.streams(M.as_bundle(bundle, cfg.np_dtype), train, rng)
        with tracer.span("model.group_fusion"):
            audio = T.concat([enc[s] for s in M.AUDIO_STREAMS], axis=-1)
            video = T.concat([enc[s] for s in M.VIDEO_STREAMS], axis=-1)
            for layer in fusion.audio_layers:
                audio = layer(audio, train, rng)
            for layer in fusion.video_layers:
                video = layer(video, train, rng)
        return audio, video

    audio, video = fuse(model.target_fusion, target)
    if cfg.use_partner_cross:
        p_audio, p_video = fuse(model.partner_fusion, partner)
        with tracer.span("model.partner_cross"):
            for layer in model.audio_cross:
                audio = layer(audio, p_audio, train, rng)
            for layer in model.video_cross:
                video = layer(video, p_video, train, rng)
    with tracer.span("model.head"):
        y = model.head(T.concat([audio, video], axis=-1), train, rng)
        if not train:
            y = T.constant(np.clip(y.data, 0.0, 1.0))
    return y


def traced_predict_session(model, session, tracer, batch_size: int = 64) -> np.ndarray:
    """`metrics.predict_session` with a span around each layer call."""
    with tracer.span("metrics.predict_session"):
        with tracer.span("segmentation.make_segments"):
            segments = S.make_segments(session.num_frames, model.core_len, model.context_len)
        preds = []
        for lo in range(0, len(segments), batch_size):
            with tracer.span("segmentation.build_window_batch") as sp:
                batch = S.build_window_batch(session, segments[lo:lo + batch_size])
                sp.count("core_frames", int(batch.mask.sum()))
                sp.count("frames", batch.mask.size)
            with tracer.span("model.predict_windows"):
                with T.no_grad():
                    y = decomposed_forward(model, batch.target, batch.partner, False, None, tracer)
                out = y.data[..., 0]
            preds.extend(out[i] for i in range(out.shape[0]))
        with tracer.span("segmentation.reassemble"):
            series = S.reassemble(preds, segments, session.num_frames)
        return np.clip(series, 0.0, 1.0)


def mse_loss(pred, batch, tracer):
    """The training loss of `training.train` for the MSE preset."""
    with tracer.span("metrics.loss"):
        pred = T.reshape(pred, pred.shape[:-1])
        return mse(pred, batch.labels, batch.mask.astype(pred.data.dtype))


def traced_train(model, train_sessions, val_sessions, cfg, out_dir: Path, tracer) -> TrainResult:
    """`training.train` for the MSE loss with no schedule, clipping or decay
    (the desk preset), one span per layer call. Its per-epoch history must
    equal `train`'s bitwise; `check` holds it to that."""
    if cfg.loss != "mse" or cfg.lr_schedule != "none" or cfg.grad_clip or cfg.weight_decay:
        raise ValueError("traced_train replicates the desk preset's training loop only")
    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng, dropout_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    pairs = [(si, seg) for si, session in enumerate(train_sessions)
             for seg in S.make_segments(session.num_frames, model.core_len, model.context_len)]
    params = model.named_parameters()
    optimizer = Adam(params, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps, cfg.weight_decay)
    ema = EmaState(params, cfg.ema_decay)
    result = TrainResult()

    def checkpoint(path, label):
        with tracer.span("model.save_checkpoint"):
            with ema.swapped():
                M.save_checkpoint(path, model, extra={"checkpoint": label})
        return str(path)

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(pairs))
        losses = []
        for bi, lo in enumerate(range(0, len(order), cfg.batch_size)):
            chosen = [pairs[j] for j in order[lo:lo + cfg.batch_size]]
            with tracer.span("segmentation.build_mixed_batch") as sp:
                batch = S.build_mixed_batch((train_sessions[si], seg) for si, seg in chosen)
                sp.count("core_frames", int(batch.mask.sum()))
                sp.count("frames", batch.mask.size)
            with tracer.span("model.zero_grad"):
                model.zero_grad()
            pred = decomposed_forward(model, batch.target, batch.partner, True,
                                      dropout_rng, tracer)
            loss = mse_loss(pred, batch, tracer)
            if not np.isfinite(loss.data):
                raise DivergenceError(f"non-finite loss at epoch {epoch}, batch {bi}")
            with tracer.span("tensor.backward"):
                T.backward(loss)
            with tracer.span("training.adam_step"):
                optimizer.step()
            with tracer.span("training.ema_update"):
                ema.update()
            losses.append(float(loss.data))
        epoch_loss = float(np.mean(losses)) if losses else float("nan")
        val_ccc = float("nan")
        if val_sessions:
            with tracer.span("training.evaluate_with_ema"):
                val_ccc = evaluate_with_ema(model, ema, val_sessions).mean_ccc
        result.history.append({"epoch": epoch, "train_loss": epoch_loss, "val_ccc": val_ccc})
        if val_sessions and val_ccc > result.best_val_ccc:
            result.best_val_ccc = val_ccc
            result.best_epoch = epoch
            result.best_path = checkpoint(out_dir / "best.ckpt", f"best@epoch{epoch}")
    result.last_path = checkpoint(out_dir / "last.ckpt", "last")
    if result.best_path is None:
        result.best_path = result.last_path
    with tracer.span("training.write_history"):
        result.write_history_csv(out_dir / "history.csv")
    return result


def check_decomposed(outcome: Outcome, model, batch, tracer) -> None:
    """The decomposed forward must reproduce `model.forward` bit for bit, in
    eval mode and in train mode with equal dropout generators."""
    with T.no_grad():
        want = model.forward(batch.target, batch.partner, train=False).data
        got = decomposed_forward(model, batch.target, batch.partner, False, None, tracer).data
    outcome.check(np.array_equal(want, got), "decomposed eval forward differs from model.forward")
    want = model.forward(batch.target, batch.partner, train=True,
                         rng=np.random.default_rng(7)).data
    T.reset_tape()
    got = decomposed_forward(model, batch.target, batch.partner, True,
                             np.random.default_rng(7), tracer).data
    T.reset_tape()
    outcome.check(np.array_equal(want, got), "decomposed train forward differs from model.forward")


def layer_metrics(summary: dict, cfg: M.ModelConfig, untraced_op_s: float,
                  traced_op_s: float) -> dict:
    """Per-layer metrics from a tracer summary; a layer call that the
    workload never makes reads 0. Span times are means per call."""
    spans = summary["spans"]

    def per_call_ms(name):
        row = spans.get(name)
        return row["total_s"] / row["calls"] * 1e3 if row else 0.0

    def per_call(name, key):
        row = spans.get(name)
        return row[key] / row["calls"] if row else 0.0

    def counted(key):
        return sum(row["counts"].get(key, 0.0) for row in spans.values())

    out = {
        "tensor.backward_ms": per_call_ms("tensor.backward"),
        "tensor.tape_nodes_per_step": per_call("tensor.backward", "tape_at_start"),
        "model.predict_windows_ms": per_call_ms("model.predict_windows"),
        "model.save_checkpoint_ms": per_call_ms("model.save_checkpoint"),
        "model.load_checkpoint_ms": per_call_ms("model.load_checkpoint"),
        "training.adam_step_ms": per_call_ms("training.adam_step"),
        "training.ema_update_ms": per_call_ms("training.ema_update"),
        "training.evaluate_with_ema_ms": per_call_ms("training.evaluate_with_ema"),
        "segmentation.build_mixed_batch_ms": per_call_ms("segmentation.build_mixed_batch"),
        "segmentation.build_window_batch_ms": per_call_ms("segmentation.build_window_batch"),
        "segmentation.reassemble_ms": per_call_ms("segmentation.reassemble"),
        "segmentation.useful_frame_ratio": (counted("core_frames") / counted("frames")
                                            if counted("frames") else 0.0),
        "metrics.loss_ms": per_call_ms("metrics.loss"),
        "metrics.ccc_ms": per_call_ms("metrics.ccc"),
        "metrics.predict_session_ms": per_call_ms("metrics.predict_session"),
        "data.load_session_ms": per_call_ms("data.load_session"),
        "data.bytes_read": (counted("bytes") / spans["data.load_session"]["calls"]
                            if "data.load_session" in spans else 0.0),
        "data.synth_session_ms": per_call_ms("data.synth_session"),
        "data.save_session_ms": per_call_ms("data.save_session"),
    }
    # Scopes run once per role; report them per forward pass (one head each).
    forwards = spans["model.head"]["calls"] if "model.head" in spans else 0
    for scope in SCOPES:
        row = spans.get(f"model.{scope}")
        out[f"model.{scope}.fwd_ms"] = row["total_s"] / forwards * 1e3 if row else 0.0
        out[f"model.{scope}.tape_nodes"] = row["tape_grown"] / forwards if row else 0.0
    ops = max(summary["ops"], 1)
    for name in LAYERS:
        out[f"layer.{name}.self_ms"] = summary["layer_self_s"].get(name, 0.0) / ops * 1e3
    glue = summary["layer_self_s"].get("workload", 0.0)
    out["trace.glue_ms"] = glue / ops * 1e3
    out["trace.op_ms"] = summary["root_s"] / ops * 1e3
    out["trace.attributed_share"] = 1.0 - glue / summary["root_s"] if summary["root_s"] else 0.0
    out["tracing_overhead_ms"] = (traced_op_s - untraced_op_s) * 1e3
    out["tracing_overhead_share"] = (traced_op_s - untraced_op_s) / untraced_op_s

    # Matmul FLOPs of the decomposed forwards (and the backwards, if the
    # workload trains) per second spent in them. Windows are counted where
    # the batches are built; eval-only predict_windows spans of a training
    # workload are not decomposed and stay out of both sides.
    fwd, fwd_bwd = matmul_flops_per_window(cfg)
    windows = counted("frames") / cfg.window_len
    seconds = sum(spans[f"model.{s}"]["total_s"] for s in SCOPES if f"model.{s}" in spans)
    if "tensor.backward" in spans:
        seconds += spans["tensor.backward"]["total_s"]
        fwd = fwd_bwd
    out["model.fwd_bwd_gflop_per_window"] = fwd_bwd / 1e9
    out["model.achieved_gflop_per_s"] = windows * fwd / seconds / 1e9 if seconds else 0.0
    return out


# -------------------------------------------------------------- workloads

class DeskTrain:
    """`training.train` on the desk preset over a fixed synthetic corpus,
    with per-epoch EMA validation and checkpoint writes."""

    name = "desk-train"
    op = "train step"

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work
        self.model_cfg, self.train_cfg = resolve_configs("desk", None,
                                                         {"epochs": sizes.desk_epochs})
        self.calls: list[dict] = []

    def setup(self, tracer) -> None:
        z = self.sizes
        root = fresh_dir(self.work / "desk")
        cfg = D.SynthConfig(sessions=z.desk_train_sessions + 1, num_frames=z.desk_frames,
                            seed=self.seed)
        paths = [root / "data" / f"session_{i:03d}" for i in range(z.desk_train_sessions + 1)]
        for i, path in enumerate(paths):
            synth_and_save(tracer, cfg, i, path)
        sessions = [load_session(tracer, path) for path in paths]
        self.train_sessions, self.val_sessions = sessions[:-1], sessions[-1:]
        self.out = root / "run"
        self.windows = sum(len(S.make_segments(s.num_frames, self.model_cfg.core_len,
                                               self.model_cfg.context_len))
                           for s in self.train_sessions)
        model = M.EngagementModel(self.model_cfg, seed=0)
        warm_cfg = resolve_configs("desk", None, {"epochs": 1})[1]
        train(model, self.train_sessions, self.val_sessions, warm_cfg, out_dir=self.out,
              quiet=True)

    def fingerprint(self) -> str:
        return fingerprint(self.train_sessions + self.val_sessions, self.model_cfg,
                           self.train_cfg)

    def _one_call(self, outcome: Outcome, tracer) -> None:
        model = M.EngagementModel(self.model_cfg, seed=0)
        clock = None if tracer.enabled else ForwardClock(model)
        t0 = time.perf_counter()
        if tracer.enabled:
            with tracer.span("workload.train"):
                result = traced_train(model, self.train_sessions, self.val_sessions,
                                      self.train_cfg, self.out, tracer)
        else:
            result = train(model, self.train_sessions, self.val_sessions, self.train_cfg,
                           out_dir=self.out, quiet=True)
        seconds = time.perf_counter() - t0
        self.calls.append({"traced": tracer.enabled, "seconds": seconds,
                           "history": result.history, "clock": clock})

    def measure(self, seconds: float, outcome: Outcome, tracer) -> None:
        steps = self.train_cfg.epochs * -(-self.windows // self.train_cfg.batch_size)
        deadline = time.perf_counter() + seconds
        while True:
            # A train call is `steps` operations; a failure stops the call.
            before = outcome.failed
            outcome.attempt(self._one_call, outcome, tracer)
            if outcome.failed == before:
                outcome.attempted += steps - 1
            if time.perf_counter() >= deadline:
                break

    def check(self, outcome: Outcome, tracer) -> None:
        reference = self.calls[0]["history"]    # the first call is never traced
        for c in self.calls:
            for row in c["history"]:
                outcome.check(np.isfinite(row["train_loss"]) and np.isfinite(row["val_ccc"]),
                              f"non-finite history row {row}")
            outcome.check(c["history"] == reference,
                          ("traced loop" if c["traced"] else "a repeated train call")
                          + " did not reproduce train()'s per-epoch history bitwise")
        if any(c["traced"] for c in self.calls):
            model = M.EngagementModel(self.model_cfg, seed=0)
            segs = S.make_segments(self.train_sessions[0].num_frames, model.core_len,
                                   model.context_len)[:4]
            check_decomposed(outcome, model, S.build_window_batch(self.train_sessions[0], segs),
                             UNTRACED)

    def end_to_end(self) -> tuple[dict, dict]:
        plain = [c for c in self.calls if not c["traced"]]
        total = self.windows * self.train_cfg.epochs
        rates = [total / c["seconds"] for c in plain]
        steps = [s for c in plain for s in c["clock"].step_seconds()]
        eval_s = sum(c["clock"].eval_totals()[0] for c in plain)
        eval_n = sum(c["clock"].eval_totals()[1] for c in plain)
        last = plain[-1]["history"][-1]
        e2e = {
            "throughput_per_s": (float(np.median(rates)), f"median of {len(rates)} train calls"),
            "latency_ms_p50": (percentile_ms(steps, 50), f"train step, n={len(steps)}"),
            "latency_ms_p90": (percentile_ms(steps, 90), f"train step, n={len(steps)}"),
            "eval_ms_per_window": (eval_s / eval_n * 1e3, f"EMA validation, {eval_n} windows"),
        }
        named = {
            "train_windows_per_s": (e2e["throughput_per_s"][0], "1/s", e2e["throughput_per_s"][1]),
            "train_step_ms_p50": (e2e["latency_ms_p50"][0], "ms", e2e["latency_ms_p50"][1]),
            "train_step_ms_p90": (e2e["latency_ms_p90"][0], "ms", e2e["latency_ms_p90"][1]),
            "train_loss_final": (last["train_loss"], "mse", "mean loss of the last epoch"),
            "val_ccc_final": (last["val_ccc"], "ccc", "EMA val CCC after the last epoch"),
        }
        return e2e, named

    def op_seconds(self, traced: bool) -> float:
        return float(np.mean([c["seconds"] for c in self.calls if c["traced"] == traced]))


class SessionInfer:
    """Whole-session inference from disk with one loaded desk checkpoint:
    load_session -> predict_session -> ccc per held-out session."""

    name = "session-infer"
    op = "session"

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work
        self.model_cfg, self.train_cfg = resolve_configs("desk", None, {"epochs": 2})
        self.samples: list[dict] = []
        self.passes: list[dict] = []
        self.clock = None

    def lengths(self) -> list[int]:
        """Session lengths drawn from the seed: one near the middle of each
        of n equal strata of a log-uniform range, so every seed covers the
        range alike and the latency percentiles stay comparable across
        seeds. None is a multiple of the core length, and most fit one
        64-window batch."""
        lo, hi = self.sizes.infer_frames
        n = self.sizes.infer_sessions
        rng = np.random.default_rng([self.seed, 0x5E55])
        u = (np.arange(n) + 0.5 + rng.uniform(-0.1, 0.1, n)) / n
        out = [int(round(np.exp(np.log(lo) + x * (np.log(hi) - np.log(lo))))) for x in u]
        return [t + 1 if t % self.model_cfg.core_len == 0 else t for t in out]

    def setup(self, tracer) -> None:
        z = self.sizes
        root = fresh_dir(self.work / "infer")
        ckpt_data = root / "train" / "session_000"
        synth_and_save(tracer, D.SynthConfig(sessions=1, num_frames=z.ckpt_frames,
                                             seed=self.seed), 0, ckpt_data)
        self.paths = []
        for i, frames in enumerate(self.lengths(), start=1):
            path = root / "heldout" / f"session_{i:03d}"
            synth_and_save(tracer, D.SynthConfig(sessions=1, num_frames=frames,
                                                 seed=self.seed), i, path)
            self.paths.append(path)
        trained = train(M.EngagementModel(self.model_cfg, seed=0),
                        [D.load_session(ckpt_data)], [], self.train_cfg,
                        out_dir=root / "ckpt", quiet=True)
        with tracer.span("model.load_checkpoint"):
            self.model, _ = M.load_checkpoint(trained.last_path)
        for path in self.paths[:2]:
            predict_session(self.model, D.load_session(path))

    def fingerprint(self) -> str:
        return fingerprint([D.load_session(p) for p in self.paths], self.model_cfg,
                           self.lengths())

    def _one_session(self, path: Path, tracer) -> dict:
        t0 = time.perf_counter()
        if tracer.enabled:
            with tracer.span("workload.session"):
                session = load_session(tracer, path)
                series = traced_predict_session(self.model, session, tracer)
                with tracer.span("metrics.ccc"):
                    score = ccc(series, session.roles["target"].labels)
        else:
            session = D.load_session(path)
            series = predict_session(self.model, session)
            score = ccc(series, session.roles["target"].labels)
        seconds = time.perf_counter() - t0
        return {"traced": tracer.enabled, "seconds": seconds, "frames": session.num_frames,
                "series": series, "ccc": score, "path": path}

    def measure(self, seconds: float, outcome: Outcome, tracer) -> None:
        if not tracer.enabled and self.clock is None:
            self.clock = ForwardClock(self.model)
        deadline = time.perf_counter() + seconds
        while True:
            done = [outcome.attempt(self._one_session, p, tracer) for p in self.paths]
            done = [d for d in done if d is not None]
            self.samples += done
            self.passes.append({"traced": tracer.enabled,
                                "frames": sum(d["frames"] for d in done),
                                "seconds": sum(d["seconds"] for d in done)})
            if time.perf_counter() >= deadline:
                break

    def check(self, outcome: Outcome, tracer) -> None:
        first = {}
        for d in self.samples:
            s = d["series"]
            outcome.check(s.shape == (d["frames"],) and bool(np.all(np.isfinite(s)))
                          and float(s.min()) >= 0.0 and float(s.max()) <= 1.0,
                          f"{d['path'].name}: prediction not finite, in [0, 1], of length T")
            outcome.check(np.isfinite(d["ccc"]), f"{d['path'].name}: non-finite CCC")
            ref = first.setdefault(d["path"], d)
            outcome.check(np.array_equal(ref["series"], s),
                          f"{d['path'].name}: predictions differ between passes")
        oracle = LabelEchoPredictor(self.model.core_len, self.model.context_len)
        for path in self.paths:
            session = D.load_session(path)
            score = ccc(predict_session(oracle, session), session.roles["target"].labels)
            outcome.check(score == 1.0, f"{path.name}: label-echo CCC {score!r} != 1.0")
        if any(d["traced"] for d in self.samples):
            session = D.load_session(self.paths[-1])
            segs = S.make_segments(session.num_frames, self.model.core_len,
                                   self.model.context_len)[:4]
            check_decomposed(outcome, self.model, S.build_window_batch(session, segs),
                             UNTRACED)

    def end_to_end(self) -> tuple[dict, dict]:
        plain = [d["seconds"] for d in self.samples if not d["traced"]]
        rates = [p["frames"] / p["seconds"] for p in self.passes if not p["traced"]]
        eval_s, eval_n = self.clock.eval_totals()
        n = len(plain)
        e2e = {
            "throughput_per_s": (float(np.median(rates)),
                                 f"frames/s, median of {len(rates)} passes"),
            "latency_ms_p50": (percentile_ms(plain, 50), f"session, n={n}"),
            "latency_ms_p90": (percentile_ms(plain, 90), f"session, n={n}"),
            "eval_ms_per_window": (eval_s / eval_n * 1e3, f"predict_windows, {eval_n} windows"),
        }
        named = {
            "session_ms_p50": (e2e["latency_ms_p50"][0], "ms", e2e["latency_ms_p50"][1]),
            "session_ms_p90": (e2e["latency_ms_p90"][0], "ms", e2e["latency_ms_p90"][1]),
            "infer_frames_per_s": (e2e["throughput_per_s"][0], "1/s",
                                   e2e["throughput_per_s"][1]),
        }
        return e2e, named

    def op_seconds(self, traced: bool) -> float:
        return float(np.mean([d["seconds"] for d in self.samples if d["traced"] == traced]))


class PaperWindow:
    """The paper-noxi model (d=512, window 96) in float32: per step, one
    eval forward and one train forward plus backward of a small batch of
    windows, with no optimizer."""

    name = "paper-window"
    op = "window step"

    def __init__(self, seed: int, sizes: Sizes, work: Path):
        self.seed, self.sizes, self.work = seed, sizes, work
        self.model_cfg, _ = resolve_configs("paper-noxi", None, sizes.paper_overrides)
        self.steps: list[dict] = []
        self.model = None

    def setup(self, tracer) -> None:
        self.model = None    # release the previous model before building the next
        self.session = synth_and_save(tracer, D.SynthConfig(
            sessions=1, num_frames=self.sizes.paper_frames, seed=self.seed), 0, None)
        self.segments = S.make_segments(self.session.num_frames, self.model_cfg.core_len,
                                        self.model_cfg.context_len)
        self.model = M.EngagementModel(self.model_cfg, seed=0)
        self.rng = np.random.default_rng(0)
        self._step(0, Outcome(), UNTRACED)

    def fingerprint(self) -> str:
        return fingerprint([self.session], self.model_cfg)

    def _batch_segments(self, k: int):
        b, n = self.sizes.paper_batch, len(self.segments)
        return [self.segments[(k * b + i) % n] for i in range(b)]

    def _step(self, k: int, outcome: Outcome, tracer) -> dict:
        model = self.model
        t0 = time.perf_counter()
        with tracer.span("workload.window_step"):
            with tracer.span("segmentation.build_window_batch") as sp:
                batch = S.build_window_batch(self.session, self._batch_segments(k))
                sp.count("core_frames", int(batch.mask.sum()))
                sp.count("frames", batch.mask.size)
            t1 = time.perf_counter()
            with tracer.span("model.predict_windows"):
                y = model.predict_windows(batch)
            t2 = time.perf_counter()
            if tracer.enabled:
                pred = decomposed_forward(model, batch.target, batch.partner, True,
                                          self.rng, tracer)
            else:
                pred = model.forward(batch.target, batch.partner, train=True, rng=self.rng)
            loss = mse_loss(pred, batch, tracer)
            with tracer.span("tensor.backward"):
                T.backward(loss)
            t3 = time.perf_counter()
        b = len(batch.segments)
        outcome.check(y.shape == (b, self.model_cfg.window_len) and bool(np.all(np.isfinite(y)))
                      and float(y.min()) >= 0.0 and float(y.max()) <= 1.0,
                      f"step {k}: eval predictions not finite in [0, 1]")
        outcome.check(bool(np.isfinite(loss.data)), f"step {k}: non-finite loss")
        grads = [p.grad for _, p in model.named_parameters()]
        outcome.check(all(g is not None and np.all(np.isfinite(g)) for g in grads),
                      f"step {k}: missing or non-finite gradient")
        model.zero_grad()
        return {"traced": tracer.enabled, "windows": b, "step_s": t3 - t0,
                "eval_s": t2 - t1, "fwd_bwd_s": t3 - t2}

    def measure(self, seconds: float, outcome: Outcome, tracer) -> None:
        deadline = time.perf_counter() + seconds
        while True:
            # Two operations per step: the eval batch and the train batch.
            outcome.attempted += 1
            step = outcome.attempt(self._step, len(self.steps), outcome, tracer)
            if step is not None:
                self.steps.append(step)
            if time.perf_counter() >= deadline:
                break

    def check(self, outcome: Outcome, tracer) -> None:
        if any(s["traced"] for s in self.steps):
            batch = S.build_window_batch(self.session, self._batch_segments(0))
            check_decomposed(outcome, self.model, batch, UNTRACED)

    def end_to_end(self) -> tuple[dict, dict]:
        plain = [s for s in self.steps if not s["traced"]]
        fwd_bwd = [s["fwd_bwd_s"] / s["windows"] for s in plain]
        evals = [s["eval_s"] / s["windows"] for s in plain]
        rates = [s["windows"] / s["step_s"] for s in plain]
        n = len(plain)
        e2e = {
            "throughput_per_s": (float(np.median(rates)), f"windows/s per full step, n={n}"),
            "latency_ms_p50": (percentile_ms(fwd_bwd, 50), f"fwd+bwd per window, n={n}"),
            "latency_ms_p90": (percentile_ms(fwd_bwd, 90), f"fwd+bwd per window, n={n}"),
            "eval_ms_per_window": (percentile_ms(evals, 50), f"eval per window, median, n={n}"),
        }
        named = {
            "paper_fwd_bwd_ms_per_window": (e2e["latency_ms_p50"][0], "ms",
                                            e2e["latency_ms_p50"][1]),
            "paper_eval_ms_per_window": (e2e["eval_ms_per_window"][0], "ms",
                                         e2e["eval_ms_per_window"][1]),
        }
        return e2e, named

    def op_seconds(self, traced: bool) -> float:
        return float(np.mean([s["step_s"] for s in self.steps if s["traced"] == traced]))


WORKLOADS = {w.name: w for w in (DeskTrain, SessionInfer, PaperWindow)}

