"""Command-line entry point: synth, train, eval, predict, gradcheck, ablate.

Configuration is resolved as defaults <- preset <- config file <- flags
(rightmost wins); `train` and `ablate` then take the stream dims from the
first training session. Every run prints the resolved configuration and seed
so it can be reproduced verbatim. Exit codes: 0 success, 1 usage error, 2 data,
format or file I/O error, 3 numerical failure (divergence, gradcheck breach).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import STREAMS, SynthConfig, load_sessions, synth_corpus
from .metrics import LabelEchoPredictor, ccc_loss, evaluate_sessions, mse, predict_session
from .model import (MODELS, BaselineModel, EngagementModel, GroupFusion, ModelConfig,
                    PartnerCrossLayer, load_checkpoint)
from .nn import Linear, MultiHeadAttention, TransformerEncoderLayer
from .tensor import GradCheckError, NonFiniteError, Tensor, grad_check
from .training import DivergenceError, TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3


class CliUsageError(Exception):
    pass


class Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


# The ModelConfig and TrainConfig defaults are the published setup; a preset
# names only where it departs from them.
PRESETS: dict[str, dict] = {
    "paper-noxi": {},
    # The 25-class quantized labels train on the CCC loss.
    "paper-mpiigi": {"loss": "ccc"},
    # Desk scale: small width, shorter context, float32, larger lr, short
    # EMA horizon (0.999 cannot converge within a few hundred steps).
    "desk": {
        "model_dim": 32, "context_len": 16, "dropout": 0.1, "dtype": "float32",
        "lr": 1e-3, "batch_size": 16, "epochs": 30, "ema_decay": 0.98,
    },
}

_MODEL_FIELDS = {f.name: f.type for f in dataclasses.fields(ModelConfig)
                 if f.name != "feature_dims"}    # read from the training corpus
_TRAIN_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}
_BOOL_TRUE = {"1", "true", "yes", "on"}
_BOOL_FALSE = {"0", "false", "no", "off"}


def _coerce(key: str, value):
    kind = _MODEL_FIELDS.get(key) or _TRAIN_FIELDS.get(key)
    if kind is None:
        raise CliUsageError(f"unknown config key '{key}'")
    if not isinstance(value, str):
        return value
    text = value.strip()
    if kind == "bool":
        low = text.lower()
        if low in _BOOL_TRUE:
            return True
        if low in _BOOL_FALSE:
            return False
        raise CliUsageError(f"config key '{key}' expects a boolean, got {value!r}")
    try:
        if kind == "int":
            return int(text)
        if kind == "float":
            return float(text)
    except ValueError:
        raise CliUsageError(f"config key '{key}' expects {kind}, got {value!r}")
    return text


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment; blank lines ignored."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise CliUsageError(f"cannot read config file {path}: {exc}")
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliUsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        out[key] = _coerce(key, value)
    return out


def resolve_configs(preset: str | None, config_file, overrides: dict):
    merged: dict = {}
    if preset:
        if preset not in PRESETS:
            raise CliUsageError(f"unknown preset '{preset}' "
                                f"(have: {', '.join(sorted(PRESETS))})")
        merged.update(PRESETS[preset])
    if config_file:
        merged.update(parse_config_file(config_file))
    merged.update({k: _coerce(k, v) for k, v in overrides.items() if v is not None})
    model_kwargs = {k: v for k, v in merged.items() if k in _MODEL_FIELDS}
    train_kwargs = {k: v for k, v in merged.items() if k in _TRAIN_FIELDS}
    try:
        return ModelConfig(**model_kwargs), TrainConfig(**train_kwargs)
    except ValueError as exc:
        raise CliUsageError(str(exc))


def print_resolved(tag: str, *configs) -> None:
    print(f"resolved {tag} config:")
    for cfg in configs:
        for key, value in sorted(dataclasses.asdict(cfg).items()):
            print(f"  {key} = {value}")


# ---------------------------------------------------------------- subcommands

def cmd_synth(args) -> int:
    if args.start_index < 0:
        raise CliUsageError(f"--start-index must be >= 0, got {args.start_index}")
    try:
        cfg = SynthConfig(sessions=args.sessions, num_frames=args.frames, seed=args.seed,
                          quantize_levels=args.quantize_levels)
    except ValueError as exc:
        raise CliUsageError(str(exc))
    print_resolved("synth", cfg)
    print(f"  start_index = {args.start_index}")
    paths = synth_corpus(cfg, args.out, start_index=args.start_index)
    print(f"wrote {len(paths)} sessions under {args.out}")
    return EXIT_OK


def _prepare_run(args, **flags):
    """The set-up `train` and `ablate` share: resolve the configs with the
    shared flags, load the training and validation corpora, take the stream
    dims from the first training session and print what was resolved."""
    model_cfg, train_cfg = resolve_configs(args.preset, args.config, {
        "seed": args.seed, "epochs": args.epochs, "lr": args.lr,
        "batch_size": args.batch_size, **flags})
    train_sessions = load_sessions(args.data)
    val_sessions = load_sessions(args.val) if args.val else None
    model_cfg = dataclasses.replace(model_cfg, feature_dims=train_sessions[0].feature_dims())
    print_resolved(args.command, model_cfg, train_cfg)
    return model_cfg, train_cfg, train_sessions, val_sessions


def cmd_train(args) -> int:
    model_cfg, train_cfg, train_sessions, val_sessions = _prepare_run(args, loss=args.loss)
    model = EngagementModel(model_cfg, seed=train_cfg.seed)
    print(f"model: {model.num_parameters():,} parameters")
    result = train(model, train_sessions, val_sessions, train_cfg, out_dir=args.out)
    print(f"best val_ccc {result.best_val_ccc:.4f} at epoch {result.best_epoch}; "
          f"checkpoints in {args.out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.ckpt == "oracle":  # only the oracle takes its window geometry from flags
        model_cfg, _ = resolve_configs(args.preset, args.config, {})
        predictor = LabelEchoPredictor(model_cfg.core_len, model_cfg.context_len)
    else:
        predictor, _ = load_checkpoint(args.ckpt)
        model_cfg = predictor.cfg
    print_resolved("eval", model_cfg)
    print(f"  ckpt = {args.ckpt}")
    report = evaluate_sessions(predictor, load_sessions(args.data))
    if not report.sessions:
        raise ValueError(f"--data {args.data}: no session carries target labels")
    for row in report.sessions:
        print(f"session {row['session_id']}: ccc {row['ccc']:.4f}")
    for session_id in report.skipped:
        print(f"session {session_id}: no labels, skipped")
    print(f"mean ccc: {report.mean_ccc:.4f}")
    if args.report:
        report.write_json(args.report)
        print(f"wrote {args.report}")
    if args.report_csv:
        report.write_csv(args.report_csv)
        print(f"wrote {args.report_csv}")
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.ckpt == "oracle":
        raise CliUsageError("predict needs a real checkpoint")
    model, _ = load_checkpoint(args.ckpt)
    print_resolved("predict", model.cfg)
    print(f"  ckpt = {args.ckpt}")
    sessions = load_sessions(args.session)
    if len(sessions) != 1:
        raise CliUsageError(f"--session {args.session} holds {len(sessions)} sessions; "
                            f"name one session directory")
    series = predict_session(model, sessions[0])
    with open(args.out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["frame_index", "prediction"])
        for i, value in enumerate(series):
            writer.writerow([i, repr(float(value))])
    print(f"wrote {len(series)} predictions to {args.out}")
    return EXIT_OK


GRADCHECK_SUITE = (
    ("linear", 1e-6),
    ("encoder_layer", 1e-5),
    ("cross_layer", 1e-4),
    ("group_fusion", 1e-4),
    ("full_model", 1e-4),
    ("baseline_model", 1e-4),
    ("mse_loss", 1e-6),
    ("ccc_loss", 1e-5),
    ("attention", 1e-5),
)


def run_gradcheck_suite(seed: int = 0, verbose: bool = True) -> float:
    """Finite-difference check across every differentiable block at toy scale;
    raises GradCheckError on the first tolerance breach."""
    rng = np.random.default_rng(seed)
    toy_dims = {"opensmile": 5, "w2vbert": 7, "clip": 6, "openface": 4, "openpose": 3}
    cfg = ModelConfig(model_dim=8, heads=2, dropout=0.0, core_len=2, context_len=1,
                      feature_dims=toy_dims)
    bundle = lambda length: {s: rng.standard_normal((length, toy_dims[s]))
                             for s in STREAMS}
    worst = 0.0
    for name, tol in GRADCHECK_SUITE:
        if name == "linear":
            lin = Linear(6, 4, np.random.default_rng(seed))
            x = T.constant(rng.standard_normal((5, 6)))
            c = T.constant(rng.standard_normal((5, 4)))
            err = grad_check(lambda: T.tensor_sum(T.mul(lin(x), c)),
                             lin.named_parameters(), tol=tol)
        elif name == "encoder_layer":
            layer = TransformerEncoderLayer(8, 2, 0.0, np.random.default_rng(seed))
            x = Tensor(rng.standard_normal((4, 8)), requires_grad=True)
            c = T.constant(rng.standard_normal((4, 8)))
            err = grad_check(lambda: T.tensor_sum(T.mul(layer(x), c)),
                             [("x", x)] + layer.named_parameters(),
                             tol=tol, max_coords_per_param=4)
        elif name == "cross_layer":
            layer = PartnerCrossLayer(16, 2, 0.0, np.random.default_rng(seed))
            x_t = Tensor(rng.standard_normal((4, 16)), requires_grad=True)
            x_p = Tensor(rng.standard_normal((4, 16)), requires_grad=True)
            c = T.constant(rng.standard_normal((4, 16)))
            err = grad_check(lambda: T.tensor_sum(T.mul(layer(x_t, x_p), c)),
                             [("x_t", x_t), ("x_p", x_p)] + layer.named_parameters(),
                             tol=tol, max_coords_per_param=3)
        elif name == "group_fusion":
            fusion = GroupFusion(cfg, np.random.default_rng(seed))
            data = {s: T.constant(v) for s, v in bundle(4).items()}
            c_a = T.constant(rng.standard_normal((4, 16)))
            c_v = T.constant(rng.standard_normal((4, 24)))

            def f_fusion():
                audio, video = fusion(data)
                return T.add(T.tensor_sum(T.mul(audio, c_a)),
                             T.tensor_sum(T.mul(video, c_v)))

            err = grad_check(f_fusion, fusion.named_parameters(),
                             tol=tol, max_coords_per_param=2)
        elif name in ("full_model", "baseline_model"):
            cls = EngagementModel if name == "full_model" else BaselineModel
            model = cls(cfg, seed=seed)
            target, partner = bundle(4), bundle(4)
            labels = rng.uniform(0, 1, (4, 1))

            def f_model():
                pred = model.forward(target, partner, train=True)
                diff = T.sub(pred, T.constant(labels))
                return T.mean(T.mul(diff, diff))

            err = grad_check(f_model, model.named_parameters(),
                             tol=tol, max_coords_per_param=2)
        elif name == "mse_loss":
            pred = Tensor(rng.standard_normal(16), requires_grad=True)
            label = rng.uniform(0, 1, 16)
            mask = (rng.random(16) > 0.25).astype(float)
            err = grad_check(lambda: mse(pred, label, mask), [("pred", pred)], tol=tol)
        elif name == "ccc_loss":
            pred = Tensor(rng.standard_normal(32), requires_grad=True)
            label = rng.uniform(0, 1, 32)
            err = grad_check(lambda: ccc_loss(pred, label), [("pred", pred)],
                             tol=tol, max_coords_per_param=16)
        else:  # attention: batched cross-attention, query and key lengths differ
            mha = MultiHeadAttention(8, 2, 0.0, np.random.default_rng(seed))
            q_in = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
            kv_in = Tensor(rng.standard_normal((2, 5, 8)), requires_grad=True)
            c = T.constant(rng.standard_normal((2, 3, 8)))
            err = grad_check(lambda: T.tensor_sum(T.mul(mha(q_in, kv_in), c)),
                             [("q_in", q_in), ("kv_in", kv_in)] + mha.named_parameters(),
                             tol=tol, max_coords_per_param=4)
        worst = max(worst, err)
        if verbose:
            print(f"gradcheck {name:15s} max_rel_err {err:.3e}  (tol {tol:.0e})  ok")
    return worst


def cmd_gradcheck(args) -> int:
    if args.seed < 0:
        raise CliUsageError(f"seed must be >= 0, got {args.seed}")
    print(f"gradcheck seed = {args.seed}")
    worst = run_gradcheck_suite(seed=args.seed)
    print(f"gradcheck suite passed; overall max_rel_err {worst:.3e}")
    return EXIT_OK


ABLATION_ARMS: dict[str, dict] = {
    "baseline": {"use_group_fusion": False, "use_partner_cross": False},
    "cross": {"use_group_fusion": False, "use_partner_cross": True},
    "fusion": {"use_group_fusion": True, "use_partner_cross": False},
    "full": {"use_group_fusion": True, "use_partner_cross": True},
    "fusion_d2": {"use_group_fusion": True, "use_partner_cross": False,
                  "encoder_depth": 2},
    "fused_baseline": {"arch": "baseline", "use_group_fusion": False,
                       "use_partner_cross": False},
}
DEFAULT_ARMS = ("baseline", "cross", "fusion", "full", "fusion_d2")


def run_ablate(model_cfg: ModelConfig, train_cfg: TrainConfig, train_sessions,
               val_sessions, arms, seeds, out_dir=None, quiet: bool = False) -> list[dict]:
    """Train each arm with each seed; returns rows of
    (arm, params, val_ccc, seed)."""
    rows = []
    for seed in seeds:
        for arm in arms:
            spec = dict(ABLATION_ARMS[arm])
            arch = spec.pop("arch", "dialogue")
            arm_cfg = dataclasses.replace(model_cfg, **spec)
            arm_train = dataclasses.replace(train_cfg, seed=seed)
            model = MODELS[arch](arm_cfg, seed=seed)
            result = train(model, train_sessions, val_sessions, arm_train, quiet=True)
            row = {"arm": arm, "params": model.num_parameters(),
                   "val_ccc": result.best_val_ccc, "seed": seed}
            rows.append(row)
            if not quiet:
                print(f"arm {arm:14s} seed {seed}: params {row['params']:>10,} "
                      f"val_ccc {row['val_ccc']:.4f}")
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        with open(out_dir / "ablation.csv", "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(["arm", "params", "val_ccc", "seed"])
            for row in rows:
                writer.writerow([row["arm"], row["params"], repr(row["val_ccc"]),
                                 row["seed"]])
    return rows


def summarize_ablation(rows, arms) -> dict[str, tuple[float, float]]:
    summary = {}
    for arm in arms:
        vals = [r["val_ccc"] for r in rows if r["arm"] == arm]
        summary[arm] = (float(np.mean(vals)), float(np.std(vals)))
    return summary


def cmd_ablate(args) -> int:
    arms = tuple(args.arms.split(",")) if args.arms else DEFAULT_ARMS
    unknown = [a for a in arms if a not in ABLATION_ARMS]
    if unknown:
        raise CliUsageError(f"unknown ablation arms {unknown} "
                            f"(have: {', '.join(ABLATION_ARMS)})")
    if args.seeds < 1:
        raise CliUsageError(f"--seeds must be >= 1, got {args.seeds}")
    model_cfg, train_cfg, train_sessions, val_sessions = _prepare_run(args)
    seeds = list(range(train_cfg.seed, train_cfg.seed + args.seeds))
    print(f"  arms = {','.join(arms)}")
    print(f"  seeds = {seeds}")
    rows = run_ablate(model_cfg, train_cfg, train_sessions, val_sessions,
                      arms, seeds, out_dir=args.out)
    print(f"{'arm':14s} {'mean_val_ccc':>12s} {'sd':>8s}")
    for arm, (mean, sd) in summarize_ablation(rows, arms).items():
        print(f"{arm:14s} {mean:12.4f} {sd:8.4f}")
    print(f"rows written to {Path(args.out) / 'ablation.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------- dispatch

def build_parser() -> Parser:
    parser = Parser(prog="engagekit",
                    description="Dialogue engagement estimation pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic session corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--sessions", type=int, default=5)
    p.add_argument("--frames", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--quantize-levels", type=int, default=0)
    p.add_argument("--start-index", dest="start_index", type=int, default=0,
                   help="first session index; same seed + disjoint index "
                        "ranges give train/val splits in one feature space")
    p.set_defaults(fn=cmd_synth)

    # The flags `train` and `ablate` share; an unset one leaves the config
    # file's value (or the preset's) in force.
    run = Parser(add_help=False)
    run.add_argument("--data", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--config")
    run.add_argument("--preset", choices=sorted(PRESETS))
    run.add_argument("--seed", type=int, help="seed; for ablate the first seed")
    run.add_argument("--epochs", type=int)
    run.add_argument("--lr", type=float)
    run.add_argument("--batch-size", dest="batch_size", type=int)

    p = sub.add_parser("train", parents=[run], help="train a model on a session corpus")
    p.add_argument("--val")
    p.add_argument("--loss", choices=["mse", "ccc"])
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint (or the label oracle)")
    p.add_argument("--data", required=True)
    p.add_argument("--ckpt", required=True,
                   help="checkpoint file, or 'oracle' for the label-echo self-test")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--report-csv", dest="report_csv", help="write the CSV report here")
    p.add_argument("--config", help="window geometry for --ckpt oracle; a checkpoint "
                                    "carries its own config")
    p.add_argument("--preset", choices=sorted(PRESETS), help="as --config")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("predict", help="per-frame predictions for one session")
    p.add_argument("--session", required=True)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("ablate", parents=[run], help="train the ablation arms and compare")
    p.add_argument("--val", required=True)
    p.add_argument("--seeds", type=int, default=3, help="number of seeds")
    p.add_argument("--arms", help=f"comma list from: {', '.join(ABLATION_ARMS)}")
    p.set_defaults(fn=cmd_ablate)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # An explicit finiteness check reports every numeric failure (loss,
        # gradients, predictions, stored matrices); numpy's warnings repeat it.
        with np.errstate(all="ignore"):
            return args.fn(args)
    except CliUsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DivergenceError, GradCheckError, NonFiniteError) as exc:
        print(f"error[numeric]: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # an output path that cannot be created or written
        print(f"error[data]: {exc.filename}: {exc.strerror}" if exc.filename else
              f"error[data]: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # DataFormatError among them
        print(f"error[data]: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> int:
    return dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
