import csv
import dataclasses
import json
import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import engagekit.cli as cli
from engagekit.cli import dispatch, parse_config_file, resolve_configs, CliUsageError
from engagekit.data import (DEFAULT_FEATURE_DIMS, SynthConfig, load_session, load_sessions,
                            save_session, synth_corpus, synth_session)
from engagekit.metrics import ccc, predict_session
from engagekit.model import (EngagementModel, ModelConfig, load_checkpoint, param_count,
                             save_checkpoint)
from engagekit.tensor import Tensor
from engagekit.training import TrainConfig

from conftest import TOY_FEATURE_DIMS, toy_config, damaged_checkpoint


def synth_dirs(tmp_path, frames=120, sessions=2, feature_dims=None):
    train_dir = tmp_path / "train"
    val_dir = tmp_path / "val"
    dims = {} if feature_dims is None else {"feature_dims": dict(feature_dims)}
    cfg = SynthConfig(sessions=sessions, num_frames=frames, seed=4, **dims)
    synth_corpus(cfg, train_dir)
    synth_corpus(SynthConfig(sessions=1, num_frames=frames, seed=4, **dims), val_dir,
                 start_index=sessions)
    return train_dir, val_dir


def fast_flags(tmp_path, out="run"):
    config = tmp_path / "fast.cfg"
    config.write_text(
        "model_dim = 16\nheads = 2\ncore_len = 16\ncontext_len = 4\n"
        "dropout = 0.1\ndtype = float32\n"
        "lr = 1e-3\nbatch_size = 8\nepochs = 2\nema_decay = 0.5\n")
    return ["--config", str(config), "--out", str(tmp_path / out)]


# ---------------------------------------------------------------- config res.

def test_config_file_parsing(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\nmodel_dim = 64\ndropout = 0.1  # trailing\n"
                    "use_partner_cross = false\nuse_group_fusion = true\nloss = ccc\n\n")
    parsed = parse_config_file(path)
    assert parsed == {"model_dim": 64, "dropout": 0.1, "use_partner_cross": False,
                      "use_group_fusion": True, "loss": "ccc"}


@pytest.mark.parametrize("value", [3, 3.0, True], ids=["int", "float", "bool"])
def test_resolve_configs_refuses_an_unknown_override_key(value):
    with pytest.raises(CliUsageError, match="unknown config key 'epoch'"):
        resolve_configs("desk", None, {"epoch": value})


def test_config_precedence_flags_beat_file_beat_preset(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("epochs = 7\nmodel_dim = 64\n")
    model_cfg, train_cfg = resolve_configs("desk", path, {"epochs": 3})
    assert train_cfg.epochs == 3            # flag wins
    assert model_cfg.model_dim == 64        # file beats preset
    assert model_cfg.core_len == 32         # preset survives elsewhere
    assert train_cfg.lr == pytest.approx(1e-3)


def test_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("warp_factor = 9\n")
    with pytest.raises(CliUsageError):
        parse_config_file(path)


@pytest.mark.parametrize("line", ["share_stream_encoders = true", "use_positional = false",
                                  "head_hidden = 12",
                                  "feature_dims = opensmile:5,w2vbert:7,clip:6,openface:4,"
                                  "openpose:3"])
def test_config_removed_model_key_is_usage_error(tmp_path, capsys, line):
    config = tmp_path / "old.cfg"
    config.write_text(line + "\n")
    code = dispatch(["train", "--data", str(tmp_path / "absent"), "--config", str(config),
                     "--out", str(tmp_path / "run")])
    assert code == 1
    assert f"unknown config key '{line.split()[0]}'" in capsys.readouterr().err


def test_paper_presets_carry_published_values():
    model_cfg, train_cfg = resolve_configs("paper-noxi", None, {})
    assert model_cfg.model_dim == 512
    assert model_cfg.core_len == 32 and model_cfg.context_len == 32
    assert model_cfg.dropout == 0.2
    assert train_cfg.lr == pytest.approx(5e-5)
    assert train_cfg.batch_size == 128
    assert train_cfg.epochs == 50
    assert train_cfg.loss == "mse"
    _, mpiigi = resolve_configs("paper-mpiigi", None, {})
    assert mpiigi.loss == "ccc"


PAPER_MODEL = {
    "model_dim": 512, "cross_layers": 1, "heads": 8, "dropout": 0.2, "core_len": 32,
    "context_len": 32, "use_group_fusion": True, "use_partner_cross": True,
    "encoder_depth": 1, "ffn_mult": 4, "dtype": "float64",
    "feature_dims": {"opensmile": 88, "w2vbert": 1024, "clip": 512, "openface": 714,
                     "openpose": 139},
}
PAPER_TRAIN = {
    "lr": 5e-5, "batch_size": 128, "epochs": 50, "beta1": 0.9, "beta2": 0.999,
    "eps": 1e-8, "ema_decay": 0.999, "seed": 0, "loss": "mse", "grad_clip": 0.0,
    "weight_decay": 0.0, "lr_schedule": "none", "eval_interval": 1,
}
DESK_MODEL = {**PAPER_MODEL, "model_dim": 32, "context_len": 16, "dropout": 0.1,
              "dtype": "float32"}
DESK_TRAIN = {**PAPER_TRAIN, "lr": 1e-3, "batch_size": 16, "epochs": 30, "ema_decay": 0.98}


@pytest.mark.parametrize("preset, overrides, model, train", [
    pytest.param(None, {}, PAPER_MODEL, PAPER_TRAIN, id="none"),
    pytest.param("paper-noxi", {}, PAPER_MODEL, PAPER_TRAIN, id="paper-noxi"),
    pytest.param("paper-mpiigi", {}, PAPER_MODEL, {**PAPER_TRAIN, "loss": "ccc"},
                 id="paper-mpiigi"),
    pytest.param("desk", {}, DESK_MODEL, DESK_TRAIN, id="desk"),
    pytest.param("desk", {"epochs": 3}, DESK_MODEL, {**DESK_TRAIN, "epochs": 3},
                 id="desk-epochs"),
    pytest.param("paper-noxi", {"dtype": "float32"}, {**PAPER_MODEL, "dtype": "float32"},
                 PAPER_TRAIN, id="paper-noxi-float32"),
])
def test_presets_resolve_to_pinned_configs(preset, overrides, model, train):
    for cfg, expected in zip(resolve_configs(preset, None, overrides), (model, train)):
        got = dataclasses.asdict(cfg)
        assert got == expected
        assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in expected.items()}


def test_no_preset_entry_restates_a_default():
    defaults = {**dataclasses.asdict(ModelConfig()), **dataclasses.asdict(TrainConfig())}
    for name, entries in cli.PRESETS.items():
        restated = {k: v for k, v in entries.items() if v == defaults[k]}
        assert not restated, f"preset {name} restates defaults {restated}"


# ---------------------------------------------------------------- exit codes

def test_unknown_flag_is_usage_error(capsys):
    assert dispatch(["synth", "--out", "x", "--bogus"]) == 1
    assert "error[usage]" in capsys.readouterr().err


def test_missing_data_dir_is_data_error(tmp_path, capsys):
    code = dispatch(["eval", "--data", str(tmp_path / "nope"), "--ckpt", "oracle"])
    assert code == 2
    assert "error[data]" in capsys.readouterr().err


def _swap_params(i: int, j: int):
    """Manifest edit that swaps parameter entries ``i`` and ``j``."""
    def edit(manifest):
        params = manifest["params"]
        params[i], params[j] = params[j], params[i]
        return manifest
    return edit


def _set_shape(index: int, shape: list):
    """Manifest edit that gives parameter ``index`` another shape."""
    def edit(manifest):
        manifest["params"][index]["shape"] = shape
        return manifest
    return edit


def _set_config(**fields):
    """Manifest edit that sets config ``fields``."""
    return lambda m: {**m, "config": {**m["config"], **fields}}


@pytest.mark.parametrize("damage, named", [
    pytest.param({"version": 1}, "version 1", id="version_1"),
    pytest.param({"drop": "head.norm.gamma"}, "'head.norm.gamma'", id="missing_param"),
    pytest.param({"keep": 6}, "truncated header", id="short_header"),
    pytest.param({"edit": lambda m: [m]}, "JSON object", id="manifest_not_object"),
    pytest.param({"edit": lambda m: {**m, "arch": "solo"}}, "'solo'", id="unknown_arch"),
    pytest.param({"edit": lambda m: {**m, "config": {**m["config"], "width": 8}}},
                 "'width'", id="unknown_config_key"),
    pytest.param({"edit": lambda m: {**m, "params": {}}}, "must be a list",
                 id="params_not_list"),
    pytest.param({"edit": _swap_params(0, 1)}, "'target_fusion.streams.proj.opensmile.weight'",
                 id="out_of_order"),
    pytest.param({"edit": _set_shape(-1, [2])}, "'head.mlp.lin2.bias'", id="wrong_shape"),
    pytest.param({"keep": -4}, "parameter blob", id="blob_short"),
    pytest.param({"dtype": "float32",
                  "edit": lambda m: {**m, "config": {**m["config"], "dtype": "float64"}}},
                 "float64 values", id="dtype_mismatch"),
    pytest.param({"edit": lambda m: {**m, "config": {**m["config"], "heads": 0}}},
                 "heads >= 1", id="zero_heads"),
    pytest.param({"edit": _set_config(model_dim=8.0)}, "model_dim must be an integer",
                 id="model_dim_float"),
    pytest.param({"edit": _set_config(heads=2.0)}, "heads must be an integer", id="heads_float"),
    pytest.param({"edit": _set_config(core_len=True)}, "core_len must be an integer",
                 id="core_len_bool"),
    pytest.param({"edit": _set_config(feature_dims={**TOY_FEATURE_DIMS, "clip": 6.0})},
                 "feature_dims.clip must be an integer", id="feature_dim_float"),
    pytest.param({"edit": _set_config(feature_dims={**TOY_FEATURE_DIMS, "clip": True})},
                 "feature_dims.clip must be an integer", id="feature_dim_bool"),
    pytest.param({"edit": _set_config(dropout="0.1")}, "dropout must be a number",
                 id="dropout_string"),
    pytest.param({"edit": _set_config(dropout=False)}, "dropout must be a number",
                 id="dropout_bool"),
    pytest.param({"edit": _set_config(use_group_fusion=1)},
                 "use_group_fusion must be true or false", id="flag_int"),
    pytest.param({"patch": lambda raw: b"XATC" + raw[4:]}, "bad checkpoint magic",
                 id="bad_magic"),
    pytest.param({"patch": lambda raw: raw[:8] + struct.pack("<Q", len(raw)) + raw[16:]},
                 "truncated manifest", id="manifest_past_end"),
    pytest.param({"patch": lambda raw: raw[:16] + b"\xff" + raw[17:]}, "not UTF-8 JSON",
                 id="manifest_not_utf8"),
    pytest.param({"patch": lambda raw: raw[:-8] + struct.pack("<d", np.nan)},
                 "'head.mlp.lin2.bias'", id="nan_weight"),
])
def test_eval_refuses_damaged_checkpoint(tmp_path, capsys, damage, named):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    ckpt = tmp_path / "damaged.ckpt"
    damage = dict(damage)  # "dtype" is the saved model's, the rest damages its file
    model = EngagementModel(toy_config(dtype=damage.pop("dtype", "float64")), seed=0)
    damaged_checkpoint(ckpt, model, **damage)
    code = dispatch(["eval", "--data", str(val_dir), "--ckpt", str(ckpt)])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[data]" in err and "damaged.ckpt" in err and named in err


def _manifest_without(key: str):
    """Session-manifest edit that drops ``key``."""
    def edit(manifest):
        del manifest[key]
        return manifest
    return edit


@pytest.mark.parametrize("damage, named", [
    pytest.param(_manifest_without("num_frames"), "num_frames", id="no_num_frames"),
    pytest.param(_manifest_without("feature_dims"), "feature_dims", id="no_feature_dims"),
    pytest.param(_manifest_without("roles"), "roles", id="no_roles"),
    pytest.param(_manifest_without("session_id"), "session_id", id="no_session_id"),
    pytest.param(lambda m: [m], "JSON object", id="not_object"),
    pytest.param(b"{not json", "not UTF-8 JSON", id="not_json"),
    pytest.param(b"\xff\xfe{}", "not UTF-8 JSON", id="not_utf8"),
    pytest.param(lambda m: {**m, "num_frames": None}, "num_frames", id="num_frames_null"),
    pytest.param(lambda m: {**m, "feature_dims": {"clip": 6}}, "feature_dims",
                 id="streams_missing"),
    pytest.param(lambda m: {**m, "feature_dims": {**m["feature_dims"], "clip": None}},
                 "feature_dims", id="stream_dim_null"),
    pytest.param(lambda m: {**m, "frame_rate_hz": None}, "frame_rate_hz",
                 id="frame_rate_null"),
    pytest.param(lambda m: {**m, "num_frames": True}, "num_frames", id="num_frames_bool"),
    pytest.param(lambda m: {**m, "feature_dims": {**m["feature_dims"], "clip": True}},
                 "feature_dims", id="stream_dim_bool"),
    pytest.param(lambda m: {**m, "frame_rate_hz": True}, "frame_rate_hz",
                 id="frame_rate_bool"),
    pytest.param(lambda m: {**m, "frame_rate_hz": float("inf")}, "frame_rate_hz",
                 id="frame_rate_infinity"),
    pytest.param(lambda m: {**m, "session_id": None}, "session_id", id="session_id_null"),
    pytest.param(lambda m: {**m, "session_id": 7}, "session_id", id="session_id_int"),
    pytest.param(lambda m: {**m, "session_id": ["a"]}, "session_id", id="session_id_list"),
    pytest.param(lambda m: {**m, "roles": "target"}, "roles", id="roles_not_list"),
    pytest.param(lambda m: {**m, "roles": ["partner"]}, "'target'", id="no_target_role"),
    pytest.param(lambda m: {**m, "roles": ["target", ".."]}, "role '..' is not a plain",
                 id="role_outside"),
    pytest.param(lambda m: {**m, "schema_version": True}, "schema_version True",
                 id="schema_version_bool"),
    pytest.param(lambda m: {**m, "schema_version": 1.0}, "schema_version 1.0",
                 id="schema_version_float"),
])
def test_eval_refuses_damaged_session_manifest(tmp_path, capsys, damage, named):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    (session_dir,) = sorted(val_dir.glob("session_*"))
    path = session_dir / "manifest.json"
    if callable(damage):
        damage = json.dumps(damage(json.loads(path.read_text()))).encode("utf-8")
    path.write_bytes(damage)
    code = dispatch(["eval", "--data", str(val_dir), "--ckpt", "oracle"])
    assert code == 2
    err = capsys.readouterr().err
    assert "error[data]" in err and str(session_dir) in err and named in err



def test_eval_refuses_a_nan_label(tmp_path, capsys):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    (session_dir,) = sorted(val_dir.glob("session_*"))
    with open(session_dir / "target" / "labels.datf", "r+b") as f:
        f.seek(16 + 5 * 4)                  # frame 5 of the one-column matrix
        f.write(struct.pack("<f", np.nan))
    code = dispatch(["eval", "--data", str(val_dir), "--ckpt", "oracle"])
    assert code == 2
    out, err = capsys.readouterr()
    session_id = json.loads((session_dir / "manifest.json").read_text())["session_id"]
    assert (f"error[data]: session '{session_id}' label out of [0, 1] for role 'target' "
            f"at frame 5: nan") in err
    assert "mean ccc" not in out

@pytest.mark.parametrize("line, named", [
    pytest.param("heads = 0", "heads >= 1", id="heads"),
    pytest.param("model_dim = 0", "model_dim >= 1", id="model_dim"),
    pytest.param("beta1 = 1.0", "beta1", id="beta1"),
    pytest.param("beta2 = 1.0", "beta2", id="beta2"),
    pytest.param("eps = 0", "eps", id="eps"),
    pytest.param("ffn_mult = 0", "ffn_mult >= 1", id="ffn_mult_0"),
    pytest.param("ffn_mult = -1", "ffn_mult >= 1", id="ffn_mult_neg"),
    pytest.param("epochs = 0", "epochs must be >= 1", id="epochs_0"),
    pytest.param("lr = nan", "lr must be positive and finite, got nan", id="lr_nan"),
    pytest.param("lr = inf", "lr must be positive and finite, got inf", id="lr_inf"),
    pytest.param("eps = nan", "eps must be positive and finite, got nan", id="eps_nan"),
    pytest.param("eps = inf", "eps must be positive and finite, got inf", id="eps_inf"),
    pytest.param("grad_clip = -1", "grad_clip must be finite and >= 0, got -1.0",
                 id="grad_clip_neg"),
    pytest.param("grad_clip = inf", "grad_clip must be finite and >= 0, got inf",
                 id="grad_clip_inf"),
    pytest.param("grad_clip = nan", "grad_clip must be finite and >= 0, got nan",
                 id="grad_clip_nan"),
    pytest.param("weight_decay = -1", "weight_decay must be finite and >= 0, got -1.0",
                 id="weight_decay_neg"),
    pytest.param("weight_decay = inf", "weight_decay must be finite and >= 0, got inf",
                 id="weight_decay_inf"),
    pytest.param("weight_decay = nan", "weight_decay must be finite and >= 0, got nan",
                 id="weight_decay_nan"),
    pytest.param("heads = 3", "heads (3) must divide model_dim (512)", id="heads_divide"),
    pytest.param("dtype = float16", "dtype must be float64 or float32", id="dtype"),
    pytest.param("cross_layers = 0", "cross_layers and encoder_depth must be >= 1",
                 id="cross_layers"),
    pytest.param("core_len = 0", "need core_len >= 1", id="core_len"),
    pytest.param("dropout = 1.0", "dropout must be in [0, 1), got 1.0", id="dropout"),
    pytest.param("epochs = three", "config key 'epochs' expects int, got 'three'",
                 id="epochs_not_int"),
    pytest.param("use_partner_cross = maybe",
                 "config key 'use_partner_cross' expects a boolean, got 'maybe'",
                 id="flag_not_bool"),
    pytest.param("epochs 3", "bad.cfg:1: expected 'key = value', got 'epochs 3'",
                 id="no_equals"),
    pytest.param(None, "cannot read config file", id="unreadable"),
])
def test_config_out_of_range_is_usage_error(tmp_path, capsys, line, named):
    config = tmp_path / "bad.cfg"
    if line is not None:                    # else the config path does not exist
        config.write_text(line + "\n")
    code = dispatch(["train", "--data", str(tmp_path / "absent"), "--config", str(config),
                     "--out", str(tmp_path / "run")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error[usage]" in err and named in err


@pytest.mark.parametrize("command", ["synth", "train", "gradcheck", "ablate"])
def test_negative_seed_is_usage_error(tmp_path, capsys, command):
    # the data paths do not exist: the seed must be refused before any read
    args = {"synth": ["--out", str(tmp_path / "s")],
            "train": ["--data", str(tmp_path / "absent"), "--out", str(tmp_path / "run")],
            "gradcheck": [],
            "ablate": ["--data", str(tmp_path / "absent"), "--val", str(tmp_path / "absent"),
                       "--out", str(tmp_path / "run")]}[command]
    assert dispatch([command, *args, "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "error[usage]" in err and "seed must be >= 0, got -1" in err
    assert not (tmp_path / "s").exists()


def test_unwritable_report_path_is_data_error(tmp_path, capsys):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    report = tmp_path / "missing_dir" / "r.json"
    code = dispatch(["eval", "--data", str(val_dir), "--ckpt", "oracle",
                     "--report", str(report)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error[data]: {report}: " in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "predict"])
def test_missing_checkpoint_is_data_error(tmp_path, capsys, command):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    ckpt = tmp_path / "absent.ckpt"
    args = (["eval", "--data", str(val_dir)] if command == "eval" else
            ["predict", "--session", str(val_dir), "--out", str(tmp_path / "p.csv")])
    assert dispatch(args + ["--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert "error[data]" in err and f"{ckpt}: cannot read checkpoint" in err


def test_predict_refuses_a_directory_of_several_sessions(tmp_path, capsys):
    train_dir, _ = synth_dirs(tmp_path, frames=40, sessions=2)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, EngagementModel(toy_config(), seed=0))
    code = dispatch(["predict", "--session", str(train_dir), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "p.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "error[usage]" in err and f"{train_dir} holds 2 sessions" in err


def test_predict_refuses_the_oracle(tmp_path, capsys):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    code = dispatch(["predict", "--session", str(val_dir), "--ckpt", "oracle",
                     "--out", str(tmp_path / "p.csv")])
    assert code == 1
    assert "error[usage]: predict needs a real checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "p.csv").exists()


def _poison_stream(session_dir, role="target", stream="clip", frame=5):
    """Write a NaN into column 0 of ``frame`` of one stream file."""
    path = session_dir / role / f"{stream}.datf"
    cols = struct.unpack_from("<I", path.read_bytes(), 12)[0]
    with open(path, "r+b") as f:
        f.seek(16 + frame * cols * 4)
        f.write(struct.pack("<f", np.nan))
    return json.loads((session_dir / "manifest.json").read_text())["session_id"]


@pytest.mark.parametrize("command", ["eval", "predict", "train", "train_val"])
def test_a_non_finite_stream_value_is_a_data_error(tmp_path, capsys, command):
    # Not a numerical failure: the message names the stream and the frame.
    train_dir, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    poisoned = train_dir if command == "train" else val_dir
    session_id = _poison_stream(sorted(poisoned.glob("session_*"))[0])
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, EngagementModel(toy_config(feature_dims=dict(DEFAULT_FEATURE_DIMS)),
                                          seed=0))
    args = {"eval": ["eval", "--data", str(val_dir), "--ckpt", str(ckpt)],
            "predict": ["predict", "--session", str(val_dir), "--ckpt", str(ckpt),
                        "--out", str(tmp_path / "p.csv")],
            "train": ["train", "--data", str(train_dir)] + fast_flags(tmp_path),
            "train_val": ["train", "--data", str(train_dir), "--val", str(val_dir)]
            + fast_flags(tmp_path)}[command]
    assert dispatch(args) == 2
    err = capsys.readouterr().err
    assert (f"error[data]: session '{session_id}' stream 'target/clip' is not finite "
            f"at frame 5") in err


def test_predict_non_finite_output_is_numeric_error(tmp_path, capsys, monkeypatch):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1, feature_dims=TOY_FEATURE_DIMS)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, EngagementModel(toy_config(), seed=0))
    forward = EngagementModel.forward

    def nan_forward(self, *args, **kwargs):
        return Tensor(np.full(forward(self, *args, **kwargs).shape, np.nan))

    monkeypatch.setattr(EngagementModel, "forward", nan_forward)
    code = dispatch(["predict", "--session", str(val_dir), "--ckpt", str(ckpt),
                     "--out", str(tmp_path / "p.csv")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error[numeric]" in err and "session 'synth-0004-001'" in err


def test_eval_refuses_a_session_without_partner_for_a_dialogue_checkpoint(tmp_path, capsys):
    session = synth_session(SynthConfig(sessions=1, num_frames=30, seed=4,
                                        feature_dims=dict(TOY_FEATURE_DIMS)), 0)
    del session.roles["partner"]
    save_session(tmp_path / "solo", session)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, EngagementModel(toy_config(), seed=0))
    assert dispatch(["eval", "--data", str(tmp_path / "solo"), "--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    assert (f"error[data]: session '{session.session_id}': model was built with partner "
            "cross-attention; a partner bundle is required") in err
    assert "Traceback" not in err


def test_eval_refuses_stream_dims_unlike_the_checkpoint(tmp_path, capsys):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)  # full-width streams
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, EngagementModel(toy_config(), seed=0))
    assert dispatch(["eval", "--data", str(val_dir), "--ckpt", str(ckpt)]) == 2
    err = capsys.readouterr().err
    session_id = load_sessions(val_dir)[0].session_id
    assert (f"error[data]: session '{session_id}': target stream 'opensmile' has dim 88, "
            f"config expects {TOY_FEATURE_DIMS['opensmile']}") in err


@pytest.mark.parametrize("predictor", ["model", "oracle"])
def test_eval_names_the_session_without_frames(tmp_path, capsys, predictor):
    corpus = tmp_path / "corpus"
    synth_corpus(SynthConfig(sessions=1, num_frames=30, seed=4,
                             feature_dims=dict(TOY_FEATURE_DIMS)), corpus)
    empty = synth_session(SynthConfig(sessions=1, num_frames=30, seed=4,
                                      feature_dims=dict(TOY_FEATURE_DIMS)), 1)
    empty.num_frames = 0
    for role in empty.roles.values():
        role.streams = {name: arr[:0] for name, arr in role.streams.items()}
        role.labels = role.labels[:0] if role.labels is not None else None
    save_session(corpus / "session_empty", empty)
    flags = ["--ckpt", "oracle"]
    if predictor == "model":
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(ckpt, EngagementModel(toy_config(), seed=0))
        flags = ["--ckpt", str(ckpt)]
    assert dispatch(["eval", "--data", str(corpus)] + flags) == 2
    err = capsys.readouterr().err
    assert (f"error[data]: session '{empty.session_id}': num_frames must be >= 1, "
            f"got 0") in err


def test_eval_names_the_session_too_short_to_score(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    synth_corpus(SynthConfig(sessions=1, num_frames=30, seed=4,
                             feature_dims=dict(TOY_FEATURE_DIMS)), corpus)
    short = synth_session(SynthConfig(sessions=1, num_frames=1, seed=4,
                                      feature_dims=dict(TOY_FEATURE_DIMS)), 1)
    save_session(corpus / "session_short", short)
    flags = ["--ckpt", "oracle"]
    assert dispatch(["eval", "--data", str(corpus)] + flags) == 2
    err = capsys.readouterr().err
    assert (f"error[data]: session '{short.session_id}': CCC needs num_frames >= 2, "
            f"got 1") in err


def test_gradcheck_breach_is_numeric_error(monkeypatch, capsys):
    monkeypatch.setattr(cli, "GRADCHECK_SUITE", (("linear", 0.0),))
    assert dispatch(["gradcheck"]) == 3
    assert "error[numeric]" in capsys.readouterr().err


# ---------------------------------------------------------------- synth

def test_synth_twice_is_byte_identical(tmp_path, capsys):
    for name in ("a", "b"):
        assert dispatch(["synth", "--out", str(tmp_path / name), "--sessions", "2",
                         "--frames", "60", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "resolved synth config" in out and "seed = 7" in out
    files_a = sorted(p.relative_to(tmp_path / "a")
                     for p in (tmp_path / "a").rglob("*") if p.is_file())
    assert files_a
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


@pytest.mark.parametrize("flag, value", [("--sessions", "0"), ("--frames", "0"),
                                         ("--quantize-levels", "1")])
def test_synth_bad_count_is_usage_error(tmp_path, capsys, flag, value):
    assert dispatch(["synth", "--out", str(tmp_path / "s"), flag, value]) == 1
    assert "error[usage]" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_synth_negative_start_index_is_usage_error(tmp_path, capsys):
    assert dispatch(["synth", "--out", str(tmp_path / "s"), "--start-index", "-1"]) == 1
    err = capsys.readouterr().err
    assert "error[usage]" in err and "--start-index must be >= 0, got -1" in err
    assert not (tmp_path / "s").exists()


def test_synth_quantize_levels(tmp_path):
    assert dispatch(["synth", "--out", str(tmp_path / "q"), "--sessions", "1",
                     "--frames", "50", "--seed", "1", "--quantize-levels", "25"]) == 0
    from engagekit.data import load_sessions
    (session,) = load_sessions(tmp_path / "q")
    lattice = (np.arange(25) / 24.0).astype(np.float32)
    assert np.all(np.isin(session.roles["target"].labels, lattice))


# ---------------------------------------------------------------- pipeline

def test_train_without_val_names_the_last_checkpoint(tmp_path, capsys):
    train_dir, _ = synth_dirs(tmp_path, frames=40, sessions=1)
    assert dispatch(["train", "--data", str(train_dir)] + fast_flags(tmp_path)) == 0
    out = capsys.readouterr().out
    run = tmp_path / "run"
    assert sorted(p.name for p in run.iterdir()) == ["history.csv", "last.ckpt"]
    assert out.splitlines()[-1] == f"no validation ran (no --val); checkpoint {run / 'last.ckpt'}"
    assert "-inf" not in out


def test_train_eval_predict_pipeline(tmp_path, capsys):
    train_dir, val_dir = synth_dirs(tmp_path)
    code = dispatch(["train", "--data", str(train_dir), "--val", str(val_dir)]
                    + fast_flags(tmp_path))
    assert code == 0
    out = capsys.readouterr().out
    assert "resolved train config" in out and "model_dim = 16" in out
    run = tmp_path / "run"
    assert (run / "best.ckpt").exists() and (run / "last.ckpt").exists()
    history = (run / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_loss,val_ccc"
    assert len(history) == 3

    report_path = tmp_path / "report.json"
    code = dispatch(["eval", "--data", str(val_dir), "--ckpt", str(run / "best.ckpt"),
                     "--report", str(report_path),
                     "--report-csv", str(tmp_path / "report.csv")])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert len(report["sessions"]) == 1
    assert -1.0 <= report["mean_ccc"] <= 1.0
    assert (tmp_path / "report.csv").read_text().startswith("session_id,ccc")

    pred_path = tmp_path / "preds.csv"
    session_dir = sorted(val_dir.glob("session_*"))[0]
    code = dispatch(["predict", "--session", str(session_dir),
                     "--ckpt", str(run / "last.ckpt"), "--out", str(pred_path)])
    assert code == 0
    with open(pred_path) as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["frame_index", "prediction"]
    assert len(rows) - 1 == 120
    values = np.array([float(r[1]) for r in rows[1:]])
    assert np.all(values >= 0.0) and np.all(values <= 1.0)


def test_eval_prints_the_checkpoint_config(tmp_path, capsys):
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    ckpt = tmp_path / "m.ckpt"
    cfg = ModelConfig(model_dim=16, heads=2, core_len=16, context_len=4, dropout=0.0,
                      dtype="float32")
    save_checkpoint(ckpt, EngagementModel(cfg, seed=0))
    code = dispatch(["eval", "--data", str(val_dir), "--ckpt", str(ckpt)])
    assert code == 0
    out = capsys.readouterr().out
    assert "model_dim = 16" in out and "dtype = float32" in out
    assert "model_dim = 32" not in out  # the desk preset's width


def test_eval_oracle_scores_perfectly(tmp_path, capsys):
    _, val_dir = synth_dirs(tmp_path)
    code = dispatch(["eval", "--data", str(val_dir), "--ckpt", "oracle"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mean ccc: 1.0000" in out
    assert "config" not in out and "model_dim" not in out   # the oracle has no model


@pytest.mark.parametrize("flag", ["--preset", "--config"])
def test_eval_takes_no_window_geometry(tmp_path, capsys, flag):
    """The oracle's stitched output is the labels under any tiling, and a
    checkpoint carries its own config, so eval has no config flags."""
    _, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    geometry = tmp_path / "geometry.cfg"
    geometry.write_text("core_len = 16\ncontext_len = 4\n")
    value = {"--preset": "desk", "--config": str(geometry)}[flag]
    assert dispatch(["eval", "--data", str(val_dir), "--ckpt", "oracle", flag, value]) == 1
    assert "error[usage]" in capsys.readouterr().err


def test_gradcheck_cli_passes(capsys):
    assert dispatch(["gradcheck", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "gradcheck suite passed" in out
    assert "full_model" in out
    assert "attention" in out


def test_train_divergence_exit_code(tmp_path, capsys):
    # Finite data and a step size that overflows the weights after one step;
    # a non-finite stream value is a data error instead
    # (test_a_non_finite_stream_value_is_a_data_error).
    train_dir, val_dir = synth_dirs(tmp_path)
    code = dispatch(["train", "--data", str(train_dir), "--val", str(val_dir),
                     "--lr", "1e30"] + fast_flags(tmp_path, out="div"))
    assert code == 3
    assert "error[numeric]" in capsys.readouterr().err


def test_train_divergence_prints_only_the_error_line(tmp_path, capsys):
    # The finiteness check reports the failure; numpy's overflow warnings
    # on the way there reach neither the warnings machinery nor stderr.
    train_dir, _ = synth_dirs(tmp_path, frames=1200, sessions=1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = dispatch(["train", "--data", str(train_dir), "--preset", "desk",
                         "--epochs", "1", "--lr", "1e30", "--out", str(tmp_path / "run")])
    assert code == 3
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert capsys.readouterr().err == ("error[numeric]: non-finite loss at epoch 0, "
                                       "batch 1\n")


def test_train_takes_the_stream_dims_from_the_corpus(tmp_path, capsys):
    # No config file names the toy dims: they come from the training data.
    train_dir, _ = synth_dirs(tmp_path, frames=64, sessions=1,
                              feature_dims=TOY_FEATURE_DIMS)
    code = dispatch(["train", "--data", str(train_dir), "--preset", "desk",
                     "--epochs", "1", "--out", str(tmp_path / "run")])
    assert code == 0
    assert f"feature_dims = {TOY_FEATURE_DIMS}" in capsys.readouterr().out
    _, manifest = load_checkpoint(tmp_path / "run" / "last.ckpt")
    assert manifest["config"]["feature_dims"] == TOY_FEATURE_DIMS


def _train_corpus_with(tmp_path, damage):
    """A two-session training corpus whose second session is ``damage``d."""
    corpus = tmp_path / "train"
    synth_corpus(SynthConfig(sessions=1, num_frames=30, seed=4), corpus)
    session = synth_session(SynthConfig(sessions=1, num_frames=30, seed=4), 1)
    damage(session)
    save_session(corpus / "session_001", session)
    return corpus, session.session_id


def _without_frames(session):
    session.num_frames = 0
    for role in session.roles.values():
        role.streams = {name: arr[:0] for name, arr in role.streams.items()}
        role.labels = role.labels[:0] if role.labels is not None else None


def test_train_names_the_session_without_frames(tmp_path, capsys):
    corpus, session_id = _train_corpus_with(tmp_path, _without_frames)
    assert dispatch(["train", "--data", str(corpus)] + fast_flags(tmp_path)) == 2
    err = capsys.readouterr().err
    assert (f"error[data]: session '{session_id}': num_frames must be >= 1, "
            f"got 0") in err


def test_train_names_the_session_without_partner(tmp_path, capsys):
    corpus, session_id = _train_corpus_with(tmp_path, lambda s: s.roles.pop("partner"))
    assert dispatch(["train", "--data", str(corpus)] + fast_flags(tmp_path)) == 2
    err = capsys.readouterr().err
    assert f"error[data]: session '{session_id}': " in err
    assert "a partner bundle is required" in err
    assert not (tmp_path / "run" / "last.ckpt").exists()


def test_train_names_the_validation_session_too_short_to_score(tmp_path, capsys):
    train_dir, _ = synth_dirs(tmp_path, frames=30, sessions=1)
    val_dir = tmp_path / "short"
    synth_corpus(SynthConfig(sessions=1, num_frames=1, seed=4), val_dir, start_index=1)
    session_id = load_sessions(val_dir)[0].session_id
    assert dispatch(["train", "--data", str(train_dir), "--val", str(val_dir)]
                    + fast_flags(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert (f"error[data]: session '{session_id}': CCC needs num_frames >= 2, "
            f"got 1") in err
    assert "epoch 0" not in out


def _toy_corpus(tmp_path, damage=None):
    """A toy-dims training corpus of two sessions, the second ``damage``d;
    returns the corpus and the second session's directory and id."""
    cfg = SynthConfig(sessions=1, num_frames=40, seed=4, feature_dims=dict(TOY_FEATURE_DIMS))
    corpus = tmp_path / "train"
    synth_corpus(cfg, corpus)
    session = synth_session(cfg, 1)
    if damage is not None:
        damage(session)
    save_session(corpus / "session_001", session)
    return corpus, corpus / "session_001", session.session_id


def _clip_dim_7(session):
    for role in session.roles.values():     # one dim in both roles, as storage requires
        role.streams["clip"] = np.zeros((session.num_frames, 7))


@pytest.mark.parametrize("command", ["train", "eval", "predict"])
@pytest.mark.parametrize("damage, message", [
    pytest.param(lambda s: s.roles.pop("partner"),
                 "model was built with partner cross-attention; a partner bundle is required",
                 id="no_partner"),
    pytest.param(_clip_dim_7, "target stream 'clip' has dim 7, config expects 6",
                 id="clip_dim"),
])
def test_every_command_runs_one_session_preflight(tmp_path, capsys, command, damage, message):
    corpus, session_dir, session_id = _toy_corpus(tmp_path, damage)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, EngagementModel(toy_config(), seed=0))
    args = {"train": ["train", "--data", str(corpus)] + fast_flags(tmp_path),
            "eval": ["eval", "--data", str(session_dir), "--ckpt", str(ckpt)],
            "predict": ["predict", "--session", str(session_dir), "--ckpt", str(ckpt),
                        "--out", str(tmp_path / "p.csv")]}[command]
    assert dispatch(args) == 2
    out, err = capsys.readouterr()
    assert f"error[data]: session '{session_id}': {message}\n" in err
    assert "epoch 0" not in out and not (tmp_path / "p.csv").exists()


def _unlabeled(session_dir):
    (session_dir / "target" / "labels.datf").unlink()
    return session_dir


def test_predict_scores_a_session_without_labels(tmp_path, capsys):
    _, labeled, _ = _toy_corpus(tmp_path)
    unlabeled = tmp_path / "unlabeled"
    save_session(unlabeled, load_session(labeled))
    _unlabeled(unlabeled)
    ckpt = tmp_path / "m.ckpt"
    save_checkpoint(ckpt, EngagementModel(toy_config(), seed=0))
    for name, session_dir in (("a.csv", labeled), ("b.csv", unlabeled)):
        assert dispatch(["predict", "--session", str(session_dir), "--ckpt", str(ckpt),
                         "--out", str(tmp_path / name)]) == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_eval_skips_a_session_without_labels(tmp_path, capsys):
    corpus, session_dir, session_id = _toy_corpus(tmp_path)
    _unlabeled(session_dir)
    model = EngagementModel(toy_config(), seed=0)
    ckpt, report = tmp_path / "m.ckpt", tmp_path / "r.json"
    save_checkpoint(ckpt, model)
    assert dispatch(["eval", "--data", str(corpus), "--ckpt", str(ckpt),
                     "--report", str(report)]) == 0
    assert f"session {session_id}: no labels, skipped\n" in capsys.readouterr().out
    scored = load_session(corpus / "session_000")
    result = json.loads(report.read_text())
    assert result["skipped"] == [session_id]
    assert [row["session_id"] for row in result["sessions"]] == [scored.session_id]
    assert result["mean_ccc"] == ccc(predict_session(model, scored),
                                     scored.roles["target"].labels)


def test_eval_refuses_a_corpus_without_labels(tmp_path, capsys):
    corpus, session_dir, _ = _toy_corpus(tmp_path)
    _unlabeled(session_dir)
    _unlabeled(corpus / "session_000")
    assert dispatch(["eval", "--data", str(corpus), "--ckpt", "oracle"]) == 2
    out, err = capsys.readouterr()
    assert f"error[data]: --data {corpus}: no session carries target labels" in err
    assert "mean ccc" not in out


def test_train_refuses_a_validation_session_without_labels(tmp_path, capsys):
    corpus, session_dir, session_id = _toy_corpus(tmp_path)
    _unlabeled(session_dir)
    assert dispatch(["train", "--data", str(corpus / "session_000"),
                     "--val", str(session_dir)] + fast_flags(tmp_path)) == 2
    out, err = capsys.readouterr()
    assert f"error[data]: session '{session_id}' has no target labels" in err
    assert "epoch 0" not in out


# ---------------------------------------------------------------- ablate

def test_ablate_emits_rows_per_arm_and_seed(tmp_path, capsys):
    train_dir, val_dir = synth_dirs(tmp_path, frames=64, sessions=1)
    out_dir = tmp_path / "ablate"
    config = tmp_path / "ablate.cfg"
    config.write_text("model_dim = 16\nheads = 2\ncore_len = 16\ncontext_len = 4\n"
                      "dtype = float32\nlr = 1e-3\nbatch_size = 4\nepochs = 1\n"
                      "ema_decay = 0.5\n")
    code = dispatch(["ablate", "--data", str(train_dir), "--val", str(val_dir),
                     "--out", str(out_dir), "--config", str(config),
                     "--seeds", "2", "--arms", "baseline,cross,fusion,full"])
    assert code == 0
    with open(out_dir / "ablation.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8  # four arms x two seeds
    by_arm = {r["arm"]: int(r["params"]) for r in rows}
    assert by_arm["fusion"] > by_arm["baseline"]
    assert by_arm["full"] > by_arm["cross"] > by_arm["baseline"]
    seeds = {r["seed"] for r in rows}
    assert seeds == {"0", "1"}


def test_ablate_fused_baseline_arm():
    synth = SynthConfig(sessions=2, num_frames=48, seed=3, feature_dims=dict(TOY_FEATURE_DIMS))
    train_session, val_session = (synth_session(synth, i) for i in range(2))
    cfg = toy_config(core_len=8, context_len=4)
    train_cfg = TrainConfig(lr=1e-3, batch_size=4, epochs=1, ema_decay=0.5)
    (row,) = cli.run_ablate(cfg, train_cfg, [train_session], [val_session],
                            ["fused_baseline"], [0], quiet=True)
    assert row["arm"] == "fused_baseline"
    assert row["params"] == param_count(cfg, "baseline")
    assert np.isfinite(row["val_ccc"])


def test_ablate_zero_seeds_is_usage_error(tmp_path, capsys):
    assert dispatch(["ablate", "--data", "x", "--val", "y", "--out", "z",
                     "--seeds", "0"]) == 1
    assert "--seeds must be >= 1" in capsys.readouterr().err


def test_ablate_rejects_unknown_arm(tmp_path, capsys):
    assert dispatch(["ablate", "--data", "x", "--val", "y", "--out", "z",
                     "--arms", "baseline,warp"]) == 1
    assert "unknown ablation arms" in capsys.readouterr().err


@pytest.mark.parametrize("arms", ["", "full,baseline,full"], ids=["empty", "repeated"])
def test_ablate_rejects_an_empty_or_repeated_arm_list(tmp_path, capsys, monkeypatch, arms):
    monkeypatch.setattr(cli, "run_ablate", lambda *a, **k: pytest.fail("ablate trained"))
    train_dir, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    assert dispatch(["ablate", "--data", str(train_dir), "--val", str(val_dir),
                     "--out", str(tmp_path / "ablate"), "--arms", arms]) == 1
    assert "error[usage]" in capsys.readouterr().err


@pytest.mark.parametrize("flag, seeds", [([], [5, 6]), (["--seed", "2"], [2, 3])],
                         ids=["file", "flag"])
def test_ablate_seed_flag_beats_file_and_unset_leaves_it(tmp_path, capsys, monkeypatch,
                                                         flag, seeds):
    train_dir, val_dir = synth_dirs(tmp_path, frames=40, sessions=1)
    config = tmp_path / "seed.cfg"
    config.write_text("seed = 5\n")
    trained = []

    def fake_run_ablate(model_cfg, train_cfg, train_sessions, val_sessions, arms,
                        seeds, out_dir=None):
        trained.extend(seeds)
        return [{"arm": arm, "params": 0, "val_ccc": 0.0, "seed": seed}
                for seed in seeds for arm in arms]

    monkeypatch.setattr(cli, "run_ablate", fake_run_ablate)
    assert dispatch(["ablate", "--data", str(train_dir), "--val", str(val_dir),
                     "--out", str(tmp_path / "ablate"), "--config", str(config),
                     "--seeds", "2", "--arms", "baseline", *flag]) == 0
    assert trained == seeds
    out = capsys.readouterr().out
    assert f"  seed = {seeds[0]}\n" in out and f"  seeds = {seeds}\n" in out
