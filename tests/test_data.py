import hashlib
import json
import re
import shutil
import struct

import numpy as np
import pytest

from engagekit.data import (DataFormatError, SynthConfig, SessionRecord, RoleData,
                            write_matrix, read_matrix, save_session, load_session,
                            load_sessions, synth_session, synth_corpus,
                            LATENT_NOISE, MEAN_REVERSION, _latent_walk, _smooth)
from engagekit.model import STREAMS

from conftest import TOY_FEATURE_DIMS


def toy_synth(**overrides) -> SynthConfig:
    base = dict(sessions=1, num_frames=120, seed=7,
                feature_dims=dict(TOY_FEATURE_DIMS))
    base.update(overrides)
    return SynthConfig(**base)


# ---------------------------------------------------------------- matrix format

def test_zero_row_matrix_is_header_only(tmp_path):
    path = tmp_path / "empty.datf"
    write_matrix(path, np.zeros((0, 5), dtype=np.float32))
    assert path.stat().st_size == 16
    out = read_matrix(path)
    assert out.shape == (0, 5)


def test_matrix_file_size_arithmetic(tmp_path):
    path = tmp_path / "m.datf"
    write_matrix(path, np.arange(6.0).reshape(2, 3))
    assert path.stat().st_size == 16 + 24


def test_matrix_round_trip_bitwise(tmp_path, rng):
    m = rng.standard_normal((96, 88)).astype(np.float32)
    path = tmp_path / "m.datf"
    write_matrix(path, m)
    out = read_matrix(path)
    assert out.dtype == np.float32
    assert m.tobytes() == out.tobytes()


def test_matrix_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.datf"
    path.write_bytes(b"XXXX" + b"\x00" * 12)
    with pytest.raises(DataFormatError, match="offset 0"):
        read_matrix(path)
    write_matrix(path, np.ones((2, 2)))
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(DataFormatError, match="offset 16"):
        read_matrix(path)
    path.write_bytes(b"\x00" * 7)
    with pytest.raises(DataFormatError):
        read_matrix(path)
    # A header claiming 2^30 x 2^20 values (4 PiB) is refused by its size
    # check, before any array is allocated for it.
    path.write_bytes(b"DATF" + struct.pack("<III", 1, 2**30, 2**20) + b"\x00" * 8)
    with pytest.raises(DataFormatError, match="offset 16"):
        read_matrix(path)


def test_matrix_rejects_non_finite(tmp_path):
    with pytest.raises(DataFormatError):
        write_matrix(tmp_path / "nan.datf", np.array([[np.nan]]))


@pytest.mark.parametrize("value", [1e39, -1e39])
def test_matrix_rejects_values_beyond_float32(tmp_path, value):
    # Finite in float64, infinite once stored as float32.
    path = tmp_path / "big.datf"
    with pytest.raises(DataFormatError, match="non-finite"):
        write_matrix(path, [[value, 1.0]])
    assert not path.exists()


# ---------------------------------------------------------------- session store

def test_labels_file_with_two_columns_is_refused(tmp_path):
    record = synth_session(toy_synth(num_frames=12), 0)
    save_session(tmp_path / "s0", record)
    write_matrix(tmp_path / "s0" / "target" / "labels.datf", np.full((12, 2), 0.5))
    with pytest.raises(DataFormatError, match="2 columns") as info:
        load_session(tmp_path / "s0")
    assert str(tmp_path / "s0") in str(info.value)


def test_session_round_trip(tmp_path):
    record = synth_session(toy_synth(), 0)
    save_session(tmp_path / "s0", record)
    loaded = load_session(tmp_path / "s0")
    assert loaded.session_id == record.session_id
    assert loaded.num_frames == record.num_frames
    for role in ("target", "partner"):
        for name in STREAMS:
            assert np.array_equal(loaded.roles[role].streams[name],
                                  record.roles[role].streams[name].astype(np.float32))
        assert np.array_equal(loaded.roles[role].labels,
                              record.roles[role].labels.astype(np.float32))


def test_session_rejects_out_of_range_label(tmp_path):
    record = synth_session(toy_synth(), 0)
    record.roles["target"].labels[17] = 1.5
    with pytest.raises(DataFormatError, match="frame 17"):
        save_session(tmp_path / "bad", record)


def test_session_rejects_short_stream(tmp_path):
    record = synth_session(toy_synth(), 0)
    record.roles["target"].streams["clip"] = record.roles["target"].streams["clip"][:-1]
    with pytest.raises(DataFormatError, match="clip"):
        record.validate()


def test_session_rejects_missing_stream_file(tmp_path):
    record = synth_session(toy_synth(), 0)
    save_session(tmp_path / "s0", record)
    (tmp_path / "s0" / "partner" / "openface.datf").unlink()
    with pytest.raises(DataFormatError, match="openface"):
        load_session(tmp_path / "s0")


# Each form of a role name that is not a plain directory name, with the
# directory it names relative to the session's parent.
ROLES_OUTSIDE = {
    "absolute": (None, "outside"),
    "separator": ("nested/partner", "s0/nested/partner"),
    "dot": (".", "s0"),
    "dotdot": ("..", "."),
}


@pytest.mark.parametrize("form", ROLES_OUTSIDE)
def test_load_session_refuses_a_role_outside_its_directory(tmp_path, form):
    role, where = ROLES_OUTSIDE[form]
    role = str(tmp_path / where) if role is None else role
    save_session(tmp_path / "s0", synth_session(toy_synth(num_frames=12), 0))
    # Valid stream files wait where the role points, so only the name is at fault.
    shutil.copytree(tmp_path / "s0" / "partner", tmp_path / where, dirs_exist_ok=True)
    manifest_path = tmp_path / "s0" / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest_path.write_text(json.dumps({**manifest, "roles": ["target", role]}))
    with pytest.raises(DataFormatError, match="is not a plain directory name") as info:
        load_session(tmp_path / "s0")
    assert str(tmp_path / "s0") in str(info.value) and repr(role) in str(info.value)


@pytest.mark.parametrize("form", ROLES_OUTSIDE)
def test_save_session_refuses_a_role_outside_its_directory(tmp_path, form):
    role, where = ROLES_OUTSIDE[form]
    role = str(tmp_path / where) if role is None else role
    record = synth_session(toy_synth(num_frames=12), 0)
    record.roles[role] = record.roles.pop("partner")
    with pytest.raises(DataFormatError, match=f"role {re.escape(repr(role))} is not a plain"):
        save_session(tmp_path / "s0", record)
    assert list(tmp_path.iterdir()) == []


def test_save_session_removes_labels_the_record_no_longer_has(tmp_path):
    record = synth_session(toy_synth(num_frames=12), 0)
    save_session(tmp_path / "s0", record)
    for data in record.roles.values():
        data.labels = None
    save_session(tmp_path / "s0", record)
    loaded = load_session(tmp_path / "s0")
    assert all(data.labels is None for data in loaded.roles.values())


def test_load_sessions_directory(tmp_path):
    synth_corpus(toy_synth(sessions=3), tmp_path)
    sessions = load_sessions(tmp_path)
    assert [s.session_id for s in sessions] == [f"synth-0007-{i:03d}" for i in range(3)]
    with pytest.raises(DataFormatError):
        load_sessions(tmp_path / "nothing_here")


# ---------------------------------------------------------------- generator

def test_synth_deterministic_in_memory():
    a = synth_session(toy_synth(), 3)
    b = synth_session(toy_synth(), 3)
    for role in ("target", "partner"):
        assert np.array_equal(a.roles[role].labels, b.roles[role].labels)
        for name in STREAMS:
            assert (a.roles[role].streams[name].tobytes()
                    == b.roles[role].streams[name].tobytes())
    c = synth_session(toy_synth(), 4)
    assert not np.array_equal(a.roles["target"].labels, c.roles["target"].labels)


def test_synth_refuses_negative_session_index(tmp_path):
    with pytest.raises(ValueError, match=r"session_index must be >= 0, got -1"):
        synth_session(toy_synth(), -1)
    with pytest.raises(ValueError, match=r"session_index must be >= 0, got -2"):
        synth_corpus(toy_synth(sessions=3), tmp_path / "out", start_index=-2)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("obs_noise", [-1.0, float("nan"), float("inf")])
def test_synth_config_refuses_obs_noise_not_finite_and_non_negative(obs_noise):
    with pytest.raises(ValueError, match="obs_noise must be finite and >= 0"):
        toy_synth(obs_noise=obs_noise)


def test_non_finite_stream_value_is_named_only_when_checked():
    session = synth_session(toy_synth(num_frames=20), 0)
    session.check_finite()
    session.roles["partner"].streams["openface"][7, 2] = np.inf
    session.validate()                      # loading does not look at values
    with pytest.raises(DataFormatError, match=r"session 'synth-0007-000' stream "
                                              r"'partner/openface' is not finite at frame 7"):
        session.check_finite()


def test_synth_corpus_byte_identical(tmp_path):
    synth_corpus(toy_synth(sessions=2), tmp_path / "a")
    synth_corpus(toy_synth(sessions=2), tmp_path / "b")
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()


def test_synth_corpus_golden_bytes(tmp_path):
    # Pins the generator's output. synth_config.json is left out: it echoes
    # the config, not the generated data.
    synth_corpus(toy_synth(sessions=2), tmp_path)
    digest = hashlib.sha256()
    for path in sorted(p for p in tmp_path.rglob("*")
                       if p.is_file() and p.name != "synth_config.json"):
        digest.update(path.relative_to(tmp_path).as_posix().encode() + b"\0"
                      + path.read_bytes())
    assert digest.hexdigest() == ("4a625276284af32e29c6338c27ef793e"
                                  "d2716af96e93cbfeaae79ac3b3281f2a")


def _reference_latent_walk(rng, num_frames):
    # The walk as first written, np.clip on one numpy scalar per frame.
    # Returns the smoothed walk and the raw one.
    e = np.empty(num_frames)
    e[0] = rng.uniform(0.2, 0.8)
    steps = rng.standard_normal(num_frames - 1) * LATENT_NOISE
    for t in range(num_frames - 1):
        e[t + 1] = np.clip(e[t] + MEAN_REVERSION * (0.5 - e[t]) + steps[t], 0.0, 1.0)
    return _smooth(e), e


@pytest.mark.parametrize("num_frames", [1, 2, 120, 5000])
def test_latent_walk_equals_np_clip_reference(num_frames):
    for seed in range(3):
        cfg = toy_synth(num_frames=num_frames, seed=seed)
        expected, raw = _reference_latent_walk(np.random.default_rng(seed), num_frames)
        got = _latent_walk(np.random.default_rng(seed), cfg)
        assert got.dtype == np.float64
        assert got.tobytes() == expected.tobytes()
        if num_frames == 5000:
            # the clip is exercised, not only the free recurrence
            assert np.any((raw == 0.0) | (raw == 1.0))


def test_synth_labels_in_range_and_smooth():
    record = synth_session(toy_synth(num_frames=500), 0)
    labels = record.roles["target"].labels
    assert np.all(labels >= 0.0) and np.all(labels <= 1.0)
    assert labels.std() > 0.01  # the latent actually moves


def test_synth_noiseless_features_are_exact_affine():
    cfg = toy_synth(obs_noise=0.0, quantize_levels=0, num_frames=200)
    record = synth_session(cfg, 0)
    labels = record.roles["target"].labels
    # labels equal the latent exactly; features are affine in (e, de, 1)
    velocity = np.diff(labels, prepend=labels[0])
    drivers = np.stack([labels, velocity, np.ones_like(labels)], axis=1)
    for name in STREAMS:
        stream = record.roles["target"].streams[name]
        coef, *_ = np.linalg.lstsq(drivers, stream, rcond=None)
        assert np.max(np.abs(drivers @ coef - stream)) < 1e-9


def test_synth_latent_recoverable_by_ols():
    cfg = toy_synth(obs_noise=0.0, num_frames=300)
    record = synth_session(cfg, 0)
    features = np.concatenate([record.roles["target"].streams[n] for n in STREAMS], axis=1)
    latent = record.roles["target"].labels
    coef, *_ = np.linalg.lstsq(features, latent, rcond=None)
    assert np.max(np.abs(features @ coef - latent)) < 1e-8


def test_synth_quantization_lattice():
    record = synth_session(toy_synth(quantize_levels=25, num_frames=400), 0)
    labels = record.roles["target"].labels
    lattice = np.arange(25) / 24.0
    assert np.all(np.isin(labels, lattice))
    assert len(np.unique(labels)) > 3


def test_synth_partner_coupling_correlates():
    record = synth_session(toy_synth(num_frames=1500, partner_coupling=0.8), 0)
    t = record.roles["target"].labels
    p = record.roles["partner"].labels
    assert np.corrcoef(t, p)[0, 1] > 0.5

