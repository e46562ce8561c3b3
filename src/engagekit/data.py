"""Session storage and the synthetic dyadic-conversation generator.

This module names the five feature streams (``STREAMS``) and their default
dims, since the stored files are named after them; it imports nothing from
the package. A session directory holds a `manifest.json` plus one binary
matrix file per feature stream and per role (`target/`, `partner/`), and
optional frame labels in [0, 1] as a one-column matrix: the code that trains
or scores on labels asks for them, storage does not. The matrix container
("DATF") is 16 bytes of header -- magic, version, rows, cols, all
little-endian -- followed by row-major float32 payload, and round-trips
bit-exactly.

The generator replaces the private challenge recordings: each speaker gets a
smoothed mean-reverting latent engagement level in [0, 1], the partner's
latent is coupled to the target's, and every feature stream is a fixed
random affine readout of (latent, latent velocity, 1) plus observation
noise. Everything is a pure function of (seed, session index).
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np

STREAMS = ("opensmile", "w2vbert", "clip", "openface", "openpose")
DEFAULT_FEATURE_DIMS = {
    "opensmile": 88,
    "w2vbert": 1024,
    "clip": 512,
    "openface": 714,
    "openpose": 139,
}

DATF_MAGIC = b"DATF"
DATF_VERSION = 1
SCHEMA_VERSION = 1

LABELS_FILE = "labels"
ROLE_IDS = {"target": 0, "partner": 1}

MEAN_REVERSION = 0.05                   # pull toward 0.5 per frame
LATENT_NOISE = 0.05                     # innovation std of the walk
SMOOTH_WINDOW = 9                       # centered moving-average width
DISTORTION_FRAC = 0.35                  # portion of obs_noise that distorts the
                                        # perceived latent per stream (smooth,
                                        # common-mode; a linear probe cannot
                                        # average or project it away). 0.35
                                        # puts a frame-wise linear probe near
                                        # CCC 0.8 at the default dims.
FRAME_RATE_HZ = 25.0                    # synthetic; also a manifest's default


class DataFormatError(ValueError):
    """A file or directory does not satisfy the session storage contract."""


def _is_role_name(role) -> bool:
    """A role names a subdirectory of its session: a plain name, not '', '.'
    or '..', with no path separator (so no absolute path either)."""
    return (isinstance(role, str) and role not in ("", ".", "..")
            and "/" not in role and "\\" not in role)


def write_matrix(path, matrix) -> None:
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise DataFormatError(f"write_matrix: need a 2-d array, got shape {m.shape}")
    # One cast (none for float32 input), checked as stored: a finite value
    # beyond the float32 range would otherwise reach the file as inf.
    with np.errstate(over="ignore"):
        payload = np.ascontiguousarray(m, dtype="<f4")
    if payload.size and not np.all(np.isfinite(payload)):
        raise DataFormatError("write_matrix: refusing to store non-finite values")
    rows, cols = m.shape
    with open(path, "wb") as f:
        f.write(DATF_MAGIC)
        f.write(struct.pack("<III", DATF_VERSION, rows, cols))
        f.write(payload)


def read_matrix(path) -> np.ndarray:
    """Read one DATF matrix. The header is checked, and the file's size
    against it, before the payload is read straight into the result."""
    with open(path, "rb") as f:
        header = f.read(16)
        if len(header) < 16:
            raise DataFormatError(f"{path}: truncated header, {len(header)} bytes < 16")
        if header[:4] != DATF_MAGIC:
            raise DataFormatError(f"{path}: bad magic {header[:4]!r} at offset 0")
        version, rows, cols = struct.unpack_from("<III", header, 4)
        if version != DATF_VERSION:
            raise DataFormatError(f"{path}: unsupported version {version} at offset 4")
        expected = rows * cols * 4
        actual = os.fstat(f.fileno()).st_size - 16
        if actual != expected:
            raise DataFormatError(f"{path}: payload is {actual} bytes at offset 16, "
                                  f"expected {expected} for {rows}x{cols}")
        data = np.empty((rows, cols), dtype="<f4")
        got = f.readinto(data)
    if got != expected:
        raise DataFormatError(f"{path}: payload read {got} bytes at offset 16, "
                              f"expected {expected} for {rows}x{cols}")
    return data


@dataclass
class RoleData:
    streams: dict[str, np.ndarray]
    labels: np.ndarray | None = None


@dataclass
class SessionRecord:
    session_id: str
    num_frames: int
    roles: dict[str, RoleData]
    frame_rate_hz: float = FRAME_RATE_HZ

    def feature_dims(self) -> dict[str, int]:
        any_role = next(iter(self.roles.values()))
        return {name: arr.shape[1] for name, arr in any_role.streams.items()}

    def check_finite(self) -> None:
        """Raise DataFormatError naming the role, the stream and the first
        frame that holds a NaN or an infinity. Loading does not run this;
        callers run it once a result has gone non-finite."""
        for role, data in self.roles.items():
            for name, arr in data.streams.items():
                bad = np.flatnonzero(~np.isfinite(arr).all(axis=1))
                if bad.size:
                    raise DataFormatError(f"session '{self.session_id}' stream "
                                          f"'{role}/{name}' is not finite at frame "
                                          f"{int(bad[0])}")

    def validate(self) -> None:
        if "target" not in self.roles:
            raise DataFormatError(f"session '{self.session_id}' has no target role")
        dims = None
        for role, data in self.roles.items():
            if not _is_role_name(role):
                raise DataFormatError(f"session '{self.session_id}' role {role!r} is not "
                                      f"a plain directory name")
            missing = [s for s in STREAMS if s not in data.streams]
            if missing:
                raise DataFormatError(f"session '{self.session_id}' role '{role}' is "
                                      f"missing streams {missing}")
            for name, arr in data.streams.items():
                if arr.ndim != 2 or arr.shape[0] != self.num_frames:
                    raise DataFormatError(
                        f"session '{self.session_id}' stream '{role}/{name}' has "
                        f"{arr.shape[0]} rows, expected {self.num_frames}")
            role_dims = {name: arr.shape[1] for name, arr in data.streams.items()}
            if dims is None:
                dims = role_dims
            elif role_dims != dims:
                raise DataFormatError(f"session '{self.session_id}' role '{role}' has "
                                      f"stream dims {role_dims}, other roles have {dims}")
            if data.labels is not None:
                labels = np.asarray(data.labels)
                if labels.shape != (self.num_frames,):
                    raise DataFormatError(
                        f"session '{self.session_id}' labels for '{role}' have shape "
                        f"{labels.shape}, expected ({self.num_frames},)")
                bad = np.where(~((labels >= 0.0) & (labels <= 1.0)))[0]  # NaN too
                if bad.size:
                    raise DataFormatError(
                        f"session '{self.session_id}' label out of [0, 1] for role "
                        f"'{role}' at frame {int(bad[0])}: {float(labels[bad[0]])}")


def save_session(directory, record: SessionRecord) -> None:
    record.validate()
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "session_id": record.session_id,
        "frame_rate_hz": record.frame_rate_hz,
        "num_frames": record.num_frames,
        "feature_dims": record.feature_dims(),
        "roles": sorted(record.roles),
    }
    with open(directory / "manifest.json", "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    for role, data in record.roles.items():
        role_dir = directory / role
        role_dir.mkdir(exist_ok=True)
        for name, arr in data.streams.items():
            write_matrix(role_dir / f"{name}.datf", arr)
        labels_path = role_dir / f"{LABELS_FILE}.datf"
        if data.labels is not None:
            write_matrix(labels_path, np.asarray(data.labels).reshape(-1, 1))
        else:  # a labels file left by an earlier save would be read back
            labels_path.unlink(missing_ok=True)


def load_session(directory) -> SessionRecord:
    """Read one session directory. The manifest is not trusted: it must be a
    JSON object with the integer ``schema_version`` 1, a string ``session_id``,
    an integer ``num_frames``, ``feature_dims`` giving a positive integer for
    every stream, a ``roles`` list of plain directory names that includes
    ``target`` and, if present, a positive ``frame_rate_hz``. Labels files are
    optional. Any breach, like any bad stream file, raises DataFormatError
    naming it."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise DataFormatError(f"{directory}: no manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except ValueError as exc:  # also raised for bytes that are not UTF-8
        raise DataFormatError(f"{directory}: manifest.json is not UTF-8 JSON ({exc})") from None
    if not isinstance(manifest, dict):
        raise DataFormatError(f"{directory}: manifest.json is not a JSON object")
    version = manifest.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # refuses true and 1.0
        raise DataFormatError(f"{directory}: unsupported schema_version {version!r}")
    missing = [key for key in ("session_id", "num_frames", "feature_dims", "roles")
               if key not in manifest]
    if missing:
        raise DataFormatError(f"{directory}: manifest.json lacks {', '.join(missing)}")
    if not isinstance(manifest["session_id"], str):
        raise DataFormatError(f"{directory}: manifest session_id must be a string, "
                              f"got {manifest['session_id']!r}")
    num_frames, dims = manifest["num_frames"], manifest["feature_dims"]
    if type(num_frames) is not int or num_frames < 0:  # JSON true is an int to isinstance
        raise DataFormatError(f"{directory}: manifest num_frames must be a non-negative "
                              f"integer, got {num_frames!r}")
    if not (isinstance(dims, dict) and set(STREAMS) <= dims.keys()
            and all(type(dims[name]) is int and dims[name] >= 1 for name in STREAMS)):
        raise DataFormatError(f"{directory}: manifest feature_dims must give a positive "
                              f"integer for each of the streams {', '.join(STREAMS)}")
    if not isinstance(manifest["roles"], list) or "target" not in manifest["roles"]:
        raise DataFormatError(f"{directory}: manifest roles must be a list of names "
                              f"that includes 'target'")
    for role in manifest["roles"]:
        if not _is_role_name(role):
            raise DataFormatError(f"{directory}: manifest role {role!r} is not a plain "
                                  f"directory name")
    frame_rate = manifest.get("frame_rate_hz", FRAME_RATE_HZ)
    if type(frame_rate) not in (int, float) or not frame_rate > 0:
        raise DataFormatError(f"{directory}: manifest frame_rate_hz must be a positive "
                              f"number, got {frame_rate!r}")
    roles = {}
    for role in manifest["roles"]:
        role_dir = directory / role
        streams = {}
        for name in STREAMS:
            path = role_dir / f"{name}.datf"
            if not path.exists():
                raise DataFormatError(f"{directory}: missing stream file {role}/{name}.datf")
            arr = read_matrix(path)
            if arr.shape[1] != dims[name]:
                raise DataFormatError(f"{directory}: stream '{role}/{name}' has dim "
                                      f"{arr.shape[1]}, manifest says {dims[name]}")
            streams[name] = arr
        labels = None
        labels_path = role_dir / f"{LABELS_FILE}.datf"
        if labels_path.exists():
            labels = read_matrix(labels_path)
            if labels.shape[1] != 1:
                raise DataFormatError(f"{directory}: labels file {role}/{LABELS_FILE}.datf "
                                      f"has {labels.shape[1]} columns, expected 1")
            labels = labels[:, 0]
        roles[role] = RoleData(streams=streams, labels=labels)
    record = SessionRecord(
        session_id=manifest["session_id"],
        num_frames=num_frames,
        roles=roles,
        frame_rate_hz=float(frame_rate),
    )
    record.validate()
    return record


def load_sessions(directory) -> list[SessionRecord]:
    """Load every session directory (one manifest.json each) under `directory`."""
    directory = Path(directory)
    if (directory / "manifest.json").exists():
        return [load_session(directory)]
    out = [load_session(p.parent) for p in sorted(directory.glob("*/manifest.json"))]
    if not out:
        raise DataFormatError(f"{directory}: no session directories found")
    return out


@dataclass
class SynthConfig:
    sessions: int = 5
    num_frames: int = 2000
    seed: int = 0
    partner_coupling: float = 0.6       # in [-1, 1]
    obs_noise: float = 0.5              # observation noise scale (see DISTORTION_FRAC)
    quantize_levels: int = 0            # 0 = continuous labels
    feature_dims: dict = field(default_factory=lambda: dict(DEFAULT_FEATURE_DIMS))

    def __post_init__(self):
        if not -1.0 <= self.partner_coupling <= 1.0:
            raise ValueError("partner_coupling must be in [-1, 1]")
        if not 0.0 <= self.obs_noise < math.inf:
            raise ValueError(f"obs_noise must be finite and >= 0, got {self.obs_noise}")
        if self.quantize_levels < 0 or self.quantize_levels == 1:
            raise ValueError("quantize_levels must be 0 or >= 2")
        if self.num_frames < 1 or self.sessions < 1:
            raise ValueError("need at least one frame and one session")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _smooth(x: np.ndarray) -> np.ndarray:
    # Centered moving average, truncated (not shrunk) at the series edges;
    # well defined for any series length, including shorter than the window.
    idx = np.arange(x.size)
    lo = np.maximum(idx - (SMOOTH_WINDOW - 1) // 2, 0)
    hi = np.minimum(idx + SMOOTH_WINDOW // 2 + 1, x.size)
    csum = np.concatenate([[0.0], np.cumsum(x)])
    return (csum[hi] - csum[lo]) / (hi - lo)

def _latent_walk(rng: np.random.Generator, cfg: SynthConfig) -> np.ndarray:
    x = rng.uniform(0.2, 0.8)
    steps = rng.standard_normal(cfg.num_frames - 1) * LATENT_NOISE
    # The recurrence is sequential, so it runs per frame; on Python floats
    # with min/max it runs many times faster than np.clip on numpy scalars,
    # and both are the same float64 operations, so every value is bitwise equal.
    e = [x]
    for step in steps.tolist():
        x = min(max(x + MEAN_REVERSION * (0.5 - x) + step, 0.0), 1.0)
        e.append(x)
    return _smooth(np.array(e))


def _readout_matrix(seed: int, role: str, stream: str, dim: int) -> np.ndarray:
    # Fixed per (seed, role, stream): every session of one corpus shares the
    # same latent-to-feature mapping, otherwise there is nothing to learn.
    rng = np.random.default_rng([seed, ROLE_IDS[role], STREAMS.index(stream), 0xA])
    return rng.standard_normal((3, dim))


def _quantize(labels: np.ndarray, levels: int) -> np.ndarray:
    if levels == 0:
        return labels
    return np.round(labels * (levels - 1)) / (levels - 1)


def synth_session(cfg: SynthConfig, session_index: int) -> SessionRecord:
    """Deterministic synthetic dyad: every byte is a function of
    (cfg.seed, session_index)."""
    if session_index < 0:
        raise ValueError(f"session_index must be >= 0, got {session_index}")
    rng_target = np.random.default_rng([cfg.seed, session_index, 1])
    rng_partner = np.random.default_rng([cfg.seed, session_index, 2])
    target_latent = _latent_walk(rng_target, cfg)
    indep = _latent_walk(rng_partner, cfg)
    rho = cfg.partner_coupling
    partner_latent = np.clip(rho * target_latent + (1.0 - abs(rho)) * indep, 0.0, 1.0)

    distortion_std = cfg.obs_noise * DISTORTION_FRAC
    roles = {}
    for role, latent in (("target", target_latent), ("partner", partner_latent)):
        streams = {}
        for name in STREAMS:
            dim = cfg.feature_dims[name]
            readout = _readout_matrix(cfg.seed, role, name, dim)
            noise_rng = np.random.default_rng(
                [cfg.seed, session_index, ROLE_IDS[role], STREAMS.index(name), 0xF])
            # Each stream perceives a smoothly distorted latent: the stream's
            # whole readout moves with e + nu, so neither averaging the dims
            # nor any projection can separate nu from e within the stream.
            # High-dim white noise, by contrast, averages out entirely.
            observed = latent
            if distortion_std > 0 and cfg.num_frames > 1:
                nu = _latent_walk(noise_rng, cfg)
                nu = (nu - nu.mean()) / max(nu.std(), 1e-12)
                observed = latent + distortion_std * nu
            velocity = np.diff(observed, prepend=observed[0])
            drivers = np.stack([observed, velocity, np.ones_like(observed)], axis=1)
            # Built in place, noise first: addition commutes, so the bytes
            # equal readout + noise without its full-size temporaries.
            stream = noise_rng.standard_normal((cfg.num_frames, dim))
            stream *= cfg.obs_noise
            stream += drivers @ readout
            streams[name] = stream
        roles[role] = RoleData(streams=streams,
                               labels=_quantize(latent, cfg.quantize_levels))
    return SessionRecord(
        session_id=f"synth-{cfg.seed:04d}-{session_index:03d}",
        num_frames=cfg.num_frames,
        roles=roles,
    )


def synth_corpus(cfg: SynthConfig, out_dir, start_index: int = 0) -> list[Path]:
    """Write cfg.sessions synthetic sessions under out_dir; returns the paths.

    The latent-to-feature readouts depend on the seed only, so corpora from
    one seed share a feature space: generate train and validation splits with
    the same seed and disjoint index ranges (e.g. indices 0..4 and 5).
    """
    out_dir = Path(out_dir)
    paths = []
    for i in range(start_index, start_index + cfg.sessions):
        record = synth_session(cfg, i)
        path = out_dir / f"session_{i:03d}"
        save_session(path, record)
        paths.append(path)
    with open(out_dir / "synth_config.json", "w", encoding="utf-8") as f:
        json.dump({**asdict(cfg), "start_index": start_index}, f, indent=2, sort_keys=True)
    return paths

