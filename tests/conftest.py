import json
import struct

import numpy as np
import pytest

from engagekit.model import ModelConfig, STREAMS, save_checkpoint

TOY_FEATURE_DIMS = {
    "opensmile": 5,
    "w2vbert": 7,
    "clip": 6,
    "openface": 4,
    "openpose": 3,
}


def toy_config(**overrides) -> ModelConfig:
    base = dict(
        model_dim=8,
        heads=2,
        dropout=0.0,
        core_len=4,
        context_len=2,
        feature_dims=dict(TOY_FEATURE_DIMS),
    )
    base.update(overrides)
    return ModelConfig(**base)


def random_bundle(cfg: ModelConfig, length: int, rng: np.random.Generator,
                  batch: int | None = None) -> dict:
    shape = (length,) if batch is None else (batch, length)
    return {s: rng.standard_normal(shape + (cfg.feature_dims[s],)) for s in STREAMS}


def damaged_checkpoint(path, model, version: int | None = None,
                       drop: str | None = None, edit=None, keep: int | None = None,
                       patch=None) -> None:
    """Save ``model`` to ``path``, then overwrite the header's version field,
    remove one parameter's entry from the manifest, replace the manifest by
    ``edit(manifest)``, cut the file to its first ``keep`` bytes and/or
    replace the resulting bytes by ``patch(raw)``. The blob is left as it
    was written."""
    save_checkpoint(path, model)
    raw = path.read_bytes()
    (mlen,) = struct.unpack_from("<Q", raw, 8)
    manifest = json.loads(raw[16:16 + mlen])
    if drop is not None:
        manifest["params"] = [e for e in manifest["params"] if e["name"] != drop]
    if edit is not None:
        manifest = edit(manifest)
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    head = raw[:8] if version is None else raw[:4] + struct.pack("<I", version)
    damaged = (head + struct.pack("<Q", len(manifest_bytes)) + manifest_bytes
               + raw[16 + mlen:])
    damaged = damaged[:keep]
    path.write_bytes(damaged if patch is None else patch(damaged))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
