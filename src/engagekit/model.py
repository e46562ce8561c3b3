"""Engagement estimation model for dyadic conversations.

Five per-frame feature streams per speaker (``data.STREAMS``, which this
module imports with their default dims) are projected to a shared width,
encoded per stream, grouped into audio / video blocks and fused within each
group. The partner's fused features then query the target's features through
cross-attention (partner as Q, normalized target as K/V). Every block is
pre-norm, so the residual stream is left unnormalized; the head closes it
with a final LayerNorm before its MLP emits one engagement value per frame.
Flags turn the group-fusion encoders and the partner cross-attention off
independently, which gives the ablation arms; a solo baseline variant
(per-stream encoders + one wide fusion layer) is provided as its own class.

Both architectures share one base, which alone decides the model dtype: the
blocks build in float64 and it casts each top-level block to ``cfg.dtype``
once, as the block is assigned. Its ``forward`` checks the input bundles
before any layer runs, then runs the architecture's own feature path to the
fused 5d features, applies the prediction head and clamps to [0, 1] in eval
mode. ``MODELS`` maps a checkpoint's arch name to its class.

Session scoring has its own path: ``project_session`` returns a
``windows(lo, hi)`` cutter whose batches ``metrics.predict_session`` feeds to
``forward``. A stream's input projection is frame-local, so each role's
streams are projected once over the session's edge-padded timeline and every
window is a view of it, where training gathers raw windows and projects them
(the weight gradient needs the raw rows). Stitching keeps only each window's
core rows, which ``forward`` derives from its config (the ``core_len`` rows
after ``context_len``), so the last layer of each stack that is next read
row by row computes only those rows (``TransformerEncoderLayer`` and
``PartnerCrossLayer`` take ``keep``): the partner's last fusion layers under
one cross layer, the last cross layer, the target's last fusion layers
without a partner cross, and the baseline's last fusion layer. The head then
reads core rows only. All predictions are bitwise those of the window path.

Parameters are named by attribute path (``nn.Module.named_parameters``), such
as ``audio_cross.0.ffn.lin1.bias``; the target and the partner each have their
own fusion, ``target_fusion.*`` and ``partner_fusion.*``.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import tensor as T
from .data import DEFAULT_FEATURE_DIMS, STREAMS, DataFormatError
from .nn import (Linear, LayerNorm, MultiHeadAttention, FeedForward, Module,
                 TransformerEncoderLayer, PositionalEncoding, keep_rows)
from .tensor import Tensor

AUDIO_STREAMS = ("opensmile", "w2vbert")
VIDEO_STREAMS = ("clip", "openface", "openpose")

CHECKPOINT_MAGIC = b"DATC"
CHECKPOINT_VERSION = 4                      # v4: the v3 layout, config without three removed knobs


@dataclass
class ModelConfig:
    """Architecture hyperparameters; window geometry rides along because the
    model and the segmenter must agree on it. The defaults are the published
    setup: d=512, window 96 = 32 core + 32 context each side, one cross
    layer, 8 heads, dropout 0.2."""

    model_dim: int = 512                    # unified projection width d
    cross_layers: int = 1                   # partner cross-attention stack depth
    heads: int = 8
    dropout: float = 0.2
    core_len: int = 32                      # supervised frames per window
    context_len: int = 32                   # context halo on each side
    feature_dims: dict = field(default_factory=lambda: dict(DEFAULT_FEATURE_DIMS))
    use_group_fusion: bool = True
    use_partner_cross: bool = True
    encoder_depth: int = 1                  # per-stream and group encoder depth
    ffn_mult: int = 4
    dtype: str = "float64"

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if not isinstance(self.feature_dims, dict) or set(self.feature_dims) != set(STREAMS):
            raise ValueError(f"feature_dims must have exactly the streams {STREAMS}")
        # Types next: a checkpoint may hold any JSON value, and true is an int to isinstance.
        ints = [(k, getattr(self, k)) for k in ("model_dim", "cross_layers", "heads", "core_len",
                                                "context_len", "encoder_depth", "ffn_mult")]
        for name, value in ints + [(f"feature_dims.{k}", v) for k, v in self.feature_dims.items()]:
            if type(value) is not int:
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.dropout, (int, float)) or type(self.dropout) is bool:
            raise TypeError(f"dropout must be a number, got {self.dropout!r}")
        for name in ("use_group_fusion", "use_partner_cross"):
            if type(getattr(self, name)) is not bool:
                raise TypeError(f"{name} must be true or false, got {getattr(self, name)!r}")
        d, h = self.model_dim, self.heads
        if d < 1 or h < 1:
            raise ValueError(f"need model_dim >= 1 and heads >= 1, got {d} and {h}")
        if d % h != 0:  # then heads divide the 2d and 3d group widths too
            raise ValueError(f"heads ({h}) must divide model_dim ({d})")
        if self.core_len < 1 or self.context_len < 0:
            raise ValueError("need core_len >= 1 and context_len >= 0")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if any(v < 1 for v in self.feature_dims.values()):
            raise ValueError("feature dims must be positive")
        if self.cross_layers < 1 or self.encoder_depth < 1:
            raise ValueError("cross_layers and encoder_depth must be >= 1")
        if self.ffn_mult < 1:
            raise ValueError(f"need ffn_mult >= 1, got {self.ffn_mult}")
        if self.dtype not in ("float64", "float32"):
            raise ValueError(f"dtype must be float64 or float32, got {self.dtype}")

    @property
    def window_len(self) -> int:
        return self.core_len + 2 * self.context_len

    @property
    def audio_dim(self) -> int:
        return 2 * self.model_dim

    @property
    def video_dim(self) -> int:
        return 3 * self.model_dim

    @property
    def head_in_dim(self) -> int:
        return 5 * self.model_dim

    @property
    def head_hidden_dim(self) -> int:
        return self.model_dim

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


def as_bundle(streams: dict, dtype) -> dict[str, Tensor]:
    """Wrap raw per-stream arrays as constant tensors in the model dtype."""
    out = {}
    for name in STREAMS:
        if name not in streams:
            raise KeyError(f"feature bundle is missing stream '{name}'")
        out[name] = T.constant(np.asarray(streams[name], dtype=dtype))
    return out


def _check_bundle(bundle: dict[str, Tensor], cfg: ModelConfig, who: str) -> int:
    length = None
    for name in STREAMS:
        t = bundle[name]
        want = cfg.feature_dims[name]
        if t.shape[-1] != want:
            raise T.ShapeError(f"{who} stream '{name}' has dim {t.shape[-1]}, "
                               f"config expects {want}")
        if length is None:
            length = t.shape[-2]
        elif t.shape[-2] != length:
            raise T.ShapeError(f"{who} stream '{name}' has length {t.shape[-2]}, "
                               f"others have {length}")
    return length


PARTNER_REQUIRED = "model was built with partner cross-attention; a partner bundle is required"


def _stack(layers, x: Tensor, train: bool, rng, keep: slice) -> Tensor:
    """Encoder layers in order; only the last computes just the rows ``keep``,
    since the ones before feed its keys and values."""
    for i, layer in enumerate(layers):
        x = layer(x, train, rng, keep if i == len(layers) - 1 else slice(None))
    return x


class ProjectedWindows(dict):
    """A batch of one role's windows cut from its projected session timeline
    (``project_session``): per stream a ``[B, L, d]`` tensor that has been
    through the input projection but not the positional add. ``forward``
    scores only each window's core rows."""


class StreamEncoders(Module):
    """Per-stream linear projection to d, sinusoidal positional add, then a
    stack of standard encoder layers per stream."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        d = cfg.model_dim
        self.proj = {s: Linear(cfg.feature_dims[s], d, rng) for s in STREAMS}
        self.layers = {s: [TransformerEncoderLayer(d, cfg.heads, cfg.dropout, rng,
                                                   cfg.ffn_mult)
                           for _ in range(cfg.encoder_depth)]
                       for s in STREAMS}
        self.positional = PositionalEncoding(cfg.window_len, d)

    def __call__(self, bundle, train: bool, rng, keep: slice = slice(None)) -> dict[str, Tensor]:
        """Projection, positional add and the encoder stack, per stream; each
        stack's last layer computes only the window rows ``keep``. Raw stream
        bundles are projected here; ``ProjectedWindows`` were projected once
        for their whole session."""
        if not isinstance(bundle, ProjectedWindows):
            bundle = {s: self.proj[s](bundle[s]) for s in STREAMS}
        return {s: _stack(self.layers[s], self.positional(bundle[s]), train, rng, keep)
                for s in STREAMS}


class GroupFusion(Module):
    """Stream encoders plus concat into audio [.., L, 2d] / video [.., L, 3d]
    groups; with group fusion enabled each group passes through its own
    encoder stack, otherwise the raw concatenations flow through. Only the
    last layers, the group layers or else the stream layers, compute just
    the window rows ``keep``."""

    def __init__(self, cfg: ModelConfig, rng: np.random.Generator):
        self.streams = StreamEncoders(cfg, rng)
        self.audio_layers: list[TransformerEncoderLayer] = []
        self.video_layers: list[TransformerEncoderLayer] = []
        if cfg.use_group_fusion:
            for _ in range(cfg.encoder_depth):
                self.audio_layers.append(TransformerEncoderLayer(
                    cfg.audio_dim, cfg.heads, cfg.dropout, rng, cfg.ffn_mult))
                self.video_layers.append(TransformerEncoderLayer(
                    cfg.video_dim, cfg.heads, cfg.dropout, rng, cfg.ffn_mult))

    def __call__(self, bundle: dict[str, Tensor], train: bool = False,
                 rng=None, keep: slice = slice(None)) -> tuple[Tensor, Tensor]:
        enc = self.streams(bundle, train, rng, slice(None) if self.audio_layers else keep)
        audio = T.concat([enc[s] for s in AUDIO_STREAMS], axis=-1)
        video = T.concat([enc[s] for s in VIDEO_STREAMS], axis=-1)
        return (_stack(self.audio_layers, audio, train, rng, keep),
                _stack(self.video_layers, video, train, rng, keep))


class PartnerCrossLayer(Module):
    """Cross-attention encoder layer with the partner as query.

    Only the target stream is normalized and refined:

        kv  = Norm(target)
        mid = CrossAttn(q=partner, k=kv, v=kv) + target
        out = mid + FFN(Norm(mid))

    The query is deliberately left un-normalized and the first residual adds
    the raw target, so the layer is not a vanilla pre-norm block. It holds
    the same parameters as a ``TransformerEncoderLayer`` of its width.

    Every output row comes from one query row, so ``keep`` (a slice of the
    window rows) computes only those rows; keys and values still span the
    whole window. The partner may come already cut to the ``keep`` rows.
    Only no-grad scoring keeps fewer than all rows.
    """

    def __init__(self, dim: int, heads: int, dropout_rate: float, rng,
                 ffn_mult: int = 4):
        self.norm_kv = LayerNorm(dim)
        self.attn = MultiHeadAttention(dim, heads, dropout_rate, rng)
        self.norm_ffn = LayerNorm(dim)
        self.ffn = FeedForward(dim, ffn_mult * dim, dim, dropout_rate, rng)

    def __call__(self, target: Tensor, partner: Tensor, train: bool = False,
                 rng=None, keep: slice = slice(None)) -> Tensor:
        residual = keep_rows(target, keep)
        if partner.shape == target.shape:
            partner = keep_rows(partner, keep)
        elif partner.shape != residual.shape:
            raise T.ShapeError(f"cross layer: partner {partner.shape} must match target "
                               f"{target.shape} or its kept rows {residual.shape}")
        kv = self.norm_kv(target)
        mid = T.add(self.attn(partner, kv, train, rng), residual)
        return T.add(mid, self.ffn(self.norm_ffn(mid), train, rng))


class PredictionHead(Module):
    """Final LayerNorm, then a ``FeedForward`` emitting one value per frame:
    5d -> hidden -> 1.

    The blocks feeding the head are all pre-norm, so their residual stream
    carries the raw feature offsets unscaled; the norm here is the final norm
    a pre-norm stack needs (Xiong et al., 2020). It draws no random numbers,
    so every other parameter keeps its seeded init.
    """

    def __init__(self, cfg: ModelConfig, rng):
        self.norm = LayerNorm(cfg.head_in_dim)
        self.mlp = FeedForward(cfg.head_in_dim, cfg.head_hidden_dim, 1, cfg.dropout, rng)

    def __call__(self, x: Tensor, train: bool = False, rng=None) -> Tensor:
        return self.mlp(self.norm(x), train, rng)


class _Architecture(Module):
    """The parts both architectures share, and the one owner of the model
    dtype: ``__init__`` seeds the init generator and calls the subclass's
    ``_build(rng)``, which builds its float64 blocks and ``head`` in a fixed
    draw order and passes each through ``_owned`` as it assigns it. A subclass
    also defines ``_features(target, partner, train, rng, keep)``, its path
    from the checked bundles to the fused ``[.., L, 5d]`` features the head
    reads, and ``_stream_encoders()``, the ``StreamEncoders`` of each role it
    reads. ``_features`` returns only the window rows ``keep``: it passes
    ``keep`` to the last layer of whichever stack is next read row by row, so
    that layer computes only those rows and every layer before it still sees
    the whole window."""

    def __init__(self, cfg: ModelConfig, seed: int = 0):
        self.cfg = cfg
        self._build(np.random.default_rng(seed))

    def _owned(self, module):
        """Cast a freshly built float64 block to the model dtype, once. Done
        per block as ``_build`` assigns it, a float32 model holds at most one
        block in float64 besides itself, not a float64 copy of everything."""
        for _, p in module.named_parameters():
            p.data = p.data.astype(self.cfg.np_dtype, copy=False)
        return module

    @property
    def core_len(self) -> int:
        return self.cfg.core_len

    @property
    def context_len(self) -> int:
        return self.cfg.context_len

    def forward(self, target: dict, partner: dict | None = None,
                train: bool = False, rng=None) -> Tensor:
        """Bundles of ``[L, dim]`` or ``[B, L, dim]`` arrays in, ``[.., L, 1]``
        out. In eval mode (train=False) the output is clamped to the label
        range [0, 1]; in train mode it is left free so gradients survive
        saturation. Session scoring passes the ``ProjectedWindows`` of a
        ``project_session`` instead, in eval mode under ``no_grad``; the
        output then holds only each window's ``core_len`` core rows, which
        follow its ``context_len`` leading context rows."""
        if isinstance(target, ProjectedWindows):
            keep = slice(self.cfg.context_len, self.cfg.context_len + self.cfg.core_len)
        else:
            target = as_bundle(target, self.cfg.np_dtype)
            length, keep = _check_bundle(target, self.cfg, "target"), slice(None)
            if "partner" in self.roles:
                if partner is None:
                    raise ValueError(PARTNER_REQUIRED)
                partner = as_bundle(partner, self.cfg.np_dtype)
                len_p = _check_bundle(partner, self.cfg, "partner")
                if len_p != length:
                    raise T.ShapeError(f"target length {length} != partner length {len_p}")
        y = self.head(self._features(target, partner, train, rng, keep), train, rng)
        if not train:
            y = T.constant(np.clip(y.data, 0.0, 1.0))
        return y

    @property
    def roles(self) -> tuple[str, ...]:
        """The roles whose streams the model reads."""
        return tuple(self._stream_encoders())

    def project_session(self, session):
        """Project each role's streams once per frame over the edge-padded
        timeline of frames [-context, n * core + context) of the session's n
        windows; the gemm always has at least L rows. Window k is timeline
        rows [k * core, k * core + L), so the returned ``windows(lo, hi)``
        cuts windows lo..hi-1 as (target, partner) ``ProjectedWindows`` views
        of those rows, with no gather; the partner is ``None`` if the model
        does not read it. The stream dims are not checked here:
        ``metrics.check_session`` checks them before a session is scored."""
        cfg = self.cfg
        num_windows = -(-session.num_frames // cfg.core_len)
        frames = np.arange(-cfg.context_len, num_windows * cfg.core_len + cfg.context_len)
        views: dict[str, dict[str, np.ndarray]] = {}
        for role, encoder in self._stream_encoders().items():
            streams = session.roles[role].streams
            views[role] = {}
            for s in STREAMS:
                # mode="clip" replicates the edge frames, as window_indices does
                raw = np.take(streams[s], frames, axis=0, mode="clip").astype(
                    cfg.np_dtype, copy=False)
                timeline = encoder.proj[s](T.constant(raw))
                views[role][s] = sliding_window_view(
                    timeline.data, cfg.window_len, axis=0).swapaxes(1, 2)[::cfg.core_len]

        def windows(lo: int, hi: int):
            cut = {role: ProjectedWindows({s: T.constant(view[lo:hi])
                                           for s, view in role_views.items()})
                   for role, role_views in views.items()}
            return cut["target"], cut.get("partner")

        return windows

    def predict_windows(self, batch) -> np.ndarray:
        """Eval-mode forward over a WindowBatch; returns clamped [B, L]."""
        with T.no_grad():
            y = self.forward(batch.target, batch.partner, train=False)
        return y.data[..., 0]


class EngagementModel(_Architecture):
    """Full dyadic model: group fusion per speaker, partner-query cross
    attention per group, concat, MLP head."""

    arch = "dialogue"

    def _build(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        self.target_fusion = self._owned(GroupFusion(cfg, rng))
        self.partner_fusion = (self._owned(GroupFusion(cfg, rng))
                               if cfg.use_partner_cross else None)
        self.audio_cross: list[PartnerCrossLayer] = []
        self.video_cross: list[PartnerCrossLayer] = []
        if cfg.use_partner_cross:
            for _ in range(cfg.cross_layers):
                self.audio_cross.append(self._owned(PartnerCrossLayer(
                    cfg.audio_dim, cfg.heads, cfg.dropout, rng, cfg.ffn_mult)))
                self.video_cross.append(self._owned(PartnerCrossLayer(
                    cfg.video_dim, cfg.heads, cfg.dropout, rng, cfg.ffn_mult)))
        self.head = self._owned(PredictionHead(cfg, rng))

    def _stream_encoders(self) -> dict[str, StreamEncoders]:
        if not self.cfg.use_partner_cross:
            return {"target": self.target_fusion.streams}
        return {"target": self.target_fusion.streams, "partner": self.partner_fusion.streams}

    def _features(self, target, partner, train, rng, keep) -> Tensor:
        cfg = self.cfg
        if not cfg.use_partner_cross:
            return T.concat(self.target_fusion(target, train, rng, keep), axis=-1)
        audio, video = self.target_fusion(target, train, rng)
        # The partner's fused features are the cross layers' queries, so one
        # cross layer reads only their kept rows.
        p_audio, p_video = self.partner_fusion(
            partner, train, rng, keep if cfg.cross_layers == 1 else slice(None))
        # Only the last layer's output reaches the head, so only it keeps
        # fewer rows; the ones before feed its keys and values.
        rows = [slice(None)] * (cfg.cross_layers - 1) + [keep]
        for layer, r in zip(self.audio_cross, rows):
            audio = layer(audio, p_audio, train, rng, r)
        for layer, r in zip(self.video_cross, rows):
            video = layer(video, p_video, train, rng, r)
        return T.concat([audio, video], axis=-1)


class BaselineModel(_Architecture):
    """Solo baseline: per-stream encoders, concat all five streams to 5d,
    one wide fusion encoder stack, MLP head. No partner input, no grouping."""

    arch = "baseline"

    def _build(self, rng: np.random.Generator) -> None:
        cfg = self.cfg
        self.streams = self._owned(StreamEncoders(cfg, rng))
        self.fusion = [self._owned(TransformerEncoderLayer(cfg.head_in_dim, cfg.heads,
                                                           cfg.dropout, rng, cfg.ffn_mult))
                       for _ in range(cfg.encoder_depth)]
        self.head = self._owned(PredictionHead(cfg, rng))

    def _stream_encoders(self) -> dict[str, StreamEncoders]:
        return {"target": self.streams}

    def _features(self, target, partner, train, rng, keep) -> Tensor:
        enc = self.streams(target, train, rng)
        fused = T.concat([enc[s] for s in STREAMS], axis=-1)
        return _stack(self.fusion, fused, train, rng, keep)


MODELS = {cls.arch: cls for cls in (EngagementModel, BaselineModel)}


def param_count(cfg: ModelConfig, arch: str = "dialogue") -> int:
    """Closed-form trainable parameter total for a config; must agree with
    the enumerated parameter store of the constructed model."""
    d = cfg.model_dim
    enc = TransformerEncoderLayer.param_count
    streams = sum(Linear.param_count(cfg.feature_dims[s], d) for s in STREAMS)
    streams += 5 * cfg.encoder_depth * enc(d, cfg.ffn_mult)
    head = (LayerNorm.param_count(cfg.head_in_dim)
            + FeedForward.param_count(cfg.head_in_dim, cfg.head_hidden_dim, 1))
    if arch == "baseline":
        return streams + cfg.encoder_depth * enc(cfg.head_in_dim, cfg.ffn_mult) + head

    groups = enc(cfg.audio_dim, cfg.ffn_mult) + enc(cfg.video_dim, cfg.ffn_mult)
    per_role = streams + (cfg.encoder_depth * groups if cfg.use_group_fusion else 0)
    if not cfg.use_partner_cross:
        return per_role + head
    # a cross layer holds the same parameter set as an encoder layer of its width
    return 2 * per_role + cfg.cross_layers * groups + head


def save_checkpoint(path, model, extra: dict | None = None) -> None:
    """Single-file checkpoint: magic, version, JSON manifest (arch, config and
    the ``{name, shape}`` of each parameter in walk order), then each
    parameter, little-endian in the config's dtype, so a model round-trips
    bit-exactly. Small parameters are gathered in a 512 KiB write buffer; a
    larger one is written straight from its array. The file is written to
    ``<path>.tmp`` and moved over ``path`` only when complete, so a failed
    write leaves an existing checkpoint as it was."""
    params = model.named_parameters()
    manifest = {
        "arch": model.arch,
        "config": asdict(model.cfg),
        "params": [{"name": name, "shape": list(p.data.shape)} for name, p in params],
    }
    if extra:
        manifest["extra"] = extra
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    dtype = np.dtype(model.cfg.dtype).newbyteorder("<")
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb", buffering=1 << 19) as f:
            f.write(CHECKPOINT_MAGIC + struct.pack("<IQ", CHECKPOINT_VERSION, len(manifest_bytes))
                    + manifest_bytes)
            for _, p in params:
                f.write(np.ascontiguousarray(p.data, dtype=dtype))
        tmp.replace(path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path):
    """Rebuild the model a checkpoint describes; returns (model, manifest).

    Nothing on disk is trusted. The header must be complete and of this
    version, and is checked, with the manifest's length against the file
    size, before anything else is read. The manifest must be a JSON object
    naming a known arch and only ModelConfig fields. Its params must be exactly the model's ``{name,
    shape}`` list, in walk order, and the blob exactly that many values of the
    config's dtype, all finite; each parameter is read straight into its own
    array. Any breach, or a file that cannot be read,
    raises DataFormatError naming the file, and the parameter where there is
    one."""
    def bad(message: str) -> DataFormatError:
        return DataFormatError(f"{path}: {message}")

    try:
        f = open(path, "rb")
    except OSError as exc:
        raise bad(f"cannot read checkpoint ({exc.strerror or exc})") from None
    with f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(16)
        if len(header) < 16:
            raise bad(f"truncated header ({len(header)} bytes, need 16)")
        if header[:4] != CHECKPOINT_MAGIC:
            raise bad(f"bad checkpoint magic {header[:4]!r} at offset 0")
        version, mlen = struct.unpack_from("<IQ", header, 4)
        if version != CHECKPOINT_VERSION:
            raise bad(f"unsupported checkpoint version {version}, expected {CHECKPOINT_VERSION}")
        header_end = 16 + mlen
        if header_end > size:
            raise bad(f"truncated manifest (need {header_end} bytes, have {size})")
        try:
            manifest = json.loads(f.read(mlen).decode("utf-8"))
        except ValueError as exc:
            raise bad(f"manifest is not UTF-8 JSON ({exc})") from None
        if not isinstance(manifest, dict) or not {"arch", "config", "params"} <= manifest.keys():
            raise bad("manifest is not a JSON object with arch, config and params")
        arch, entries = manifest["arch"], manifest["params"]
        if not isinstance(arch, str) or arch not in MODELS:
            raise bad(f"unknown arch {arch!r} (have: {', '.join(MODELS)})")
        try:  # unknown keys and a non-object config raise TypeError here
            cfg = ModelConfig(**manifest["config"])
        except (TypeError, ValueError) as exc:
            raise bad(f"config is not a valid ModelConfig ({exc})") from None
        if not isinstance(entries, list):
            raise bad("manifest params must be a list of {name, shape} objects")

        model = MODELS[arch](cfg, seed=0)
        params = model.named_parameters()
        expected = [{"name": name, "shape": list(p.data.shape)} for name, p in params]
        if entries != expected:  # report the first entry that differs
            i = next(i for i, want in enumerate(expected + [None])
                     if i == len(entries) or entries[i] != want)
            got = entries[i] if i < len(entries) else "missing"
            want = (f"'{expected[i]['name']}' of shape {expected[i]['shape']}"
                    if i < len(expected) else "no parameter")
            raise bad(f"manifest params entry {i} is {got}, the model expects {want} there")
        dtype = np.dtype(cfg.dtype).newbyteorder("<")
        num_values = model.num_parameters()
        if size - header_end != dtype.itemsize * num_values:
            raise bad(f"parameter blob has {size - header_end} bytes, expected "
                      f"{dtype.itemsize * num_values} ({num_values} {cfg.dtype} values "
                      f"from offset {header_end})")

        offset = header_end
        for name, p in params:  # each parameter is read straight into its own array
            data = np.empty(p.data.shape, dtype=dtype)
            got = f.readinto(data)
            if got != data.nbytes:
                raise bad(f"parameter '{name}' read {got} bytes at offset {offset}, "
                          f"expected {data.nbytes}")
            offset += got
            p.data = data.astype(cfg.np_dtype, copy=False)
            if not np.all(np.isfinite(p.data)):
                raise bad(f"parameter '{name}' holds non-finite values")
    return model, manifest
