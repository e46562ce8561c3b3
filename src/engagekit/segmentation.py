"""Windowed segmentation of a session timeline and exact reassembly.

A session of T frames is cut into ceil(T/s) windows. Window k supervises the
core frames [k*s, min((k+1)*s, T)) and additionally sees a context halo of l
frames on each side, so every window has the fixed length s + 2l. Frames
outside [0, T) are filled by edge replication. Cores tile the timeline with
no overlap, which makes reassembly a straight copy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Segment:
    """One inference window. `start`/`end` are in session coordinates and may
    spill outside [0, T); `core_*` never do."""

    start: int
    end: int
    core_start: int
    core_end: int

    @property
    def window_len(self) -> int:
        return self.end - self.start

    @property
    def core_len(self) -> int:
        return self.core_end - self.core_start

    @property
    def core_offset(self) -> int:
        """Window-local position of the first core frame (== context_len)."""
        return self.core_start - self.start


def make_segments(num_frames: int, core_len: int, context_len: int) -> list[Segment]:
    if num_frames < 1:
        raise ValueError(f"num_frames must be >= 1, got {num_frames}")
    if core_len < 1 or context_len < 0:
        raise ValueError(f"need core_len >= 1 and context_len >= 0, got "
                         f"{core_len}/{context_len}")
    n = -(-num_frames // core_len)  # ceil
    return [Segment(start=core_start - context_len, end=core_start + core_len + context_len,
                    core_start=core_start, core_end=min(core_start + core_len, num_frames))
            for core_start in range(0, n * core_len, core_len)]


def window_indices(segment: Segment, num_frames: int) -> np.ndarray:
    """Frame indices for the window with edge replication outside [0, T)."""
    return np.clip(np.arange(segment.start, segment.end), 0, num_frames - 1)


def core_mask(segment: Segment) -> np.ndarray:
    """Boolean [window_len] mask of the supervised (real core) positions."""
    mask = np.zeros(segment.window_len, dtype=bool)
    off = segment.core_offset
    mask[off:off + segment.core_len] = True
    return mask


def window_labels(session, segment: Segment) -> np.ndarray:
    """The target's labels at the window's frames, edge-replicated."""
    labels = session.roles["target"].labels
    if labels is None:
        raise ValueError(f"role 'target' of session '{session.session_id}' has no labels")
    return labels[window_indices(segment, session.num_frames)]


@dataclass
class WindowBatch:
    """A stack of equal-length windows ready for the model: per-stream arrays
    of shape [B, L, dim] for each role, plus window labels and the supervised
    core mask, both [B, L]."""

    target: dict[str, np.ndarray]
    partner: dict[str, np.ndarray]
    labels: np.ndarray
    mask: np.ndarray
    segments: list[Segment]


def build_mixed_batch(items) -> WindowBatch:
    """Stack (session, segment) pairs -- possibly from different sessions --
    into one WindowBatch. All windows share the length s + 2l, so each
    role's stream is one [B, L, dim] array, gathered row by row in place."""
    items = list(items)
    if not items:
        raise ValueError("empty window batch")
    indices = [window_indices(seg, session.num_frames) for session, seg in items]
    length = len(indices[0])

    def gather(role: str) -> dict[str, np.ndarray]:
        out = {}
        for name in items[0][0].roles["target"].streams:
            rows = [session.roles[role].streams[name] for session, _ in items]
            batch = np.empty((len(rows), length, rows[0].shape[1]),
                             dtype=np.result_type(*rows))
            for dst, src, idx in zip(batch, rows, indices):
                # `idx` is already clipped to the stream, so mode="clip" only
                # spares numpy the buffered copy that mode="raise" makes.
                np.take(src, idx, axis=0, out=dst, mode="clip")
            out[name] = batch
        return out

    has_partner = all("partner" in session.roles for session, _ in items)
    return WindowBatch(
        target=gather("target"),
        partner=gather("partner") if has_partner else None,
        labels=np.stack([window_labels(session, seg) for session, seg in items]),
        mask=np.stack([core_mask(seg) for _, seg in items]),
        segments=[seg for _, seg in items],
    )


def build_window_batch(session, segments: list[Segment]) -> WindowBatch:
    return build_mixed_batch((session, seg) for seg in segments)


def reassemble(per_segment_preds, segments: list[Segment], num_frames: int) -> np.ndarray:
    """Stitch per-window predictions back to a [T] series by copying each
    segment's core region; context and padded tail frames are discarded."""
    if len(per_segment_preds) != len(segments):
        raise ValueError(f"got {len(per_segment_preds)} prediction arrays for "
                         f"{len(segments)} segments")
    out = np.empty(num_frames)
    covered = np.zeros(num_frames, dtype=bool)
    for pred, seg in zip(per_segment_preds, segments):
        pred = np.asarray(pred).reshape(seg.window_len, -1)[:, 0]
        off = seg.core_offset
        out[seg.core_start:seg.core_end] = pred[off:off + seg.core_len]
        covered[seg.core_start:seg.core_end] = True
    if not covered.all():
        raise ValueError("segment cores do not tile the timeline")
    return out
