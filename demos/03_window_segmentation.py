"""How a session timeline becomes overlapping context windows and how the
supervised cores stitch back into a full series without gaps or overlap."""

import numpy as np

from engagekit.data import SynthConfig, synth_session
from engagekit.segmentation import (make_segments, core_mask, window_labels,
                                    reassemble)

# 100 frames, 32-frame cores, 16 frames of context on each side.
T_, core, context = 100, 32, 16
segments = make_segments(T_, core, context)
print(f"{T_} frames -> {len(segments)} windows of {core + 2 * context} frames each")
for k, seg in enumerate(segments):
    print(f"  window {k}: span [{seg.start}, {seg.end}) "
          f"core [{seg.core_start}, {seg.core_end}) "
          f"pads l={max(0, -seg.start)} r={max(0, seg.end - T_)} "
          f"supervised={core_mask(seg).sum()}")

# The last window's core is ragged (100 = 3*32 + 4): only 4 frames are real,
# the rest of its core slots are masked out of the loss and the stitch.

# Round trip: pass each window's labels straight through as "predictions";
# stitching the cores reproduces the original series exactly.
dims = {"opensmile": 4, "w2vbert": 5, "clip": 3, "openface": 4, "openpose": 2}
session = synth_session(SynthConfig(sessions=1, num_frames=T_, seed=0,
                                    feature_dims=dims), 0)
preds = [window_labels(session, seg) for seg in segments]
series = reassemble(preds, segments, T_)
print(f"stitched == labels: {np.array_equal(series, session.roles['target'].labels)}")
