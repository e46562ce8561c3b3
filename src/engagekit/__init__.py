"""Engagement estimation for dyadic conversations from multimodal features.

Submodules:
    tensor        minimal autograd tensors (float64 by default)
    nn            linear / attention / encoder-layer building blocks
    model         the dialogue model, the solo baseline, checkpoints
    segmentation  context windows over a session timeline and core stitching
    metrics       MSE, concordance correlation coefficient, session reports
    training      Adam, EMA shadow weights, the seeded train loop
    data          binary session storage and the synthetic dyad generator
    cli           `engagekit` command-line entry point
"""

from .tensor import Tensor, backward, grad_check, no_grad
from .model import (ModelConfig, EngagementModel, BaselineModel, param_count,
                    save_checkpoint, load_checkpoint)
from .segmentation import Segment, make_segments, reassemble
from .metrics import mse, ccc, ccc_loss, evaluate_sessions, EvalReport
from .training import TrainConfig, Adam, EmaState, train, evaluate_with_ema
from .data import (STREAMS, DEFAULT_FEATURE_DIMS, SessionRecord, SynthConfig,
                   synth_session, synth_corpus, load_session, save_session,
                   write_matrix, read_matrix)

__version__ = "0.1.0"

__all__ = [
    "Tensor", "backward", "grad_check", "no_grad",
    "ModelConfig", "EngagementModel", "BaselineModel", "param_count",
    "save_checkpoint", "load_checkpoint", "STREAMS", "DEFAULT_FEATURE_DIMS",
    "Segment", "make_segments", "reassemble",
    "mse", "ccc", "ccc_loss", "evaluate_sessions", "EvalReport",
    "TrainConfig", "Adam", "EmaState", "train", "evaluate_with_ema",
    "SessionRecord", "SynthConfig", "synth_session", "synth_corpus",
    "load_session", "save_session", "write_matrix", "read_matrix",
]
