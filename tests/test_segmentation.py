import numpy as np
import pytest

from engagekit.data import SynthConfig, synth_session
from engagekit.segmentation import (make_segments, window_indices, core_mask,
                                    window_labels, reassemble,
                                    build_window_batch, build_mixed_batch)

from conftest import TOY_FEATURE_DIMS


def tiny_session(num_frames, seed=0):
    cfg = SynthConfig(sessions=1, num_frames=num_frames, seed=seed,
                      feature_dims=dict(TOY_FEATURE_DIMS))
    return synth_session(cfg, 0)


def test_make_segments_paper_geometry():
    segs = make_segments(96, 32, 32)
    assert len(segs) == 3
    assert [(s.core_start, s.core_end) for s in segs] == [(0, 32), (32, 64), (64, 96)]
    # window k spans [k*s - l, k*s + s + l): always s + 2l = 96 frames
    assert [(s.start, s.end) for s in segs] == [(-32, 64), (0, 96), (32, 128)]
    assert all(s.window_len == 96 for s in segs)


def test_make_segments_single_exact_window():
    (seg,) = make_segments(32, 32, 0)
    assert (seg.start, seg.end) == (0, 32)
    assert (seg.core_start, seg.core_end) == (0, 32)
    assert seg.start >= 0 and seg.end <= 32     # no padding on either side


def test_make_segments_ragged_tail():
    segs = make_segments(40, 32, 32)
    assert len(segs) == 2
    second = segs[1]
    assert (second.core_start, second.core_end) == (32, 40)
    assert second.core_len == 8
    mask = core_mask(second)
    assert mask.sum() == 8              # 24 of the 32 core slots are masked off
    assert mask[32] and not mask[40]


def test_make_segments_count_formula():
    rng = np.random.default_rng(0)
    for _ in range(50):
        T_ = int(rng.integers(1, 300))
        s = int(rng.integers(1, 50))
        assert len(make_segments(T_, s, int(rng.integers(0, 20)))) == -(-T_ // s)


def test_make_segments_validation():
    with pytest.raises(ValueError):
        make_segments(0, 4, 2)
    with pytest.raises(ValueError):
        make_segments(10, 0, 2)
    with pytest.raises(ValueError):
        make_segments(10, 4, -1)


def test_cores_partition_timeline():
    rng = np.random.default_rng(1)
    for _ in range(50):
        T_ = int(rng.integers(1, 200))
        s = int(rng.integers(1, 40))
        segs = make_segments(T_, s, int(rng.integers(0, 10)))
        covered = np.concatenate([np.arange(g.core_start, g.core_end) for g in segs])
        assert np.array_equal(covered, np.arange(T_))


def test_extract_window_interior_is_raw_slice():
    session = tiny_session(64)
    seg = make_segments(64, 8, 4)[3]    # fully interior
    assert seg.start >= 0 and seg.end <= 64
    window = build_window_batch(session, [seg]).target
    for name, arr in window.items():
        raw = session.roles["target"].streams[name][seg.start:seg.end]
        assert np.array_equal(arr[0], raw)


def test_extract_window_edge_replication():
    session = tiny_session(16)
    seg = make_segments(16, 8, 2)[0]
    window = build_window_batch(session, [seg]).target
    for name, arr in window.items():
        first = session.roles["target"].streams[name][0]
        assert np.array_equal(arr[0, 0], first)
        assert np.array_equal(arr[0, 1], first)


def test_extract_cores_reproduce_session():
    rng = np.random.default_rng(2)
    for T_ in rng.integers(1, 200, size=12):
        session = tiny_session(int(T_), seed=int(T_))
        segs = make_segments(int(T_), 16, 8)
        stream = session.roles["target"].streams["clip"]
        windows = build_window_batch(session, segs).target["clip"]
        cores = [w[g.core_offset:g.core_offset + g.core_len] for w, g in zip(windows, segs)]
        assert np.array_equal(np.concatenate(cores), stream)


def test_reassemble_identity_with_passthrough_labels():
    rng = np.random.default_rng(3)
    for _ in range(25):
        T_ = int(rng.integers(1, 150))
        s = int(rng.integers(1, 40))
        l = int(rng.integers(0, 20))
        session = tiny_session(T_, seed=T_)
        segs = make_segments(T_, s, l)
        preds = [window_labels(session, g) for g in segs]
        out = reassemble(preds, segs, T_)
        assert np.array_equal(out, session.roles["target"].labels)


def test_reassemble_output_length_and_tail_discard():
    session = tiny_session(40)
    segs = make_segments(40, 32, 32)
    preds = [np.arange(g.window_len, dtype=float) for g in segs]
    out = reassemble(preds, segs, 40)
    assert out.shape == (40,)
    assert np.array_equal(out[:32], np.arange(32, 64, dtype=float))
    assert np.array_equal(out[32:], np.arange(32, 40, dtype=float))


def test_reassemble_single_short_session_uses_central_slice():
    session = tiny_session(5)
    (seg,) = make_segments(5, 32, 32)
    pred = np.arange(seg.window_len, dtype=float)
    out = reassemble([pred], [seg], 5)
    assert np.array_equal(out, pred[32:37])


def test_reassemble_count_mismatch():
    segs = make_segments(10, 4, 0)
    with pytest.raises(ValueError):
        reassemble([np.zeros(4)], segs, 10)


def test_reassemble_checks_coverage_not_values():
    segs = make_segments(10, 4, 1)
    preds = [np.full(g.window_len, np.nan) for g in segs]
    assert np.isnan(reassemble(preds, segs, 10)).all()
    with pytest.raises(ValueError, match="do not tile"):
        reassemble(preds[:2], segs[:2], 10)


def test_mixed_batch_equals_stacked_windows():
    sessions = [tiny_session(21, seed=1), tiny_session(9, seed=2)]
    items = [(s, g) for s in sessions for g in make_segments(s.num_frames, 8, 4)]
    assert items[0][1].start < 0 and items[-1][1].end > items[-1][0].num_frames
    batch = build_mixed_batch(items)
    for role in ("target", "partner"):
        streams = [s.roles[role].streams for s, _ in items]
        stacked = getattr(batch, role)
        assert list(stacked) == list(streams[0])
        for name, arr in stacked.items():
            assert arr.dtype == streams[0][name].dtype
            expected = [st[name][window_indices(g, s.num_frames)]
                        for st, (s, g) in zip(streams, items)]
            assert np.array_equal(arr, np.stack(expected))
    assert np.array_equal(batch.labels, np.stack([window_labels(s, g) for s, g in items]))
    assert np.array_equal(batch.mask, np.stack([core_mask(g) for _, g in items]))


def test_window_batch_shapes():
    session = tiny_session(30)
    segs = make_segments(30, 8, 4)
    batch = build_window_batch(session, segs)
    assert batch.labels.shape == (4, 16)
    assert batch.mask.shape == (4, 16)
    assert batch.target["clip"].shape == (4, 16, TOY_FEATURE_DIMS["clip"])
    assert batch.partner["openpose"].shape == (4, 16, TOY_FEATURE_DIMS["openpose"])
    # mask marks exactly the real core frames
    assert batch.mask.sum() == 30
