"""End-to-end digests pinned at one BLAS thread count.

A seeded run's artifacts must hash to the sha256 values in ``PINS``:

- a 3-epoch desk ``train()`` on a bench-style corpus (4 sessions of 512
  frames plus 1 validation session): ``history.csv``, ``best.ckpt`` and
  ``last.ckpt``;
- ``predict_session`` of ``best.ckpt`` on the validation session and on a
  77-frame session whose last window is mostly padding;
- the output of ``engagekit gradcheck --seed 0``;
- the ``engagekit eval --report`` files of ``best.ckpt`` and of the oracle.

A change that should move no number keeps the pins. One that moves numbers
on purpose updates them and says so.

The run is a subprocess of this file with the six thread variables of
``bench/run.py`` at 1: the digests differ at 2 BLAS threads. They also
depend on the numpy build and on the CPU features that numpy's kernels and
OpenBLAS dispatch on, so ``PINNED_ON`` names those and the test is skipped
where they differ.

    python tests/test_pins.py OUT_DIR     # print this machine's digests
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import engagekit
from engagekit.cli import dispatch, resolve_configs
from engagekit.data import SynthConfig, load_session, synth_corpus, synth_session
from engagekit.metrics import predict_session
from engagekit.model import EngagementModel, load_checkpoint
from engagekit.training import train

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")

PINNED_ON = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "simd": ["X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR"],
}

PINS = {
    "history.csv": "a57b22097ad405ed1e08b42613251ef43cda080982f8182eae38354880219339",
    "best.ckpt": "c684f664fe7fdd725c3d18184d9e8c707eaeb2241c4dadd90d8c01d0dde059ef",
    "last.ckpt": "05c5c5df402269b30a6f7bb41537416f647c63dc3379659a618d5673f452ba5f",
    "predict_val": "e35de6b095f8eb3ad74aa5fb970926baf1886b777ca9e9fa621a4a0a7ee84506",
    "predict_77": "27a5c487cb5df42203b5d941871a625e4bd518c5dc1ecf711f67ebe9cad57018",
    "gradcheck": "f7e57f687b8ba86bbf73e8d1b379bfac2ee99ee2886dc4430747099079456e0c",
    "eval_best": "44b55fd93ee6893f8cf0f8b3782ecf817fc3022f959c497afd3db222777664e6",
    "eval_oracle": "57fff1cfa212a659a2601ee42b7aeeaea90a63227d7007f142bb2aa03fde9873",
}


def build() -> dict:
    """The numpy build and the SIMD targets found on this machine."""
    info = np.show_config(mode="dicts")
    blas = info["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}",
            "simd": info["SIMD Extensions"]["found"]}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def artifacts(out: Path) -> dict[str, str]:
    """Run the pinned pipeline under ``out``; returns artifact -> sha256."""
    synth = SynthConfig(sessions=4, num_frames=512, seed=1)
    synth_corpus(synth, out / "train")
    (val_dir,) = synth_corpus(SynthConfig(sessions=1, num_frames=512, seed=1), out / "val",
                              start_index=4)
    train_sessions = [load_session(p) for p in sorted((out / "train").glob("session_*"))]
    val_session = load_session(val_dir)
    model_cfg, train_cfg = resolve_configs("desk", None, {"epochs": 3})
    run = out / "run"
    train(EngagementModel(model_cfg, seed=0), train_sessions, [val_session], train_cfg,
          out_dir=run, quiet=True)
    digests = {name: sha256((run / name).read_bytes())
               for name in ("history.csv", "best.ckpt", "last.ckpt")}

    model, _ = load_checkpoint(run / "best.ckpt")
    short = synth_session(SynthConfig(sessions=1, num_frames=77, seed=1), 9)
    for name, session in (("predict_val", val_session), ("predict_77", short)):
        digests[name] = sha256(predict_session(model, session).astype("<f8").tobytes())

    def cli(*argv) -> bytes:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = dispatch(list(argv))
        assert code == 0, f"engagekit {' '.join(argv)} exited {code}"
        return stdout.getvalue().encode("utf-8")

    digests["gradcheck"] = sha256(cli("gradcheck", "--seed", "0"))
    for name, ckpt in (("eval_best", str(run / "best.ckpt")), ("eval_oracle", "oracle")):
        report = out / f"{name}.json"
        cli("eval", "--data", str(out / "val"), "--ckpt", ckpt, "--report", str(report))
        digests[name] = sha256(report.read_bytes())
    return digests


def test_seeded_run_is_bitwise_pinned(tmp_path):
    if build() != PINNED_ON:
        pytest.skip(f"pins taken on {PINNED_ON}, this is {build()}")
    src = Path(engagekit.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), **dict.fromkeys(THREAD_VARS, "1")}
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    moved = {name: got.get(name) for name in PINS if got.get(name) != PINS[name]}
    assert not moved and got.keys() == PINS.keys(), f"digests moved: {moved}"


if __name__ == "__main__":
    print(json.dumps(artifacts(Path(sys.argv[1])), sort_keys=True))
