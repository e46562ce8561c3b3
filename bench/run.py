"""engagekit benchmark: desk training, whole-session inference and
paper-scale windows, timed end to end and per layer.

    python3 bench/run.py --workload desk-train --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one process each
    python3 bench/run.py --smoke                          # tiny sizes: is every metric emitted?

Run from the root of a checkout. engagekit is imported from the checkout's
`src/`, never from an installed copy. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. Exit code 0 means the correctness gate passed, 1 that it failed, 2
that the benchmark could not start.
"""

import os

# Pinned before numpy is imported: single-threaded BLAS and OpenMP. A value
# already set in the environment is kept, and the run is then a labelled
# variant whose numbers are not compared with the baseline.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.dont_write_bytecode = True
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-train", "session-infer", "paper-window")
# The workloads BENCHMARK.json gates. paper-window runs on request only: at
# about 2.5 s a step its runs would cost the gated ones their length.
GATED = ("desk-train", "session-infer")


def cannot_start(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import engagekit from this checkout's sources, or exit 2."""
    if not (SRC / "engagekit" / "__init__.py").is_file():
        cannot_start(f"no engagekit sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import engagekit
    if Path(engagekit.__file__).resolve().parent != SRC / "engagekit":
        cannot_start(f"imported engagekit from {engagekit.__file__}, not from {SRC}")
    return engagekit


def environment() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    threads = {v: os.environ[v] for v in THREAD_VARS}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": threads,
        "variant": sorted(f"{k}={v}" for k, v in threads.items() if v != "1"),
    }


def show(rows) -> None:
    for name, value, unit, detail in rows:
        print(f"  {name:<36} {value:>14.6g} {unit:<8} {detail}")


def run_workload(args) -> int:
    engagekit = import_program()
    from tracer import Tracer
    import workloads as W

    sizes = W.TINY if args.size == "tiny" else W.FULL
    env = environment()
    print(f"engagekit {engagekit.__version__} benchmark: workload {args.workload}, "
          f"seed {args.seed}, {args.seconds:g} s, trace {args.trace}, size {args.size}")
    print(f"env: python {env['python']}, numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']} ({env['cpus_usable']} usable), "
          f"threads {' '.join(f'{k}={v}' for k, v in env['threads'].items())}")
    if env["variant"]:
        print(f"VARIANT (not comparable with the baseline): {', '.join(env['variant'])}")

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer(bool(args.trace), engagekit.tensor.tape_size)
    outcome = W.Outcome()
    workload = W.WORKLOADS[args.workload](args.seed, sizes, work)
    try:
        setup_s = []
        for _ in range(1 if args.trace else sizes.setup_repeats):
            t0 = time.perf_counter()
            workload.setup(tracer)
            setup_s.append(time.perf_counter() - t0)
        print(f"inputs: fingerprint {workload.fingerprint()}")
        if args.trace:
            # Alternate untraced and traced operations, so that a drift in
            # machine speed during the run does not bias the tracing overhead.
            deadline = time.perf_counter() + args.seconds
            while time.perf_counter() < deadline:
                workload.measure(0, outcome, W.UNTRACED)
                workload.measure(0, outcome, tracer)
        else:
            workload.measure(args.seconds, outcome, W.UNTRACED)
        workload.check(outcome, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rows = [("error_rate", outcome.failed / max(outcome.attempted, 1), "ratio",
             f"{outcome.failed} failed of {outcome.attempted} {workload.op} operations")]
    if args.trace:
        summary = tracer.summary()
        metrics = W.layer_metrics(summary, workload.model_cfg, workload.op_seconds(False),
                                  workload.op_seconds(True))
        units = W.PER_LAYER
        print(f"per layer ({summary['ops']} traced root spans; ms are means per call):")
        show((k, v, units[k], "") for k, v in metrics.items())
    else:
        e2e, named = workload.end_to_end()
        e2e["setup_s"] = (float(sorted(setup_s)[len(setup_s) // 2]),
                          f"median of {len(setup_s)} set-ups")
        e2e["peak_rss_mb"] = (peak_rss_mb, "whole process")
        units = W.END_TO_END
        metrics = {k: v for k, (v, _) in e2e.items()}
        print("end to end:")
        show((k, v, units[k], detail) for k, (v, detail) in e2e.items())
        print(f"as named for {args.workload}:")
        show((k, v, unit, detail) for k, (v, unit, detail) in named.items())
    show(rows)
    for failure in outcome.failures[:5]:
        print(f"FAILED OP: {failure}")
    for problem in outcome.problems:
        print(f"INCORRECT: {problem}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def child(workload: str, args, trace: int, size: str, seconds: float):
    """Run one workload in its own process; returns (exit code, stdout)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace),
           "--size", size]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        rc, out = child(name, args, args.trace, args.size, args.seconds)
        print(out, end="")
        code = max(code, rc)
        if rc not in (0, 1):
            combined["correct"] = False
            continue
        result = last_json(out)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def smoke(args) -> int:
    """Tiny sizes, both trace modes, every workload: each run must pass its
    gate and emit exactly the metrics BENCHMARK.json names."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    names = [w["name"] for w in spec["workloads"]]
    bad = [] if names == list(GATED) else [f"workloads {names} != {GATED}"]
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            rc, out = child(name, args, trace, "tiny", 0.5)
            tag = f"{name} trace {trace}"
            if rc != 0:
                bad.append(f"{tag}: exit {rc}\n{out}")
                continue
            result = last_json(out)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                bad.append(f"{tag}: metrics differ from BENCHMARK.json: "
                           f"{sorted(set(got.items()) ^ set(want[trace].items()))}")
            if result["attempted"] < 1 or not result["correct"]:
                bad.append(f"{tag}: {result}")
            print(f"smoke {tag}: {len(got)} metrics, attempted {result['attempted']}")
    for problem in bad:
        print(f"SMOKE FAILED: {problem}")
    print("smoke: ok" if not bad else f"smoke: {len(bad)} problem(s)")
    return 0 if not bad else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if args.smoke:
        import_program()
        return smoke(args)
    if args.workload == "all":
        import_program()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
