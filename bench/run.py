"""fgabloch benchmark: run one workload in this process, check it, print its metrics.

    python3 bench/run.py --workload propagate-1d --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
The workload is repeated until ``--seconds`` of work is done, at least once,
and every repetition passes through the workload's correctness gate.

``--trace 0`` reports the end-to-end metrics: the median time of one
repetition in calibration units (see bench/calibrate.py; the raw wall times
go to the record), set-up time (median of SETUP_PROBES fresh processes),
peak RSS of this process and the accuracy against the workload's oracle.  ``--trace 1``
repeats the workload with every layer's public functions wrapped (see
bench/tracing.py) and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record --
machine facts, gate values, extra accuracy figures, SHA-256 hashes of every
output file and, when traced, the spans -- goes to ``.bench_out/<workload>/``.
"""

import os

PINNED_THREADS = 1
# BLAS and OpenMP read these once, when numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = str(PINNED_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("propagate-1d", "convergence-1d", "separable-2d")
REQUIRED_FILES = ("src/fgabloch/__init__.py", "configs/propagate.ini",
                  "configs/convergence.ini")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def effective_threads(np) -> int:
    """OS threads of this process after a BLAS call has started its pool."""
    a = np.random.default_rng(0).random((256, 256))
    a @ a
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("Threads:"):
                return int(line.split()[1])
    raise RuntimeError("no Threads line in /proc/self/status")


def git_sha() -> str:
    """HEAD commit read from .git, or 'unavailable' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


def machine_info(np, scipy, threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "threads_pinned": PINNED_THREADS,
        "threads_effective": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": sys.version.split()[0],
        "git_sha": git_sha(),
    }


def measure_setup(workload: str, seed: int) -> list:
    """Seconds from process start to ready, for SETUP_PROBES fresh processes."""
    samples = []
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), workload, str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                t1 = time.perf_counter()
                proc.stdout.read()
                code = proc.wait(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        samples.append(t1 - t0)
    return samples


def output_hashes(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.suffix in (".wf", ".csv")}


def run_once(run, inputs, out_dir: Path, tracer):
    """One timed run of a workload; returns (start, end, Outcome or None, error)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    t0 = time.perf_counter()
    if tracer is not None:
        tracer.open("workload", "pipeline")
    outcome, error = None, None
    try:
        outcome = run(inputs, out_dir)
    except Exception:           # a failing run is counted as failed, not fatal
        error = traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.close()
    return t0, time.perf_counter(), outcome, error


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [f for f in REQUIRED_FILES if not (ROOT / f).is_file()]
    if missing:
        print(f"bench: not a checkout of fgabloch, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np
    import scipy
    import workloads
    import tracing
    from calibrate import Calibrator

    threads = effective_threads(np)
    if threads > PINNED_THREADS:
        print(f"bench: {threads} threads after a BLAS call, pinned to "
              f"{PINNED_THREADS}; refusing to measure", file=sys.stderr)
        return 3
    machine = machine_info(np, scipy, threads)

    setup_samples = [] if args.trace else measure_setup(args.workload, args.seed)
    configure, run = workloads.WORKLOADS[args.workload]
    inputs = configure(args.seed)
    work_dir = OUT / args.workload
    out_dir = work_dir / "files"
    per_span = tracing.span_cost() if args.trace else 0.0

    reps, layer_runs, hashes, spans = [], [], {}, []
    calibrator = None if args.trace else Calibrator()
    started = time.perf_counter()
    while True:
        tracer = tracing.Tracer().install([workloads]) if args.trace else None
        try:
            if calibrator is None:
                t0, t1, outcome, error = run_once(run, inputs, out_dir, tracer)
            else:
                with calibrator:
                    t0, t1, outcome, error = run_once(run, inputs, out_dir, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        passed = outcome is not None and outcome.passed
        rep = {"wall_s": t1 - t0}
        if calibrator is not None:
            rep["norm_wall"] = calibrator.normalized(t0, t1)
            rep["calibration_s"] = calibrator.kernel_seconds(t0, t1)
            rep["calibration_samples"] = len(calibrator.samples)
        reps.append({**rep, "passed": passed, "error": error,
                     "rel_error": outcome.rel_error if outcome else None,
                     "gate": outcome.gate if outcome else None,
                     "info": outcome.info if outcome else None})
        if error:
            print(error, file=sys.stderr)
        elif not passed:
            print(f"bench: correctness gate failed: {outcome.gate}", file=sys.stderr)
        if outcome is not None:
            hashes = output_hashes(out_dir)
        if tracer is not None:
            layer_runs.append(tracing.layer_metrics(tracer, per_span))
            spans = tracer.spans
        if time.perf_counter() - started >= args.seconds:
            break

    measured = [r for r in reps if r["rel_error"] is not None]
    if not measured:
        print("bench: every run raised; nothing to report", file=sys.stderr)
        return 1
    failed = sum(not r["passed"] for r in reps)

    if args.trace:
        metrics = {name: {"value": statistics.median(run_[name][0] for run_ in layer_runs),
                          "unit": unit}
                   for name, (_, unit) in layer_runs[0].items()}
    else:
        metrics = {
            "norm_wall": {"value": statistics.median(r["norm_wall"] for r in reps),
                          "unit": "cal"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "unit": "MB"},
            "rel_error": {"value": statistics.median(r["rel_error"] for r in measured),
                          "unit": "1"},
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "inputs": repr(inputs),
        "attempted": len(reps), "failed": failed,
        "failed_ratio": failed / len(reps), "setup_samples_s": setup_samples,
        "runs": reps, "output_sha256": hashes, "metrics": metrics,
    }
    record_path = work_dir / f"seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))
    if args.trace:
        (work_dir / f"spans-seed{args.seed}.json").write_text(json.dumps(
            {"fields": ["name", "layer", "start_s", "end_s", "parent"], "spans": spans}))
    print(f"record: {record_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": len(reps), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
