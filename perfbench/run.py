"""socmorse benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload grid-verify --seed 1 --seconds 15 --trace 0

Imports socmorse from the checkout's ``src/`` (nothing is installed), sets
up the workload, then runs whole rounds of its operations until
``--seconds`` have passed (at least one round; two for ``reduced-scan``,
whose runs check that a seeded round repeats bit for bit).  Every result
is checked.  Times are rescaled to a reference speed (see refspeed.py).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Each run writes
its metadata to ``perfbench/out/`` and its artifacts to a directory there
that it removes at the end.  Exits 0 when every check passed, 1 when a
check failed, 2 when socmorse cannot be imported from the checkout.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 8
TIME_LIMIT_S = 150.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
END_TO_END = (("setup_s", "s"), ("wall_norm_s", "s"), ("peak_rss_mib", "MiB"))


def cap_threads():
    """Cap every BLAS/OpenMP pool at the processors this process may use."""
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            current = int(os.environ.get(var, ""))
        except ValueError:
            current = 0
        if not 1 <= current <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def import_socmorse():
    """socmorse from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "socmorse" / "__init__.py").is_file():
        raise ImportError(f"no socmorse sources under {src}")
    sys.path.insert(0, str(src))
    import socmorse
    from socmorse import dynamics_grid, dynamics_two_level, morse, numerics, pulse_design
    from socmorse import robustness

    if src.resolve() not in Path(socmorse.__file__).resolve().parents:
        raise ImportError(f"socmorse imported from {socmorse.__file__}, not {src}")
    for category in (pulse_design.AdiabaticityWarning, pulse_design.SmallAngleWarning):
        warnings.simplefilter("ignore", category)
    return argparse.Namespace(
        version=socmorse.__version__, numerics=numerics, morse=morse,
        pulse_design=pulse_design, dynamics_two_level=dynamics_two_level,
        dynamics_grid=dynamics_grid, robustness=robustness)


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = ROOT / ".git" / text[5:]
            if ref.is_file():
                return ref.read_text().strip()
            packed = (ROOT / ".git" / "packed-refs").read_text().splitlines()
            return next(line.split()[0] for line in packed if line.endswith(text[5:]))
        return text
    except (OSError, StopIteration):
        return "unknown (not a git checkout)"


def setup_probe(args):
    """Time the same set-up in a fresh interpreter, from before its imports."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0", "--setup-probe"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv=None):
    import workloads

    p = argparse.ArgumentParser(description="socmorse benchmark")
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None):
    nproc = cap_threads()
    import refspeed

    with refspeed.SpeedSampler() as sampler:
        return measure(argv, sampler, nproc)


def measure(argv, sampler, nproc):
    try:
        sm = import_socmorse()
    except ImportError as exc:
        print(f"benchmark: cannot import socmorse from the checkout: {exc}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    OUT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return run_workload(args, sm, sampler, nproc, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def run_workload(args, sm, sampler, nproc, run_dir):
    """Set up, measure and check one run; artifacts go to ``run_dir``."""
    import numpy as np
    import scipy

    import checks
    import layers
    import workloads
    from tracer import Tracer

    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.install(tracer, sm)
    workload = workloads.WORKLOADS[args.workload](sm, args.seed, run_dir, tracer)
    workload.setup()
    setup_end = time.perf_counter()
    setup_raw = setup_end - _T0
    setup_main = sampler.normalised(setup_raw, [(_T0, setup_end)])
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}), flush=True)
        return 0
    setup_samples = [setup_main]
    if not args.trace:
        setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES)]

    rounds, problems, round_s, round_norm_s = [], [], [], []
    first_fingerprint = None
    body_start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - body_start
        if len(rounds) >= workload.MIN_ROUNDS and (
                elapsed >= args.seconds
                or time.perf_counter() - _T0 + max(round_s) > TIME_LIMIT_S):
            break
        r = len(rounds)
        if tracer is not None:
            tracer.phase, tracer.round = "round", r
        ops, spans = [], []
        start = time.perf_counter()
        for op in workload.run_round(r):
            end = time.perf_counter()
            ops.append(op)
            spans.append((start, end))
            start = time.perf_counter()
        with workload.paused():
            problems += workload.check_round(r, ops)
        fingerprint = workload.fingerprint(ops)
        if fingerprint is not None:
            if first_fingerprint is None:
                first_fingerprint = fingerprint
            else:
                problems += checks.bit_identical(first_fingerprint, fingerprint, f"round {r}")
        rounds.append(ops)
        round_s.append(sum(op.seconds for op in ops))
        round_norm_s.append(sampler.normalised(round_s[-1], spans))

    wall_s = statistics.median(round_s)
    wall_norm_s = statistics.median(round_norm_s)
    attempted = sum(op.count for ops in rounds for op in ops)
    failed = sum(op.failed for ops in rounds for op in ops)
    rates = workload.rates(wall_s, rounds)
    if tracer is None:
        values = {"setup_s": statistics.median(setup_samples), "wall_norm_s": wall_norm_s,
                  "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        tracer.phase = "extra"
        extras = workload.extras(lambda seconds, a, b: sampler.normalised(seconds, [(a, b)]))
        run_scale = sampler.factor([(_T0, time.perf_counter())])

        def span_scale(start, end):
            return sampler.factor([(start, end)], min_samples=3) or run_scale

        metrics = layers.layer_metrics(tracer, extras, wall_s, tracer.span_cost_s(),
                                       span_scale, run_scale)
        tracer.uninstall()
    correct = not problems

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": attempted, "failed": failed,
        "failed_operations": sorted({op.name for ops in rounds for op in ops if op.failed}),
        "problems": problems, "rounds": len(rounds), "round_s": round_s,
        "round_norm_s": round_norm_s, "wall_s": wall_s, "setup_raw_s": setup_raw,
        "speed_samples": len(sampler.durations),
        "speed_kernel_s": {"median": statistics.median(sampler.durations),
                           "min": min(sampler.durations), "max": max(sampler.durations)},
        "operations": [[{"name": op.name, "seconds": op.seconds, "count": op.count,
                         "failed": op.failed} for op in ops] for ops in rounds],
        "setup_samples_s": setup_samples, "metrics": metrics,
        "rates": {k: {"value": v, "unit": u} for k, (v, u) in rates.items()},
        "spans": tracer.by_name() if tracer is not None else None,
        "environment": {
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "socmorse": sm.version, "nproc": nproc,
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "platform": platform.platform(), "git_commit": git_commit(),
        },
    }
    meta_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True, default=float) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  rounds {len(rounds)}  "
          f"attempted {attempted}  failed {failed}  metadata {meta_path.relative_to(ROOT)}")
    print(f"  wall_s = {wall_s:.6g} s (raw, median round)")
    for name, (value, unit) in rates.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
