"""Seeded benchmark of seq2label training and decoding.

One workload per process:

    python3 perfbench/run.py --workload train_longdoc --seed 1 --seconds 30 --trace 0

prints a detail line (environment, records digest, the named metrics of the
workload, error rate) and, last, the result line
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
result carries the end-to-end metrics, measured untraced; with ``--trace 1``
it carries the per-layer metrics of a traced pass that repeats the work of
an untraced one and must reproduce its outputs exactly.

Every workload, each in its own process, untraced and then traced:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Run from the root of a checkout; the library is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train_longdoc", "train_shortdoc", "decode_manylabel")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The result line carries the same end-to-end names for every workload; its
# "nll" is each kind's named loss.
NLL_NAME = {"train": "train.final_loss", "decode": "decode.beam5_nll"}
END_TO_END = ("setup_s", "best_docs_per_s", "best_op_ms", "nll", "peak_rss_mb")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.all == (args.workload is not None):
        p.error("give exactly one of --workload and --all")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    from tracing import Tracer, instrument
    from workloads import SPECS, make_records, records_digest

    spec = SPECS[args.workload]
    records, held_out = make_records(spec, args.seed)
    tally = bench.Tally()
    tracer = Tracer()
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        setup_s = []
        for _ in range(bench.SETUP_REPEATS):
            prep = None
            gc.collect()  # the previous set-up's garbage is not this one's cost
            t0 = perf_counter()
            if args.trace:
                with instrument(tracer):
                    prep = tracer.call("bench.setup", bench.set_up, spec, records, held_out, workdir)
            else:
                prep = bench.set_up(spec, records, held_out, workdir)
            setup_s.append(perf_counter() - t0)
            tally.op(bench.resave_matches(prep, workdir), "re-saved checkpoint differs")
    finally:
        shutil.rmtree(workdir)

    loop = bench.TrainLoop(prep) if spec.kind == "train" else bench.DecodeLoop(prep, spec)
    reference = loop.round()  # warm-up; every later round must reproduce it
    loop.check([reference], reference, tally)
    if spec.kind == "decode":
        loop.check_beam_one(reference, tally)

    if not args.trace:
        rounds = bench.run_rounds(loop, seconds=args.seconds)
        loop.check(rounds, reference, tally)
        named = loop.metrics(rounds)
        named["setup_s"] = (statistics.median(setup_s), "s")
        named["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics = {name: named[NLL_NAME[spec.kind] if name == "nll" else name] for name in END_TO_END}
    else:
        rounds = bench.run_rounds(loop, seconds=args.seconds / 2)
        with instrument(tracer):
            traced = bench.run_rounds(loop, rounds=len(rounds), call=tracer.call)
        loop.check(rounds + traced, reference, tally)
        returned = loop.returned_steps(traced) if spec.kind == "decode" else 0
        metrics = bench.layer_metrics(tracer, prep, returned, bench.SETUP_REPEATS)
        untraced_s, traced_s = loop.busy_seconds(rounds), loop.busy_seconds(traced)
        metrics["bench.trace_overhead_pct"] = (100 * (traced_s - untraced_s) / untraced_s, "%")
        named = metrics

    detail = {
        "workload": spec.name,
        "seed": args.seed,
        "trace": args.trace,
        "records_digest": records_digest(records, held_out),
        "env": environment(),
        "rounds": len(rounds),
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
    }
    print(json.dumps(detail))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    print(f"environment: {json.dumps(environment())}")
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"{workload} trace={trace}: exit code {proc.returncode}")
                status = 1
                continue
            detail, result = json.loads(lines[-2]), json.loads(lines[-1])
            print(f"\n{workload} ({'traced' if trace else 'untraced'}, seed {args.seed}):"
                  f" correct={result['correct']} attempted={result['attempted']}"
                  f" failed={result['failed']} error_rate={detail['error_rate']:.4g}")
            for name, m in detail["metrics"].items():
                print(f"  {name:40s} {m['value']!s:>24} {m['unit']}")
            if not result["correct"]:
                status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "seq2label" / "__init__.py").is_file():
        print(f"error: no seq2label sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    # pinned before numpy is imported, so BLAS starts one thread per process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
