"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload so-pretrain --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout: the package under test is imported from
that checkout's `src/`. Each call runs one workload in this one process,
with no worker threads and one BLAS thread. After one warm-up round it
repeats whole rounds of the workload until --seconds have been measured,
checks the outputs, prints a
readable report and, as its last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the run
records spans around the program's layers and reports per-layer metrics.
The exit code is 0 only when every correctness check passed.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
MODULES = ("cli", "corpus", "losses", "model", "scheduler", "taskbuild",
           "tensor", "tokenizer", "trainer")


def import_package():
    """Import mtpretrain from this checkout's src/, and only from there."""
    src = ROOT / "src"
    if not (src / "mtpretrain" / "__init__.py").is_file():
        raise SystemExit(f"error: no mtpretrain package under {src}")
    sys.path.insert(0, str(src))
    pkg = importlib.import_module("mtpretrain")
    if Path(pkg.__file__).resolve().parent != src / "mtpretrain":
        raise SystemExit(f"error: imported mtpretrain from {pkg.__file__}, "
                         f"not from {src}")
    for name in MODULES:
        importlib.import_module(f"mtpretrain.{name}")
    return pkg


def blas_threads() -> str:
    """The thread count OpenBLAS reports, or 'unknown'."""
    import ctypes
    import glob

    import numpy as np
    for lib in glob.glob(os.path.join(os.path.dirname(np.__path__[0]),
                                      "numpy.libs", "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def e2e_metrics(res) -> dict:
    import workloads as wl
    steps_ms = [1e3 * s for s in res.step_s]
    return {
        "tokens_per_s": (wl.quantile(res.round_tokens_per_s, 0.5), "slots/s"),
        "step_ms_p50": (wl.quantile(steps_ms, 0.5), "ms"),
        "step_ms_p90": (wl.quantile(steps_ms, 0.9), "ms"),
        "wall_s": (wl.quantile(res.round_wall_s, 0.5), "s"),
        "setup_s": (wl.quantile(res.setup_s, 0.5), "s"),
        "peak_rss_mb": (peak_rss_mib(), "MiB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="short rounds, for the benchmark's own tests")
    ap.add_argument("--out", default="",
                    help="also write the full result record to this file")
    args = ap.parse_args(argv)

    pkg = import_package()
    import numpy as np

    import checks
    import layers
    import spans
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = wl.WORKLOADS[args.workload]

    workdir = ROOT / ".bench_work" / f"{spec.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)
    tracer = spans.Tracer() if args.trace else None
    try:
        if tracer is not None:
            spans.install(tracer, pkg)
        if isinstance(spec, wl.TrainWorkload):
            run = wl.TrainingRun(pkg, spec, args.seed, workdir, args.quick)
        else:
            run = wl.GradcheckRun(pkg, spec, args.seed, workdir, args.quick,
                                  tracer)
        res = run.result
        try:
            run.setup()
            run.round()     # warm-up: checked, left out of the timings
            res.clear_timings()
            if tracer is not None:
                tracer.mark()
            started = time.perf_counter()
            while True:
                run.round()
                if time.perf_counter() - started >= args.seconds:
                    break
            measured = time.perf_counter() - started
            if tracer is not None:
                tracer.uninstall()
            run.verify()
        except Exception as exc:  # the program failed: report, do not hide
            traceback.print_exc()
            res.fail([f"{type(exc).__name__}: {exc}"])
            res.count("failed_operations")
            measured = 0.0
        res.fail(checks.same_digests(res.digests))
    finally:
        if tracer is not None:
            tracer.uninstall()
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:     # another run still uses it
            pass

    attempted = sum(res.counts.get(k, 0) for k in
                    ("steps", "checkpoints", "loss_evaluations"))
    failed = res.counts.get("failed_operations", 0)
    correct = not res.failures and attempted > 0
    if tracer is None:
        metrics = e2e_metrics(res) if res.step_s else {}
    else:
        metrics = layers.per_layer(tracer, res, spec) if res.step_s else {}

    print(f"workload     {spec.name} (seed {args.seed}, trace {args.trace})")
    print(f"measured     {measured:.2f} s in {len(res.round_wall_s)} rounds")
    for key in sorted(res.counts):
        print(f"count        {key} = {res.counts[key]}")
    print(f"loss digest  {res.digests[0] if res.digests else '-'}")
    env = {"blas_threads": blas_threads(), "numpy": np.__version__,
           "python": platform.python_version()}
    print(f"environment  BLAS threads {env['blas_threads']}, numpy "
          f"{env['numpy']}, python {env['python']}")
    for name, (value, unit) in metrics.items():
        print(f"metric       {name} = {value:.6g} {unit}")
    for msg in res.failures:
        print(f"FAILED       {msg}")
    print(f"correct      {correct}")

    out_metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in metrics.items()}
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": spec.name, "seed": args.seed, "trace": args.trace,
            "seconds": args.seconds, "correct": correct,
            "attempted": attempted, "failed": failed,
            "metrics": out_metrics, "counts": res.counts,
            "loss_digest": res.digests[0] if res.digests else "",
            "failures": res.failures, "env": env,
            "round_wall_s": res.round_wall_s, "setup_s": res.setup_s,
            "step_ms": [round(1e3 * x, 4) for x in res.step_s]}) + "\n")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
