"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload train-crmn32 --seed 1 --seconds 8 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced run. Earlier stdout lines repeat the metrics with units and
sample counts, and the full record (machine block, spans, checks) is
written to ``.bench_results/`` in the checkout. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1
WORKLOAD_NAMES = ("train-crmn32", "eval-crmn32", "eval-resnet32", "gradcheck-full")

E2E_UNITS = {
    "setup_s": "s",
    "img_per_s": "img/s",
    "batch_s_p50": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "pass_frac": "frac",
}

LAYER_UNITS = {
    "layers.conv2d.fwd_s": "s",
    "layers.conv2d.bwd_s": "s",
    "layers.conv2d.calls": "count",
    "layers.conv2d.fwd_gops": "Gop/s",
    **{f"resnet.stage{s}.{m}": u for s in (1, 2, 3)
       for m, u in (("fwd_s", "s"), ("bwd_s", "s"), ("fwd_gops", "Gop/s"))},
    "layers.batch_norm.fwd_s": "s",
    "layers.batch_norm.bwd_s": "s",
    "lstm.step.fwd_s": "s",
    "lstm.step.bwd_s": "s",
    "lstm.step.calls": "count",
    "lstm.fwd_gops": "Gop/s",
    "model.adapt_tap.fwd_s": "s",
    "model.adapt_tap.bwd_s": "s",
    "model.adapt_tap.calls": "count",
    "tensor.tape.backward_s": "s",
    "tensor.tape.entries": "count",
    "tensor.tape.self_s": "s",
    "training.sgd_step_s": "s",
    "training.self_s": "s",
    "data.augment_s": "s",
    "gradcheck.loss_evals": "count",
    "gradcheck.full_eval_s": "s",
    "gradcheck.back_half_eval_s": "s",
    "checkpoint.load_model_s": "s",
    "checkpoint.bytes": "B",
    "data.load_raw_dataset_s": "s",
    "data.synth_dataset_s": "s",
    "analysis.fwd_ops_per_img": "op",
    "trace.overhead_frac": "frac",
    "trace.coverage_frac": "frac",
    "machine.gemm_gops": "Gop/s",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def pin_threads():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def machine_block(np):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name', '?')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    rng = np.random.default_rng(0)
    n = 512
    a = rng.standard_normal((n, n)).astype(np.float32)
    b = rng.standard_normal((n, n)).astype(np.float32)
    a @ b
    times = []
    start = time.perf_counter()
    while len(times) < 20 or time.perf_counter() - start < 0.3:
        t0 = time.perf_counter()
        a @ b
        times.append(time.perf_counter() - t0)
    return {
        "cores": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
        "gemm_gops": 2 * n ** 3 / statistics.median(times) / 1e9,
    }


def upper_percentile(samples):
    """Highest of p90/p99 with at least ten samples beyond it, else None."""
    n = len(samples)
    best = None
    for q in (90, 99):
        if n * (100 - q) / 100 >= 10:
            best = (q, statistics.quantiles(samples, n=100)[q - 1])
    return best


class Loop:
    """Closed-loop runner: units back to back until ``seconds`` have elapsed
    and at least one whole pass is done. With a tracer, units alternate
    untraced/traced until each kind has ``min_each`` samples as well."""

    def __init__(self, workload):
        self.w = workload
        self.unit_s = []
        self.traced_unit_s = []
        self.pass_s = []
        self.images = 0
        self.attempted = 0
        self.failed = 0
        self.details = []
        self.index = 0

    def run_unit(self, tracer=None):
        t0 = time.perf_counter()
        with tracer or contextlib.nullcontext():
            images, attempted, failed, detail = self.w.unit(self.index)
        dt = time.perf_counter() - t0
        (self.unit_s if tracer is None else self.traced_unit_s).append(dt)
        self.images += images
        self.attempted += attempted
        self.failed += failed
        self.details.append(detail)
        self.index += 1

    def run(self, seconds, tracer=None, min_each=0):
        start = pass_start = time.perf_counter()
        while True:
            traced = tracer is not None and self.index % 2 == 1
            self.run_unit(tracer if traced else None)
            now = time.perf_counter()
            if self.index % self.w.units_per_pass == 0:
                self.pass_s.append(now - pass_start)
                pass_start = now
            if now - start < seconds or not self.pass_s:
                continue
            if tracer is None or min(len(self.unit_s), len(self.traced_unit_s)) >= min_each:
                return now - start


def cold_import_s():
    """Seconds for a fresh interpreter to import the package."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import crmn"], env=env, check=True)
    return time.perf_counter() - t0


def layer_metrics(w, tracer, units, traced_wall, numerators, overhead, machine):
    spans = tracer.stats

    def stat(name, field):
        return getattr(spans[name], field) if name in spans else 0

    def per(x):
        return x / units

    def gops(ops, seconds):
        return ops / seconds / 1e9 if seconds > 0 else 0.0

    b = w.batch
    m = {}
    conv_calls = stat("layers.conv2d", "calls")
    conv_s = stat("layers.conv2d", "incl_s")
    per_call = numerators["conv_ops_per_img"] * b / max(numerators["convs_per_fwd"], 1)
    m["layers.conv2d.fwd_s"] = per(conv_s)
    m["layers.conv2d.bwd_s"] = per(stat("layers.conv2d", "bwd_s"))
    m["layers.conv2d.calls"] = per(conv_calls)
    m["layers.conv2d.fwd_gops"] = gops(conv_calls * per_call, conv_s)
    for s in (1, 2, 3):
        name = f"resnet.stage{s}"
        forwards = stat(name, "calls") / numerators["blocks_per_stage"]
        m[f"{name}.fwd_s"] = per(stat(name, "incl_s"))
        m[f"{name}.bwd_s"] = per(stat(name, "bwd_s"))
        m[f"{name}.fwd_gops"] = gops(forwards * numerators["stage_ops_per_img"][s] * b,
                                     stat(name, "incl_s"))
    m["layers.batch_norm.fwd_s"] = per(stat("layers.batch_norm", "incl_s"))
    m["layers.batch_norm.bwd_s"] = per(stat("layers.batch_norm", "bwd_s"))
    steps = stat("lstm.step", "calls")
    m["lstm.step.fwd_s"] = per(stat("lstm.step", "incl_s"))
    m["lstm.step.bwd_s"] = per(stat("lstm.step", "bwd_s"))
    m["lstm.step.calls"] = per(steps)
    lstm_forwards = steps / numerators["lstm_steps_per_fwd"] if steps else 0
    m["lstm.fwd_gops"] = gops(lstm_forwards * numerators["lstm_ops_per_img"] * b,
                              stat("lstm.step", "incl_s"))
    m["model.adapt_tap.fwd_s"] = per(stat("model.adapt_tap", "incl_s"))
    m["model.adapt_tap.bwd_s"] = per(stat("model.adapt_tap", "bwd_s"))
    m["model.adapt_tap.calls"] = per(stat("model.adapt_tap", "calls"))
    backwards = stat("tensor.tape.backward", "calls")
    m["tensor.tape.backward_s"] = per(stat("tensor.tape.backward", "incl_s"))
    m["tensor.tape.entries"] = tracer.tape_entries / backwards if backwards else 0
    m["tensor.tape.self_s"] = per(stat("tensor.tape.backward", "self_s"))
    m["training.sgd_step_s"] = per(stat("training.sgd_step", "incl_s"))
    m["training.self_s"] = per(stat("training.train", "self_s")
                               + stat("training.evaluate_model", "self_s"))
    m["data.augment_s"] = per(stat("data.augment", "incl_s"))
    m["gradcheck.loss_evals"] = per(stat("gradcheck.full_eval", "calls")
                                    + stat("gradcheck.back_half_eval", "calls"))
    m["gradcheck.full_eval_s"] = per(stat("gradcheck.full_eval", "incl_s"))
    m["gradcheck.back_half_eval_s"] = per(stat("gradcheck.back_half_eval", "incl_s"))
    m["checkpoint.load_model_s"] = 0.0
    m["checkpoint.bytes"] = 0
    m["data.load_raw_dataset_s"] = 0.0
    m["data.synth_dataset_s"] = 0.0
    m.update(w.extra_layer_metrics())
    m["analysis.fwd_ops_per_img"] = numerators["fwd_ops_per_img"]
    roots = {child for (parent, child) in tracer.edges if parent == ""}
    root_incl = sum(s for (parent, _), s in tracer.edges.items() if parent == "")
    root_self = sum(stat(name, "self_s") for name in roots)
    uncovered = traced_wall - root_incl + root_self
    m["trace.overhead_frac"] = overhead
    m["trace.coverage_frac"] = 1.0 - uncovered / traced_wall
    m["machine.gemm_gops"] = machine["gemm_gops"]
    return m


def gradcheck_overhead(w, Tracer, rounds=5):
    """Traced over untraced time of blocks of full-model loss evaluations."""
    block = w.calibration_unit()
    block(10)
    ratios = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        block()
        plain = time.perf_counter() - t0
        with Tracer():
            t0 = time.perf_counter()
            block()
            traced = time.perf_counter() - t0
        ratios.append(traced / plain)
    return statistics.median(ratios) - 1.0


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "crmn" / "__init__.py").is_file():
        print(f"bench: no crmn package under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(src))
    import numpy as np
    from tracer import Tracer
    from workloads import SETUP_REPEATS, WORKLOADS, GradcheckFull

    machine = machine_block(np)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        w = WORKLOADS[args.workload](args.seed, workdir)
        w.prepare()
        setup_s = []
        for _ in range(SETUP_REPEATS):
            cold = cold_import_s()
            t0 = time.perf_counter()
            w.setup()
            setup_s.append(cold + time.perf_counter() - t0)
            w.setup_parts.setdefault("cold_import", []).append(cold)
        mismatches, numerators = w.check_ops()

        loop = Loop(w)
        if not args.trace:
            timed = loop.run(args.seconds)
            tracer = None
        else:
            tracer = Tracer()
            if isinstance(w, GradcheckFull):
                loop.run_unit(tracer)
                overhead = gradcheck_overhead(w, Tracer)
            else:
                loop.run(args.seconds, tracer, min_each=2)
                overhead = (statistics.median(loop.traced_unit_s)
                            / statistics.median(loop.unit_s) - 1.0)
            timed = sum(loop.traced_unit_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = loop.attempted + 1
    failed = loop.failed + int(bool(mismatches))
    samples = {}
    if not args.trace:
        metrics = {
            "setup_s": statistics.median(setup_s),
            "img_per_s": loop.images / timed,
            "batch_s_p50": statistics.median(loop.unit_s),
            "wall_s": statistics.median(loop.pass_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - failed / attempted,
        }
        units = E2E_UNITS
        samples = {"setup_s": len(setup_s), "batch_s": len(loop.unit_s),
                   "wall_s": len(loop.pass_s)}
        upper = upper_percentile(loop.unit_s)
        if upper is not None:
            samples[f"batch_s_p{upper[0]}"] = upper[1]
    else:
        metrics = layer_metrics(w, tracer, len(loop.traced_unit_s), timed, numerators,
                                overhead, machine)
        units = LAYER_UNITS
    correct = failed == 0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "correct": correct,
        "attempted": attempted, "failed": failed, "fail_frac": failed / attempted,
        "op_check_mismatches": mismatches, "numerators": numerators,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "samples": samples, "setup_parts": w.setup_parts,
        "unit_s": loop.unit_s, "traced_unit_s": loop.traced_unit_s, "pass_s": loop.pass_s,
        "units": loop.details,
        "spans": tracer.report() if tracer is not None else None,
    }
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"machine: {json.dumps(machine)}")
    print(f"workload {args.workload} seed {args.seed}: attempted {attempted}, "
          f"failed {failed}, fail_frac {failed / attempted:g}, samples {samples}")
    for k in units:
        print(f"  {k:32s} {metrics[k]:.6g} {units[k]}")
    print(f"results: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
