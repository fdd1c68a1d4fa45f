"""Run every workload over ten seeds and write ``bench/BENCH_<tag>.json``.

    python3 bench/baseline.py --tag seed

Runs last ``run_seconds`` from BENCHMARK.json. Seeds 1..10 are run untraced,
one seed at a time across all workloads so that slow drift of the machine
spreads over every workload alike; then one traced run per workload (seed 11)
gives the per-layer metrics. For each end-to-end metric the file holds every value, the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and their distance as
a share of the median (the spread the bounds in BENCHMARK.json apply to).
"""

import argparse
import json
import statistics
import subprocess
import sys

from run import ROOT, WORKLOAD_NAMES

HERE = ROOT / "bench"
RUNS = 10


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_results"
                         / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return result, record


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--tag", required=True)
    args = p.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = {name: [] for name in WORKLOAD_NAMES}
    machine = None
    for seed in range(1, RUNS + 1):
        for name in WORKLOAD_NAMES:
            result, record = run_once(name, seed, seconds, 0)
            machine = machine or record["machine"]
            runs[name].append((seed, result, record))
            print(f"{name} seed {seed}: correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)

    report = {"tag": args.tag, "runs": RUNS, "run_seconds": seconds,
              "machine": machine, "workloads": {}}
    for name in WORKLOAD_NAMES:
        results = [r for _, r, _ in runs[name]]
        metrics = results[0]["metrics"]
        traced, traced_record = run_once(name, RUNS + 1, seconds, 1)
        report["workloads"][name] = {
            "seeds": [s for s, _, _ in runs[name]],
            "all_correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "gemm_gops": [rec["machine"]["gemm_gops"] for _, _, rec in runs[name]],
            "end_to_end": {k: {"unit": v["unit"],
                               **summarize([r["metrics"][k]["value"] for r in results])}
                           for k, v in metrics.items()},
            "per_layer": {"seed": RUNS + 1, "metrics": traced["metrics"],
                          "numerators": traced_record["numerators"]},
        }
        print(f"{name}: " + " ".join(
            f"{k} {v['median']:.4g} (spread {v['spread']:.3f})"
            for k, v in report["workloads"][name]["end_to_end"].items()), flush=True)
    out = HERE / f"BENCH_{args.tag}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
