"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/sweep.py --out perfbench/results/baseline.json

Runs ``run.py`` once per seed (101 to 110) and workload, one process at a
time, then one traced run per workload at the default seed.  For each end-to-end metric it
reports the median, the quartiles and the spread (distance between the
quartiles as a share of the median) against the bound in BENCHMARK.json, and
it records every run's values, input digest and pass count.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run

SEEDS = range(101, 111)


def one_run(workload, seed, seconds, traced) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(traced)]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((run.OUT / f"{workload}-seed{seed}-trace{traced}.json").read_text())
    return {"seed": seed, "correct": last["correct"], "attempted": last["attempted"],
            "failed": last["failed"], "absent": record["absent"],
            "input_digest": record["input_digest"], "ops_per_pass": record["ops_per_pass"],
            "detail": record["detail"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()}}


def summarise(runs, declared) -> dict:
    out = {}
    for m in declared:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else 0.0
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": m["bound"], "unit": m["unit"],
                          "steady": spread < m["bound"] / 3}
    return out


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seconds = declared["run_seconds"]

    report = {
        "environment": run.environment(),
        "run_seconds": seconds,
        "default_seed": run.DEFAULT_SEED,
        "held_out_seed": run.HELD_OUT_SEED,
        "seeds": list(SEEDS),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workloads": {},
    }
    for workload in (w["name"] for w in declared["workloads"]):
        runs = [one_run(workload, s, seconds, 0) for s in report["seeds"]]
        summary = summarise(runs, declared["end_to_end"])
        entry = {"summary": summary, "runs": runs,
                 "correct": all(r["correct"] for r in runs),
                 "passes": [r["detail"]["passes"] for r in runs],
                 "ops_per_pass": runs[0]["ops_per_pass"],
                 "latency_samples": runs[0]["detail"]["latency_samples"],
                 "samples_beyond_p90": runs[0]["detail"]["samples_beyond_p90"]}
        print(f"{workload}: correct={entry['correct']} passes={entry['passes']}")
        for name, s in summary.items():
            print(f"  {name:16} median {s['median']:12.4f} {s['unit']:6} spread {s['spread']:.3f}"
                  f" (bound {s['bound']}){'' if s['steady'] else '  NOT STEADY'}")
        traced = one_run(workload, run.DEFAULT_SEED, seconds, 1)
        entry["traced"] = traced
        print(f"  traced: correct={traced['correct']} absent={traced['absent']}")
        report["workloads"][workload] = entry
        sys.stdout.flush()
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    ok = all(w["correct"] and w["traced"]["correct"] for w in report["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
