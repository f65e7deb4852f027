"""Benchmark of zdinfty: one workload in one single-threaded process.

    python3 perfbench/run.py --workload serre-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; zdinfty is imported from ``src/``.
With ``--trace 0`` the timed phase makes a fixed number of whole passes over
the workload's ops (a closed loop, one client): ``--seconds`` divided by the
workload's nominal pass time, so the count never depends on how fast the
code runs.  Between ops it times the host-speed probe of ``hostspeed.py``;
each op's time is divided by how much slower than a fixed reference the
probes around it ran, and its latency is the median of those corrected
times over the passes.  On a shared host the speed of a core drifts by a
third or more over minutes, and this takes the drift out.  After the timed
phase the run starts itself again with ``--setup-only`` a few times, each a
fresh process that times its own set-up and probes the host before and
after it; ``setup_s`` is the median of the corrected set-up times.
The last line of stdout is the JSON record of the end-to-end metrics named
in BENCHMARK.json.  With ``--trace 1`` it makes one untraced pass, one
traced pass and one counting pass over the same ops, checks that the three
agree, and reports the per-layer metrics instead; ``--seconds`` is not
used.  Failed ops go to stderr with their input; a full result record is
written to ``perfbench/out/``.
"""

import time

import hostspeed

SETUP_PROBES = hostspeed.setup_probes()  # the host's speed as set-up starts
T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SETUPS = 7  # set-ups per run, each in its own process; setup_s is their median
PROBE_GAP = 0.01  # seconds of ops between two host-speed probes, at most
# One pass's typical wall time, probes included, at the commit that defined
# the benchmark, on its 2-core host (passes there took 0.7x to 1.4x of it as
# the host's speed drifted).  A run makes seconds / PASS_SECONDS passes,
# whatever the speed of the code under test, so that every run takes each
# op's median over the same number of samples.
PASS_SECONDS = {"serre-sweep": 2.5, "krull-schmidt": 5.0, "ar-mesh": 6.25}
DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # used for nothing while tuning; for re-checking a claimed gain
NOTE = (
    "measured in a shared container: CPUs cannot be pinned and the page cache "
    "cannot be dropped, so compare only runs taken on the same machine"
)


@dataclass
class Pass:
    latencies: list
    oks: list
    digest: str
    wall: float  # without the probes
    probes: list  # (i, seconds): a probe timed just before op i


def git_head() -> str:
    if (ROOT / ".git").exists():  # else git would report an enclosing repository
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
        except OSError:
            pass
        else:
            if proc.returncode == 0:
                return proc.stdout.strip()
    return "unknown (not a git checkout)"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_head(),
        "platform": platform.platform(),
        "note": NOTE,
    }


def load_zdinfty():
    """Import zdinfty, and make sure it came from the checkout's sources."""
    zd = importlib.import_module("zdinfty")
    importlib.import_module("zdinfty.cli")
    if not Path(zd.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"zdinfty imported from {zd.__file__}, not from {ROOT / 'src'}")
    return zd


def run_pass(ops) -> Pass:
    clock = time.perf_counter
    latencies, oks, texts, probes = [], [], [], []
    start = last = clock()
    for i, op in enumerate(ops):
        if i == 0 or clock() - last >= PROBE_GAP:
            probes.append((i, hostspeed.time_probe()))
            last = clock()
        t = clock()
        try:
            result = op.call()
        except Exception as exc:  # a raising op is a failed op, not a crash
            latencies.append(clock() - t)
            ok, text = False, f"raised {type(exc).__name__}: {exc}"
        else:
            latencies.append(clock() - t)
            try:
                ok, text = op.check(result, op.expected)
            except (KeyError, TypeError, ValueError) as exc:
                ok, text = False, f"malformed output ({exc!r}): {result!r}"
        oks.append(ok)
        texts.append(text)
        if not ok:
            print(f"FAILED {op.desc}: {text[:300]}", file=sys.stderr)
    wall = clock() - start - sum(t for _, t in probes)
    probes.append((len(ops), hostspeed.time_probe()))
    return Pass(latencies, oks, workloads.digest(texts), wall, probes)


def spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(ops, passes, setups) -> tuple[dict, dict]:
    """``setups`` holds (seconds, median probe seconds around the set-up)."""
    corrected = []
    for p in passes:
        slow = hostspeed.factors(len(ops), p.probes)
        corrected.append([x / f for x, f in zip(p.latencies, slow)])
    best = [statistics.median(xs) for xs in zip(*corrected)]
    by_field = {"Q": [], "Fp": []}
    for op, x in zip(ops, best):
        by_field[op.field].append(x)
    p90 = statistics.quantiles(best, n=10)[8]
    attempted = sum(len(p.oks) for p in passes)
    failed = sum(p.oks.count(False) for p in passes)
    values = {
        "ops_per_s": len(best) / sum(best),
        "q_ops_per_s": len(by_field["Q"]) / sum(by_field["Q"]),
        "fp_ops_per_s": len(by_field["Fp"]) / sum(by_field["Fp"]),
        "latency_p50_ms": statistics.median(best) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "success_rate": 1 - failed / attempted,
        "setup_s": statistics.median(s * hostspeed.REFERENCE / probe for s, probe in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    pass_rates = [len(best) / p.wall for p in passes]
    raw_best = [min(xs) for xs in zip(*(p.latencies for p in passes))]
    probe_times = [t for p in passes for _, t in p.probes]
    detail = {
        "passes": len(passes),
        "probes": len(probe_times),
        "probe_vigintiles_ms": [q * 1e3 for q in statistics.quantiles(probe_times, n=20)],
        "uncorrected_min_ops_per_s": len(raw_best) / sum(raw_best),
        "latency_samples": len(best),
        "samples_beyond_p90": sum(x > p90 for x in best),
        "error_rate": failed / attempted,
        "wall_ops_per_s": attempted / sum(p.wall for p in passes),
        "pass_ops_per_s": pass_rates,
        "pass_ops_per_s_spread": spread(pass_rates),
        "pass_digests": [p.digest for p in passes],
        "setups_s": [s for s, _ in setups],
        "setup_probes_ms": [probe * 1e3 for _, probe in setups],
    }
    return values, detail


def select(declared, values, absent) -> dict:
    """The declared metrics with their units; one not measured reads 0 and
    is listed as absent."""
    out = {}
    for m in declared:
        if m["name"] not in values:
            absent.append(m["name"])
        out[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's set-up time and stop (one setup_s sample)")
    args = parser.parse_args()

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    zd = load_zdinfty()
    wl = workloads.BUILDERS[args.workload](zd, args.seed)
    setup = time.perf_counter() - T0
    setups = [(setup, statistics.median(SETUP_PROBES + hostspeed.setup_probes()))]
    if args.setup_only:
        print(*setups[0])
        return 0

    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
        "primes": wl.primes, "input_digest": wl.input_digest, "inputs": wl.info,
        "ops_per_pass": {f: sum(op.field == f for op in wl.ops) for f in ("Q", "Fp")},
        "environment": environment(),
    }
    absent = []
    if args.trace == 0:
        count = max(1, round(args.seconds / PASS_SECONDS[wl.name]))
        passes = [run_pass(wl.ops) for _ in range(count)]
        again = [sys.executable, __file__, "--workload", wl.name, "--seed", str(args.seed),
                 "--seconds", "0", "--setup-only"]
        for _ in range(SETUPS - 1):
            out = subprocess.run(again, capture_output=True, text=True, check=True).stdout
            setups.append(tuple(map(float, out.split())))
        values, detail = end_to_end(wl.ops, passes, setups)
        correct = len({p.digest for p in passes}) == 1
        metrics = select(declared["end_to_end"], values, absent)
    else:
        passes = [run_pass(wl.ops)]
        with tracing.SpanTracer() as tracer:
            passes.append(run_pass(wl.ops))
        with tracing.StatCounter(zd) as counter:
            passes.append(run_pass(wl.ops))
        values, absent = tracing.layer_metrics(tracer, counter, passes[0].wall, passes[1].wall)
        correct = len({(p.digest, tuple(p.oks)) for p in passes}) == 1
        detail = {
            "pass_digests": [p.digest for p in passes],
            "pass_walls_s": [p.wall for p in passes],
            "spans": len(tracer.spans),
            "all_values": values,
        }
        metrics = select(declared["per_layer"], values, absent)
    attempted = sum(len(p.oks) for p in passes)
    failed = sum(p.oks.count(False) for p in passes)
    correct = correct and failed == 0
    record.update(detail=detail, absent=sorted(set(absent)), correct=correct,
                  attempted=attempted, failed=failed, metrics=metrics)

    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.tsv.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    if absent:
        print(f"absent: {', '.join(sorted(set(absent)))}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    if not (ROOT / "src" / "zdinfty" / "__init__.py").is_file():
        print(f"error: no zdinfty sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.exit(main())
