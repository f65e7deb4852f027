"""Show that every workload's correctness check can fail.

    python3 perfbench/selfcheck.py

For each workload it makes the expected answer of a few ops deliberately
wrong (one op per field, and for ar-mesh each quiver call too), runs those
ops and ten untouched ones once, and requires that exactly the corrupted
ops fail, so that the error rate rises above 0.  Exits 1 otherwise.
"""

import sys

import run
import workloads


def corrupt(op):
    """A wrong expected answer of the same shape as the right one."""
    e = op.expected
    if op.check is workloads.check_serre:
        return (not e[0], e[1])
    if op.check is workloads.check_decompose:
        return sorted(e + ["F0[99]"])
    if op.check is workloads.check_ars:
        return (e[0], sorted(e[1] + ["F0[99]"]), e[2])
    return e[:-1]  # quiver: one arrow of the mesh rule left out


def check_workload(name, zd) -> bool:
    ops = workloads.BUILDERS[name](zd, run.DEFAULT_SEED).ops
    chosen = {}
    for i, op in enumerate(ops):
        chosen.setdefault(op.field, i)
        if op.check is workloads.check_quiver:
            chosen[f"quiver {op.field}"] = i
    bad = set(chosen.values())
    for i in bad:
        ops[i].expected = corrupt(ops[i])
    sample = [ops[i] for i in sorted(bad)] + [op for i, op in enumerate(ops) if i not in bad][:10]
    result = run.run_pass(sample)
    failed = sum(not ok for ok in result.oks)
    ok = failed == len(bad) and not any(result.oks[: len(bad)])
    print(f"{name}: {failed} of {len(sample)} ops failed with {len(bad)} corrupted, "
          f"error_rate {failed / len(sample):.3f}: {'ok' if ok else 'CHECK DID NOT FIRE'}")
    return ok


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    zd = run.load_zdinfty()
    results = [check_workload(name, zd) for name in workloads.BUILDERS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
