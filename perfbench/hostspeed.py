"""How fast the shared host runs pure Python right now, and the correction
that takes its drift out of the benchmark's timings.

The speed of a core on this kind of host drifts by a third or more over
seconds to minutes, and every timing in a run drifts with it.  ``probe`` is
a fixed piece of pure-Python work that uses nothing from zdinfty: row
reduction of a small matrix mod a prime and a dict tally, about 0.2 ms.
Timed between the ops of a pass, it measures the host's speed beside each
op.  An op's time divided by the probes' time around it no longer follows
the host, and times REFERENCE it reads in seconds again.  The probe never
calls the code under test, so a change to zdinfty moves the corrected
figures exactly as it moves the raw ones.
"""

import bisect
import statistics
import time

WINDOW = 3  # probes on each side of an op that give its host speed
# The probe's typical time on the 2-core host where the benchmark was
# defined.  Corrected times are what the op would take if the host ran the
# probe in exactly this long, so they read close to that host's raw times.
REFERENCE = 0.2e-3
SETUP_PROBES = 8  # probes before and after a set-up


def probe():
    p, n = 10007, 10
    m = [[(7 * i + 3 * j * j + 1) * (i + 2) % p for j in range(n)] for i in range(n)]
    rank = 0
    for c in range(n):
        r = next((r for r in range(rank, n) if m[r][c]), None)
        if r is None:
            continue
        m[rank], m[r] = m[r], m[rank]
        inv = pow(m[rank][c], -1, p)
        top = [x * inv % p for x in m[rank]]
        m[rank] = top
        for i in range(n):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], top)]
        rank += 1
    tally = {}
    for i in range(300):
        k = (i % 17, i % 5)
        tally[k] = tally.get(k, 0) + i
    return rank, len(tally)


def time_probe() -> float:
    t = time.perf_counter()
    probe()
    return time.perf_counter() - t


def setup_probes() -> list:
    return [time_probe() for _ in range(SETUP_PROBES)]


def factors(n_ops, probes) -> list:
    """For each of a pass's ops, how much slower than the reference the host
    ran around it: the mean of the WINDOW probes taken before the op and the
    WINDOW taken after it, over REFERENCE.  ``probes`` holds (i, seconds)
    pairs, a probe taken just before op i, in order, the last one after
    every op (i = n_ops)."""
    where = [i for i, _ in probes]
    times = [t for _, t in probes]
    out = []
    for i in range(n_ops):
        j = bisect.bisect_right(where, i)  # probes[j - 1] is before op i, probes[j] after
        out.append(statistics.fmean(times[max(0, j - WINDOW): j + WINDOW]) / REFERENCE)
    return out
