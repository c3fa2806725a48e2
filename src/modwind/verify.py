"""Self-contained oracle suite behind the `verify` command.

Every check pits an implementation against an independent brute-force
route at small scale: Moebius counting vs direct scans, necklace
enumeration vs exhaustive even-shift classification, exact moment
identities of the winding number, the dual geodesic-length routes,
shard-independence of the accumulator, and the digit-sum table against
the enumerated one.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction

from . import bulk, invariants, lattice, necklace
from .errors import BudgetError
from .stats import merge


def _all_words(A, n):
    return itertools.product(range(1, A + 1), repeat=n)


def check_min_period_counts(A, n_max):
    """count_min_period against a direct scan of [A]^n."""
    failures = []
    for n in range(1, n_max + 1):
        brute = sum(1 for w in _all_words(A, n) if necklace.minimal_period(w) == n)
        formula = necklace.count_min_period(A, n)
        if brute != formula:
            failures.append(f"A={A} n={n}: scan {brute} != formula {formula}")
        total = sum(
            necklace.count_min_period(A, d) for d in range(1, n + 1) if n % d == 0
        )
        if total != A**n:
            failures.append(f"A={A} n={n}: divisor sum {total} != {A**n}")
    return failures


def brute_force_necklaces(A, n):
    """Canonical representatives from exhaustive classification."""
    reps = set()
    for w in _all_words(A, n):
        if necklace.is_primitive(w):
            reps.add(necklace.canonical_even_shift(w))
    return reps


def check_necklace_counts(A, n_max):
    failures = []
    for n in range(2, n_max + 1, 2):
        brute = brute_force_necklaces(A, n)
        enumerated = {nk.rep for nk in necklace.enumerate_necklaces(A, n) if nk.n == n}
        if brute != enumerated:
            failures.append(f"A={A} n={n}: enumerated set != brute-force set")
        if len(brute) != necklace.count_Pn(A, n):
            failures.append(
                f"A={A} n={n}: |P_n| formula {necklace.count_Pn(A, n)} "
                f"!= brute {len(brute)}"
            )
        prim_words = sum(1 for w in _all_words(A, n) if necklace.is_primitive(w))
        if len(brute) * (n // 2) != prim_words:
            failures.append(f"A={A} n={n}: orbit size n/2 violated")
    return failures


def check_moment_identities(A, n_max):
    """Sum of psi and psi^2 over ALL words, as exact integers."""
    failures = []
    for n in range(2, n_max + 1, 2):
        s1 = 0
        s2 = 0
        for w in _all_words(A, n):
            psi = invariants.winding(w)
            s1 += psi
            s2 += psi * psi
        expected = Fraction(A**n * n * (A * A - 1), 12)
        if s1 != 0:
            failures.append(f"A={A} n={n}: sum psi = {s1} != 0")
        if expected.denominator != 1 or s2 != expected.numerator:
            failures.append(f"A={A} n={n}: sum psi^2 = {s2} != {expected}")
    return failures


def check_dual_lengths(A, n_max):
    failures = []
    for n in range(2, n_max + 1, 2):
        for nk in necklace.enumerate_necklaces(A, n):
            if nk.n != n:
                continue
            logsum = invariants.geodesic_length_logsum(nk.rep)
            eigen = invariants.geodesic_length_eigen(nk.rep)
            rel = abs(logsum - eigen) / eigen
            if rel >= 1e-9:
                failures.append(f"{nk.rep}: |logsum-eigen| rel {rel:.3e}")
    return failures


def check_shard_independence(A, N):
    """The default shard ranges against the same ranges cut in three, and
    their merged total against pi_exact and the Lyndon key count; returns
    the failures and the merged default shards."""
    failures = []
    ranges = bulk.shard_ranges(A, N)
    thirds = [(n, lo + (hi - lo) * k // 3, lo + (hi - lo) * (k + 1) // 3)
              for n, lo, hi in ranges for k in range(3)]
    whole, cut = (functools.reduce(merge, [bulk.run_shard(A, N, *r) for r in layout])
                  for layout in (ranges, thirds))
    if cut.table != whole.table:
        failures.append("union of the cut shards differs from the default shards")
    if whole.total_count() != necklace.pi_exact(A, N):
        failures.append("shard total != pi_exact")
    if bulk.count(A, N) != whole.total_count():
        failures.append("Lyndon key count != merged shard total")
    return failures, whole


def check_lattice_table(A, N, enumerated):
    """lattice.table, built from digit-sum counts, against an enumerated table."""
    if lattice.table(A, N) != enumerated:
        return ["digit-sum table != merged shard table"]
    return []


# The longest words the brute-force scans walk, and the words they may
# walk in all: in pure Python, 4.9e5 words (A = 5, N = 8) take about 30 s.
SCAN_LENGTH = 10
VERIFY_CAP = 10**6


def run_suite(A, N):
    """Returns a list of (name, failures) pairs.  Raises BudgetError, before
    the first scan, past VERIFY_CAP words or bulk's caps."""
    # min_period_counts, the longest scan, walks [A]^n for each n <= SCAN_LENGTH.
    if sum(A**n for n in range(1, min(N, SCAN_LENGTH) + 1)) > VERIFY_CAP:
        raise BudgetError(f"the scans of A={A}, N={N} pass the verify cap of "
                          f"{VERIFY_CAP} words")
    bulk.shard_ranges(A, N)
    results = []
    results.append(("min_period_counts", check_min_period_counts(A, min(N, SCAN_LENGTH))))
    results.append(("necklace_counts", check_necklace_counts(A, min(N, 8))))
    results.append(("moment_identities", check_moment_identities(A, min(N, 8))))
    results.append(("dual_geodesic_length", check_dual_lengths(A, min(N, 6))))
    shard_failures, whole = check_shard_independence(A, N)
    results.append(("shard_independence", shard_failures))
    results.append(("lattice_table", check_lattice_table(A, N, whole.table)))
    return results
