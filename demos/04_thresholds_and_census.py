#!/usr/bin/env python3
"""Threshold table, candidate census, and the prime-count inequality.

Above the threshold n1(i, j, t), an integer with t distinct prime factors
starting at the i-th prime provably stays out of class j.  Cells whose
threshold sits below the smallest possible candidate certify their whole
family at once; the others leave finitely many candidates, which the census
enumerates and the exact tally then disposes of one by one.
"""

from gcdcluster import (
    build_prime_table,
    census_report,
    class_scores,
    factorize,
    prime_count_inequality,
    n1_table,
    table1_records,
    three_factor_candidates,
)
from gcdcluster.thresholds import FIRST_IRREGULAR

table = build_prime_table(10_000_000)

print("=" * 70)
print("  threshold table n1(i, i-1, t)   [* = whole family certified]")
print("=" * 70)
records = table1_records(table)
by_i = {}
for r in records:
    by_i.setdefault(r.i, []).append(r)
for i, rows in by_i.items():
    cells = "  ".join(f"t={r.t}:{r.n1}{'*' if r.infeasible else ''}" for r in rows)
    print(f"  i={i:>2} (p={table.prime(i):>2})  {cells}")

print()
print("=" * 70)
print("  three-prime-factor candidates below their bounds")
print("=" * 70)
for row in census_report(table, include_remark_prime=True):
    note = ""
    if row["residual"]:
        note = (f"  <- reported {row['reported']}; no bound reading we tried "
                f"reproduces it, residual {row['residual']:+d}")
    print(f"  p={row['p']:>2}: {row['count']:>6} candidates below {row['bound']}{note}")

print()
print("  every candidate for p in {29, 31} loses its class-below contest:")
for p, j in ((29, 9), (31, 10)):
    bound = n1_table(table.prime_index(p), table.prime_index(p) - 1, 3, table).n1
    cands = three_factor_candidates(p, min(bound, FIRST_IRREGULAR), table)
    worst = max(class_scores(n, factorize(n, table), table)[j] for n in cands)
    print(f"    p={p}: {len(cands)} candidates, "
          f"max friends-minus-enemies = {worst} (< 0)")

print()
print("=" * 70)
print("  the prime-count inequality that settles the large-prime cases")
print("=" * 70)
x0 = FIRST_IRREGULAR ** (2.0 / 3.0)
rows = prime_count_inequality([x0, 10 ** 6, 10 ** 7], [41, 53], table)
print("  pi(x) - pi(sqrt x) > 18 pi(x/t) + 56 ?")
for r in rows:
    print(f"    x = {r['x']:>12.1f}  t = {r['t']:>2}:  {r['lhs']:>7} > {r['rhs']:>7}"
          f"  margin {r['margin']:>7}  (bracket alone suffices: {r['rs_sufficient']})")
