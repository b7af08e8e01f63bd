#!/usr/bin/env python3
"""Find the first integer the greedy clusters irregularly: 111_546_435.

For odd n divisible by 3, joining the even class beats staying with the
multiples of 3 exactly when prod(1 - 1/q) over n's other prime divisors drops
below 1/2.  The criterion ignores exponents, so the first crossing is a
product of consecutive odd primes; the search walks those products and stops
at 3*5*7*11*13*17*19*23.
"""

from fractions import Fraction

from gcdcluster import (
    build_prime_table,
    even_class_criterion,
    factorize,
    find_n0,
    n1_remark_candidate,
    totient,
    verify_single,
)

table = build_prime_table(10_000_000)

print("=" * 70)
print("  walking the consecutive-prime kernels")
print("=" * 70)
product, ratio = 3, Fraction(1)
idx = 3
while 2 * ratio.numerator >= ratio.denominator:
    q = table.prime(idx)
    product *= q
    ratio *= Fraction(q - 1, q)
    idx += 1
    print(f"  kernel {product:>12}  criterion product = {float(ratio):.4f}"
          f"  {'< 1/2: crossed!' if ratio < Fraction(1, 2) else ''}")

n0 = find_n0(2 * 10 ** 8, table)
print(f"\n  find_n0(2e8) = {n0}")
print(f"  criterion holds for it: {even_class_criterion(factorize(n0, table))}")
print(f"  and for 9*n0 (same kernel): "
      f"{even_class_criterion(factorize(9 * n0, table))}")

print()
print("=" * 70)
print("  the greedy's one irregular choice below 2e8")
print("=" * 70)
rec = verify_single(n0, table)
print(f"  n = {rec.n}: expected class {rec.expected_j}, chosen {rec.chosen_j}"
      f"  -> {rec.status}")
print(f"  even-class score:  {rec.deltas[1]:>9}")
print(f"  class-of-3 score:  {rec.deltas[2]:>9}")

f = factorize(n0, table)
# a move changes the conflicts by the score it leaves minus the score it joins
delta = rec.deltas[2] - rec.deltas[1]
print(f"\n  moving {n0} from class 2 to class 1 changes conflicts by {delta}")
print(f"  check: (n-3)/6 - ((n-1)/2 - phi(n)) = "
      f"{(n0 - 3) // 6 - ((n0 - 1) // 2 - totient(f))}")

print()
print("=" * 70)
print("  the analogous candidate among multiples of 5")
print("=" * 70)
cand = n1_remark_candidate(table)
print(f"  5 * (4th..14th primes) = {cand}")
print(f"  not divisible by 3: {cand % 3 != 0}")
print("  (its criterion needs the 14th prime: drop 43 and the product "
      "stays above 13/24)")
