#!/usr/bin/env python3
"""The counting shortcuts that make the greedy fast, checked by brute force.

Scoring the greedy step for n needs, per class, the number of friends and
enemies of n among the class members.  Enumerating members works but costs
linear time per class; the engine instead counts them exactly through
inclusion-exclusion and the totient.  This script shows the counts agreeing
with plain gcd scans on a concrete example.
"""

from math import gcd

from gcdcluster import (
    build_prime_table,
    class_scores,
    class_size,
    factorize,
    floor_identity_lhs_rhs,
    totient,
)

table = build_prime_table(1_000_000)

n = 5 * 7 * 11 * 13  # 5005
f = factorize(n, table)
print("=" * 70)
print(f"  probe n = {n} = {'*'.join(str(q) for q, _ in f.factors)}")
print("=" * 70)

print("\n  class 1 (the evens): enemies are half the totient")
d1 = class_scores(n, f, table)[1]  # friends - enemies: (n-1)//2 - phi(n)
s1 = (n - 1) // 2                  # friends + enemies: the evens below n
print(f"    phi({n}) = {totient(f)}")
print(f"    friends = {(s1 + d1) // 2}, enemies = {(s1 - d1) // 2}, diff = {d1}")
evens = [m for m in range(2, n, 2)]
brute = sum(1 for m in evens if gcd(m, n) > 1)
print(f"    brute even scan: friends = {brute}, enemies = {len(evens) - brute}")

print("\n  class 2 (odd multiples of 3): inclusion-exclusion over n's primes")
d2 = class_scores(n, f, table)[2]  # friends - enemies
s2 = class_size(2, n - 1, table)    # friends + enemies
print(f"    coprime counting: friends = {(s2 + d2) // 2}, enemies = {(s2 - d2) // 2}")
members = range(3, n, 6)  # odd multiples of 3 below n
brute = sum(1 for m in members if gcd(m, n) > 1)
print(f"    brute gcd scan:   friends = {brute}, enemies = {len(members) - brute}")

print("\n  class sizes by counting, no enumeration")
for i in (1, 2, 3, 4, 5):
    size = class_size(i, n - 1, table)
    p = table.prime(i)
    brute = sum(1 for m in range(2, n)
                if m % p == 0 and all(m % table.prime(l) for l in range(1, i)))
    print(f"    |class {i}| (prime {p:>2}) = {size:>4}   brute = {brute:>4}")

print("\n  the floor identity behind the sieve algebra")
for args in [(105, 2, [3, 5]), (5005, 2, [5, 13]), (5005, 4, [7, 11, 13])]:
    lhs, rhs = floor_identity_lhs_rhs(*args)
    print(f"    n={args[0]:>5} u={args[1]} qs={args[2]}: "
          f"floor((n-1)/(u*Q)) = {lhs} = floor((n/Q - 1)/u) = {rhs}")
