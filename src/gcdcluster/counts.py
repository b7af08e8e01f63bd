"""Exact counting of class sizes and friend/enemy tallies.

Let S_j denote the canonical class of all integers whose smallest prime factor
is the j-th prime p_j.  For a probe integer n, the friends of n in S_j are the
members sharing a common factor with n, the enemies are the coprime members.
Everything the greedy engine and the verification sweeps need reduces to exact
counts of these sets, and every count here is exact integer arithmetic; no
floating point is used anywhere on a counting path.

Class sizes come from the coprime-counting function ``coprime_count``; the
friend/enemy tally of class j >= 2 is one Moebius sum over the squarefree
divisors of n (``tally_diff_fast``), and the even class closes through the
totient.  ``_WHEELS`` also gives ``greedy`` its friend bound, read for a
whole span in numpy.  The test suite pins these against slow brute-force
referees kept in ``tests/oracles.py``.

All functions here are pure; the per-table memo behind ``coprime_count`` is
written under the GIL, so concurrent callers at worst duplicate work.  Nothing
here evicts from the memo: ``greedy.verify_range`` clears it at the start of
each call, and other callers keep it as long as their table.
"""

from __future__ import annotations

from itertools import islice

from .primes import Factorization, PrimeTable, totient

_WHEEL_PRIMES = (2, 3, 5, 7)

# Prefix tables for counting integers in [1, y] coprime to the first r primes,
# r <= 4; wheels 1, 2, 6, 30, 210.
_WHEELS: list[tuple[int, int, list[int]]] = []
for _r in range(5):
    _mod = 1
    for _q in _WHEEL_PRIMES[:_r]:
        _mod *= _q
    _pref = [0]
    for _x in range(_mod):
        _pref.append(_pref[-1] + (1 if all(_x % _q for _q in _WHEEL_PRIMES[:_r]) else 0))
    _WHEELS.append((_mod, _pref[-1], _pref))


def coprime_count(y: int, r: int, table: PrimeTable) -> int:
    """Count integers in [1, y] coprime to the first r primes (Legendre phi).

    Wheel lookup for r <= 4; for larger r the standard recursion
    phi(y, r) = phi(y, r-1) - phi(y // p_r, r-1), truncated to a prime-count
    lookup once p_{r+1}**2 exceeds y.  Memoized per table.
    """
    primes = table._primes_list
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    if r > 4 and r >= len(primes):
        raise ValueError(f"need the first {r + 1} primes, table has {len(primes)}")
    return _phi(y, r, primes, table, table._phi_cache)


def _phi(y: int, r: int, primes: list, table: PrimeTable, memo: dict) -> int:
    if y <= 0:
        return 0
    if r == 0:
        return y
    if r <= 4:
        mod, tot, pref = _WHEELS[r]
        return (y // mod) * tot + pref[(y % mod) + 1]
    p_next = primes[r]
    if y < p_next:
        return 1
    if y < p_next * p_next:
        # survivors are 1 and the primes in (p_r, y]
        return 1 + table.pi(y) - r
    key = (y, r)
    v = memo.get(key)
    if v is None:
        v = _phi(y, r - 1, primes, table, memo) - _phi(y // primes[r - 1], r - 1, primes, table, memo)
        memo[key] = v
    return v


def class_size(i: int, u: int, table: PrimeTable) -> int:
    """|S_{i,u}|: integers <= u whose smallest prime factor is the i-th prime."""
    if i < 1:
        raise ValueError(f"need class index >= 1, got {i}")
    if u < 2:
        return 0
    return coprime_count(u // table.prime(i), i - 1, table)


def floor_identity_lhs_rhs(n: int, u: int, qs) -> tuple[int, int]:
    """Both sides of the floor identity
    floor((n-1)/(u*Q)) == floor((n/Q - 1)/u) for Q = product of qs.

    Requires: qs are distinct odd primes, each dividing n; u coprime to all
    of them; n >= 2.  The two returned values are equal (property-tested);
    both are returned so callers can assert that independently.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if u < 1:
        raise ValueError(f"need u >= 1, got {u}")
    seen = set()
    Q = 1
    for q in qs:
        if q == 2 or q < 2:
            raise ValueError(f"{q} is not an odd prime")
        if q in seen:
            raise ValueError(f"repeated prime {q}")
        seen.add(q)
        if n % q != 0:
            raise ValueError(f"{q} does not divide {n}")
        if u % q == 0:
            raise ValueError(f"u={u} not coprime to {q}")
        Q *= q
    lhs = (n - 1) // (u * Q)
    rhs = (n // Q - 1) // u
    return lhs, rhs


def tally_even_class(n: int, f: Factorization) -> tuple[int, int]:
    """(friends, enemies) of odd n among the evens below it.  Unused: the
    traced benchmark wraps ``greedy.tally_even_class`` by name."""
    if n % 2 == 0 or n < 3 or f.n != n:
        raise ValueError(f"need odd n >= 3 and its factorization, got n={n}, f.n={f.n}")
    enemies = totient(f) // 2
    return (n - 1) // 2 - enemies, enemies


def mobius_divisors(qs) -> list[tuple[int, int]]:
    """(d, mu(d)) for every squarefree d whose prime factors are among
    ``qs``, starting with (1, 1)."""
    divisors = [(1, 1)]
    for q in qs:
        divisors += [(d * q, -mu) for d, mu in divisors]
    return divisors


def tally_diff_fast(j: int, n: int, divisors, s_j: int, table: PrimeTable) -> int:
    """friends - enemies of n in class j, one Moebius sum over n's divisors.

    Needs odd n and j >= 2 with p_j below every prime divisor of n;
    ``divisors`` is ``mobius_divisors`` of n's distinct primes, built once
    per n and shared by its classes, and ``s_j`` is ``class_size(j, n - 1)``.
    Enemies are the class members p_j * k, k <= x = (n-1) // p_j, with k
    coprime to n: the sum of mu(d) * phi(x // d, j-1), whose d = 1 term is
    s_j itself.
    """
    primes = table._primes_list
    x = (n - 1) // primes[j - 1]
    r = j - 1
    memo = table._phi_cache
    enemies = s_j
    for d, mu in islice(divisors, 1, None):
        enemies += mu * _phi(x // d, r, primes, table, memo)
    return s_j - 2 * enemies
