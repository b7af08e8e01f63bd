"""Exact counting of class sizes and friend/enemy tallies.

Let S_j denote the canonical class of all integers whose smallest prime factor
is the j-th prime p_j.  For a probe integer n, the friends of n in S_j are the
members sharing a common factor with n, the enemies are the coprime members.
Everything the greedy engine and the verification sweeps need reduces to exact
counts of these sets, and every count here is exact integer arithmetic; no
floating point is used anywhere on a counting path.

Class sizes come from the coprime-counting function ``coprime_count``; the
friend/enemy tally of class j >= 2 is one Moebius sum over the squarefree
divisors of n, many (n, j) pairs at a time in numpy (``tally_diffs``), and
the even class closes through the totient.  ``wheel_phi`` reads the wheel
tables in numpy, for ``tally_diffs`` and ``greedy``'s friend bound.  The test
suite pins these against the referees in ``tests/oracles.py``.

All functions here are pure; the per-table memo behind ``coprime_count`` is
written under the GIL, so concurrent callers at worst duplicate work.  Nothing
here evicts from the memo: ``greedy.verify_range`` clears it at the start of
each call, and other callers keep it as long as their table.
"""

from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError
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

# the same tables as arrays, one row per r, the prefix rows padded to one width
_WHEEL_MOD = np.array([mod for mod, _, _ in _WHEELS])
_WHEEL_TOT = np.array([tot for _, tot, _ in _WHEELS])
_WHEEL_PREF = np.array([pref + [0] * (_WHEELS[-1][0] + 1 - len(pref)) for _, _, pref in _WHEELS])


def wheel_phi(y: np.ndarray, r) -> np.ndarray:
    """``_phi``'s wheel branch in numpy: y >= 0, 1 <= r <= 4, r scalar or per y."""
    q, rem = np.divmod(y, _WHEEL_MOD[r])
    return q * _WHEEL_TOT[r] + _WHEEL_PREF[r, rem + 1]


def coprime_count(y: int, r: int, table: PrimeTable) -> int:
    """Count integers in [1, y] coprime to the first r primes (Legendre phi).

    Wheel lookup for r <= 4; for larger r the standard recursion
    phi(y, r) = phi(y, r-1) - phi(y // p_r, r-1), truncated to a prime-count
    lookup once p_{r+1}**2 exceeds y.  Memoized per table.
    """
    primes = table._primes_view
    if r < 0:
        raise ValueError(f"need r >= 0, got {r}")
    if r > 4 and r >= len(primes):
        raise ValueError(f"need the first {r + 1} primes, table has {len(primes)}")
    return _phi(y, r, primes, table, table._phi_cache)


def _phi(y: int, r: int, primes: memoryview, table: PrimeTable, memo: dict) -> int:
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


def tally_diffs(n: np.ndarray, j: np.ndarray, qs: np.ndarray, s_j: np.ndarray,
                table: PrimeTable) -> np.ndarray:
    """friends - enemies of odd n[k] in class j[k] >= 2, p_j below n[k]'s
    primes ``qs[k]`` (padded with values above n[k]), in int64: s_j - 2 *
    enemies, where the enemies p_j * m, m <= x = (n-1) // p_j coprime to n,
    number the sum of mu(d) * phi(x // d, j-1) over squarefree d | n, whose
    d = 1 term is s_j[k], class j[k]'s size below n[k].  Each x // d comes
    from an earlier quotient by one more prime (no product of primes is
    formed), and a zero quotient adds 0 and is dropped.  phi(y, r) takes the
    branches of ``_phi``; only its recursion stays scalar (and memoized)."""
    r = j - 1
    x = (n - 1) // table.primes[r]
    y, k, mu = x, np.arange(len(x)), np.ones(len(x), dtype=np.int64)
    for col in range(qs.shape[1]):
        y_q = y // qs[k, col]
        keep = np.flatnonzero(y_q)
        y = np.concatenate([y, y_q[keep]])
        k = np.concatenate([k, k[keep]])
        mu = np.concatenate([mu, -mu[keep]])
    y, k, mu, r = y[len(x):], k[len(x):], mu[len(x):], r[k[len(x):]]
    phi = np.ones_like(y)
    wheel = r <= 4
    phi[wheel] = wheel_phi(y[wheel], r[wheel])
    p_next = table.primes[r]
    mid = ~wheel & (y >= p_next) & (y < p_next * p_next)
    sq = np.flatnonzero(~wheel & (y >= p_next * p_next))
    if y[mid].max(initial=0) > table.limit:
        raise OutOfRangeError(f"pi({int(y[mid].max())}) exceeds sieve limit {table.limit}")
    phi[mid] = 1 + np.searchsorted(table.primes, y[mid], side="right") - r[mid]
    primes, memo = table._primes_view, table._phi_cache
    phi[sq] = [_phi(v, s, primes, table, memo) for v, s in zip(y[sq].tolist(), r[sq].tolist())]
    tail = np.zeros(len(x), dtype=np.int64)  # enemies less the d = 1 term, s_j
    np.add.at(tail, k, mu * phi)
    return -s_j - 2 * tail


# Kept only because perfbench/probe.py wraps them by name, as
# ``greedy.tally_even_class`` and ``greedy.tally_diff_fast``; nothing in the
# package calls them.  ROADMAP item 1 (the benchmark's spans) retires both.


def tally_even_class(n: int, f: Factorization) -> tuple[int, int]:
    """(friends, enemies) of odd n among the evens below it; kept for the probe."""
    if n % 2 == 0 or n < 3 or f.n != n:
        raise ValueError(f"need odd n >= 3 and its factorization, got n={n}, f.n={f.n}")
    enemies = totient(f) // 2
    return (n - 1) // 2 - enemies, enemies


def tally_diff_fast(j: int, n: int, qs, s_j: int, table: PrimeTable) -> int:
    """``tally_diffs`` of the one pair (n, j), ``qs`` n's distinct primes; kept for the probe."""
    return int(tally_diffs(np.array([n]), np.array([j]), np.array([qs]),
                           np.array([s_j]), table)[0])
