"""Exact counting of class sizes and friend/enemy tallies.

Let S_j denote the canonical class of all integers whose smallest prime factor
is the j-th prime p_j.  For a probe integer n, the friends of n in S_j are the
members sharing a common factor with n, the enemies are the coprime members.
Everything the greedy engine and the verification sweeps need reduces to exact
counts of these sets, and every count here is exact integer arithmetic; no
floating point is used anywhere on a counting path.

Every count is a Legendre phi(y, r), the integers in [1, y] coprime to the
first r primes, and ``legendre_phi`` is the one function that closes and
expands such terms, many at once in numpy.  Its callers only build terms:
``class_size`` opens one class or an array of classes (``coprime_count`` is
the one-term case), and ``tally_diffs`` takes the friend/enemy tally of
class j >= 2, one Moebius sum over the squarefree divisors of n, for many
(n, j) pairs at a time.  The even class closes through the totient.
``wheel_phi`` reads the wheel tables, for ``legendre_phi`` and ``greedy``'s
friend bound.  The test suite pins these against the referees in
``tests/oracles.py``.

All functions here are pure and keep no state between calls.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd

import numpy as np

from .errors import OutOfRangeError
from .primes import Factorization, PrimeTable, totient

# Wheels for phi(y, r), r <= 4: the products 1, 2, 6, 30, 210 of the first r
# primes, their totients, and _WHEEL_PREF[r, t], the integers in [1, t]
# coprime to them, t below 210 (counted in Python: numpy's gcd and cumsum
# loops would add about 0.4 MB to every process's resident memory).
_WHEEL_MOD = np.array([1, 2, 6, 30, 210])
_WHEEL_TOT = np.array([1, 1, 2, 8, 48])
_WHEEL_PREF = np.array([[0, *accumulate(int(gcd(x, m) == 1) for x in range(1, 210))]
                        for m in _WHEEL_MOD.tolist()])


def wheel_phi(y: np.ndarray, r) -> np.ndarray:
    """phi(y, r) by the wheel: y >= 0, 0 <= r <= 4, r scalar or per y."""
    q, rem = np.divmod(y, _WHEEL_MOD[r])
    return q * _WHEEL_TOT[r] + _WHEEL_PREF[r, rem]


def legendre_phi(y: np.ndarray, r: np.ndarray, table: PrimeTable) -> np.ndarray:
    """phi(y[t], r[t]) in int64: the integers in [1, y[t]] coprime to the
    first r[t] primes, y >= 0, 0 <= r, and r below the table's prime count
    where r >= 5.  A term closes by the wheel for r <= 4, as min(y, 1) below
    p_{r+1} and as 1 + pi(y) - r below p_{r+1} ** 2 (the survivors are 1 and
    the primes in (p_r, y]); a deep term, r >= 5 and y >= p_{r+1} ** 2,
    expands as phi(y, 4) - the sum over k = 5 .. r of phi(y // p_k, k - 1),
    one level of terms at a time, each child with its parent's owner and the
    opposite sign; no child is 0, since y // p_k >= p_{r+1}.  Raises
    OutOfRangeError where pi(y) lies beyond the table."""
    y, r = np.asarray(y, dtype=np.int64), np.asarray(r, dtype=np.int64)
    if len(r) and (r.min() < 0 or r.max() >= max(len(table.primes), 5)):
        raise ValueError(f"need 0 <= r < {max(len(table.primes), 5)}, got r in "
                         f"[{r.min()}, {r.max()}]")
    out = np.zeros(len(y), dtype=np.int64)
    owner, sign = np.arange(len(y)), np.ones(len(y), dtype=np.int64)
    while True:
        val = wheel_phi(y, np.minimum(r, 4))  # phi(y, 4) for the deep terms
        big = np.flatnonzero(r > 4)
        yb, rb = y[big], r[big]
        p = table.primes[rb]
        small, deep = yb < p, yb >= p * p
        mid = np.flatnonzero(~small & ~deep)
        if yb[mid].max(initial=0) > table.limit:
            raise OutOfRangeError(f"pi({int(yb[mid].max())}) exceeds sieve limit {table.limit}")
        val[big[small]] = np.minimum(yb[small], 1)
        val[big[mid]] = 1 + np.searchsorted(table.primes, yb[mid], side="right") - rb[mid]
        np.add.at(out, owner, sign * val)
        d = big[deep]
        if not len(d):
            return out
        width = r[d] - 4  # children k = 5 .. r
        t = np.repeat(d, width)
        k = np.arange(len(t)) - np.repeat(np.cumsum(width) - width, width) + 5
        y, r, owner, sign = y[t] // table.primes[k - 1], k - 1, owner[t], -sign[t]


def coprime_count(y: int, r: int, table: PrimeTable) -> int:
    """Count integers in [1, y] coprime to the first r primes (Legendre phi):
    ``legendre_phi`` of the one term (0 for y <= 0)."""
    return int(legendre_phi(np.array([max(y, 0)]), np.array([r]), table)[0])


def class_size(i: int | np.ndarray, u: int, table: PrimeTable) -> int | np.ndarray:
    """|S_{i,u}|: integers <= u whose smallest prime factor is the i-th prime,
    phi(u // p_i, i - 1).  ``i`` is one class index (an int back) or an
    array of them (an int64 array back, from one ``legendre_phi``)."""
    c = np.asarray(i, dtype=np.int64).reshape(-1)
    if c.min(initial=1) < 1:
        raise ValueError(f"need class index >= 1, got {c.min()}")
    if c.max(initial=1) > len(table.primes):
        raise OutOfRangeError(f"prime index {c.max()} outside table (1..{len(table.primes)})")
    size = legendre_phi(max(u, 0) // table.primes[c - 1], c - 1, table)  # 0 for u < 2
    return int(size[0]) if np.ndim(i) == 0 else size


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
    primes ``qs[k]`` (rising, padded with values above n[k]), in int64: s_j -
    2 * enemies, where the enemies p_j * m, m <= x = (n-1) // p_j coprime to
    n, number the sum of mu(d) * phi(x // d, j-1) over squarefree d | n, whose
    d = 1 term is s_j[k], class j[k]'s size below n[k].  Each x // d comes
    from an earlier quotient by one more prime.  Only live terms expand: one
    whose quotient by a column's prime is 0 stays 0 under every later, larger
    prime or pad, so it leaves the frontier, and the loop ends once that is
    empty.  A term with y < p_j has phi = 1 and is summed directly; the other
    terms with d > 1 go to one ``legendre_phi``.  ``greedy._score_rows`` sends
    only the open pairs, p_j ** 2 < n / p_i; the rest it scores in closed form."""
    r, p = j - 1, table.primes[j - 1]
    x = (n - 1) // p
    y, k, mu = x, np.arange(len(x)), np.ones(len(x), dtype=np.int64)  # the frontier
    terms = [(x[:0], k[:0], mu[:0])]
    for col in range(qs.shape[1]):
        y_q = y // qs[k, col]
        (live,) = y_q.nonzero()
        if not len(live):
            break
        k, mu = k[live], mu[live]
        y = np.concatenate([y[live], y_q[live]])
        k, mu = np.concatenate([k, k]), np.concatenate([mu, -mu])
        terms.append((y[len(live):], k[len(live):], mu[len(live):]))
    y, k, mu = map(np.concatenate, zip(*terms))
    deep = np.flatnonzero(y >= p[k])
    mu[deep] *= legendre_phi(y[deep], r[k[deep]], table)
    tail = np.zeros(len(x), dtype=np.int64)  # enemies less the d = 1 term, s_j
    np.add.at(tail, k, mu)
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
