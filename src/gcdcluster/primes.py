"""Prime infrastructure: sieve, factorization, totient, exact prime counting.

Everything downstream leans on ``PrimeTable``: the ordered primes up to a
limit, held once as a numpy array, exact pi(x) lookups, and a
smallest-prime-factor array for fast factorization, sieved on its first read
so that a job which never reads it never pays for it; above it, trial
division takes numpy remainders over blocks of the stored primes and stops
once the next prime's square exceeds the cofactor.  Prime indices are
1-based throughout (prime 1 is 2, prime 2 is 3, ...), matching the class
indexing used by the clustering modules.

A ``PrimeTable`` is safe to share between threads: its only later writes
are that first sieve and a memoryview of it, which two racing readers both
build the same.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import isqrt, log
from typing import NamedTuple

import numpy as np

from .errors import OutOfRangeError

# Smallest-prime-factor arrays above this size buy little (trial division by
# the stored primes is fast) and cost 4 bytes per integer, so cap by default.
DEFAULT_SPF_LIMIT = 10_000_000


class Factorization(NamedTuple):
    """n = product of q**a over ``factors``, q strictly increasing;
    ``distinct_primes`` is the q of each factor, in the same order."""

    n: int
    factors: tuple[tuple[int, int], ...]
    distinct_primes: tuple[int, ...]


class PrimeTable:
    """Ordered primes up to ``limit`` plus an SPF array for fast factorization.

    ``primes`` is a sorted numpy int64 array, the only copy of the primes;
    scalar reads go through ``_primes_view``, a zero-copy memoryview of it
    that yields Python ints, so exact counting never wraps.  ``prime(i)``
    returns the i-th prime, 1-based.  ``spf_limit`` = min(limit,
    ``DEFAULT_SPF_LIMIT``) bounds the SPF array, which ``spf()`` sieves on
    first read, and ``factorize`` reads through ``_spf_view``, a memoryview of
    it cached on first use; larger integers go by trial division against the
    stored primes.
    """

    def __init__(self, limit: int):
        if limit < 2:
            raise ValueError(f"sieve limit must be >= 2, got {limit}")
        self.limit = int(limit)
        self.primes = _sieve_primes(self.limit)
        self._primes_view = memoryview(self.primes)
        self.spf_limit = min(self.limit, DEFAULT_SPF_LIMIT)
        self._spf = None
        self._spf_view = None

    def spf(self) -> np.ndarray:
        """spf()[n] = smallest prime factor of n, 2 <= n <= spf_limit."""
        if self._spf is None:
            self._spf = _sieve_spf(self.spf_limit)
        return self._spf

    def __repr__(self) -> str:
        return f"PrimeTable(limit={self.limit}, n_primes={len(self.primes)})"

    def prime(self, i: int) -> int:
        """The i-th prime, 1-based: prime(1) = 2, prime(2) = 3."""
        if i < 1 or i > len(self.primes):
            raise OutOfRangeError(f"prime index {i} outside table (1..{len(self.primes)})")
        return self._primes_view[i - 1]

    def prime_index(self, p: int) -> int:
        """1-based index of the prime p; raises if p is not a stored prime."""
        pos = bisect_left(self._primes_view, p)
        if pos >= len(self.primes) or self._primes_view[pos] != p:
            raise ValueError(f"{p} is not a prime <= {self.limit}")
        return pos + 1

    def is_prime(self, n: int) -> bool:
        return n >= 2 and self.pi(n) > self.pi(n - 1)

    def pi(self, x: int) -> int:
        """Exact count of primes <= x."""
        if x < 0:
            return 0
        if x > self.limit:
            raise OutOfRangeError(f"pi({x}) exceeds sieve limit {self.limit}")
        return bisect_right(self._primes_view, x)


def build_prime_table(limit: int) -> PrimeTable:
    """Sieve all primes up to ``limit`` (inclusive).

    Raises ValueError for limit < 2.
    """
    return PrimeTable(limit)


def _sieve_primes(limit: int) -> np.ndarray:
    """The primes up to ``limit`` >= 2 as int64, sieving odd numbers only:
    ``odd[k]`` stands for 2k + 1, and ``odd[0]`` stays set to stand for 2."""
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for q in range(3, isqrt(limit) + 1, 2):
        if odd[q // 2]:
            odd[q * q // 2 :: q] = False
    primes = np.flatnonzero(odd).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


def _sieve_spf(limit: int) -> np.ndarray:
    """spf[n] = smallest prime factor of n (spf[p] = p for primes), n >= 2,
    in uint32 below 2**32 and in uint64 from there, so no entry wraps."""
    spf = np.zeros(limit + 1, dtype=np.uint32 if limit < 2 ** 32 else np.uint64)
    for q in range(2, isqrt(limit) + 1):
        if spf[q] == 0:
            sl = spf[q * q :: q]
            sl[sl == 0] = q
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf


def factorize(n: int, table: PrimeTable) -> Factorization:
    """Distinct prime divisors of n with exponents, smallest first.

    Uses the SPF array when n is inside it, otherwise trial division by the
    stored primes up to sqrt(n): one numpy remainder per block of them, the
    first block 4096 primes (every n below 1.5 * 10**9 in one remainder) and
    each later one twice the last, stopping once the next prime's square
    exceeds the cofactor.  Raises ValueError for n < 2 and OutOfRangeError
    when the table cannot certify the final cofactor prime.  The result is
    built by ``tuple.__new__``, past the NamedTuple's Python-level ``__new__``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    factors: list[tuple[int, int]] = []
    qs: list[int] = []
    rem = n
    if n <= table.spf_limit:
        spf = table._spf_view
        if spf is None:
            spf = table._spf_view = memoryview(table.spf())
        while rem > 1:
            q = spf[rem]
            a = 0
            while rem % q == 0:
                rem //= q
                a += 1
            factors.append((q, a))
            qs.append(q)
        return tuple.__new__(Factorization, (n, tuple(factors), tuple(qs)))
    ps = table.primes[: table.pi(min(isqrt(n), table.limit))]
    lo, size = 0, 4096
    while lo < len(ps) and table._primes_view[lo] ** 2 <= rem:
        block = ps[lo : lo + size]
        if rem >= 2 ** 63:  # beyond int64, where numpy would raise OverflowError
            block = block.astype(object)
        for q in block[rem % block == 0].tolist():
            a = 0
            while rem % q == 0:
                rem //= q
                a += 1
            factors.append((q, a))
            qs.append(q)
        lo += size
        size *= 2
    if rem > 1:
        # rem has no prime factor up to min(sqrt(n), limit), or none below a
        # prime whose square exceeds it, so rem is prime when the stored
        # primes reach sqrt(rem)
        if isqrt(rem) > table.limit:
            raise OutOfRangeError(
                f"cofactor {rem} of {n} not certifiable with primes up to {table.limit}")
        factors.append((rem, 1))
        qs.append(rem)
    return tuple.__new__(Factorization, (n, tuple(factors), tuple(qs)))


def totient(f: Factorization) -> int:
    """Euler phi from a factorization, exact integer arithmetic."""
    result = f.n
    for q, _ in f.factors:
        result = result // q * (q - 1)
    return result


def rosser_schoenfeld_bounds(x: float) -> tuple[float, float]:
    """Classical two-sided bracket for pi(x), valid for x >= 59.

    Returns (x/log x)(1 + 1/(2 log x)) and (x/log x)(1 + 3/(2 log x)).
    These are the only floating-point values in the package; all counting is
    exact integer arithmetic.
    """
    if x < 59:
        raise ValueError(f"bounds require x >= 59, got {x}")
    lx = log(x)
    base = x / lx
    return base * (1 + 1 / (2 * lx)), base * (1 + 3 / (2 * lx))
