"""Independent brute-force oracles the tests check the package against.

The ``naive_*`` helpers are written from the definitions, with none of the
package's counting machinery: plain trial division, gcd scans, literal
set-based greedy steps.  Slow but unarguable.

The subset-sum and wheel referees below them (``tally_exact``,
``size_S_exact``, ``tally_wheel_oracle``) are independently structured
counting routes that still take a ``PrimeTable`` for the primes and, for the
wheel, ``factorize`` for the probe's divisors.  ``scalar_coprime_count`` is
the scalar memoized recursion for Legendre's phi the package's numpy kernel
is checked against, and ``scalar_class_scores`` the scalar Moebius loop: one
``scalar_coprime_count`` per (class, squarefree divisor), and
``scalar_records`` writes ``verify``'s JSONL records from it.  The tally
referees return a ``ClassTally``, and the package's own tallies are pinned
against them and against the naive scans.  ``threshold_T_stepwise`` builds
the threshold density one reduced ``Fraction`` factor at a time, and
``count_with_multiplicity`` counts the census's candidates with prime powers
allowed.  The referees refuse oversized work with ``BudgetExceededError`` and
inputs outside their case split with ``UnsupportedCaseError``.
"""

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, prod

import json

import numpy as np

from gcdcluster import (GcdClusterError, OutOfRangeError, PrimeTable,
                        ResourceGuardError, factorize, totient)
from gcdcluster.thresholds import census_table_limit

# Refusal thresholds for the literal subset-sum routes.  2**22 terms is a few
# seconds of work.
DEFAULT_MAX_TERMS = 1 << 22
DEFAULT_MAX_SMALL_INDEX = 25

_WHEEL_MODULUS = 210
_WHEEL_RESIDUES = np.array(
    [r for r in range(_WHEEL_MODULUS) if gcd(r, _WHEEL_MODULUS) == 1], dtype=np.int64)

# An alternating floor sum together with the number of floor terms used.
SieveTermSum = namedtuple("SieveTermSum", "value terms")


class BudgetExceededError(ResourceGuardError):
    """A subset-enumeration term budget would be exceeded."""


class UnsupportedCaseError(GcdClusterError, ValueError):
    """Inputs outside the case split a counting formula is valid for."""


@dataclass(frozen=True)
class ClassTally:
    """Exact (friends, enemies) of probe n inside canonical class j."""

    j: int
    n: int
    friends: int
    enemies: int

    @property
    def diff(self) -> int:
        return self.friends - self.enemies

    @property
    def total(self) -> int:
        return self.friends + self.enemies


def naive_spf(n: int) -> int:
    for d in range(2, isqrt(n) + 1):
        if n % d == 0:
            return d
    return n


def naive_phi(n: int) -> int:
    return sum(1 for k in range(1, n) if gcd(k, n) == 1)


def naive_class_members(j: int, upto: int, primes: list[int]) -> list[int]:
    """All m in [2, upto] whose smallest prime factor is primes[j-1]."""
    p = primes[j - 1]
    return [m for m in range(2, upto + 1) if naive_spf(m) == p]


def naive_tally(j: int, n: int, primes: list[int]) -> tuple[int, int]:
    """(friends, enemies) of n inside class j, by full gcd scan."""
    friends = enemies = 0
    for m in naive_class_members(j, n - 1, primes):
        if gcd(m, n) > 1:
            friends += 1
        else:
            enemies += 1
    return friends, enemies


def naive_all_tallies(n: int, spf: np.ndarray, prime_index: dict[int, int]):
    """friends/enemies of n against every canonical class below n, at once.

    Returns two dicts class_index -> count.  ``spf`` must cover [2, n-1].
    """
    friends: dict[int, int] = {}
    enemies: dict[int, int] = {}
    ms = np.arange(2, n, dtype=np.int64)
    cls = np.array([prime_index[int(spf[m])] for m in ms])
    friendly = np.gcd(ms, n) > 1
    for j in np.unique(cls):
        in_class = cls == j
        friends[int(j)] = int(np.count_nonzero(in_class & friendly))
        enemies[int(j)] = int(np.count_nonzero(in_class & ~friendly))
    return friends, enemies


def naive_conflicts(n: int, label_of: dict[int, int]) -> int:
    """Conflicts of an arbitrary labeling of [2, n], pair by pair."""
    total = 0
    for a in range(2, n + 1):
        for b in range(a + 1, n + 1):
            friends = gcd(a, b) > 1
            same = label_of[a] == label_of[b]
            if friends != same:
                total += 1
    return total


def naive_distinct_primes(n: int) -> list[int]:
    """The distinct primes of n >= 2, smallest first, by trial division."""
    qs, d = [], 2
    while d * d <= n:
        if n % d == 0:
            qs.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return qs + [n] * (n > 1)


@lru_cache(maxsize=None)
def _primes_upto(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if naive_spf(p) == p]


@lru_cache(maxsize=None)
def _coprime_prefix(modulus: int) -> list[int]:
    """out[t] = #{1 <= k <= t : gcd(k, modulus) = 1}, for 0 <= t <= modulus."""
    out = [0]
    for k in range(1, modulus + 1):
        out.append(out[-1] + (gcd(k, modulus) == 1))
    return out


def friend_bounds(n: int) -> dict[int, int]:
    """W_j for odd composite n and each class 2 <= j < i (i the index of n's
    smallest prime): over n's distinct primes q, the integers in
    [1, ((n - 1) // p_j) // q] coprime to P, the product of the first
    min(j - 1, 4) primes.  Each count is a gcd scan of [1, y] for y <= P,
    and beyond it y // P whole periods of [1, P] plus the scan of
    [1, y % P], since coprimality to P repeats with period P."""
    qs = naive_distinct_primes(n)
    primes = [p for p in _primes_upto(max(qs[0], 1 << 14)) if p <= qs[0]]  # p_1 .. p_i
    out = {}
    for j in range(2, len(primes)):
        period = prod(primes[: min(j - 1, 4)])
        pref = _coprime_prefix(period)
        x = (n - 1) // primes[j - 1]
        out[j] = sum(x // q // period * pref[period] + pref[x // q % period] for q in qs)
    return out


# scalar_coprime_count's memo per table limit (equal limits, equal primes)
_PHI_MEMOS: dict[int, dict[tuple[int, int], int]] = {}


def scalar_coprime_count(y: int, r: int, table: PrimeTable) -> int:
    """Integers in [1, y] coprime to the first r primes, by the recursion
    phi(y, r) = phi(y, r - 1) - phi(y // p_r, r - 1), memoized: whole periods
    of the first r primes' product and a gcd-scanned prefix for r <= 4, 1
    below p_{r+1}, and 1 + pi(y) - r below p_{r+1} ** 2 (1 and the primes in
    (p_r, y])."""
    if y <= 0:
        return 0
    if r <= 4:
        period = prod(table.prime(k) for k in range(1, r + 1))
        pref = _coprime_prefix(period)
        return y // period * pref[period] + pref[y % period]
    p_next = table.prime(r + 1)
    if y < p_next:
        return 1
    if y < p_next * p_next:
        return 1 + table.pi(y) - r
    memo = _PHI_MEMOS.setdefault(table.limit, {})
    v = memo.get((y, r))
    if v is None:
        v = memo[y, r] = (scalar_coprime_count(y, r - 1, table)
                          - scalar_coprime_count(y // table.prime(r), r - 1, table))
    return v


def mobius_divisors(qs) -> list[tuple[int, int]]:
    """(d, mu(d)) for every squarefree d whose prime factors are among
    ``qs``, starting with (1, 1)."""
    divisors = [(1, 1)]
    for q in qs:
        divisors += [(d * q, -mu) for d, mu in divisors]
    return divisors


def scalar_tally_diff(j: int, n: int, divisors, s_j: int, table: PrimeTable) -> int:
    """friends - enemies of odd n in class j >= 2, p_j below every prime of
    n, as one scalar Moebius sum: ``divisors`` is ``mobius_divisors`` of n's
    distinct primes and ``s_j`` is class j's size below n.  The enemies are
    the class members p_j * k, k <= x = (n - 1) // p_j, with k coprime to n:
    the sum of mu(d) * phi(x // d, j - 1), whose d = 1 term is s_j."""
    x = (n - 1) // table.prime(j)
    enemies = s_j + sum(mu * scalar_coprime_count(x // d, j - 1, table) for d, mu in divisors[1:])
    return s_j - 2 * enemies


def scalar_class_scores(n: int, table: PrimeTable) -> list[int]:
    """``class_scores`` of odd n >= 3, one class and one divisor at a time:
    [0, delta_1, delta_2, ..., delta_{i-1}, s_i], with class 1 from the
    totient and every class c's size below n from ``scalar_coprime_count``."""
    f = factorize(n, table)
    qs = f.distinct_primes
    i = table.prime_index(qs[0])
    sizes = [0, 0] + [scalar_coprime_count((n - 1) // table.prime(c), c - 1, table)
                      for c in range(2, i + 1)]
    divisors = mobius_divisors(qs)
    return ([0, (n - 1) // 2 - totient(f)]
            + [scalar_tally_diff(j, n, divisors, sizes[j], table) for j in range(2, i)]
            + [sizes[i]])


def scalar_records(start: int, stop: int, table: PrimeTable):
    """The JSONL record lines ``verify`` writes for [start, stop] (without
    its summary), one ``json.dumps`` per odd composite, from
    ``scalar_class_scores``."""
    for n in range(start | 1, stop + 1, 2):
        if factorize(n, table).distinct_primes[0] == n:
            continue
        vals = scalar_class_scores(n, table)
        i, chosen = len(vals) - 1, vals.index(max(vals))
        yield json.dumps({"n": n, "spf_index": i,
                          "deltas": {str(j): vals[j] for j in range(1, i + 1)},
                          "chosen_j": chosen, "expected_j": i,
                          "status": "pass" if chosen == i else "fail"}) + "\n"


def naive_greedy(n: int) -> list[set[int]]:
    """Literal greedy: adjoin 2..n, each to the class minimizing new conflicts.

    Classes are sets; candidate scores are computed by rescanning gcds, and
    the earliest-created class wins ties (a fresh singleton is considered
    first).  Returns the list of classes in creation order.
    """
    classes: list[set[int]] = [{2}]
    for m in range(3, n + 1):
        friends_total = sum(1 for a in range(2, m) if gcd(a, m) > 1)
        # the fresh singleton is the incumbent: it separates every friend of m
        best_score = friends_total
        best_idx = -1
        for idx, cls in enumerate(classes):
            kept_enemies = sum(1 for a in cls if gcd(a, m) == 1)
            kept_friends = len(cls) - kept_enemies
            score = kept_enemies + (friends_total - kept_friends)
            if score < best_score:  # strict: earlier candidates win ties
                best_score = score
                best_idx = idx
        if best_idx == -1:
            classes.append({m})
        else:
            classes[best_idx].add(m)
    return classes


def segmented_prime_count(x: int, block: int = 1 << 16) -> int:
    """pi(x) by an independent segmented sieve."""
    if x < 2:
        return 0
    base = list(range(2, isqrt(x) + 1))
    is_p = [True] * len(base)
    for i, v in enumerate(base):
        if is_p[i]:
            for k in range(v * v, base[-1] + 1, v):
                is_p[k - 2] = False
    small = [v for i, v in enumerate(base) if is_p[i]]
    count = sum(1 for v in small if v <= x)
    lo = base[-1] + 1
    while lo <= x:
        hi = min(x, lo + block - 1)
        seg = bytearray([1]) * (hi - lo + 1)
        for v in small:
            start = max(v * v, (lo + v - 1) // v * v)
            for k in range(start, hi + 1, v):
                seg[k - lo] = 0
        count += sum(seg)
        lo = hi + 1
    return count


def count_with_multiplicity(p: int, bound: int, table: PrimeTable) -> int:
    """Integers n < bound whose smallest prime is p and which have exactly
    three distinct prime factors, any multiplicities: a depth-first walk
    over prime powers, the reading the census's distinct-prime count is
    checked against."""
    if table.limit < census_table_limit(p, bound):
        raise OutOfRangeError(f"the census of {p} below {bound} needs primes up to "
                              f"{census_table_limit(p, bound)}")
    primes = table.primes.tolist()
    count = 0
    stack = []
    ip = primes.index(p)
    v = p
    while v < bound:
        stack.append((v, ip, 1))
        v *= p
    while stack:
        value, last, npr = stack.pop()
        if npr == 3:
            count += 1
            continue
        k = last + 1
        while k < len(primes) and value * primes[k] < bound:
            q = primes[k]
            v = value * q
            while v < bound:
                stack.append((v, k, npr + 1))
                v *= q
            k += 1
    return count


def threshold_T_stepwise(i: int, j: int, t: int, table: PrimeTable) -> Fraction:
    """The threshold density T of ``thresholds.threshold_T`` as the literal
    product of reduced fractions, one factor (1 - 1/p) at a time."""
    term_i = Fraction(1, table.prime(i))
    for l in range(1, i):
        pl = table.prime(l)
        term_i *= Fraction(pl - 1, pl)
    prod_q = Fraction(1)
    for k in range(t):
        q = table.prime(i + k)
        prod_q *= Fraction(q - 1, q)
    term_j = Fraction(1, table.prime(j))
    for l in range(1, j):
        pl = table.prime(l)
        term_j *= Fraction(pl - 1, pl)
    return term_i + term_j * (2 * prod_q - 1)


def size_S_exact(i: int, u: int, table: PrimeTable,
                 max_index: int = DEFAULT_MAX_SMALL_INDEX) -> int:
    """|S_{i,u}| by the literal alternating sum over subsets of smaller primes.

    Refuses i beyond ``max_index`` since the term count grows like 2**(i-1).
    """
    return _size_S_termsum(i, u, table, max_index).value


def _size_S_termsum(i: int, u: int, table: PrimeTable,
                    max_index: int = DEFAULT_MAX_SMALL_INDEX) -> SieveTermSum:
    if i < 1:
        raise ValueError(f"need class index >= 1, got {i}")
    if u < 2:
        return SieveTermSum(0, 0)
    if i > max_index:
        raise BudgetExceededError(
            f"subset sum over 2**{i - 1} terms refused (index budget {max_index})")
    smalls = [table.prime(l) for l in range(1, i)]
    return SieveTermSum(*_alternating_small_sum(u, table.prime(i), smalls))


def tally_exact(j: int, n: int, f, table: PrimeTable,
                max_terms: int = DEFAULT_MAX_TERMS) -> ClassTally:
    """Exact tally of class j against probe n by double inclusion-exclusion.

    Needs odd n.  Valid for j == 1 (the totient shortcut) or for j >= 2 with
    p_j smaller than every prime divisor of n.  The double subset
    walk runs over nonempty subsets of n's prime divisors crossed with subsets
    of the first j-1 primes; refused if that exceeds ``max_terms``.
    """
    if f.n != n:
        raise ValueError(f"factorization is for {f.n}, not {n}")
    if j < 1:
        raise ValueError(f"need class index >= 1, got {j}")
    if n % 2 == 0:
        raise UnsupportedCaseError(f"class {j} tally needs odd n, got {n}")
    if j == 1:  # the even coprime residues are half the totient
        enemies = totient(f) // 2
        return ClassTally(1, n, (n - 1) // 2 - enemies, enemies)
    p_j = table.prime(j)
    qs = f.distinct_primes
    if p_j >= qs[0]:
        raise UnsupportedCaseError(
            f"p_{j} = {p_j} must be below the smallest prime divisor {qs[0]} of {n}")
    t = len(qs)
    if (1 << (t + j - 1)) > max_terms:
        raise BudgetExceededError(
            f"2**{t + j - 1} inclusion-exclusion terms exceed budget {max_terms}")
    friends = _friends_termsum(j, n, qs, table)
    s_j = size_S_exact(j, n - 1, table)
    return ClassTally(j, n, friends.value, s_j - friends.value)


def _friends_termsum(j: int, n: int, qs, table: PrimeTable) -> SieveTermSum:
    """The double alternating sum for |friends of n in class j|, with its
    floor-evaluation count (bounded by 2**(t+j-1) before pruning)."""
    p_j = table.prime(j)
    smalls = [table.prime(l) for l in range(1, j)]
    total = 0
    terms = 0
    for mask in range(1, 1 << len(qs)):
        d = p_j
        for k, q in enumerate(qs):
            if mask >> k & 1:
                d *= q
        sub, nterms = _alternating_small_sum(n - 1, d, smalls)
        terms += nterms
        total += sub if bin(mask).count("1") % 2 == 1 else -sub
    return SieveTermSum(total, terms)


def _alternating_small_sum(x: int, denom: int, smalls: list) -> tuple[int, int]:
    """sum over subsets H of smalls of (-1)^|H| * floor(x / (denom * prod H)),
    with the number of floor terms evaluated (zero-floor branches pruned)."""
    total = 0
    terms = 0

    def walk(pos: int, d: int, sign: int) -> None:
        nonlocal total, terms
        total += sign * (x // d)
        terms += 1
        for k in range(pos, len(smalls)):
            nd = d * smalls[k]
            if nd > x:
                break  # primes ascend: every deeper subset also floors to zero
            walk(k + 1, nd, -sign)

    walk(0, denom, 1)
    return total, terms


def tally_wheel_oracle(j: int, n: int, table: PrimeTable) -> ClassTally:
    """Enumerate S_{j,n-1} on a mod-210 wheel and classify against n.

    For j >= 5 the members are p_j * k with k coprime to 210, filtered by the
    primes strictly between 7 and p_j; for j < 5 a plain stride enumeration
    over multiples of p_j is used instead.  Runtime is linear in n / p_j.
    """
    if j < 1:
        raise ValueError(f"need class index >= 1, got {j}")
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    p_j = table.prime(j)
    if j >= 5:
        ks = _wheel_coprime_upto((n - 1) // p_j)
        for l in range(5, j):
            ks = ks[ks % table.prime(l) != 0]
    else:
        ms = np.arange(p_j, n, p_j, dtype=np.int64)
        keep = np.ones(len(ms), dtype=bool)
        for l in range(1, j):
            keep &= ms % table.prime(l) != 0
        ks = ms[keep] // p_j
    if len(ks) == 0:
        return ClassTally(j, n, 0, 0)
    friend = np.zeros(len(ks), dtype=bool)
    for q, _ in factorize(n, table).factors:
        if q == p_j:
            friend[:] = True
            break
        friend |= ks % q == 0
    friends = int(np.count_nonzero(friend))
    return ClassTally(j, n, friends, len(ks) - friends)


def _wheel_coprime_upto(k_max: int) -> np.ndarray:
    """All integers in [1, k_max] coprime to 210, via the 48 residues."""
    if k_max < 1:
        return np.zeros(0, dtype=np.int64)
    n_blocks = k_max // _WHEEL_MODULUS + 1
    ks = (np.arange(n_blocks, dtype=np.int64)[:, None] * _WHEEL_MODULUS
          + _WHEEL_RESIDUES[None, :]).ravel()
    return ks[(ks >= 1) & (ks <= k_max)]
