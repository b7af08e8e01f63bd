"""Threshold analysis: where can the greedy leave the regular clustering?

For odd n divisible by 3, the greedy prefers the even class over the class of
3 exactly when the product of (1 - 1/q) over n's prime divisors beyond 3 drops
below 1/2.  That criterion ignores exponents, so the smallest crossing point
is a product of consecutive odd primes; walking those products finds the first
irregular integer 111_546_435 instantly.  The same density test and walk, with
13/24 from 5, give the analogous candidate among multiples of 5.

For larger smallest-prime-factor indices the exact criterion is replaced by a
sufficient threshold n1(i, j, t): any n at least n1 with t distinct prime
factors starting at the i-th prime provably cannot land in class j.  Cells
where n1 does not exceed the smallest possible such n certify the whole (i, t)
family at once ("infeasible": no candidate escapes); the remaining cells leave
finitely many candidates below n1, which the census counts for the
three-prime-factor hunt, one pi difference per middle prime.

All threshold arithmetic is exact rational; ceilings and floors are taken on
integer numerators and denominators, never through floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, prod

from .errors import DegenerateThresholdError, OutOfRangeError
from .primes import Factorization, PrimeTable, factorize, rosser_schoenfeld_bounds

# 3*5*7*11*13*17*19*23: the first integer the greedy clusters irregularly.
FIRST_IRREGULAR = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23

# Published counts of three-prime-factor candidates, for reporting
# residuals of the calibrated interpretation (see census_report).
_REPORTED_CENSUS = {19: 4, 23: 18, 29: 65, 31: 216, 37: 513, 41: 1302, 43: 3097, 67: 90338}


@dataclass(frozen=True)
class ThresholdRecord:
    """One cell of the threshold table.

    ``infeasible`` means the threshold certifies every candidate: n1 is at
    most the product of the t consecutive primes starting at p_i, i.e. no
    integer with that factor signature can violate the class-i selection.
    """

    i: int
    j: int
    t: int
    n1: int
    infeasible: bool


@dataclass(frozen=True)
class CandidateCensus:
    """Count of integers below ``bound`` divisible by p with exactly three
    distinct prime divisors, all at least p."""

    p: int
    bound: int
    count: int


def even_class_criterion(f: Factorization) -> bool:
    """Exponent-free criterion: does this integer prefer the even class?

    Requires an odd n divisible by 3 (smallest prime divisor exactly 3).
    True iff prod over the remaining prime divisors of (1 - 1/q) < 1/2.
    """
    qs = f.distinct_primes
    if not qs or qs[0] != 3:
        raise ValueError(f"criterion needs smallest prime divisor 3, got {f.n}")
    return _density_below(qs[1:], Fraction(1, 2))


def _density_below(qs, ratio: Fraction) -> bool:
    """prod (1 - 1/q) over the primes ``qs`` < ``ratio``, in exact integers."""
    return prod(q - 1 for q in qs) * ratio.denominator < prod(qs) * ratio.numerator


def _first_crossing(i: int, ratio: Fraction, table: PrimeTable,
                    bound: int | None = None) -> int | None:
    """p_i times the primes after it, in order, up to the first with which
    their density (p_i's own factor left out) drops below ``ratio``; None
    once the product passes ``bound``."""
    product, qs = table.prime(i), []
    while not _density_below(qs, ratio):
        qs.append(table.prime(i + 1 + len(qs)))
        product *= qs[-1]
        if bound is not None and product > bound:
            return None
    return product


def find_n0(search_bound: int, table: PrimeTable) -> int | None:
    """Smallest odd multiple of 3 up to ``search_bound`` preferring class 1.

    Walks 3 * 5 * 7 * ... over consecutive primes until the criterion holds.
    That is enough: the criterion reads only the distinct primes beyond 3,
    so an integer qualifies with its squarefree kernel, which is no larger;
    and among kernels with k primes beyond 3, the consecutive one is the
    smallest and has the lowest density, so it qualifies whenever any does.
    The density falls with each prime added, so the walk's first crossing
    is the minimum.  Returns None when nothing below the bound qualifies.
    """
    if search_bound < 3:
        return None
    return _first_crossing(2, Fraction(1, 2), table, search_bound)


def n1_remark_candidate(table: PrimeTable) -> int:
    """The analogous first-irregular candidate among multiples of 5.

    The even class beats the class of 5, whose density below n is 1/15,
    when (n-1)/2 - phi(n) > n/15, i.e. phi(n)/n < 13/30, i.e. the product
    of (1 - 1/q) over the primes beyond 5 is below 13/24.  The walk from 5
    stops at its first crossing, 5 * p_4 * ... * p_14.
    """
    return _first_crossing(3, Fraction(13, 24), table)


def threshold_T(i: int, j: int, t: int, table: PrimeTable) -> Fraction:
    """The per-integer margin density between class i and class j < i, reduced."""
    return Fraction(*_threshold_parts(i, j, t, table))


def _threshold_parts(i: int, j: int, t: int, table: PrimeTable) -> tuple[int, int]:
    """``threshold_T`` as a numerator and a positive denominator, unreduced:

    T = (1/p_i) prod_{l<i}(1 - 1/p_l)
      + (1/p_j) prod_{l<j}(1 - 1/p_l) * (2 prod_k(1 - 1/q_k) - 1)

    with q_1..q_t the t consecutive primes starting at p_i (that choice
    minimizes the product term, making the derived threshold safe for every
    admissible divisor set).  Both terms are put over the primorial of q_t
    in integers; a reduction costs a gcd of integers of a million bits at
    i = 78498, which ``n1_table`` does without.
    """
    if not i > j >= 1 or t < 1:
        raise ValueError(f"need i > j >= 1 and t >= 1, got (i={i}, j={j}, t={t})")
    table.prime(i + t - 1)  # raises if the table does not reach q_t
    primes = table._primes_view
    head, mid, qs = primes[:j - 1], primes[j - 1:i - 1], primes[i - 1:i - 1 + t]
    num_q, den_q = _product([q - 1 for q in qs]), _product(qs)
    # over the product of the primes up to q_t, with [xs] = prod (p - 1):
    # term i = [head][mid] * prod qs[1:],
    # term j = [head](2 num_q - den_q) * prod mid[1:]
    num = _product([p - 1 for p in head]) * (
        _product([p - 1 for p in mid]) * _product(qs[1:])
        + (2 * num_q - den_q) * _product(mid[1:]))
    return num, _product(head) * _product(mid) * den_q


def _product(xs: list[int]) -> int:
    """Product of ``xs``, halves first, so that large factors meet equals."""
    if len(xs) <= 16:
        return prod(xs)
    h = len(xs) // 2
    return _product(xs[:h]) * _product(xs[h:])


def n1_table(i: int, j: int, t: int, table: PrimeTable) -> ThresholdRecord:
    """Threshold cell n1(i, j, t) with its certification flag.

    n1 = floor((2**(t+j-2) + 2**(i-2)) / T) in exact rational arithmetic.
    ``infeasible`` is set when n1 is at most the product of the t consecutive
    primes starting at p_i: then every actual candidate already clears the
    threshold and the (i, t) family is certified wholesale.
    """
    num, den = _threshold_parts(i, j, t, table)  # T = num / den, den > 0
    if num <= 0:
        raise DegenerateThresholdError(
            f"threshold density T <= 0 for (i={i}, j={j}, t={t}); no finite bound")
    error_budget = (1 << (t + j - 2)) + (1 << (i - 2))
    n1 = error_budget * den // num
    smallest_candidate = prod(table.prime(i + k) for k in range(t))
    return ThresholdRecord(i=i, j=j, t=t, n1=n1, infeasible=n1 <= smallest_candidate)


def table1_records(table: PrimeTable) -> list[ThresholdRecord]:
    """All displayed threshold cells n1(i, i-1, t).

    A cell (i, t) is displayed while both the smallest candidate (product of
    t consecutive primes from p_i) and the threshold itself stay within
    ``FIRST_IRREGULAR``; everything beyond cannot matter below the first
    irregularity.
    """
    records = []
    for i in range(3, 21):
        t = 1
        while True:
            smallest = prod(table.prime(i + k) for k in range(t))
            if smallest > FIRST_IRREGULAR:
                break
            rec = n1_table(i, i - 1, t, table)
            if rec.n1 > FIRST_IRREGULAR:
                break
            records.append(rec)
            t += 1
    return records


def _next_prime(x: int) -> int:
    q = x + 1
    while any(q % d == 0 for d in range(2, isqrt(q) + 1)):
        q += 1
    return q


def census_table_limit(p: int, bound: int | None = None) -> int:
    """The table limit a census of p below ``bound`` reads: p itself and every
    r of a candidate p*q*r < bound, so max(p, (bound-1) // (p*q)) with q the
    prime after p.  With no bound, the census's default bound n1(i, i-1, 3)
    (capped at the first irregular integer) also reads the two primes after p.
    """
    if p < 2:
        raise ValueError(f"the census needs a prime p >= 2, got {p}")
    q = _next_prime(p)
    if bound is None:
        return max(_next_prime(q), census_table_limit(p, FIRST_IRREGULAR))
    return max(p, (bound - 1) // (p * q))


def _census_ranges(p: int, bound: int, table: PrimeTable):
    """Per prime q > p with a candidate p*q*r < bound, the pair (q, ks): ks
    the range of 0-based table indices of the primes r > q with p*q*r <
    bound, ending at pi((bound - 1) // (p*q)).  Raises OutOfRangeError when
    the table stops below ``census_table_limit(p, bound)``."""
    iq = table.prime_index(p)  # raises unless p is a stored prime; q's 0-based index
    need = census_table_limit(p, bound)
    if table.limit < need:
        raise OutOfRangeError(f"the census of {p} below {bound} needs primes up "
                              f"to {need}, the table stops at {table.limit}")
    primes = table._primes_view
    while iq + 1 < len(primes) and p * primes[iq] * primes[iq + 1] < bound:
        yield primes[iq], range(iq + 1, table.pi((bound - 1) // (p * primes[iq])))
        iq += 1


def three_factor_candidates(p: int, bound: int, table: PrimeTable) -> list[int]:
    """All n < bound with n = p*q*r, p < q < r prime (distinct-prime reading).

    Sorted ascending.  With multiplicities allowed no additional integers fit
    below any of the calibrated bounds, so the distinct reading is also the
    exhaustive one there (property-tested).  Raises OutOfRangeError when the
    table stops below ``census_table_limit(p, bound)``.
    """
    primes = table._primes_view
    return sorted(p * q * primes[k] for q, ks in _census_ranges(p, bound, table) for k in ks)


def census_three_factor(p: int, bound: int | None, table: PrimeTable) -> CandidateCensus:
    """Count the three-prime-factor candidates for prime p below ``bound``,
    one pi difference per q, listing none.

    Default bound: the class-certification threshold n1(i, i-1, 3) for p's
    index i, capped at the first irregular integer (candidates beyond it are
    moot).
    """
    i = table.prime_index(p)
    if bound is None:
        bound = min(n1_table(i, i - 1, 3, table).n1, FIRST_IRREGULAR)
    return CandidateCensus(p=p, bound=bound,
                           count=sum(len(ks) for _, ks in _census_ranges(p, bound, table)))


def census_report(table: PrimeTable, ps=(19, 23, 29, 31, 37, 41, 43),
                  include_remark_prime: bool = False) -> list[dict]:
    """Census rows with calibration bookkeeping against the reported counts.

    The calibrated interpretation (bound = n1(i, i-1, 3) capped at the first
    irregular integer, distinct three primes, strict upper bound) reproduces
    the seven reported counts for p = 19..43 exactly.  No interpretation we
    tried reproduces the reported 90338 for p = 67; the row reports the
    calibrated count and the residual rather than adjusting anything.
    """
    rows = []
    wanted = list(ps) + ([67] if include_remark_prime else [])
    for p in wanted:
        c = census_three_factor(p, None, table)
        reported = _REPORTED_CENSUS.get(p)
        rows.append({
            "p": p,
            "bound": c.bound,
            "count": c.count,
            "reported": reported,
            "residual": None if reported is None else c.count - reported,
        })
    return rows


def prime_count_inequality(x_grid, t_grid, table: PrimeTable) -> list[dict]:
    """Check pi(x) - pi(sqrt(x)) > 18 pi(x/t) + 56 on a grid, exactly.

    Each row reports the exact counts, the margin, and whether the classical
    two-sided prime-counting bracket alone already suffices (lower(x) -
    upper(sqrt x) > 18 upper(x/t) + 56).  Points with x beyond the table get
    the bracket check only and are flagged inexact.
    """
    min_x = FIRST_IRREGULAR ** (2.0 / 3.0)
    rows = []
    for x in x_grid:
        if x < min_x - 1e-9:
            raise ValueError(f"x={x} below the inequality's domain {min_x:.1f}")
        for t in t_grid:
            if t < 41:
                raise ValueError(f"t={t} below the inequality's domain 41")
            xf = int(x)
            sq = isqrt(xf)
            quot = int(x / t)
            row = {"x": x, "t": t}
            if xf <= table.limit:
                pi_x = table.pi(xf)
                pi_sq = table.pi(sq)
                pi_q = table.pi(quot)
                lhs = pi_x - pi_sq
                rhs = 18 * pi_q + 56
                row.update({"pi_x": pi_x, "pi_sqrt": pi_sq, "pi_quot": pi_q,
                            "lhs": lhs, "rhs": rhs, "margin": lhs - rhs,
                            "holds": lhs > rhs, "exact": True})
            else:
                row.update({"exact": False})
            if sq >= 59 and quot >= 59:
                lo_x, _ = rosser_schoenfeld_bounds(float(x))
                _, up_sq = rosser_schoenfeld_bounds(float(sq))
                _, up_q = rosser_schoenfeld_bounds(float(quot))
                row["rs_sufficient"] = lo_x - up_sq > 18 * up_q + 56
            else:
                row["rs_sufficient"] = None
            rows.append(row)
    return rows


def proposition_census(n: int, ell: int, table: PrimeTable) -> tuple[int, int]:
    """Friend/enemy bounds for large-prime n against a class below it.

    For n below the first irregular integer with every prime divisor at least
    41, and a class index ell with 37 <= p_ell < smallest divisor of n:
    returns (friends_bound, enemies_bound) where the friends of n in class
    ell number at most 52 + 18 pi(N/(p_ell q1)) and the enemies at least
    pi(N/p_ell) - pi(p_ell) - 4, N the first irregular integer.  Callers
    assert friends_bound < enemies_bound.
    """
    if n >= FIRST_IRREGULAR:
        raise ValueError(f"n={n} is not below the first irregular integer")
    f = factorize(n, table)
    qs = f.distinct_primes
    if qs[0] < 41:
        raise ValueError(f"n={n} has a prime divisor {qs[0]} < 41")
    big_omega = sum(a for _, a in f.factors)
    if big_omega > 4:
        raise ValueError(f"n={n} has {big_omega} prime divisors with multiplicity")
    p_ell = table.prime(ell)
    if not (37 <= p_ell < qs[0]):
        raise ValueError(f"need 37 <= p_ell < {qs[0]}, got p_ell={p_ell}")
    q1 = qs[0]
    friends_bound = 52 + 18 * table.pi(FIRST_IRREGULAR // (p_ell * q1))
    enemies_bound = table.pi(FIRST_IRREGULAR // p_ell) - table.pi(p_ell) - 4
    return friends_bound, enemies_bound


def table1_csv(records, table: PrimeTable) -> str:
    lines = ["i,p,t,n1,infeasible"]
    for r in records:
        lines.append(f"{r.i},{table.prime(r.i)},{r.t},{r.n1},{int(r.infeasible)}")
    return "\n".join(lines) + "\n"
