"""Irregularity thresholds, the first-irregular search, tables, and censuses."""

import random
from fractions import Fraction
from functools import lru_cache
from math import isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdcluster import (
    DegenerateThresholdError,
    FIRST_IRREGULAR,
    OutOfRangeError,
    build_prime_table,
    census_report,
    census_three_factor,
    even_class_criterion,
    prime_count_inequality,
    factorize,
    find_n0,
    n1_remark_candidate,
    n1_table,
    proposition_census,
    table1_records,
    three_factor_candidates,
)
from gcdcluster.thresholds import _density_below, census_table_limit, table1_csv, threshold_T
from oracles import count_with_multiplicity, naive_spf, tally_wheel_oracle, threshold_T_stepwise

# The published threshold table n1(i, i-1, t): {i: [(t, n1, certified), ...]},
# certified = the displayed italics = every candidate of the (i, t) family
# clears the threshold.
PUBLISHED_TABLE = {
    3: [(1, 24, 0), (2, 46, 0), (3, 92, 1), (4, 196, 1), (5, 422, 1), (6, 929, 1), (7, 2044, 1)],
    4: [(1, 93, 0), (2, 159, 0), (3, 297, 1), (4, 583, 1), (5, 1194, 1), (6, 2480, 1)],
    5: [(1, 308, 0), (2, 514, 0), (3, 933, 1), (4, 1813, 1), (5, 3654, 1), (6, 7471, 1)],
    6: [(1, 953, 0), (2, 1533, 0), (3, 2720, 1), (4, 5157, 1), (5, 10151, 1), (6, 20484, 1)],
    7: [(1, 2521, 0), (2, 4033, 0), (3, 7091, 1), (4, 13318, 1), (5, 26186, 1)],
    8: [(1, 6531, 0), (2, 10285, 0), (3, 17815, 0), (4, 33246, 1), (5, 64728, 1)],
    9: [(1, 15889, 0), (2, 24799, 0), (3, 42901, 0), (4, 79673, 1), (5, 154809, 1)],
    10: [(1, 40751, 0), (2, 63466, 0), (3, 109166, 0), (4, 202185, 1), (5, 392470, 1)],
    11: [(1, 98726, 0), (2, 152425, 0), (3, 260747, 0), (4, 481157, 1), (5, 929762, 1)],
    12: [(1, 228806, 0), (2, 352739, 0), (3, 603486, 0), (4, 1112639, 1)],
    13: [(1, 542016, 0), (2, 833706, 0), (3, 1421830, 0), (4, 2612025, 1)],
    14: [(1, 1198905, 0), (2, 1838933, 0), (3, 3126106, 0), (4, 5727822, 1)],
    15: [(1, 2623122, 0), (2, 4014787, 0), (3, 6813569, 0), (4, 12481252, 0)],
    16: [(1, 5937759, 0), (2, 9071489, 0), (3, 15389987, 0), (4, 28153619, 0)],
    17: [(1, 13554766, 0), (2, 20693167, 0), (3, 35045873, 0), (4, 64044517, 0)],
    18: [(1, 29627101, 0), (2, 45131528, 0), (3, 76322166, 0)],
    19: [(1, 64068095, 0), (2, 97553073, 0)],
}

PUBLISHED_CENSUS = {19: 4, 23: 18, 29: 65, 31: 216, 37: 513, 41: 1302, 43: 3097}


# ------------------------------------------------------ exponent-free criterion

def test_criterion_at_first_irregular(table):
    assert even_class_criterion(factorize(FIRST_IRREGULAR, table))


def test_criterion_small_kernel_fails(table):
    assert not even_class_criterion(factorize(3 * 5 * 7, table))


def test_criterion_multiple_of_first_irregular(table):
    assert even_class_criterion(factorize(9 * FIRST_IRREGULAR, table))


def test_criterion_needs_divisor_three(table):
    with pytest.raises(ValueError):
        even_class_criterion(factorize(5 * 7, table))


def test_criterion_is_exponent_invariant(table):
    rng = random.Random(41)
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    for _ in range(1000):
        ks = sorted(rng.sample(odd_primes[1:], rng.randrange(0, 6)))
        qs = [3] + ks
        kernel = 1
        n = 1
        for q in qs:
            kernel *= q
            n *= q ** rng.randrange(1, 4)
        assert even_class_criterion(factorize(n, table)) \
            == even_class_criterion(factorize(kernel, table))


# ------------------------------------------------------------------ the search

def test_find_first_irregular(table):
    assert find_n0(2 * 10 ** 8, table) == FIRST_IRREGULAR


def test_find_below_horizon_is_empty(table):
    assert find_n0(10 ** 6, table) is None


def test_find_boundary_inclusive(table):
    assert find_n0(FIRST_IRREGULAR, table) == FIRST_IRREGULAR
    assert find_n0(FIRST_IRREGULAR - 1, table) is None


def test_search_agrees_with_greedy_anomaly(table):
    # the first integer failing the per-n check is the search result;
    # below it the 1e6 sweep in the acceptance module reports none
    n = find_n0(2 * 10 ** 8, table)
    from gcdcluster import verify_single

    rec = verify_single(n, table)
    assert rec.status == "fail"


# -------------------------------------------------------------- remark value

def test_remark_candidate_value(table):
    assert n1_remark_candidate(table) == 2180460221945005


def test_remark_candidate_not_divisible_by_three(table):
    assert n1_remark_candidate(table) % 3 != 0


def test_walks_stop_at_first_crossing(table):
    # each walk's product holds its density test, and fails it without its last prime
    remark = [7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]
    assert _density_below(remark, Fraction(13, 24))
    assert not _density_below(remark[:-1], Fraction(13, 24))
    assert n1_remark_candidate(table) == 5 * prod(remark)
    beyond_3 = factorize(FIRST_IRREGULAR, table).distinct_primes[1:]
    assert beyond_3 == (5, 7, 11, 13, 17, 19, 23)
    assert _density_below(beyond_3, Fraction(1, 2))
    assert not _density_below(beyond_3[:-1], Fraction(1, 2))
    assert find_n0(2 * 10 ** 8, table) == 3 * prod(beyond_3)


# ------------------------------------------------------------ threshold table

def test_n1_examples(table):
    assert n1_table(3, 2, 1, table).n1 == 24
    assert n1_table(4, 3, 1, table).n1 == 93
    rec = n1_table(7, 6, 5, table)
    assert rec.n1 == 26186 and rec.infeasible


def test_published_table_reproduced_exactly(table):
    recs = table1_records(table)
    got = {}
    for r in recs:
        got.setdefault(r.i, []).append((r.t, r.n1, int(r.infeasible)))
    assert got == PUBLISHED_TABLE
    assert sum(len(v) for v in got.values()) == 79


def test_n1_monotone_in_j(table):
    for i, t in [(5, 2), (9, 3), (14, 1), (19, 2)]:
        values = [n1_table(i, j, t, table).n1 for j in range(1, i)]
        assert values == sorted(values), (i, t)


def test_threshold_density_positive_cells(table):
    for i, rows in PUBLISHED_TABLE.items():
        for t, _, _ in rows:
            assert threshold_T(i, i - 1, t, table) > 0


@pytest.mark.parametrize("i, j, t", [(2, 1, 1), (3, 1, 20), (5, 4, 3), (9, 3, 2),
                                     (20, 19, 5), (2000, 1999, 3), (8000, 7999, 3),
                                     (8000, 2, 4)])
def test_threshold_density_matches_stepwise_product(table, i, j, t):
    assert threshold_T(i, j, t, table) == threshold_T_stepwise(i, j, t, table)


def test_n1_unreduced_equals_floor_of_reduced_density(table):
    # n1_table divides by T unreduced; the floor is that of the reduced fraction
    cells = [(r.i, r.j, r.t) for r in table1_records(table)]
    cells.append((table.prime_index(999983), table.prime_index(999983) - 1, 3))
    for i, j, t in cells:
        T = threshold_T(i, j, t, table)
        budget = (1 << (t + j - 2)) + (1 << (i - 2))
        assert n1_table(i, j, t, table).n1 == budget * T.denominator // T.numerator


def test_degenerate_threshold(table):
    with pytest.raises(DegenerateThresholdError):
        n1_table(3, 1, 20, table)


def test_n1_rejects_bad_indices(table):
    with pytest.raises(ValueError):
        n1_table(3, 3, 1, table)
    with pytest.raises(ValueError):
        n1_table(3, 2, 0, table)
    with pytest.raises(ValueError):
        threshold_T(3, 3, 1, table)


def test_table_csv_shape(table):
    text = table1_csv(table1_records(table), table)
    lines = text.strip().split("\n")
    assert lines[0] == "i,p,t,n1,infeasible"
    assert len(lines) == 80
    assert lines[1] == "3,5,1,24,0"
    assert lines[3] == "3,5,3,92,1"


# -------------------------------------------------------------------- census

def test_census_published_counts(table):
    for p, want in PUBLISHED_CENSUS.items():
        c = census_three_factor(p, None, table)
        assert c.count == want, p


def test_census_19_candidates_listed(table):
    cands = three_factor_candidates(19, 17815, table)
    assert cands == [12673, 13547, 16169, 17081]
    assert [factorize(n, table).distinct_primes for n in cands] == [
        (19, 23, 29), (19, 23, 31), (19, 23, 37), (19, 29, 31)]


def test_census_multiplicity_reading_identical_here(table):
    # higher-multiplicity variants never fit below these bounds
    for p in PUBLISHED_CENSUS:
        strict = census_three_factor(p, None, table)
        assert strict.count == count_with_multiplicity(p, strict.bound, table), p


def test_census_explicit_bound(table):
    assert census_three_factor(19, 12674, table).count == 1
    assert census_three_factor(19, 12673, table).count == 0


def test_census_remark_prime_residual_documented(table):
    rows = census_report(table, include_remark_prime=True)
    assert [r["p"] for r in rows] == [19, 23, 29, 31, 37, 41, 43, 67]
    for r in rows[:-1]:
        assert r["residual"] == 0, r
    last = rows[-1]
    # no bound interpretation we found reproduces the reported 90338; the
    # calibrated reading (threshold capped at the first irregular integer)
    # gives 88798 and the report carries the residual rather than hiding it
    assert last["reported"] == 90338
    assert last["count"] == 88798
    assert last["residual"] == -1540
    assert last["bound"] == FIRST_IRREGULAR


def test_census_small_table_refused(small_table):
    # 19 * 23 * r < 10^6 reaches r = 2288; a table to 1000 would miss most of them
    table = build_prime_table(1000)
    with pytest.raises(OutOfRangeError, match="needs primes up to 2288"):
        three_factor_candidates(19, 10 ** 6, table)
    with pytest.raises(OutOfRangeError, match="needs primes up to 2288"):
        census_three_factor(19, 10 ** 6, table)
    with pytest.raises(OutOfRangeError, match="needs primes up to 2288"):
        count_with_multiplicity(19, 10 ** 6, table)
    assert census_table_limit(19, 10 ** 6) == 2288
    assert 19 * 23 * 2287 in three_factor_candidates(19, 10 ** 6, small_table)


def test_census_rejects_non_prime(table):
    with pytest.raises(ValueError):
        census_three_factor(21, None, table)
    for p in (1, 0, -5):  # no prime below 2; the limit refuses before dividing by p
        with pytest.raises(ValueError, match="prime p >= 2"):
            census_table_limit(p, 10 ** 6)


@lru_cache(maxsize=None)
def _spf_upto(limit: int) -> np.ndarray:
    """Smallest prime factor of each m in [0, limit] by a plain list sieve (spf[1] = 1)."""
    spf = list(range(limit + 1))
    for d in range(2, isqrt(limit) + 1):
        if spf[d] == d:
            for k in range(d * d, limit + 1, d):
                if spf[k] == k:
                    spf[k] = d
    return np.array(spf)


_PRIMES_TO_100 = [q for q in range(2, 101) if naive_spf(q) == q]


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from(_PRIMES_TO_100), bound=st.integers(1, 10 ** 6))
@example(p=2, bound=10 ** 6)
@example(p=19, bound=19 * 23 * 29)
@example(p=19, bound=19 * 23 * 29 + 1)
@example(p=97, bound=97 * 101 * 103 + 1)
def test_census_count_matches_listing_and_brute_force(table, p, bound):
    # m = q * r below bound / p with p < q < r prime, read off a plain sieve
    m = np.arange(1, (bound - 1) // p + 1)
    spf = _spf_upto(10 ** 6 // 2)
    q = spf[m]
    brute = int(np.count_nonzero((q > p) & (m // q > q) & (spf[m // q] == m // q)))
    assert census_three_factor(p, bound, table).count == brute
    assert len(three_factor_candidates(p, bound, table)) == brute


# ----------------------------------------------- prime-count inequality check

def test_prime_count_inequality_grid(table):
    min_x = FIRST_IRREGULAR ** (2.0 / 3.0)
    rows = prime_count_inequality([min_x, 10 ** 6, 10 ** 7], [41, 43, 47, 53], table)
    assert len(rows) == 12
    for row in rows:
        assert row["exact"] and row["holds"], row
        assert row["margin"] > 0
        assert row["rs_sufficient"] is True


def test_prime_count_inequality_rhs_monotone_in_t(table):
    x = 10 ** 6
    rows = prime_count_inequality([x], [41, 53, 101, 1009], table)
    rhs = [r["rhs"] for r in rows]
    assert rhs == sorted(rhs, reverse=True)
    assert all(r["rhs"] >= 56 for r in rows)


def test_prime_count_inequality_domain_checks(table):
    with pytest.raises(ValueError):
        prime_count_inequality([1000.0], [41], table)
    with pytest.raises(ValueError):
        prime_count_inequality([10 ** 6], [40], table)


# -------------------------------------------------- large-prime bound census

def test_proposition_bounds_hold(table):
    n = 41 * 43 * 47  # smallest prime 41
    fb, eb = proposition_census(n, 12, table)  # p_12 = 37
    assert fb < eb
    fb, eb = proposition_census(43 * 47 * 53, 13, table)  # p_13 = 41 < 43
    assert fb < eb


def test_proposition_bound_values(table):
    n = 41 * 43 * 47
    fb, eb = proposition_census(n, 12, table)
    assert fb == 52 + 18 * table.pi(FIRST_IRREGULAR // (37 * 41))
    assert eb == table.pi(FIRST_IRREGULAR // 37) - table.pi(37) - 4


def test_proposition_rejects_bad_inputs(table):
    with pytest.raises(ValueError):
        proposition_census(FIRST_IRREGULAR + 2, 12, table)
    with pytest.raises(ValueError):
        proposition_census(37 * 41 * 43, 12, table)  # has a divisor < 41
    with pytest.raises(ValueError):
        proposition_census(41 ** 2 * 43 ** 2 * 47, 12, table)  # five with multiplicity
    with pytest.raises(ValueError):
        proposition_census(41 * 43, 10, table)  # p_ell = 29 < 37


def test_two_prime_large_factor_friends_are_exactly_two(table):
    # n = q1*q2 with a probe class above the cube root: the only friends in
    # that class are p_ell*q1 and p_ell*q2
    p_ell = 487   # > FIRST_IRREGULAR ** (1/3) ~ 481
    q1, q2 = 491, 499
    n = q1 * q2
    ell = table.prime_index(p_ell)
    t = tally_wheel_oracle(ell, n, table)
    assert t.friends == 2


def test_three_prime_census_members_lose_their_class_spot_checks(table):
    # subsample of the full criterion-9 sweep in the acceptance module
    rng = random.Random(123)
    for p, j in ((29, 9), (31, 10)):
        bound = census_three_factor(p, None, table).bound
        cands = three_factor_candidates(p, bound, table)
        for n in rng.sample(cands, 10):
            t = tally_wheel_oracle(j, n, table)
            assert t.diff < 0, (p, n)
