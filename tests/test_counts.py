"""Class sizes, friend/enemy tallies, and the floor identity.

The package's coprime-count route is pinned against the two referees in
``oracles`` (the literal double sieve sum and the wheel enumeration) and
against naive gcd scans here at unit scale; the acceptance module sweeps them
exhaustively.
"""

import random
from math import gcd, isqrt, prod

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcdcluster import (
    OutOfRangeError,
    build_prime_table,
    class_scores,
    class_size,
    coprime_count,
    factorize,
    floor_identity_lhs_rhs,
)
from gcdcluster import greedy
from gcdcluster.counts import legendre_phi, tally_diff_fast, tally_diffs, tally_even_class
from gcdcluster.primes import totient
from oracles import (BudgetExceededError, UnsupportedCaseError, _friends_termsum,
                     _size_S_termsum, mobius_divisors, naive_spf, naive_tally,
                     scalar_class_scores, scalar_coprime_count, scalar_tally_diff, size_S_exact,
                     tally_exact, tally_wheel_oracle)

FIRST_IRREGULAR = 111546435
PRIMES_5_29 = (5, 7, 11, 13, 17, 19, 23, 29)


# ---------------------------------------------------------------- class sizes

def test_coprime_count_brute(small_table):
    rng = random.Random(11)
    for _ in range(300):
        y = rng.randrange(0, 3000)
        r = rng.randrange(0, 12)
        primes = [small_table.prime(k) for k in range(1, r + 1)]
        brute = sum(1 for m in range(1, y + 1) if all(m % p for p in primes))
        assert coprime_count(y, r, small_table) == brute, (y, r)
    with pytest.raises(ValueError):
        coprime_count(10, -1, small_table)  # would index the wheels from the end


def test_class_size_matches_subset_sum(small_table):
    rng = random.Random(5)
    for _ in range(300):
        i = rng.randrange(1, 13)
        u = rng.randrange(2, 9000)
        assert class_size(i, u, small_table) == size_S_exact(i, u, small_table), (i, u)


def test_class_size_enumeration(small_table):
    for i in range(1, 8):
        p = small_table.prime(i)
        for u in (2, 30, 101, 500):
            brute = sum(1 for m in range(2, u + 1) if naive_spf(m) == p)
            assert class_size(i, u, small_table) == brute


def test_class_size_examples(small_table):
    assert size_S_exact(1, 99, small_table) == 49  # (u-1)/2 for odd u
    assert size_S_exact(3, 30, small_table) == 2  # {5, 25}
    # odd multiple of 3: class-2 size below n is (n-3)/6
    for n in (9, 15, 105, 999):
        assert class_size(2, n - 1, small_table) == (n - 3) // 6


def test_class2_size_at_first_irregular(table):
    assert class_size(2, FIRST_IRREGULAR - 1, table) == (FIRST_IRREGULAR - 3) // 6


@settings(max_examples=100, deadline=None)
@given(i=st.lists(st.integers(1, 400), min_size=1, max_size=8),
       u=st.integers(-3, 10 ** 7) | st.integers(10 ** 7 - 10 ** 4, 10 ** 7))
@example(i=[1, 2, 5, 6, 7, 40], u=1)  # u < 2: empty classes
@example(i=[1, 2, 5, 6, 7, 40], u=0)
@example(i=[12, 30, 100, 400], u=5_000)  # p_i ** 2 > u // p_i: pi lookups
@example(i=[6, 7, 12, 25, 46, 90], u=9_999_991)  # deep terms, p_i ** 3 <= u
def test_class_size_array_matches_scalar_and_referee(table, i, u):
    sizes = class_size(np.array(i), u, table)
    assert sizes.tolist() == [class_size(c, u, table) for c in i]
    assert all(type(class_size(c, u, table)) is int for c in i)
    assert sizes.tolist() == [scalar_coprime_count(max(u, 0) // table.prime(c), c - 1, table)
                              for c in i]


def test_class_size_refuses_classes_outside_the_table(small_table):
    past = len(small_table.primes) + 1
    for u in (1, 5_000):
        for i in (0, np.array([2, 0, 3])):
            with pytest.raises(ValueError):
                class_size(i, u, small_table)
        for i in (past, np.array([1, past])):
            with pytest.raises(OutOfRangeError):
                class_size(i, u, small_table)
    assert class_size(np.array([past - 1]), 1, small_table).tolist() == [0]
    assert class_size(np.array([], dtype=np.int64), 5_000, small_table).tolist() == []


# terms (r, y) at the branch edges of phi(y, r): p_5 = 11 closes r = 4 by the
# wheel, p_6 = 13 bounds r = 5's one-term and one-lookup branches, and the
# deep terms of the window at 111546435 reach y = 111546434 // 13 = 8580494
_EDGE_TERMS = [(r, y) for r, p in ((4, 11), (5, 13))
               for y in (0, p - 1, p, p * p - 1, p * p)]
_DEEP_TERMS = [(90, 8_580_494), (89, 8_580_494 // 3), (91, 8_579_999), (88, 8_580_495)]


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(0, 120), st.integers(0, 10 ** 7)),
                      min_size=1, max_size=6))
@example(terms=_EDGE_TERMS)
@example(terms=_DEEP_TERMS)
@example(terms=_EDGE_TERMS + _DEEP_TERMS)
def test_legendre_phi_matches_scalar_referee(table, terms):
    # several terms per call, so a child summed into the wrong owner shows
    r, y = np.array(terms).T
    want = [scalar_coprime_count(v, s, table) for s, v in terms]
    assert legendre_phi(y, r, table).tolist() == want


@settings(max_examples=150, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 600)),
                      min_size=1, max_size=6))
@example(terms=_EDGE_TERMS)
def test_legendre_phi_matches_gcd_scan(small_table, terms):
    r, y = np.array(terms).T
    primes = small_table.primes.tolist()
    want = [sum(1 for m in range(1, v + 1) if gcd(m, prod(primes[:s])) == 1)
            for s, v in terms]
    assert legendre_phi(y, r, small_table).tolist() == want


def test_legendre_phi_refuses_pi_beyond_its_table():
    table = build_prime_table(1_000)
    # p_26 = 101: y = 1009 lies in [p_26, p_26 ** 2), which reads pi(y)
    with pytest.raises(OutOfRangeError):
        legendre_phi(np.array([1_009]), np.array([25]), table)
    # a deep term (p_27 ** 2 = 10609) whose child 200000 // p_26 = 1980 does
    with pytest.raises(OutOfRangeError):
        legendre_phi(np.array([200_000]), np.array([26]), table)
    with pytest.raises(OutOfRangeError):
        coprime_count(1_009, 25, table)
    assert legendre_phi(np.array([1_000, 10 ** 9]), np.array([25, 4]), table).tolist() \
        == [1 + 168 - 25, 10 ** 9 // 210 * 48 + sum(gcd(m, 210) == 1 for m in range(1, 161))]


def test_legendre_phi_refuses_r_outside_the_table(small_table):
    n_primes = len(small_table.primes)
    with pytest.raises(ValueError):
        legendre_phi(np.array([5]), np.array([-1]), small_table)
    with pytest.raises(ValueError):
        legendre_phi(np.array([5, 5]), np.array([1, n_primes]), small_table)
    assert legendre_phi(np.array([5]), np.array([n_primes - 1]), small_table).tolist() == [1]
    assert legendre_phi(np.array([], dtype=np.int64), np.array([], dtype=np.int64),
                        small_table).tolist() == []


def test_size_S_budget_refusal(table):
    with pytest.raises(BudgetExceededError):
        size_S_exact(26, 10 ** 6, table)


def test_size_S_term_count_bound(small_table):
    for i in (2, 5, 9):
        ts = _size_S_termsum(i, 5000, small_table)
        assert ts.terms <= 1 << (i - 1)
        assert ts.value == class_size(i, 5000, small_table)


def test_friends_term_count_bound(table):
    for j, n in ((2, 25), (3, 539), (4, 11 * 13 * 17)):
        f = factorize(n, table)
        qs = f.distinct_primes
        ts = _friends_termsum(j, n, qs, table)
        assert ts.terms <= 1 << (len(qs) + j - 1)
        s_j = class_size(j, n - 1, table)
        assert ts.value == (s_j + class_scores(n, f, table)[j]) // 2


# ------------------------------------------------------------- floor identity

def test_floor_identity_examples(table):
    assert floor_identity_lhs_rhs(105, 2, [3, 5]) == (3, 3)
    # the u=2 case closes to n/(2Q) - 1/2 exactly
    assert 105 / (2 * 15) - 0.5 == 3.0
    assert floor_identity_lhs_rhs(9, 4, [3]) == (0, 0)
    lhs, rhs = floor_identity_lhs_rhs(FIRST_IRREGULAR, 2, [3, 5, 7])
    assert lhs == rhs


def test_floor_identity_preconditions(table):
    with pytest.raises(ValueError):
        floor_identity_lhs_rhs(10, 2, [5, 5])  # repeated prime
    with pytest.raises(ValueError):
        floor_identity_lhs_rhs(10, 2, [3])  # 3 does not divide 10
    with pytest.raises(ValueError):
        floor_identity_lhs_rhs(15, 6, [3])  # u shares a factor with q
    with pytest.raises(ValueError):
        floor_identity_lhs_rhs(15, 2, [2])  # 2 is not an odd prime


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_floor_identity_property(data):
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29]
    qs = data.draw(st.lists(st.sampled_from(odd_primes), min_size=1, max_size=4,
                            unique=True))
    exps = data.draw(st.lists(st.integers(1, 3), min_size=len(qs), max_size=len(qs)))
    n = 1
    for q, a in zip(qs, exps):
        n *= q ** a
    u = data.draw(st.integers(1, 10 ** 6).filter(lambda u: all(u % q for q in qs)))
    subset = data.draw(st.lists(st.sampled_from(qs), min_size=1, max_size=len(qs),
                                unique=True))
    lhs, rhs = floor_identity_lhs_rhs(n, u, subset)
    assert lhs == rhs


# ------------------------------------------------------------------- tallies

def _even_class_tally(n: int, table) -> tuple[int, int]:
    """(friends, enemies) of odd composite n in class 1, from class_scores:
    the class holds the (n - 1) // 2 evens below n."""
    d = class_scores(n, factorize(n, table), table)[1]
    s = (n - 1) // 2
    assert (s + d) % 2 == 0, n
    return (s + d) // 2, (s - d) // 2


def test_even_class_examples(table):
    # friends {6,10,12}, enemies {2,4,8,14}
    assert _even_class_tally(15, table) == (3, 4)
    assert _even_class_tally(9, table) == (1, 3)


def test_even_class_at_first_irregular(table):
    friends, enemies = _even_class_tally(FIRST_IRREGULAR, table)
    assert enemies == 36495360 // 2 == 18247680
    # friends = (n-1)/2 - phi/2, frozen from the formula itself
    assert friends == (FIRST_IRREGULAR - 1) // 2 - 18247680 == 37525537
    assert friends - enemies == (FIRST_IRREGULAR - 1) // 2 - 36495360 == 19277857


def test_even_class_matches_scan(table):
    for n in range(3, 2001, 2):
        evens = np.arange(2, n, 2)
        friends = int(np.count_nonzero(np.gcd(evens, n) > 1))
        want = (friends, len(evens) - friends)
        assert tally_even_class(n, factorize(n, table)) == want, n
        if naive_spf(n) != n:
            assert _even_class_tally(n, table) == want, n


def test_even_class_rejects_even(table):
    with pytest.raises(ValueError):
        tally_even_class(10, factorize(10, table))


def test_tally_exact_examples(table):
    t = tally_exact(2, 25, factorize(25, table), table)
    assert (t.friends, t.enemies) == (1, 3)  # friend {15} among {3,9,15,21}
    t = tally_exact(1, 15, factorize(15, table), table)
    assert (t.friends, t.enemies) == (3, 4)
    t = tally_exact(3, 539, factorize(539, table), table)
    assert (t.friends, t.enemies) == naive_tally(3, 539, table.primes.tolist())


def test_tally_exact_unsupported_cases(table):
    with pytest.raises(UnsupportedCaseError):
        tally_exact(2, 15, factorize(15, table), table)  # p_2 = 3 divides 15
    with pytest.raises(UnsupportedCaseError):
        tally_exact(3, 55, factorize(55, table), table)  # p_3 = 5 divides 55
    with pytest.raises(UnsupportedCaseError):
        tally_exact(2, 50, factorize(50, table), table)  # even n


def test_tally_exact_budget(table):
    f = factorize(5 * 7 * 11 * 13 * 17 * 19 * 23 * 29, table)
    with pytest.raises(BudgetExceededError):
        tally_exact(2, f.n, f, table, max_terms=16)


def test_three_routes_agree_sampled(table):
    rng = random.Random(2024)
    primes = table.primes.tolist()
    checked = 0
    while checked < 150:
        n = rng.randrange(9, 4000, 2)
        f = factorize(n, table)
        q1 = f.distinct_primes[0]
        if q1 == n:
            continue
        scores = class_scores(n, f, table)
        for j in range(1, len(scores) - 1):
            te = tally_exact(j, n, f, table)
            s_j = class_size(j, n - 1, table)
            tf = ((s_j + scores[j]) // 2, (s_j - scores[j]) // 2)
            tw = tally_wheel_oracle(j, n, table)
            nv = naive_tally(j, n, primes)
            assert (te.friends, te.enemies) == tf == (tw.friends, tw.enemies) \
                == nv, (n, j)
        checked += 1


def test_mobius_divisors_are_signed_squarefree_divisors():
    assert mobius_divisors(()) == [(1, 1)]
    n = 3 * 5 * 7 * 11
    want = {d: (-1) ** sum(d % q == 0 for q in (3, 5, 7, 11))
            for d in range(1, n + 1) if n % d == 0}
    got = mobius_divisors((3, 5, 7, 11))
    assert len(got) == 16 and dict(got) == want


def test_tally_diff_fast_is_one_pair_of_the_kernel(table):
    # 37417 = 17 * 31 * 71, class 6 (p = 13): y = 169 = 13 ** 2 in the sum
    for j, n in ((2, 25), (3, 539), (6, 37_417), (7, 19 * 23 * 29 * 31)):
        qs = factorize(n, table).distinct_primes
        s_j = class_size(j, n - 1, table)
        assert tally_diff_fast(j, n, qs, s_j, table) \
            == scalar_tally_diff(j, n, mobius_divisors(qs), s_j, table), (j, n)


def test_tally_diffs_chunk_of_mixed_widths(table):
    # one chunk, padded to the 8 primes of the first irregular integer, of
    # rows with 1 or 2 primes (among them squares and products of primes near
    # sqrt(n), whose quotients fall below p_j > 1 and to 0 before the pads) and
    # of 5 * 7 * ... * 29, whose quotients fall to 0 within its own primes:
    # every pair as scored alone and by the scalar referee, and every row as
    # ``greedy._score_rows`` scores it from the same padded matrix
    near = table.pi(isqrt(FIRST_IRREGULAR))
    a, b, c = (table.prime(near + d) for d in (-1, 0, 1))
    ns = [FIRST_IRREGULAR, b * b, a * c, 5 * 22_309_291, 7 ** 3, 11 * 13, prod(PRIMES_5_29)]
    qs = [factorize(n, table).distinct_primes for n in ns]
    assert [len(q) for q in qs] == [8, 1, 2, 2, 1, 2, 8]
    padded = np.array([q + (2 ** 63 - 1,) * (8 - len(q)) for q in qs])
    i = np.array([table.prime_index(q[0]) for q in qs])
    want = [scalar_class_scores(n, table) for n in ns]
    sizes = [[0, *class_size(np.arange(1, i[k] + 1), n - 1, table).tolist()]
             for k, n in enumerate(ns)]  # class c's size below n: sizes[k][c]

    def size(o, j):
        return np.array([sizes[k][c] for k, c in zip(np.asarray(o).tolist(), j.tolist())])

    o = np.array([k for k in range(len(ns)) for _ in range(2, i[k])])
    j = np.array([j for k in range(len(ns)) for j in range(2, i[k])])
    s_j = size(o, j)
    got = tally_diffs(np.array(ns)[o], j, padded[o], s_j, table).tolist()
    assert any(x < 0 for x in got) and len(got) > 2_000
    alone = [tally_diffs(np.array([ns[k]]), np.array([jk]), np.array([qs[k]]),
                         np.array([sk]), table)[0] for k, jk, sk in zip(o.tolist(), j.tolist(),
                                                                     s_j.tolist())]
    assert got == alone == [want[k][jk] for k, jk in zip(o.tolist(), j.tolist())]
    d1 = np.array([(n - 1) // 2 - totient(factorize(n, table)) for n in ns])
    vals, starts = greedy._score_rows(np.array(ns), padded, i, d1, size, table)
    assert [vals[lo:hi].tolist() for lo, hi in zip(starts[:-1], starts[1:])] == want


def test_tally_diffs_refuses_pi_beyond_its_table():
    # n = 103 * 30011, j = 26 (p_j = 101): y = (n - 1) // 101 // 103 = 297 lies
    # in [p_26, p_26 ** 2), the branch that reads pi(y), and beyond the table
    table = build_prime_table(200)
    n = 103 * 30011
    with pytest.raises(OutOfRangeError):
        tally_diffs(np.array([n]), np.array([26]), np.array([[103, 30011]]),
                    np.array([class_size(26, n - 1, build_prime_table(10_000))]), table)


def test_tally_invariant_friends_plus_enemies(table):
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randrange(9, 3000, 2)
        f = factorize(n, table)
        if f.distinct_primes[0] == n:
            continue
        # each score d of a class of size s splits into friends (s + d) / 2
        # and enemies (s - d) / 2, both whole and non-negative
        scores = class_scores(n, f, table)
        assert sum(tally_even_class(n, f)) == class_size(1, n - 1, table)
        for j in range(1, len(scores) - 1):
            s_j = class_size(j, n - 1, table)
            assert abs(scores[j]) <= s_j and (s_j - scores[j]) % 2 == 0, (n, j)


# ------------------------------------------------------------------ the wheel

def test_wheel_oracle_low_class_fallback(table):
    # j < 5 uses stride enumeration; cross-check against the naive scan
    for n in (15, 99, 1001, 2145):
        f = factorize(n, table)
        i = table.prime_index(f.distinct_primes[0])
        for j in range(1, min(i, 5)):
            t = tally_wheel_oracle(j, n, table)
            assert (t.friends, t.enemies) == naive_tally(j, n, table.primes.tolist())


def test_wheel_oracle_small_example(table):
    t = tally_wheel_oracle(5, 100, table)
    assert (t.friends, t.enemies) == naive_tally(5, 100, table.primes.tolist())


def test_wheel_oracle_prime_probe_has_no_friends(table):
    for n in (101, 997, 10007):
        for j in (1, 2, 5, 6):
            t = tally_wheel_oracle(j, n, table)
            assert t.friends == 0


def test_wheel_oracle_four_prime_candidate(table):
    # n = 19*23*29*31; in the class below 19 (index 7, prime 17) the enemies
    # dominate, matching the three-prime-census finding at larger scale
    n = 19 * 23 * 29 * 31
    t = tally_wheel_oracle(7, n, table)
    assert t.diff < 0
    assert (t.friends, t.enemies) == naive_tally(7, n, table.primes.tolist())
    # while its own class (index 8, prime 19) is all friends
    t8 = tally_wheel_oracle(8, n, table)
    assert t8.enemies == 0
    assert t8.friends == class_size(8, n - 1, table)


def test_wheel_oracle_rejects_bad_args(table):
    with pytest.raises(ValueError):
        tally_wheel_oracle(0, 100, table)
    with pytest.raises(ValueError):
        tally_wheel_oracle(1, 2, table)
