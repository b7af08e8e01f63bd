"""Prime table, factorization, totient, pi, and the classical pi bracket."""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from gcdcluster import (
    OutOfRangeError,
    build_prime_table,
    canonical_partition,
    factorize,
    rosser_schoenfeld_bounds,
    totient,
)
from gcdcluster.primes import _sieve_primes
from oracles import naive_phi, naive_spf, segmented_prime_count

FIRST_IRREGULAR = 111546435


def test_first_primes():
    t = build_prime_table(10)
    assert t.primes.tolist() == [2, 3, 5, 7]
    assert t.prime(1) == 2 and t.prime(2) == 3


def test_ninth_prime_is_23():
    t = build_prime_table(23)
    assert t.prime(9) == 23
    assert t.pi(23) == 9


def test_prime_table_invariants(small_table):
    primes = small_table.primes
    assert (np.diff(primes) > 0).all()
    # every element prime, every prime present: compare to a bytearray sieve
    limit = small_table.limit
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for q in range(2, int(limit ** 0.5) + 1):
        if flags[q]:
            flags[q * q :: q] = False
    assert np.array_equal(np.flatnonzero(flags), primes)


@pytest.mark.parametrize("limit", [2, 3, 4, 5, 8, 9, 10, 24, 25, 26, 10 ** 6])
def test_sieve_primes_against_oracle(limit):
    got = _sieve_primes(limit)
    assert got.dtype == np.int64
    if limit <= 26:
        assert got.tolist() == [p for p in range(2, limit + 1) if naive_spf(p) == p]
    else:
        assert len(got) == segmented_prime_count(limit) == 78498
        assert all(naive_spf(int(p)) == p for p in got[::97])


def test_limit_below_two_rejected():
    with pytest.raises(ValueError):
        build_prime_table(1)


@pytest.mark.parametrize("x,expected", [(1, 0), (23, 9), (10 ** 6, 78498)])
def test_pi_known_values(table, x, expected):
    assert table.pi(x) == expected


def test_pi_against_segmented_sieve_oracle(table):
    for x in (10, 97, 5000, 10 ** 5, 10 ** 6):
        assert table.pi(x) == segmented_prime_count(x)


def test_pi_ten_million(table):
    # frozen from the independent segmented sieve (run once, value pinned)
    assert table.pi(10 ** 7) == 664579
    assert segmented_prime_count(10 ** 7) == 664579


def test_pi_monotone_steps_at_primes(small_table):
    values = [small_table.pi(x) for x in range(1, 600)]
    diffs = np.diff(values)
    assert ((diffs == 0) | (diffs == 1)).all()
    for x in range(2, 599):
        expect = 1 if small_table.is_prime(x) else 0
        assert values[x - 1] - values[x - 2] == expect


def test_pi_out_of_range(small_table):
    with pytest.raises(OutOfRangeError):
        small_table.pi(small_table.limit + 1)


def test_lookups_at_boundaries():
    t = build_prime_table(1000)
    primes = t.primes.tolist()
    xs = {-1, 0, 1, 2, t.limit} | {p + d for p in primes for d in (-1, 0, 1)}
    for x in sorted(xs):
        assert t.pi(x) == int(np.searchsorted(t.primes, x, side="right")), x
    assert t.prime_index(2) == 1
    assert t.prime_index(997) == len(primes) == 168
    for bad in (999, 1009):  # a composite; a prime beyond the table
        with pytest.raises(ValueError):
            t.prime_index(bad)
    stored = set(primes)
    assert all(t.is_prime(x) == (x in stored) for x in range(-1, 1001))
    with pytest.raises(OutOfRangeError):
        t.is_prime(1001)
    # each reader, run first on a fresh table, sieves what it needs itself;
    # factorize takes the SPF array up to the limit and trial division above
    def fresh():
        return build_prime_table(1000)
    for x in range(t.spf_limit - 5, t.spf_limit + 6):
        f = factorize(x, fresh())
        assert f.factors == _naive_factors(x), x
        assert f.distinct_primes == tuple(q for q, _ in f.factors), x
        if x > t.limit:
            continue
        assert fresh().is_prime(x) == (x in stored), x
        labels = canonical_partition(x, fresh()).labels.tolist()
        assert [t.prime(c) for c in labels] == [naive_spf(m) for m in range(2, x + 1)], x


def _naive_factors(n):
    out = []
    while n > 1:
        q = naive_spf(n)
        a = 0
        while n % q == 0:
            n //= q
            a += 1
        out.append((q, a))
    return tuple(out)


def test_factorize_first_irregular(table):
    f = factorize(FIRST_IRREGULAR, table)
    assert f.factors == ((3, 1), (5, 1), (7, 1), (11, 1), (13, 1), (17, 1), (19, 1), (23, 1))


def test_factorize_prime_power(table):
    assert factorize(8, table).factors == ((2, 3),)


def test_factorize_remark_candidate(table):
    # 5 * (the 4th through 14th primes), far beyond the sieve: trial division
    f = factorize(2180460221945005, table)
    assert f.factors == tuple((q, 1) for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43))


def test_factorize_rejects_below_two(table):
    with pytest.raises(ValueError):
        factorize(1, table)


def test_factorize_roundtrip_to_million(table):
    spf = table.spf()
    for n in range(2, 1_000_001):
        f = factorize(n, table)
        prod = 1
        for q, a in f.factors:
            prod *= q ** a
        if prod != n:
            raise AssertionError(f"roundtrip failed at {n}: {f.factors}")
        # also spot the SPF array agreement
        if int(spf[n]) != f.factors[0][0]:
            raise AssertionError(f"spf mismatch at {n}")


def test_factorize_above_spf_limit():
    t = build_prime_table(10_000)
    f = factorize(9973 * 9967, t)
    assert f.factors == ((9967, 1), (9973, 1))


# the trial-division table: its primes reach sqrt(10^7), so it factors every
# n in (3162, 10^7] by trial division
TRIAL = build_prime_table(3162)
P_MAX = int(TRIAL.primes[-1])


def _powers_below(p, bound):
    """p**2, p**3, ... while at most ``bound``."""
    out = [p * p]
    while out[-1] * p <= bound:
        out.append(out[-1] * p)
    return out


@settings(max_examples=300, deadline=None)
@given(strategies.one_of(
    strategies.integers(TRIAL.limit + 1, 10 ** 7),
    strategies.sampled_from(TRIAL.primes.tolist()).flatmap(
        lambda p: strategies.sampled_from(_powers_below(p, 10 ** 7))).filter(
            lambda n: n > TRIAL.limit),
))
@example(P_MAX * P_MAX)
@example(2 * P_MAX)
@example(3 ** 14)
@example(9973 * 997)
def test_factorize_trial_division_matches_spf(table, n):
    assert n > TRIAL.spf_limit
    f = factorize(n, TRIAL)
    assert f == factorize(n, table)  # the session table's SPF array reaches 10^7


class _LoggedSlices(np.ndarray):
    """A view of the primes that records each slice taken of it."""

    taken: list = []

    def __getitem__(self, key):
        if isinstance(key, slice):
            _LoggedSlices.taken.append((key.start, key.stop))
        return super().__getitem__(key)


@pytest.mark.parametrize("n,factors,blocks", [
    # the first block of 4096 primes leaves cofactor 1: the rest is never read
    (2180460221945005, tuple((q, 1) for q in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37,
                                              41, 43)), 1),
    (3 * 2 ** 63, ((2, 63), (3, 1)), 1),
    # it leaves a prime cofactor below 38891**2, the next prime's square
    (2 ** 70 * 10000019, ((2, 70), (10000019, 1)), 1),
    # primes 4097 and 4098 are in the second block, of 8192 primes
    (2 ** 70 * 38891 * 38903, ((2, 70), (38891, 1), (38903, 1)), 2),
    # the cofactor is the square of the next block's first prime: not a prime
    (2 ** 70 * 38891 ** 2, ((2, 70), (38891, 2)), 2),
    (131519 * 131519, ((131519, 2),), 2),  # the second block's last prime
    # 10^7's largest prime below, squared: every block up to the table's end
    (9999991 ** 2, ((9999991, 2),), 8),
])
def test_factorize_stops_at_the_cofactor(table, n, factors, blocks):
    t = copy.copy(table)
    t.primes = table.primes.view(_LoggedSlices)
    _LoggedSlices.taken = []
    assert factorize(n, t).factors == factors
    starts = [lo for lo, _ in _LoggedSlices.taken if lo is not None]
    assert starts == [0, 4096, 12288, 28672, 61440, 126976, 258048, 520192][:blocks]


def test_factorize_uncertifiable_cofactor():
    t = build_prime_table(1000)
    for n in (1009 * 1013, 2 * 3 * 1009 * 1013, 2 ** 63 * 1009 * 1013):
        with pytest.raises(OutOfRangeError, match="cofactor 1022117 "):
            factorize(n, t)
    # 997 divides out first; the Mersenne prime cofactor is beyond 1000**2
    with pytest.raises(OutOfRangeError, match=f"cofactor {2 ** 61 - 1} "):
        factorize(997 * (2 ** 61 - 1), t)
    assert factorize(2 * 3 * 1009, t).factors == ((2, 1), (3, 1), (1009, 1))
    assert factorize(1009 ** 2, build_prime_table(1009)).factors == ((1009, 2),)


def test_factorize_beyond_int64():
    t = build_prime_table(1000)
    assert factorize(2 ** 64, t).factors == ((2, 64),)
    assert factorize(3 * 2 ** 63, t).factors == ((2, 63), (3, 1))
    assert factorize(3 ** 41 * 997, t).factors == ((3, 41), (997, 1))


def test_table_reads_are_python_ints(table):
    # exact counting must never meet a wrapping fixed-width integer
    for t in (table, TRIAL):
        p = t.prime(len(t.primes))
        assert type(p) is int and type(t.pi(p)) is int and type(t.prime_index(p)) is int
        for n in (p * p, p * (p - 2), 2 ** 64, 3 * 2 ** 63):
            f = factorize(n, t)
            assert all(type(q) is int and type(a) is int for q, a in f.factors), n
            assert all(type(q) is int for q in f.distinct_primes), n
        # the primes are held once, as the numpy array, never as a Python list
        assert not [k for k, v in vars(t).items() if isinstance(v, (list, tuple))]


@pytest.mark.parametrize("n,expected", [(9, 6), (15, 8), (105, 48), (FIRST_IRREGULAR, 36495360)])
def test_totient_known(table, n, expected):
    assert totient(factorize(n, table)) == expected


def test_totient_matches_gcd_count(table):
    for n in range(2, 10_001):
        assert totient(factorize(n, table)) == _phi_vec(n)


def _phi_vec(n):
    ks = np.arange(1, n)
    return int(np.count_nonzero(np.gcd(ks, n) == 1))


def test_totient_brute_small(table):
    for n in (2, 3, 12, 36, 97, 105):
        assert totient(factorize(n, table)) == naive_phi(n)


def test_rosser_schoenfeld_at_59(table):
    lo, hi = rosser_schoenfeld_bounds(59)
    assert lo <= table.pi(59) <= hi


def test_rosser_schoenfeld_brackets_pi(table):
    # strict bracketing across a log-spaced grid of the sieved range
    xs = np.unique(np.geomspace(59, table.limit, 60).astype(np.int64))
    for x in xs:
        lo, hi = rosser_schoenfeld_bounds(float(x))
        p = table.pi(int(x))
        assert lo < p < hi, (x, lo, p, hi)


def test_rosser_schoenfeld_brackets_at_irregular_root(table):
    x = FIRST_IRREGULAR ** (2.0 / 3.0)
    lo, hi = rosser_schoenfeld_bounds(x)
    p = table.pi(int(x))
    assert lo < p < hi


def test_rosser_schoenfeld_domain():
    with pytest.raises(ValueError):
        rosser_schoenfeld_bounds(58.9)

