"""The acceptance suite: one test per criterion, named and numbered.

Each test asserts its criterion at the stated tolerance (everything here is
exact integer arithmetic, so tolerance means equality) and prints a one-line
verdict; run with -s to see the lines, or read the -v test statuses.
"""

import random
from fractions import Fraction
from math import isqrt

import numpy as np
import pytest

from gcdcluster import (
    canonical_partition,
    census_report,
    census_three_factor,
    class_scores,
    class_size,
    count_conflicts,
    factorize,
    find_n0,
    floor_identity_lhs_rhs,
    rosser_schoenfeld_bounds,
    run_accelerated,
    run_reference,
    table1_records,
    three_factor_candidates,
    totient,
    verify_range,
    verify_single,
    prime_count_inequality,
)
from gcdcluster.counts import tally_even_class
from gcdcluster.partition import Partition
from oracles import (mobius_divisors, naive_all_tallies, scalar_tally_diff, tally_exact,
                     tally_wheel_oracle)
from test_thresholds import PUBLISHED_CENSUS, PUBLISHED_TABLE

FIRST_IRREGULAR = 111546435


def _ok(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def sweep_report(table):
    """The desk-scale regularity sweep, shared by criteria 2 and 11."""
    return verify_range(2, 1_000_000, table)


def test_criterion_01_small_greedy_partitions_exact():
    expected = {
        3: [{2}, {3}],
        4: [{2, 4}, {3}],
        5: [{2, 4}, {3}, {5}],
        6: [{2, 4, 6}, {3}, {5}],
        15: [{2, 4, 6, 8, 10, 12, 14}, {3, 9, 15}, {5}, {7}, {11}, {13}],
    }
    for n, classes in expected.items():
        st = run_reference(n)
        got = [set(st.partition.members(c).tolist())
               for c in sorted(st.partition.class_sizes)]
        assert got == classes, n
    _ok(1, "reference greedy reproduces the small partitions exactly")


def test_criterion_02_desk_scale_sweep(table, sweep_report):
    assert sweep_report.anomalies == []
    assert sweep_report.all_pass
    assert sweep_report.checked + sweep_report.auto_passed == 999_999
    n = 10_000
    ref = run_reference(n)
    acc = run_accelerated(n, table)
    canon = canonical_partition(n, table)
    assert np.array_equal(ref.partition.labels, acc.partition.labels)
    assert np.array_equal(acc.partition.labels, canon.labels)
    assert ref.conflicts == acc.conflicts
    _ok(2, "zero anomalies in [2, 1e6]; both run modes equal the canonical "
           "clustering on [2, 1e4]")


def test_criterion_02b_mode_equivalence_to_1e5(table):
    # the prefix property makes one full comparison cover every n <= 1e5
    n = 100_000
    ref = run_reference(n)
    acc = run_accelerated(n, table)
    assert np.array_equal(ref.partition.labels, acc.partition.labels)
    assert ref.conflicts == acc.conflicts
    assert acc.anomalies == []
    _ok("2b", "run modes agree on the full range [2, 1e5]")


def test_criterion_03_first_irregular_discovery(table):
    assert find_n0(2 * 10 ** 8, table) == FIRST_IRREGULAR
    report = verify_range(FIRST_IRREGULAR, FIRST_IRREGULAR, table)
    assert report.anomalies == [(FIRST_IRREGULAR, 2, 1)]
    _ok(3, "the search returns 111546435 and the exact check reports the "
           "single class-2-to-class-1 anomaly there")


def test_criterion_04_conflict_improvement_at_first_irregular(table):
    n = FIRST_IRREGULAR
    f = factorize(n, table)
    vals = class_scores(n, f, table)
    # class 2 below n: the odd multiples of 3, all friends of n
    assert vals[2] == class_size(2, n - 1, table) == (n - 3) // 6
    assert vals[1] == tally_exact(1, n, f, table).diff
    # moving n from class 2 to class 1: delta = score 2 - score 1
    delta = vals[2] - vals[1]
    expected = (n - 3) // 6 - ((n - 1) // 2 - totient(f))
    assert delta == expected == -686785
    assert delta < 0
    _ok(4, "moving 111546435 to the even class removes exactly 686785 conflicts")


def test_criterion_05_threshold_table_reproduced(table):
    recs = table1_records(table)
    got = {}
    for r in recs:
        got.setdefault(r.i, []).append((r.t, r.n1, int(r.infeasible)))
    assert got == PUBLISHED_TABLE
    assert sum(len(v) for v in got.values()) == 79
    _ok(5, "all 79 displayed threshold cells match bit-exactly, "
           "certification flags included")


def test_criterion_06_census_reproduced_with_documented_residual(table):
    rows = census_report(table, (19, 23, 29, 31, 37, 41, 43, 67))
    for row in rows:
        if row["p"] in PUBLISHED_CENSUS:
            assert row["count"] == PUBLISHED_CENSUS[row["p"]], row
            assert row["residual"] == 0
    remark = rows[-1]
    assert remark["p"] == 67
    # best-match interpretation documented: threshold bound capped at the
    # first irregular integer gives 88798 vs the reported 90338; the residual
    # is carried in the report, not hidden (criteria 7-9 carry the finding)
    assert remark["count"] == 88798
    assert remark["residual"] == -1540
    _ok(6, "seven census counts reproduce exactly; the remark-prime residual "
           "(88798 vs 90338) is documented in the report")


def test_criterion_07a_floor_identity_random(table):
    rng = random.Random(20240808)
    odd_primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
    for _ in range(10_000):
        qs = sorted(rng.sample(odd_primes, rng.randrange(1, 5)))
        n = 1
        for q in qs:
            n *= q ** rng.randrange(1, 4)
        while True:
            u = rng.randrange(1, 10 ** 9)
            if all(u % q for q in qs):
                break
        k = rng.randrange(1, len(qs) + 1)
        subset = sorted(rng.sample(qs, k))
        lhs, rhs = floor_identity_lhs_rhs(n, u, subset)
        assert lhs == rhs, (n, u, subset)
    _ok("7a", "floor identity holds on 10000 random valid inputs")


def test_criterion_07b_class_size_bound_exhaustive(table):
    # |S_{i,u}| within 2**(i-2) of u/p_i * prod(1 - 1/p_l) for every odd
    # u <= 1e5 and 2 <= i <= 12, via sieved class sizes and exact rationals
    u_max = 100_000
    spf = table.spf()[: u_max + 1].astype(np.int64)
    u_odd = np.arange(3, u_max + 1, 2, dtype=np.int64)
    for i in range(2, 13):
        p_i = table.prime(i)
        num = den = 1
        for l in range(1, i):
            pl = table.prime(l)
            num *= pl - 1
            den *= pl
        sizes = np.cumsum(spf == p_i)  # sizes[u] = |S_{i,u}|
        s = sizes[u_odd]
        # |s - u*num/(p_i*den)| <= 2**(i-2)  <=>  |s*p_i*den - u*num| <= 2**(i-2)*p_i*den
        lhs = np.abs(s * p_i * den - u_odd * num)
        bound = (1 << (i - 2)) * p_i * den
        worst = int(np.max(lhs - bound))
        assert worst <= 0, (i, worst)
    _ok("7b", "class-size estimate within 2**(i-2) for all odd u <= 1e5, i = 2..12")


def test_criterion_07c_tally_estimate_bound_random(table):
    rng = random.Random(4242)
    checked = 0
    while checked < 500:
        n = rng.randrange(25, 1_000_001, 2)
        f = factorize(n, table)
        qs = f.distinct_primes
        if qs[0] == n or qs[0] < 5:
            continue
        i = table.prime_index(qs[0])
        j = rng.randrange(2, i)
        s_j = class_size(j, n - 1, table)
        diff = scalar_tally_diff(j, n, mobius_divisors(qs), s_j, table)
        t = len(qs)
        main = Fraction(n - 1, table.prime(j))
        for l in range(1, j):
            pl = table.prime(l)
            main *= Fraction(pl - 1, pl)
        prod_q = Fraction(1)
        for q in qs:
            prod_q *= Fraction(q - 1, q)
        main *= 1 - 2 * prod_q
        assert abs(diff - main) <= (1 << (t + j - 2)), (n, j)
        checked += 1
    _ok("7c", "friend-enemy estimate within 2**(t+j-2) on 500 random classes")


def test_criterion_07d_even_class_exact_exhaustive(table):
    for n in range(3, 10_001, 2):
        f = factorize(n, table)
        evens = np.arange(2, n, 2)
        friends = int(np.count_nonzero(np.gcd(evens, n) > 1))
        want = (friends, len(evens) - friends)
        assert tally_even_class(n, f) == want, n
        if f.distinct_primes[0] != n:  # class 1's score, as the greedy reads it
            assert class_scores(n, f, table)[1] == want[0] - want[1], n
    _ok("7d", "even-class tally exact for every odd n <= 1e4")


def test_criterion_08_oracle_equivalence_tallies(table):
    spf = table.spf()
    prime_index = {int(table.prime(k)): k for k in range(1, table.pi(5000) + 1)}
    pairs = 0
    for n in range(9, 5001, 2):
        q1 = int(spf[n])
        if q1 == n:
            continue
        f = factorize(n, table)
        i = table.prime_index(q1)
        nf, ne = naive_all_tallies(n, spf, prime_index)
        scores = class_scores(n, f, table)
        assert len(scores) == i + 1 and scores[0] == 0, n
        assert scores[i] == nf.get(i, 0) + ne.get(i, 0), n  # naive size of class i
        for j in range(1, i):
            assert scores[j] == nf.get(j, 0) - ne.get(j, 0), (n, j)
            te = tally_exact(j, n, f, table)
            s_j = class_size(j, n - 1, table)
            tw = tally_wheel_oracle(j, n, table)
            want = (nf.get(j, 0), ne.get(j, 0))
            assert (te.friends, te.enemies) == want, (n, j)
            assert ((s_j + scores[j]) // 2, (s_j - scores[j]) // 2) == want, (n, j)
            assert (tw.friends, tw.enemies) == want, (n, j)
            pairs += 1
    assert pairs > 4000
    _ok(8, f"two oracle tally routes and the class scores with class sizes "
           f"equal naive gcd scans on {pairs} (n, j) pairs, n <= 5000")


def test_criterion_08b_move_delta_equals_brute_force(table):
    rng = random.Random(808)
    for trial in range(6):
        n_max = rng.randrange(20, 201)
        n_classes = rng.randrange(1, 7)
        labels = np.array([rng.randrange(1, n_classes + 1) for _ in range(n_max - 1)],
                          dtype=np.int64)
        part = Partition(n_max, labels)
        base = count_conflicts(part)
        targets = list(part.class_sizes) + [max(part.class_sizes) + 1]
        for n in range(2, n_max + 1):
            frm = part.label(n)
            diffs = {}  # friends minus enemies of n per class, n excluded
            for cid in part.class_sizes:
                members = part.members(cid)
                members = members[members != n]
                friends = int(np.count_nonzero(np.gcd(members, n) > 1))
                diffs[cid] = 2 * friends - len(members)
            for to in targets:
                moved = Partition(part.n, part.labels.copy())
                moved.labels[n - 2] = to
                # a fresh class scores 0
                assert diffs[frm] - diffs.get(to, 0) \
                    == count_conflicts(moved) - base, (n_max, n, to)
    _ok("8b", "move deltas diff[from] - diff[to] equal brute-force conflict "
              "differences for every n <= 200 and every target class, over "
              "random partitions")


def test_criterion_09_three_prime_candidates_lose(table):
    counts = {}
    for p, j in ((29, 9), (31, 10)):
        bound = census_three_factor(p, None, table).bound
        cands = three_factor_candidates(p, bound, table)
        for n in cands:
            t = tally_wheel_oracle(j, n, table)
            assert t.diff < 0, (p, n)
        counts[p] = len(cands)
    assert counts == {29: 65, 31: 216}
    _ok(9, "all 65 + 216 three-prime candidates have more enemies than "
           "friends in the class below")


def test_criterion_10_prime_count_inequality_grid(table):
    x_lo = FIRST_IRREGULAR ** (2.0 / 3.0)
    xs = np.geomspace(x_lo, 10 ** 7, 20)
    ts = [41, 43, 47, 53]
    rows = prime_count_inequality(list(xs), ts, table)
    assert len(rows) == 80
    for row in rows:
        assert row["exact"] and row["holds"] and row["margin"] > 0, row
    points = ({float(x) for x in xs}
              | {float(x) ** 0.5 for x in xs}
              | {float(x) / t for x in xs for t in ts})
    for x in sorted(points):
        if x < 59:
            continue
        lo, hi = rosser_schoenfeld_bounds(x)
        p = table.pi(int(x))
        assert lo < p < hi, x
    _ok(10, "pi(x) - pi(sqrt x) > 18 pi(x/t) + 56 holds with exact counts on "
            "the 20x4 grid; the classical bracket holds at every grid point")


def test_criterion_11_hard_region_sample(table, sweep_report):
    assert sweep_report.anomalies == []
    rng = random.Random(111546435)
    small = (3, 5, 7, 11, 13, 17)
    checked = 0
    while checked < 10_000:
        n = rng.randrange(1_000_001, FIRST_IRREGULAR, 2)
        if any(n % q == 0 for q in small):
            continue
        rec = verify_single(n, table)
        if rec is not None:
            assert rec.status == "pass", n
        checked += 1
    _ok(11, "zero anomalies on [2, 1e6] plus 10000 random hard-region "
            "integers below the first irregularity")
