"""Greedy runs, step selection, and the regularity verification."""

import io
import json
import random
from math import gcd, isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies

from gcdcluster import (
    Factorization,
    OutOfRangeError,
    ResourceGuardError,
    build_prime_table,
    canonical_partition,
    class_scores,
    class_size,
    count_conflicts,
    factorize,
    run_accelerated,
    run_reference,
    verify_range,
    verify_single,
)
from gcdcluster import greedy
from gcdcluster.greedy import VerifyRecord, _scan_step, _sieve_span
from gcdcluster.primes import totient
from oracles import (ClassTally, friend_bounds, naive_greedy, naive_phi,
                     scalar_class_scores, scalar_records)

FIRST_IRREGULAR = 111546435


# ------------------------------------------------------------------ the steps

def _tallies_by_scan(labels_by_int: dict[int, int], n: int) -> dict[int, ClassTally]:
    out: dict[int, tuple[int, int]] = {}
    for m, cls in labels_by_int.items():
        f, e = out.get(cls, (0, 0))
        if gcd(m, n) > 1:
            out[cls] = (f + 1, e)
        else:
            out[cls] = (f, e + 1)
    return {c: ClassTally(c, n, f, e) for c, (f, e) in out.items()}


def test_step_3_opens_a_class(table):
    for st in (run_reference(3), run_accelerated(3, table)):
        assert st.partition.label(2) == 1 and st.partition.label(3) == 2
        assert st.conflicts == 0


def test_step_4_joins_the_evens(table):
    for st in (run_reference(4), run_accelerated(4, table)):
        assert st.partition.label(4) == 1
        assert st.conflicts == 0


def test_step_9_joins_class_of_3(table):
    st = run_reference(8)
    labels = {m: st.partition.label(m) for m in range(2, 9)}
    tallies = _tallies_by_scan(labels, 9)
    assert [tallies[c].diff for c in sorted(tallies)] == [-2, 1, -1, -1]
    assert class_scores(9, factorize(9, table), table) == [0, -2, 1]
    for st9 in (run_reference(9), run_accelerated(9, table)):
        assert st9.partition.label(9) == 2
        assert st9.conflicts == st.conflicts + 1


def test_scan_step_matches_definition():
    # moving target: arbitrary labeling, chosen class must minimize new
    # conflicts with the smallest-index tie-break; the friend mask is fed
    # from per-element gcds, the definition itself
    rng = random.Random(3)
    for _ in range(50):
        n = rng.randrange(4, 40)
        labels = np.array([rng.randrange(1, 5) for _ in range(n - 2)], dtype=np.int64)
        friend = np.array([gcd(a, n) > 1 for a in range(2, n)])
        chosen, added, friends = _scan_step(labels, friend, 5)
        scores = {0: sum(1 for a in range(2, n) if gcd(a, n) > 1)}
        for cid in range(1, 6):
            members = [a for a in range(2, n) if labels[a - 2] == cid]
            ke = sum(1 for a in members if gcd(a, n) == 1)
            kf = len(members) - ke
            scores[cid] = ke + (scores[0] - kf)
        best = min(scores.values())
        want = min(c for c, s in scores.items() if s == best)
        assert (chosen, added) == (want, best)


# ------------------------------------------------------------------- the runs

def test_reference_small_partitions_match_listing():
    expects = {
        3: [{2}, {3}],
        4: [{2, 4}, {3}],
        5: [{2, 4}, {3}, {5}],
        6: [{2, 4, 6}, {3}, {5}],
        15: [{2, 4, 6, 8, 10, 12, 14}, {3, 9, 15}, {5}, {7}, {11}, {13}],
    }
    for n, classes in expects.items():
        st = run_reference(n)
        got = [set(st.partition.members(c).tolist())
               for c in sorted(st.partition.class_sizes)]
        assert got == classes, n


def test_reference_equals_set_based_oracle():
    for n in (2, 3, 10, 50, 137, 300):
        st = run_reference(n)
        oracle = naive_greedy(n)
        got = [set(st.partition.members(c).tolist())
               for c in sorted(st.partition.class_sizes)]
        assert got == oracle, n


def test_reference_guard():
    with pytest.raises(ResourceGuardError):
        run_reference(200_000)


def test_reference_conflicts_match_pair_count(small_table):
    for n in (6, 15, 100, 400):
        st = run_reference(n)
        assert st.conflicts == count_conflicts(st.partition), n


def test_reference_monotone_prefix():
    full = run_reference(300)
    for n in (50, 137, 299):
        partial = run_reference(n)
        assert np.array_equal(full.partition.labels[: n - 1], partial.partition.labels)


def test_modes_agree_to_2000(table):
    ref = run_reference(2000)
    acc = run_accelerated(2000, table)
    assert np.array_equal(ref.partition.labels, acc.partition.labels)
    assert ref.conflicts == acc.conflicts
    assert acc.anomalies == [] and not acc.unverified


def test_modes_agree_random_mid_sizes(table):
    # one run per size; by the monotone prefix property each comparison
    # covers every n below it as well
    rng = random.Random(17)
    for n in sorted(rng.randrange(2_000, 20_001) for _ in range(3)):
        ref = run_reference(n)
        acc = run_accelerated(n, table)
        assert np.array_equal(ref.partition.labels, acc.partition.labels), n
        assert ref.conflicts == acc.conflicts, n


def test_accelerated_equals_canonical_and_corollaries(table):
    n = 5000
    st = run_accelerated(n, table)
    assert st.anomalies == []
    canon = canonical_partition(n, table)
    assert np.array_equal(st.partition.labels, canon.labels)
    labels = st.partition.labels
    ms = np.arange(2, n + 1)
    evens = ms % 2 == 0
    assert (labels[evens] == 1).all()  # every even lands in class 1
    for m in range(3, n + 1):
        i = table.prime_index(factorize(m, table).distinct_primes[0])
        if table.is_prime(m):
            assert labels[m - 2] == i  # primes open their own class
        else:
            assert labels[m - 2] <= i  # nothing lands above its own index


def test_accelerated_conflicts_identity(table):
    st = run_accelerated(1200, table)
    assert st.conflicts == count_conflicts(st.partition)


def test_accelerated_refuses_n_beyond_table(small_table):
    with pytest.raises(OutOfRangeError):
        run_accelerated(small_table.limit + 1, small_table)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=strategies.integers(2, 3000))
@example(n=2)
@example(n=3)
@example(n=98)  # the first span of 97 ends
@example(n=99)
@example(n=960)  # isqrt(n) = 30; 961 = 31 * 31 is the first composite past that table
@example(n=961)
@example(n=2809)  # 53 * 53, the last span's square
def test_canonical_conflicts_reads_primes_to_isqrt(monkeypatch, small_table, n):
    # a table to isqrt(n) counts across span edges what the pair-by-pair
    # referee counts on the canonical partition; a prime above the table
    # joins the classes past it, which the count never reads
    monkeypatch.setattr(greedy, "SPAN", 97)
    table = build_prime_table(max(isqrt(n), 2))
    want = count_conflicts(canonical_partition(n, small_table))
    assert greedy.canonical_conflicts(n, table) == want
    if isqrt(n) > 2:
        with pytest.raises(OutOfRangeError):
            greedy.canonical_conflicts(n, build_prime_table(isqrt(n) - 1))


def class_1_wins_at(m0: int, monkeypatch) -> list[int]:
    """Make class 1 win strictly at odd m0 = 3 * 5 * 7 * k: the span engine
    leaves m0 to the exact kernel, and the doctored ``greedy._score_rows``
    lowers class 2 there below class 1's exact score, which is positive (no
    class scores between them).  Returns the list of integers the kernel
    is given, in order."""
    score_rows, bounds = greedy._score_rows, greedy._Span.bounds
    seen = []

    def doctored(n, *args):
        scores = score_rows(n, *args)
        seen.extend(n.tolist())
        for m, vals in zip(n.tolist(), scores):
            if m == m0:
                assert len(vals) == 3 and vals[1] == (m0 - 1) // 2 - naive_phi(m0) > 0
                vals[2] = vals[1] - 1
        return scores

    def leave_open(span, table):
        yield from bounds(span, table)
        span.exact[span.rows.m == m0] = True  # class 2 is no longer settled by the bounds

    monkeypatch.setattr(greedy, "_score_rows", doctored)
    monkeypatch.setattr(greedy._Span, "bounds", leave_open)
    return seen


def test_accelerated_stops_verifying_after_an_anomaly(table, monkeypatch):
    seen = class_1_wins_at(105, monkeypatch)
    n = 300
    for span in (greedy.SPAN, 40):  # one span; then the anomaly in the third of 8
        monkeypatch.setattr(greedy, "SPAN", span)
        seen.clear()
        st = run_accelerated(n, table)
        assert seen == [105]  # the one integer the bounds leave open
        assert st.anomalies == [(105, 2, 1)] and st.exact_checks == 1
        assert st.unverified == range(106, n + 1)
        canon = canonical_partition(n, table)
        assert st.partition.label(105) == 1 and canon.label(105) == 2
        assert np.array_equal(st.partition.labels[:103], canon.labels[:103])
        assert np.array_equal(st.partition.labels[104:], canon.labels[104:])
        # conflicts count every step up to the anomaly and none after it
        seen.clear()
        at_105 = run_accelerated(105, table)
        assert seen == [105]
        assert at_105.anomalies == [(105, 2, 1)] and not at_105.unverified
        assert at_105.conflicts == count_conflicts(at_105.partition)
        assert st.conflicts == at_105.conflicts


@pytest.mark.parametrize("span", [1, 2, 97, 1000])
def test_accelerated_spans_match_reference(table, monkeypatch, span):
    # class sizes carried across span ends, spans starting odd and even,
    # and spans holding no odd integer at all
    monkeypatch.setattr(greedy, "SPAN", span)
    n = 5000 if span > 2 else 300
    acc = run_accelerated(n, table)
    ref = run_reference(n)
    assert np.array_equal(acc.partition.labels, ref.partition.labels)
    assert acc.conflicts == ref.conflicts
    assert acc.anomalies == [] and not acc.unverified


# ------------------------------------------------------------- class_scores

def test_class_scores_match_scalar_referee(table):
    # every odd composite to 20000, the odd primes to 2000 and 19997 (a prime
    # n has pi(n) classes to score on each side), the hard region and 111546435
    ns = [n for n in range(9, 20_001, 2) if not table.is_prime(n) or n < 2_000]
    hard = [n for n in _hard_region_sample(100, seed=6)
            if factorize(n, table).distinct_primes[0] < n]
    for n in ns + [19_997] + hard + [FIRST_IRREGULAR]:
        assert class_scores(n, factorize(n, table), table) == scalar_class_scores(n, table), n


def test_class_scores_refuse_beyond_int64_headroom(small_table):
    n = greedy.VERIFY_STOP_LIMIT + 1  # refused before its factorization is read
    with pytest.raises(OutOfRangeError):
        class_scores(n, Factorization(n, ((n, 1),), (n,)), small_table)


# ------------------------------------------------------------- verify_single

def test_verify_single_skips_even_and_prime(table):
    assert verify_single(10, table) is None
    assert verify_single(97, table) is None


def test_verify_single_9(table):
    rec = verify_single(9, table)
    assert rec.spf_index == 2
    assert rec.deltas == {1: -2, 2: 1}
    assert rec.chosen_j == 2 and rec.expected_j == 2
    assert rec.status == "pass"


def test_verify_single_first_irregular(table):
    rec = verify_single(FIRST_IRREGULAR, table)
    assert rec.status == "fail"
    assert (rec.n, rec.expected_j, rec.chosen_j) == (FIRST_IRREGULAR, 2, 1)
    assert rec.deltas[1] == 19277857
    assert rec.deltas[2] == 18591072
    assert rec.deltas[1] > rec.deltas[2]


def test_verify_single_agrees_with_reference_choices(table):
    st = run_reference(2000)
    for n in range(9, 2001, 2):
        rec = verify_single(n, table)
        if rec is None:
            continue
        assert rec.chosen_j == st.partition.label(n), n
        assert rec.status == "pass"


# -------------------------------------------------------------- verify_range

def test_verify_range_counts(table):
    report = verify_range(2, 1000, table)
    assert report.checked + report.auto_passed == 999
    assert report.all_pass and report.anomalies == []
    assert json.loads(report.summary_json())["summary"]["unverified"] == []


def test_verify_range_at_first_irregular(table):
    lines = []
    report = verify_range(FIRST_IRREGULAR, FIRST_IRREGULAR, table, lines.append)
    assert report.anomalies == [(FIRST_IRREGULAR, 2, 1)]
    assert not report.all_pass
    assert [json.loads(line)["status"] for line in lines] == ["fail"]


def test_verify_range_bad_range(table):
    with pytest.raises(ValueError):
        verify_range(5, 4, table)


def test_verify_range_golden_jsonl(table, data_dir):
    buf = io.StringIO()
    report = verify_range(2, 1000, table, buf.write)
    buf.write(report.summary_json() + "\n")
    golden = (data_dir / "verify_2_1000.jsonl").read_text()
    assert buf.getvalue() == golden
    # the stream is well-formed JSONL with a trailing summary
    lines = buf.getvalue().strip().split("\n")
    summary = json.loads(lines[-1])["summary"]
    assert summary["all_pass"] is True
    assert summary["checked"] == len(lines) - 1


def test_verify_range_factorizes_each_odd_once_in_order(table, monkeypatch):
    # one factorize call per odd integer, in increasing order, across calls
    calls = []
    inner = greedy.factorize

    def recording_factorize(n, tb):
        calls.append(n)
        return inner(n, tb)

    monkeypatch.setattr(greedy, "factorize", recording_factorize)
    start = 1_000_001
    for a in (start, start + 2_000):
        verify_range(a, a + 1_999, table)
    assert calls == list(range(start, start + 4_000, 2))


def test_verify_range_and_class_scores_open_classes_through_class_size(table, monkeypatch):
    # every class opening goes through greedy.class_size, the name the
    # benchmark probe's counts.class_size span wraps: verify_range opens its
    # classes in one call, class_scores once per chunk of pairs and once for s_i
    calls = []
    inner = greedy.class_size

    def recording_class_size(i, u, tb):
        calls.append((np.asarray(i).tolist(), u))
        return inner(i, u, tb)

    monkeypatch.setattr(greedy, "class_size", recording_class_size)
    verify_range(1_000_001, 1_003_000, table)
    assert calls == [(list(range(2, table.pi(isqrt(1_003_000)) + 1)), 1_000_000)]
    calls.clear()
    monkeypatch.setattr(greedy, "VERIFY_PAIRS", 8)
    n = 71 * 73  # class 20: pairs j = 2 .. 19
    assert class_scores(n, factorize(n, table), table) == scalar_class_scores(n, table)
    assert calls == [(list(range(2, 10)), n - 1), (list(range(10, 18)), n - 1),
                     ([18, 19], n - 1), ([20], n - 1)]


def test_verify_range_refuses_beyond_int64_headroom(small_table):
    with pytest.raises(OutOfRangeError):
        verify_range(greedy.VERIFY_STOP_LIMIT - 1, greedy.VERIFY_STOP_LIMIT, small_table)


@settings(max_examples=40, deadline=None)
@given(anchor=strategies.sampled_from([2, 10 ** 7, FIRST_IRREGULAR])
       | strategies.integers(2, 2 * 10 ** 8),
       width=strategies.integers(1, 3_000), offset=strategies.integers(0, 2_999))
@example(anchor=2, width=3_000, offset=0)
@example(anchor=10 ** 7, width=2_000, offset=1_000)  # straddles 10^7
@example(anchor=FIRST_IRREGULAR, width=2_000, offset=1_000)
def test_sieve_span_matches_factorize(table, anchor, width, offset):
    # the window [a, b] holds anchor
    a = max(2, anchor - offset % width)
    b = a + width - 1
    phi, qs, used = _sieve_span(a, b, table.primes[: table.pi(isqrt(b))])
    assert phi.tolist() == [totient(factorize(m, table)) for m in range(a, b + 1)]
    for m, row, count in zip(range(a | 1, b + 1, 2), qs.tolist(), used.tolist()):
        assert (tuple(row[:count]) or (m,)) == factorize(m, table).distinct_primes, m


def _check_window_sizes(start: int, stop: int, table) -> None:
    """verify_range's kept class sizes and block kernel give every record the
    scalar referee gives, integer by integer."""
    blocks = []
    report = verify_range(start, stop, table, blocks.append)
    lines = list(scalar_records(start, stop, table))
    assert "".join(blocks) == "".join(lines)
    records = [json.loads(line) for line in lines]
    assert all(block.endswith("\n") for block in blocks)  # whole records per call
    assert report.checked == len(records)
    assert report.anomalies == [(r["n"], r["expected_j"], r["chosen_j"])
                                for r in records if r["status"] == "fail"]


@settings(max_examples=40, deadline=None)
@given(start=strategies.integers(2, 3_000), width=strategies.integers(1, 2_000))
@example(start=2, width=2_000)     # holds every prime up to isqrt(stop)
@example(start=9, width=1)
@example(start=1_000, width=200)   # classes first needed inside the window
# 37417 = 17 * 31 * 71: for j = 6, (37416 // 13) // 17 = 169 = 13 ** 2, where
# phi(y, 5) leaves its one-lookup branch
@example(start=37_000, width=1_000)
def test_window_sizes_match_standalone_low(table, start, width):
    _check_window_sizes(start, start + width - 1, table)


@settings(max_examples=15, deadline=None)
@given(start=strategies.integers(10 ** 8, FIRST_IRREGULAR + 10 ** 5),
       width=strategies.integers(1, 300))
@example(start=FIRST_IRREGULAR - 150, width=300)  # the one deviation, mid-window
@example(start=FIRST_IRREGULAR, width=40)
def test_window_sizes_match_standalone_near_1e8(table, start, width):
    _check_window_sizes(start, start + width - 1, table)


@settings(max_examples=30, deadline=None)
@given(anchor=strategies.sampled_from([2, 529, 37_417, 10 ** 7, FIRST_IRREGULAR])
       | strategies.integers(2, 125 * 10 ** 6),  # the 10^7 table scores up to 1.3 * 10^8
       width=strategies.integers(1, 600), offset=strategies.integers(0, 599),
       block=strategies.sampled_from([1, 2, 7]), pairs=strategies.sampled_from([1, 2, 7]))
@example(anchor=2, width=600, offset=0, block=7, pairs=2)  # primes join their classes
# [14, 613]: 17, 19 and 23 = p_9 lie before 23 ** 2 = 529, the first composite
# of class 9, and before the composites of classes i > 7 that score class 7
@example(anchor=529, width=600, offset=515, block=2, pairs=7)
@example(anchor=529, width=600, offset=515, block=1, pairs=1)
@example(anchor=37_417, width=200, offset=100, block=7, pairs=1)  # y = 13 ** 2 (above)
@example(anchor=10 ** 7, width=400, offset=200, block=7, pairs=7)  # the SPF limit
@example(anchor=FIRST_IRREGULAR, width=400, offset=200, block=2, pairs=2)
def test_verify_blocks_match_verify_single(table, anchor, width, offset, block, pairs):
    # the window [a, b] holds anchor; the block kernel at any block size and
    # pair cap writes the scalar referee's records, byte for byte
    a = max(2, anchor - offset % width)
    with mock.patch.object(greedy, "VERIFY_BLOCK", block), \
            mock.patch.object(greedy, "VERIFY_PAIRS", pairs):
        _check_window_sizes(a, a + width - 1, table)


# ------------------------------------------------------ the row model

def _rows_of_both_sweeps(a: int, b: int, table):
    """The ``_Rows`` that ``_Span`` and ``_verify_block`` build over the odd
    integers of [a, b], each from the entry sizes ``class_size(c, a - 1)``,
    with the sizes each leaves behind; and those entry sizes."""
    top = max(table.pi(isqrt(b)), 1) + 1
    entry = np.zeros(top, dtype=np.int64)
    entry[2:] = class_size(np.arange(2, top), a - 1, table)
    built = []

    class Kept(greedy._Rows):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    span_sizes, block_sizes = entry.copy(), entry.copy()
    with mock.patch.object(greedy, "_Rows", Kept):
        span = greedy._Span(a, b, table, span_sizes, np.empty(b - a + 1, dtype=np.int64))
        greedy._verify_block(a | 1, b, table, block_sizes, greedy.VerifyReport(a, b), None)
    assert len(built) == 2 and built[0] is span.rows
    return (built[0], span_sizes), (built[1], block_sizes), entry


@settings(max_examples=30, deadline=None)
@given(anchor=strategies.sampled_from([3, 10 ** 7, FIRST_IRREGULAR])
       | strategies.integers(2, 125 * 10 ** 6),  # the 10^7 table scores up to 1.3 * 10^8
       width=strategies.integers(2, 1_500), offset=strategies.integers(0, 1_499))
@example(anchor=3, width=1_500, offset=0)  # from 3: the primes open their classes
@example(anchor=2, width=1_000, offset=0)
@example(anchor=10 ** 7, width=1_000, offset=500)  # across the SPF limit
@example(anchor=FIRST_IRREGULAR, width=1_000, offset=500)  # a odd
@example(anchor=FIRST_IRREGULAR, width=1_000, offset=501)  # a even
def test_span_and_verify_block_build_the_same_rows(table, anchor, width, offset):
    # the window [a, b] holds anchor; the span sieve and verify's factorize
    # calls place its odd integers in the same rows and leave the same sizes
    a = max(2, anchor - offset % width)
    b = a + width - 1
    (span, span_sizes), (block, block_sizes), entry = _rows_of_both_sweeps(a, b, table)
    for name in ("lab", "k", "m", "i", "s_i", "d1", "used"):
        assert getattr(span, name).tolist() == getattr(block, name).tolist(), name
    for r, u in enumerate(span.used.tolist()):
        assert span.qs[r, :u].tolist() == block.qs[r, :u].tolist(), r
    assert span_sizes.tolist() == block_sizes.tolist()
    assert span_sizes[2:].tolist() == class_size(np.arange(2, len(entry)), b, table).tolist()
    assert span.m.tolist() == [m for m in range(a | 1, b + 1, 2)
                               if factorize(m, table).distinct_primes[0] != m]


def test_rows_size_counts_class_members_below(table):
    # size(c, k): class c's entry size plus its members among the first k odd
    # integers of the run, for one class or one per k; s_i the same at k, i
    rng = np.random.default_rng(7)
    for a, b in ((2, 3_000), (999_001, 1_003_000), (FIRST_IRREGULAR - 999, FIRST_IRREGULAR + 999)):
        top = table.pi(isqrt(b)) + 1
        entry = rng.integers(0, 10 ** 6, top)
        rows = greedy._Span(a, b, table, entry.copy(), np.empty(b - a + 1, dtype=np.int64)).rows
        lab = rows.lab.tolist()
        k = rng.integers(0, len(lab) + 1, 400)
        own = rng.choice(rows.k, 200)  # the class of the k-th odd integer itself
        c = np.r_[rng.integers(0, top, 400), rows.lab[own]]
        k = np.r_[k, own]
        want = [entry[ci] + lab[:ki].count(ci) for ci, ki in zip(c.tolist(), k.tolist())]
        assert rows.size(c, k).tolist() == want
        assert [rows.size(ci, ki) for ci, ki in zip(c.tolist(), k.tolist())] == want
        assert rows.s_i.tolist() == [entry[i] + lab[:ki].count(i)
                                     for i, ki in zip(rows.i.tolist(), rows.k.tolist())]


# ------------------------------------------------ the span engine's bound

def _engine_report(a: int, b: int, table, sizes) -> dict[int, tuple]:
    """Run the span engine over [a, b] from the entry class ``sizes`` and
    collect, per odd composite m: (d1, s_i, {class j: W_j} for each class
    m was carried at, whether m was marked for exact scoring)."""
    span = greedy._Span(a, b, table, np.array(sizes), np.empty(b - a + 1, dtype=np.int64))
    rows = span.rows
    carried = {m: {} for m in rows.m.tolist()}
    for j, k, w in span.bounds(table):
        for m, w_m in zip(rows.m[k].tolist(), w.tolist()):
            carried[m][j] = w_m
    return {m: (d1, s_i, carried[m], marked) for m, d1, s_i, marked in
            zip(rows.m.tolist(), rows.d1.tolist(), rows.s_i.tolist(), span.exact.tolist())}


def _rebuilt_bounds(n: int, row: tuple, s_j) -> list:
    """Check that the engine carried odd composite n (its ``row``) by the
    rule, and rebuild [0, delta_1, a bound on delta_j for 2 <= j < i] from
    what it reported.  ``s_j(j)`` is class j's size below n in the
    engine's state.  Classes after n was marked for exact scoring get None.

    The rule: n is carried at 2, 3, ... in turn from class 2 (if i > 2 and
    d1 < s_i), with W_j the friend bound; at a class j where
    2 * min(W_j, s_j) - s_j >= s_i it is marked, and it goes on past j only
    while W_j >= s_i.  It stops before class i - 1 only when marked or with
    W_j < s_i, whose W_j then bounds every later class.
    """
    d1, s_i, w, marked = row
    oracle = friend_bounds(n)
    i = len(oracle) + 2
    assert list(w) == list(range(2, 2 + len(w))), n
    assert w == {j: oracle[j] for j in w}, n
    assert bool(w) == (i > 2 and d1 < s_i), n
    bound = [0, d1] + [2 * min(w[j], s_j(j)) - s_j(j) for j in w]
    for j in list(w)[:-1]:  # carried on past j
        assert bound[j] < s_i <= w[j], (n, j)
    last = 1 + len(w)
    assert marked == (d1 >= s_i or bound[last] >= s_i), n
    if last < i - 1:  # left early
        assert marked or w[last] < s_i, (n, last)
        bound += [None if marked else w[last]] * (i - 1 - last)
    return bound


def _check_bounded_scores(n: int, table, report=None) -> None:
    """The engine's report for odd n (from ``report``, or from the
    one-integer span [n, n]) against the exact scores: the rule held, every
    rebuilt bound is at least its class's score, and delta_1 and s_i are
    exact.  Unmarked, every bound is below s_i: n joins class i."""
    f = factorize(n, table)
    if f.distinct_primes[0] == n:
        return
    exact = class_scores(n, f, table)
    i = len(exact) - 1
    if report is None:
        report = _engine_report(n, n, table, [0, 0] + [class_size(c, n - 1, table)
                                                      for c in range(2, i + 1)])
    row = report[n]
    assert (row[0], row[1]) == (exact[1], exact[i]), n
    bound = _rebuilt_bounds(n, row, lambda j: class_size(j, n - 1, table))
    assert all(b is None or b >= e for b, e in zip(bound, exact)), n
    assert row[3] or max(bound[1:]) < exact[i], n


def _hard_region_sample(count: int, seed: int) -> list[int]:
    """Seeded odd integers in (10^6, 111546435) with no prime factor <= 17."""
    rng = random.Random(seed)
    out: list[int] = []
    while len(out) < count:
        n = rng.randrange(1_000_001, FIRST_IRREGULAR, 2)
        if all(n % q for q in (3, 5, 7, 11, 13, 17)):
            out.append(n)
    return out


def test_class_score_bound_sound(table):
    top = table.pi(isqrt(20_000)) + 1
    report = _engine_report(2, 20_000, table, np.zeros(top, dtype=np.int64))
    for n in range(9, 20_001, 2):
        _check_bounded_scores(n, table, report)
    for n in _hard_region_sample(200, seed=4):
        _check_bounded_scores(n, table)
    _check_bounded_scores(FIRST_IRREGULAR, table)


@settings(max_examples=200, deadline=None)
@given(k=strategies.integers(4, (FIRST_IRREGULAR - 1) // 2))
def test_class_score_bound_sound_property(table, k):
    _check_bounded_scores(2 * k + 1, table)


def test_engine_marks_by_the_class_bound(table):
    """Entry sizes of 1 (as if each class held only its prime) make the
    class bound 2 * min(W_j, s_j) - s_j = s_j reach s_i, ties included, so
    the marking rule is exercised; real states do not reach it up to 10^7
    at least (``exact_checks`` is 0 there)."""
    seen = {"marked": 0, "tied": 0, "carried past class 2": 0}
    for a in (3, 100_001, 10 ** 7 - 3_001):
        b = a + 2_000
        report = _engine_report(a, b, table, np.ones(table.pi(isqrt(b)) + 1, dtype=np.int64))
        for m, row in report.items():
            if row[2]:
                bound = _rebuilt_bounds(m, row, lambda j: 1 + class_size(j, m - 1, table)
                                        - class_size(j, a - 1, table))
                seen["marked"] += row[3]
                seen["tied"] += row[1] in bound[2:]
                seen["carried past class 2"] += len(row[2]) > 1
    assert min(seen.values()) > 0, seen


def _check_tail_bound(n: int, table) -> None:
    """For odd composite n and 2 <= J <= j < i: the exact score of class j is
    at most W_J (oracle), and W_J does not rise with J."""
    f = factorize(n, table)
    if f.distinct_primes[0] == n:
        return
    exact = class_scores(n, f, table)
    i = len(exact) - 1
    w = friend_bounds(n)
    assert list(w) == list(range(2, i)), n
    for J in range(2, i):
        assert max(exact[J:i]) <= w[J], (n, J)
        assert J + 1 == i or w[J + 1] <= w[J], (n, J)


def test_tail_bound_sound(table):
    for n in range(9, 4_001, 2):
        _check_tail_bound(n, table)
    for n in _hard_region_sample(100, seed=5):
        _check_tail_bound(n, table)
    _check_tail_bound(FIRST_IRREGULAR, table)


@settings(max_examples=150, deadline=None)
@given(k=strategies.integers(4, (FIRST_IRREGULAR - 1) // 2))
@example(k=(FIRST_IRREGULAR - 1) // 2)
def test_tail_bound_sound_property(table, k):
    _check_tail_bound(2 * k + 1, table)


def test_accelerated_settles_classes_by_bound(table, monkeypatch):
    n = 100_000
    calls = {"tally_diffs": 0, "class_size": 0, "factorize": 0}

    def counting(name):
        inner = getattr(greedy, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(greedy, name, counting(name))
    acc = run_accelerated(n, table)
    # one check per odd composite m and class 2 <= j < i(m)
    checks = sum(max(table.prime_index(factorize(m, table).distinct_primes[0]) - 2, 0)
                 for m in range(9, n + 1, 2) if not table.is_prime(m))
    assert calls == {"tally_diffs": 0, "class_size": 0, "factorize": 0}
    assert acc.exact_checks == 0
    assert 0 < acc.bound_checks < checks / 4
    assert np.array_equal(acc.partition.labels, canonical_partition(n, table).labels)
    ref, acc = run_reference(20_000), run_accelerated(20_000, table)
    assert np.array_equal(ref.partition.labels, acc.partition.labels)
    assert ref.conflicts == acc.conflicts


@settings(max_examples=300, deadline=None)
@given(n=strategies.integers(-10 ** 30, 10 ** 30),
       i=strategies.integers(-5, 40),
       deltas=strategies.dictionaries(strategies.integers(1, 40),
                                      strategies.integers(-10 ** 40, 10 ** 40)),
       chosen=strategies.integers(0, 40))
def test_record_json_matches_json_dumps(n, i, deltas, chosen):
    # keys 1..40 order differently as numbers and as strings ("10" < "2")
    rec = VerifyRecord(n=n, spf_index=i, deltas=deltas, chosen_j=chosen, expected_j=i)
    assert rec.to_json() == json.dumps({
        "n": n,
        "spf_index": i,
        "deltas": {str(j): d for j, d in sorted(deltas.items())},
        "chosen_j": chosen,
        "expected_j": i,
        "status": rec.status,
    })


@settings(max_examples=200, deadline=None)
@example(n=9, classes=[1], seed=0)
@example(n=111546435, classes=[2, 1300, 1299, 3, 1301 // 2], seed=1)
@given(n=strategies.integers(9, 2 ** 60),
       classes=strategies.lists(strategies.integers(1, 1300), min_size=1, max_size=6),
       seed=strategies.integers(0, 2 ** 32 - 1))
def test_record_lines_match_json_dumps(n, classes, seed):
    # the records of ``verify`` for classes i up to 1300 (the largest near
    # 1.1 * 10^8), in turn from an empty key string that grows on demand;
    # deltas are zero, negative, or at the int64 extremes
    rng, records = np.random.default_rng(seed), greedy._Records(None)
    for i in classes:
        pick = rng.integers(0, 5, i)
        deltas = np.choose(pick, [0, -(2 ** 63), 2 ** 63 - 1,
                                  rng.integers(-(2 ** 63), 0, i),
                                  rng.integers(0, 2 ** 63 - 1, i, endpoint=True)]).tolist()
        vals = [0, *deltas]
        chosen = vals.index(max(vals))
        assert records.line(n, vals, chosen) == json.dumps({
            "n": n, "spf_index": i, "deltas": {str(j): vals[j] for j in range(1, i + 1)},
            "chosen_j": chosen, "expected_j": i,
            "status": "pass" if chosen == i else "fail"}) + "\n"
