"""Greedy runs, step selection, and the regularity verification."""

import io
import json
import random
from math import gcd, isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from gcdcluster import (
    OutOfRangeError,
    ResourceGuardError,
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
from gcdcluster.greedy import VerifyRecord, _scan_step
from oracles import ClassTally, naive_greedy

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
    assert acc.anomalies == [] and acc.unverified == []


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
        i = table.prime_index(table.smallest_prime_factor(m))
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


def class_1_wins_at(m0: int, monkeypatch) -> None:
    """Make class 1 win at odd m0 = 3 * 5 * 7 * k: the span engine leaves m0
    to the exact kernel, and greedy.class_scores lowers class 2 there below
    class 1's exact score, which is positive (no class scores between them)."""
    scores = greedy.class_scores
    span_init = greedy._Span.__init__

    def doctored(n, f, table, sizes=None):
        vals = scores(n, f, table, sizes)
        if n == m0:
            assert len(vals) == 3 and vals[1] > 0
            vals[2] = vals[1] - 1
        return vals

    def leave_open(span, *args):
        span_init(span, *args)
        at = span.m == m0
        span.d1[at] = span.s_i[at]  # class 1 is no longer ruled out

    monkeypatch.setattr(greedy, "class_scores", doctored)
    monkeypatch.setattr(greedy._Span, "__init__", leave_open)


def test_accelerated_stops_verifying_after_an_anomaly(table, monkeypatch):
    class_1_wins_at(105, monkeypatch)
    n = 300
    for span in (greedy.SPAN, 40):  # one span; then the anomaly in the third of 8
        monkeypatch.setattr(greedy, "SPAN", span)
        st = run_accelerated(n, table)
        assert st.anomalies == [(105, 2, 1)]
        assert st.unverified == list(range(106, n + 1))
        canon = canonical_partition(n, table)
        assert st.partition.label(105) == 1 and canon.label(105) == 2
        assert np.array_equal(st.partition.labels[:103], canon.labels[:103])
        assert np.array_equal(st.partition.labels[104:], canon.labels[104:])
        # conflicts count every step up to the anomaly and none after it
        at_105 = run_accelerated(105, table)
        assert at_105.anomalies == [(105, 2, 1)] and at_105.unverified == []
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
    assert acc.anomalies == [] and acc.unverified == []


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
    assert report.all_pass
    assert report.anomalies == [] and report.unverified == []


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


def test_verify_range_clears_memo_per_call(table, monkeypatch):
    # the memo a call leaves behind is gone before the next call's first integer
    first_seen = {}
    single = greedy.verify_single

    def recording_single(n, tb, sizes=None):
        first_seen.setdefault(n, len(tb._phi_cache))
        return single(n, tb, sizes)

    monkeypatch.setattr(greedy, "verify_single", recording_single)
    start = 1_000_001
    for a in (start, start + 2_000):
        verify_range(a, a + 1_999, table)
        assert len(table._phi_cache) > 0
        assert first_seen[a] == 0


def _check_window_sizes(start: int, stop: int, table) -> None:
    """verify_range's kept class sizes give every record standalone scoring gives."""
    lines = []
    verify_range(start, stop, table, lines.append)
    standalone = [verify_single(n, table) for n in range(start, stop + 1)]
    assert lines == [rec.to_json() + "\n" for rec in standalone if rec is not None]


@settings(max_examples=40, deadline=None)
@given(start=strategies.integers(2, 3_000), width=strategies.integers(1, 2_000))
@example(start=2, width=2_000)     # holds every prime up to isqrt(stop)
@example(start=9, width=1)
@example(start=1_000, width=200)   # classes first needed inside the window
def test_window_sizes_match_standalone_low(table, start, width):
    _check_window_sizes(start, start + width - 1, table)


@settings(max_examples=15, deadline=None)
@given(start=strategies.integers(10 ** 8, FIRST_IRREGULAR + 10 ** 5),
       width=strategies.integers(1, 300))
@example(start=FIRST_IRREGULAR - 150, width=300)  # the one deviation, mid-window
@example(start=FIRST_IRREGULAR, width=40)
def test_window_sizes_match_standalone_near_1e8(table, start, width):
    _check_window_sizes(start, start + width - 1, table)


# ------------------------------------------------ the span engine's bound

def _engine_scores(a: int, b: int, table, top: int) -> dict[int, list[int]]:
    """What the span engine checks for each odd composite m of [a, b] against
    the canonical clustering: [0, delta_1, its bound on delta_j for
    2 <= j < i, s_i].  ``top`` exceeds every class i of the span."""
    sizes = np.array([0, 0] + [class_size(c, a - 1, table) for c in range(2, top)])
    span = greedy._Span(a, b, table, sizes, np.empty(b - a + 1, dtype=np.int64))
    scores = {m: [0, d1] + [None] * (i - 2) + [s_i] for m, i, d1, s_i in
              zip(span.m.tolist(), span.i.tolist(), span.d1.tolist(), span.s_i.tolist())}
    for j, bound in span.bounds(table):
        for m, b_j in zip(span.m.tolist(), bound.tolist()):
            scores[m][j] = b_j
    return scores


def _check_bounded_scores(n: int, table, engine=None) -> None:
    """The engine's scores for odd n (from ``engine``, or from the one-integer
    span [n, n]) against the exact list: an upper bound for every class
    2 <= j < i, and exact for the fresh class, class 1 and class i."""
    f = factorize(n, table)
    if f.distinct_primes[0] == n:
        return
    exact = class_scores(n, f, table)
    i = len(exact) - 1
    sizes = [0] + [class_size(c, n - 1, table) for c in range(1, i + 1)]
    assert class_scores(n, f, table, sizes) == exact, n
    bounded = (engine or _engine_scores(n, n, table, i + 1))[n]
    assert len(bounded) == len(exact), n
    assert all(b >= e for b, e in zip(bounded, exact)), n
    assert [bounded[k] for k in (0, 1, i)] == [exact[k] for k in (0, 1, i)], n


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
    engine = _engine_scores(2, 20_000, table, table.pi(isqrt(20_000)) + 1)
    for n in range(9, 20_001, 2):
        _check_bounded_scores(n, table, engine)
    for n in _hard_region_sample(200, seed=4):
        _check_bounded_scores(n, table)
    _check_bounded_scores(FIRST_IRREGULAR, table)


@settings(max_examples=200, deadline=None)
@given(k=strategies.integers(4, (FIRST_IRREGULAR - 1) // 2))
def test_class_score_bound_sound_property(table, k):
    _check_bounded_scores(2 * k + 1, table)


def test_accelerated_settles_classes_by_bound(table, monkeypatch):
    n = 20_000
    calls = {"tally_diff_fast": 0, "class_size": 0, "factorize": 0}

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
    checks = sum(max(table.prime_index(table.smallest_prime_factor(m)) - 2, 0)
                 for m in range(9, n + 1, 2) if not table.is_prime(m))
    assert calls["class_size"] == calls["factorize"] == 0
    assert calls["tally_diff_fast"] < checks / 100
    ref = run_reference(n)
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
