"""Partition model, conflict counting, and move deltas from class scores."""

import io
import json
import random
from math import gcd

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies

from gcdcluster import (
    ResourceGuardError,
    build_prime_table,
    canonical_partition,
    class_scores,
    count_conflicts,
    exceptional_partition,
    factorize,
    partition_to_csv,
    read_partition_csv,
    similar,
)
from gcdcluster.partition import CSV_BLOCK, Partition, csv_blocks, json_blocks
from gcdcluster.primes import DEFAULT_SPF_LIMIT
from oracles import naive_conflicts, naive_spf, tally_exact

FIRST_IRREGULAR = 111546435


# ------------------------------------------------------------------- relation

def test_similar_basic():
    assert not similar(2, 3)
    assert similar(6, 15)


def test_first_irregular_is_odd():
    assert not similar(FIRST_IRREGULAR, 2)


def test_similar_rejects_self_pair():
    with pytest.raises(ValueError):
        similar(7, 7)


# ---------------------------------------------------------- canonical classes

def test_canonical_15_matches_greedy_listing(small_table):
    part = canonical_partition(15, small_table)
    assert part.members(1).tolist() == [2, 4, 6, 8, 10, 12, 14]
    assert part.members(2).tolist() == [3, 9, 15]
    assert part.members(3).tolist() == [5]
    assert part.members(4).tolist() == [7]
    assert part.members(5).tolist() == [11]
    assert part.members(6).tolist() == [13]


def test_canonical_base_case(small_table):
    part = canonical_partition(2, small_table)
    assert part.class_sizes == {1: 1}
    assert part.label(2) == 1


def test_canonical_30_sizes(small_table):
    part = canonical_partition(30, small_table)
    assert part.class_sizes[1] == 15
    assert part.class_sizes[2] == 5
    assert part.class_sizes[3] == 2


def test_canonical_is_smallest_prime_factor_rule(small_table):
    part = canonical_partition(1000, small_table)
    for m in range(2, 1001):
        assert small_table.prime(part.label(m)) == naive_spf(m)
    assert sum(part.class_sizes.values()) == 999


@settings(max_examples=100, deadline=None)
@given(n=strategies.integers(2, 3000))
def test_canonical_matches_naive_spf_property(small_table, n):
    labels = canonical_partition(n, small_table).labels.tolist()
    assert labels == [small_table.prime_index(naive_spf(m)) for m in range(2, n + 1)]


def test_canonical_past_the_spf_cap():
    # a table past DEFAULT_SPF_LIMIT, whose cached SPF array stops at the cap:
    # the labels come from their own sieve of [2, n]
    n = DEFAULT_SPF_LIMIT + 100
    t = build_prime_table(n)
    assert t.spf_limit == DEFAULT_SPF_LIMIT < n
    labels = canonical_partition(n, t).labels
    assert labels.dtype == np.int64
    want = [t.prime_index(factorize(m, t).distinct_primes[0]) for m in range(n - 199, n + 1)]
    assert labels[-200:].tolist() == want


def test_canonical_beyond_limit_rejected(small_table):
    with pytest.raises(ValueError):
        canonical_partition(small_table.limit + 1, small_table)


def test_exceptional_15(small_table):
    part = exceptional_partition(15, small_table)
    assert part.members(1).tolist() == [2, 4, 6, 8, 10, 12, 14, 15]
    assert part.members(2).tolist() == [3, 9]


def test_exceptional_9(small_table):
    part = exceptional_partition(9, small_table)
    assert part.members(1).tolist() == [2, 4, 6, 8, 9]
    assert part.members(2).tolist() == [3]
    assert part.members(3).tolist() == [5]
    assert part.members(4).tolist() == [7]


def test_exceptional_class2_size_rule(small_table):
    # after moving n out, class 2 holds the odd multiples of 3 below n:
    # (n-3)/6 of them
    for n in range(9, 2001, 6):
        part = exceptional_partition(n, small_table)
        assert part.class_sizes.get(2, 0) == (n - 3) // 6, n


def test_exceptional_rejects_wrong_shape(small_table):
    with pytest.raises(ValueError):
        exceptional_partition(12, small_table)
    with pytest.raises(ValueError):
        exceptional_partition(25, small_table)


# ------------------------------------------------------------------ conflicts

def test_conflicts_canonical_4(small_table):
    assert count_conflicts(canonical_partition(4, small_table)) == 0


def test_conflicts_canonical_15(small_table):
    part = canonical_partition(15, small_table)
    assert count_conflicts(part) == 10
    label_of = {m: part.label(m) for m in range(2, 16)}
    assert naive_conflicts(15, label_of) == 10


def test_conflicts_singletons_of_2_3():
    part = Partition(3, np.array([1, 2], dtype=np.int64))
    assert count_conflicts(part) == 0


def test_conflicts_guard(small_table):
    part = canonical_partition(600, small_table)
    with pytest.raises(ResourceGuardError):
        count_conflicts(part, guard=500)
    assert count_conflicts(part, guard=600) >= 0


def test_canonical_beats_singletons(small_table):
    """From the first friendship on, clustering beats isolating everything."""
    n_max = 2000
    values = np.arange(2, n_max + 1, dtype=np.int64)
    labels = canonical_partition(n_max, small_table).labels
    canonical = 0
    singleton = 0
    for m in range(3, n_max + 1):
        prev = values[: m - 2]
        friend = np.gcd(prev, m) > 1
        n_friends = int(np.count_nonzero(friend))
        singleton += n_friends  # every friendship is a conflict for singletons
        same = labels[: m - 2] == labels[m - 2]
        canonical += int(np.count_nonzero(friend != same))
        if m >= 6:
            assert canonical < singleton, m


# ---------------------------------------------------------------- move deltas

def _scan_diffs(part: Partition, n: int) -> dict[int, int]:
    """Friends minus enemies of n in every class of part, n excluded, by gcd scan."""
    diffs = {}
    for cid in part.class_sizes:
        members = [int(m) for m in part.members(cid) if m != n]
        diffs[cid] = sum(1 if gcd(m, n) > 1 else -1 for m in members)
    return diffs


def _moved_delta(part: Partition, n: int, to: int) -> int:
    """Brute-force change in conflicts when n moves to class ``to``."""
    moved = Partition(part.n, part.labels.copy())
    moved.labels[n - 2] = to
    return count_conflicts(moved) - count_conflicts(part)


def test_delta_9_to_even_class(small_table):
    # moving n from class i to class j changes the conflicts by score i - score j
    part = canonical_partition(9, small_table)
    vals = class_scores(9, factorize(9, small_table), small_table)
    assert vals[2] - vals[1] == 3 == _moved_delta(part, 9, 1)


def test_delta_at_first_irregular(table):
    """The one-element move that beats the canonical clustering, scored from
    closed forms: moving the first irregular integer to the evens removes
    686785 conflicts."""
    n = FIRST_IRREGULAR
    f = factorize(n, table)
    vals = class_scores(n, f, table)
    s2 = (n - 3) // 6  # odd multiples of 3 below n, all friends
    assert vals[1:] == [tally_exact(1, n, f, table).diff, s2]
    delta = vals[2] - vals[1]
    assert delta == -686785
    assert delta < 0


def test_delta_matches_brute_force_on_random_partitions(small_table):
    # the identity behind the move scoring: delta = diff[from] - diff[to],
    # with diff 0 for a fresh class
    rng = random.Random(99)
    for trial in range(40):
        n_max = rng.randrange(8, 60)
        n_classes = rng.randrange(1, 6)
        labels = np.array([rng.randrange(1, n_classes + 1) for _ in range(n_max - 1)],
                          dtype=np.int64)
        part = Partition(n_max, labels)
        n = rng.randrange(2, n_max + 1)
        frm = part.label(n)
        targets = list(part.class_sizes) + [max(part.class_sizes) + 1]
        to = rng.choice(targets)
        diffs = _scan_diffs(part, n)
        got = diffs[frm] - diffs.get(to, 0)
        assert got == _moved_delta(part, n, to), (n_max, n, frm, to)


# ------------------------------------------------------------------------ CSV

def test_csv_roundtrip(small_table):
    part = canonical_partition(50, small_table)
    text = partition_to_csv(part)
    back = read_partition_csv(io.StringIO(text))
    assert back.n == part.n
    assert np.array_equal(back.labels, part.labels)


# every n = 10^k - 1, 10^k, 10^k + 1 up to 10^5, and n - 1 rows at a block edge, +-1
_CSV_EDGES = sorted({10 ** k + d for k in range(1, 6) for d in (-1, 0, 1)}
                    | {CSV_BLOCK * b + 1 + d for b in (1, 2) for d in (-1, 0, 1)})


def _with_csv_edges(test):
    for k, n in enumerate(_CSV_EDGES):
        test = example(n=n, digits=k % 19 + 1, signed=k % 2 == 1, seed=k)(test)
    return test


@settings(max_examples=60, deadline=None)
@_with_csv_edges
@example(n=2, digits=1, signed=False, seed=0)
@given(n=strategies.integers(2, 3 * CSV_BLOCK + 2), digits=strategies.integers(1, 19),
       signed=strategies.booleans(), seed=strategies.integers(0, 2 ** 32 - 1))
def test_csv_matches_fstring_rows(n, digits, signed, seed):
    # labels of 1 up to ``digits`` digits (19: up to 2^63 - 1), zeros among
    # them, and negative ones down to -2^63 when ``signed``
    rng = np.random.default_rng(seed)
    top = 10 ** digits - 1 if digits < 19 else 2 ** 63 - 1
    labels = rng.integers(0, top, n - 1, endpoint=True) // 10 ** rng.integers(0, digits, n - 1)
    labels[rng.random(n - 1) < 0.05] = 0
    labels[rng.integers(0, n - 1)] = top
    if signed:
        labels[rng.random(n - 1) < 0.5] *= -1
        labels[rng.integers(0, n - 1)] = -top - (digits == 19)
    part = Partition(n, labels)
    text = partition_to_csv(part)
    got = text.splitlines(keepends=True)  # row by row: a diff of the whole text takes minutes
    expected = ["integer,class\n"] + [f"{m},{c}\n" for m, c in enumerate(labels.tolist(), 2)]
    assert len(got) == len(expected) and not [r for r, e in zip(got, expected) if r != e][:3]
    rows = [block.count("\n") for block in csv_blocks(part)]
    assert rows == [1] + [CSV_BLOCK] * ((n - 2) // CSV_BLOCK) + [(n - 2) % CSV_BLOCK + 1]
    back = read_partition_csv(io.StringIO(text))
    assert back.n == n and np.array_equal(back.labels, labels)


@settings(max_examples=60, deadline=None)
@example(n=2, ids=1, run=0, seed=0)
@example(n=3 * CSV_BLOCK + 2, ids=1, run=CSV_BLOCK, seed=0)  # classes open at block edges
@example(n=CSV_BLOCK + 2, ids=1, run=CSV_BLOCK - 1, seed=0)  # and one member before them
@given(n=strategies.integers(2, 3 * CSV_BLOCK + 2), ids=strategies.integers(1, 10 ** 6),
       run=strategies.integers(0, 2 * CSV_BLOCK), seed=strategies.integers(0, 2 ** 32 - 1))
def test_json_matches_json_dumps(n, ids, run, seed):
    # labels in [-ids, ids] at random (run = 0) or in runs of ``run`` integers,
    # both with a few single-member classes; the referee is json.dumps of the
    # class dict, ids increasing, members increasing
    rng = np.random.default_rng(seed)
    if run:
        labels = np.arange(n - 1, dtype=np.int64) // run * (rng.integers(0, 2) * 2 - 1)
    else:
        labels = rng.integers(-ids, ids, n - 1, endpoint=True)
    labels[rng.integers(0, n - 1, 3)] = 10 ** 18 + np.arange(3)
    classes = {}
    for m, c in enumerate(labels.tolist(), 2):
        classes.setdefault(c, []).append(m)
    got = "".join(json_blocks(Partition(n, labels)))
    assert got == json.dumps(dict(sorted(classes.items())))


def test_csv_golden_g15(small_table, data_dir):
    part = canonical_partition(15, small_table)
    golden = (data_dir / "g15.csv").read_text()
    assert partition_to_csv(part) == golden


def test_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        read_partition_csv(io.StringIO("a,b\n2,1\n"))


def test_csv_rejects_gaps():
    with pytest.raises(ValueError):
        read_partition_csv(io.StringIO("integer,class\n2,1\n5,2\n"))
