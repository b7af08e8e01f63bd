"""The natural greedy clustering and the regularity verification sweep.

The greedy adjoins 2, 3, 4, ... in order, placing each n into the class where
it causes the fewest new conflicts; equivalently (and this is how everything
here scores moves) into the class maximizing friends-minus-enemies of n, with
ties broken toward the smallest class index and a fresh class counting as
index 0 with value 0.

Two run modes compute the same partitions:

* ``run_reference``   -- scores every class member by member with no
                         structural shortcuts; quadratic, guarded, trusted as
                         the ground-truth executable.
* ``run_accelerated`` -- exploits the regular structure: evens go to class 1,
                         primes open classes, and for odd composite n only the
                         classes up to n's smallest-prime-factor index can win,
                         scored by exact counting formulas.

``verify_range`` asks the same question per n ("does n join the class of
its smallest prime factor?") against the canonical clustering of [2, n-1],
so its only running state is its window's class sizes, and a sweep can fan
out over windows and still merge deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isqrt

import numpy as np

from .counts import (ClassTally, class_size, mobius_divisors, tally_diff_fast,
                     tally_even_class)
from .errors import OutOfRangeError, ResourceGuardError
from .partition import Partition
from .primes import Factorization, PrimeTable, _sieve_spf, factorize, totient

DEFAULT_REFERENCE_GUARD = 100_000


@dataclass
class GreedyState:
    """Snapshot of a greedy run after adjoining every integer up to m."""

    partition: Partition
    m: int
    mode: str  # "reference" | "accelerated"
    anomalies: list[tuple[int, int, int]] = field(default_factory=list)  # (n, expected, chosen)
    unverified: list[int] = field(default_factory=list)
    conflicts: int = 0


@dataclass
class VerifyRecord:
    """Outcome of the class-selection check for one odd composite n."""

    n: int
    spf_index: int
    deltas: dict[int, int]  # j -> friends-minus-enemies (j = spf_index: class size)
    chosen_j: int
    expected_j: int

    @property
    def status(self) -> str:
        return "pass" if self.chosen_j == self.expected_j else "fail"

    def to_json(self) -> str:
        """The record as one JSON object, byte for byte what ``json.dumps``
        gives for these keys (deltas in increasing j)."""
        deltas = ", ".join([f'"{j}": {d}' for j, d in sorted(self.deltas.items())])
        return (f'{{"n": {self.n}, "spf_index": {self.spf_index}, '
                f'"deltas": {{{deltas}}}, "chosen_j": {self.chosen_j}, '
                f'"expected_j": {self.expected_j}, "status": "{self.status}"}}')


@dataclass
class VerifyReport:
    start: int
    stop: int
    checked: int = 0
    auto_passed: int = 0
    anomalies: list[tuple[int, int, int]] = field(default_factory=list)
    unverified: list[int] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return not self.anomalies and not self.unverified

    def summary_json(self) -> str:
        return json.dumps({
            "summary": {
                "from": self.start,
                "to": self.stop,
                "checked": self.checked,
                "auto_passed": self.auto_passed,
                "anomalies": [list(a) for a in self.anomalies],
                "unverified": self.unverified,
                "all_pass": self.all_pass,
            }
        })


def _argmax_min_index(values: list[int]) -> int:
    """Index of the maximum, smallest index on ties (values[0] is class 0)."""
    best_j = 0
    best = values[0]
    for j in range(1, len(values)):
        if values[j] > best:
            best = values[j]
            best_j = j
    return best_j


def _fill_friend_mask(mask: np.ndarray, m: int, primes_of_m) -> None:
    """mask[a - 2] = True for every friend a < m, i.e. every multiple of a
    prime divisor of m (the definition of friendship, stride by stride)."""
    k = m - 2
    mask[:k] = False
    for q in primes_of_m:
        mask[q - 2 : k : q] = True


def _scan_step(lab: np.ndarray, friend: np.ndarray,
               max_id: int) -> tuple[int, int, int]:
    """Score one greedy step member by member against any labeling.

    ``friend[a-2]`` says whether a is a friend of the incoming integer; every
    class is scored as friends-minus-enemies and the new-conflict count for
    the winner is total friends minus its score (separated friends plus kept
    enemies).  Returns (chosen class or 0 for fresh, new conflicts, friends).
    """
    w = np.where(friend, 1.0, -1.0)
    diffs = np.bincount(lab, weights=w, minlength=max_id + 1)
    diffs[0] = 0.0  # slot 0 is the fresh-class candidate
    chosen = int(np.argmax(diffs))  # first max: the smallest-index tie-break
    b_total = int(np.count_nonzero(friend))
    added = b_total - int(diffs[chosen])
    return chosen, added, b_total


def _distinct_primes_chase(m: int, spf: np.ndarray) -> list[int]:
    out = []
    while m > 1:
        q = int(spf[m])
        out.append(q)
        while m % q == 0:
            m //= q
    return out


def run_reference(n: int, guard: int = DEFAULT_REFERENCE_GUARD) -> GreedyState:
    """Greedy run scored member by member over all previous integers.

    Every existing class is scored at every step with no structural
    shortcuts, so this run is the executable ground truth the accelerated
    mode is checked against.  Quadratic work, refused above ``guard``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > guard:
        raise ResourceGuardError(
            f"reference greedy at n={n} refused (guard {guard})")
    spf = _sieve_spf(n)
    labels = np.zeros(n - 1, dtype=np.int64)
    labels[0] = 1
    mask = np.zeros(n - 1, dtype=bool)
    next_id = 1
    conflicts = 0
    for m in range(3, n + 1):
        _fill_friend_mask(mask, m, _distinct_primes_chase(m, spf))
        chosen, added, _ = _scan_step(labels[: m - 2], mask[: m - 2], next_id)
        if chosen == 0:
            next_id += 1
            chosen = next_id
        labels[m - 2] = chosen
        conflicts += added
    state = GreedyState(partition=Partition(n, labels), m=n, mode="reference")
    state.conflicts = conflicts
    return state


def run_accelerated(n: int, table: PrimeTable) -> GreedyState:
    """Greedy run using the structural shortcuts; every choice is exact.

    While the partition stays canonical: even n joins class 1, prime n opens
    the class of its prime index, and an odd composite n with smallest prime
    factor index i is scored only against classes 0..i (no larger class can
    beat class i: friends-minus-enemies there is at most the class size,
    which is at most |S_i|, and ties resolve to the smaller index).  The run
    keeps the class sizes as it labels, so ``class_scores`` settles most
    classes j < i by a friend-count bound and counts exactly only where the
    bound cannot rule j out.

    A step whose winner differs from class i is recorded as an anomaly and
    labeled with the actual winner.  The scores of every later step assume
    the canonical clustering, which no longer holds, so every integer after
    the first anomaly is labeled by the canonical rule, recorded as
    unverified, and left out of ``conflicts``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    labels = np.zeros(n - 1, dtype=np.int64)
    labels[0] = 1
    sizes = [0, 1]  # sizes[c] = members of class c; exact while canonical
    conflicts = 0
    anomalies: list[tuple[int, int, int]] = []
    unverified: list[int] = []
    canonical = True
    for m in range(3, n + 1):
        f = factorize(m, table)
        qs = f.distinct_primes
        if not canonical:
            unverified.append(m)
            labels[m - 2] = table.prime_index(qs[0])
            continue
        # b_total: friends of m below it, m - 1 - phi(m)
        if m % 2 == 0:
            chosen = 1
            b_total = m - 1 - totient(f)
            b_chosen = (m - 2) // 2  # every smaller even is a friend
            e_chosen = 0
        elif qs[0] == m:
            chosen = 0
            b_total = b_chosen = e_chosen = 0
        else:
            vals = class_scores(m, f, table, sizes, bound=True)
            b_total = (m - 1) // 2 + vals[1]  # vals[1] = (m-1)//2 - phi(m)
            i = len(vals) - 1
            chosen = _argmax_min_index(vals)
            if chosen == i:
                b_chosen, e_chosen = vals[i], 0
            else:
                # class i scores s_i >= 1 > 0, so a fresh class never wins here
                if chosen == 1:
                    t = tally_even_class(m, f)
                else:
                    # recover the tally pair from the diff and the class size
                    s_j = sizes[chosen]
                    t = ClassTally(chosen, m, (s_j + vals[chosen]) // 2,
                                   (s_j - vals[chosen]) // 2)
                b_chosen, e_chosen = t.friends, t.enemies
                anomalies.append((m, i, chosen))
                canonical = False
        if chosen == 0:  # only a prime opens a class
            labels[m - 2] = table.prime_index(m)
            conflicts += b_total
            sizes.append(1)
        else:
            labels[m - 2] = chosen
            conflicts += e_chosen + (b_total - b_chosen)
            sizes[chosen] += 1
    state = GreedyState(partition=Partition(n, labels), m=n, mode="accelerated",
                        anomalies=anomalies, unverified=unverified)
    state.conflicts = conflicts
    return state


def class_scores(n: int, f: Factorization, table: PrimeTable,
                 sizes: list[int] | None = None, bound: bool = False) -> list[int]:
    """Scores of odd n >= 3 against the canonical clustering of [2, n-1].

    With i the index of n's smallest prime, entry 0 is the fresh class (0),
    entry j < i is friends-minus-enemies of n in class j, and entry i is the
    size of class i, all of whose members are friends of n.  No class beyond
    i can beat entry i, so the greedy step picks the argmax of this list,
    ties to the smallest index.

    ``sizes[c]``, c >= 2, is the size of class c in that clustering.  A
    caller walking a contiguous run keeps one list, passes it for every n
    and adds each integer to its class afterwards; a class the list does not
    reach yet is opened here with one ``class_size(c, n - 1)``.  Without
    ``sizes``, classes 2..i are opened for n alone.

    With ``bound``, an entry 2 <= j < i may be an upper bound instead of the
    exact score: each friend in class j is p_j * k with k <= x = (n-1) // p_j
    and k a multiple of some prime q | n, so friends <= min(sum x // q, s_j)
    and the score, 2 * friends - s_j, is at most the bound.  A bound is kept
    only when it is below s_i, so it can never be the argmax; entries 0, 1,
    i, the argmax and its value are exact either way.
    """
    qs = f.distinct_primes
    i = table.prime_index(qs[0])
    if sizes is None:
        sizes = [0, 0]
    for c in range(len(sizes), i + 1):
        sizes.append(class_size(c, n - 1, table))
    s_i = sizes[i]
    vals = [0, (n - 1) // 2 - totient(f)]  # class 1: (n-1)/2 evens, phi(n)/2 enemies
    primes = table._primes_list
    divisors = None  # built on the first exact count, then shared by the classes
    for j in range(2, i):
        s_j = sizes[j]
        if bound:
            x = (n - 1) // primes[j - 1]
            b = 2 * min(sum(x // q for q in qs), s_j) - s_j
            if b < s_i:
                vals.append(b)
                continue
        if divisors is None:
            divisors = mobius_divisors(qs)
        vals.append(tally_diff_fast(j, n, divisors, s_j, table))
    vals.append(s_i)
    return vals


def verify_single(n: int, table: PrimeTable,
                  sizes: list[int] | None = None) -> VerifyRecord | None:
    """Class-selection check for one integer against the canonical state.

    Returns None for even or prime n (those choices follow from parity and
    primality alone).  For an odd composite with smallest-prime-factor index
    i, scores every class up to i exactly with ``class_scores`` (``sizes``
    as there) and reports which class a greedy step would pick.
    """
    if n % 2 == 0:
        return None
    f = factorize(n, table)
    if f.distinct_primes[0] == n:
        return None
    vals = class_scores(n, f, table, sizes)
    i = len(vals) - 1
    deltas = {j: vals[j] for j in range(1, i + 1)}
    return VerifyRecord(n=n, spf_index=i, deltas=deltas,
                        chosen_j=_argmax_min_index(vals), expected_j=i)


def verify_table_limit(stop: int) -> int:
    """Smallest table limit that scores every odd composite n <= stop: it
    covers sqrt(stop) (factorization) and stop // 13 (the largest pi lookup
    of the counting; classes at wheel indices need none)."""
    return max(2, isqrt(stop), stop // 13)


def verify_range(start: int, stop: int, table: PrimeTable,
                 out=None) -> VerifyReport:
    """Check every n in [start, stop] for canonical class selection.

    Even and prime n auto-pass; each odd composite gets an exact check, and
    ``out``, when given, is called with its record as one JSONL line, in
    increasing n.  The window keeps the canonical class sizes as it goes: a
    class is opened when an integer first needs it, and each odd composite
    then joins the class of its smallest prime, pass or fail, since every
    check is against the canonical state.  Disjoint ranges can run anywhere,
    each with its own sizes, and their reports merge deterministically.

    Each call starts by clearing the table's phi memo, so a sweep that runs
    its range as a sequence of calls holds at most one call's memo.
    """
    if start < 2 or stop < start:
        raise ValueError(f"bad range [{start}, {stop}]")
    if table.limit < verify_table_limit(stop):
        raise ValueError(f"table limit {table.limit} too small to verify up to "
                         f"{stop}; need at least {verify_table_limit(stop)}")
    table._phi_cache.clear()
    report = VerifyReport(start=start, stop=stop)
    report.auto_passed += stop // 2 - (start - 1) // 2  # the evens
    first_odd = start if start % 2 == 1 else start + 1
    sizes = [0, 0]  # sizes[c], c >= 2: canonical class c within [2, n-1]
    for n in range(first_odd, stop + 1, 2):
        rec = verify_single(n, table, sizes)
        if rec is None:
            report.auto_passed += 1
            continue
        sizes[rec.spf_index] += 1
        report.checked += 1
        if rec.status == "fail":
            report.anomalies.append((rec.n, rec.expected_j, rec.chosen_j))
        if out is not None:
            out(rec.to_json() + "\n")
    return report
