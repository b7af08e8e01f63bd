"""The natural greedy clustering and the regularity verification sweep.

The greedy adjoins 2, 3, 4, ... in order, placing each n into the class where
it causes the fewest new conflicts; equivalently (and this is how everything
here scores moves) into the class maximizing friends-minus-enemies of n, with
ties broken toward the smallest class index and a fresh class counting as
index 0 with value 0.

Two run modes compute the same partitions.  ``run_reference`` scores every
class member by member, with no shortcut; quadratic and guarded, it is the
ground truth.  ``run_accelerated`` certifies each canonical choice (the
class of the smallest prime) a span at a time in numpy: a segmented sieve,
exact class sizes, class 1 from the totient and a sound wheel bound on every
other class.  It reads no smallest-prime-factor array.

``verify_range`` asks the same question per n against the canonical
clustering of [2, n-1], scoring every class exactly with ``class_scores``, so
its only running state is its window's class sizes, and a sweep can fan out
over windows and still merge deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isqrt, prod

import numpy as np

from .counts import _WHEELS, class_size, mobius_divisors, tally_diff_fast
from .counts import tally_even_class  # noqa: F401  (perfbench/probe.py wraps it)
from .errors import OutOfRangeError, ResourceGuardError
from .partition import Partition
from .primes import Factorization, PrimeTable, _sieve_spf, factorize, totient

DEFAULT_REFERENCE_GUARD = 100_000
SPAN = 200_000  # integers per span of ``run_accelerated`` and per CLI ``verify`` call

# the wheel prefix tables of ``counts`` as arrays: phi(y, r), r <= 4, in numpy
_WHEEL_PREFIX = [(mod, tot, np.array(pref, dtype=np.int64)) for mod, tot, pref in _WHEELS]


@dataclass
class GreedyState:
    """Snapshot of a greedy run over [2, partition.n]."""

    partition: Partition
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
    return GreedyState(Partition(n, labels), "reference", conflicts=conflicts)


def _sieve_span(a: int, b: int, primes: np.ndarray):
    """Factor [a, b] by striding each of ``primes`` (those up to isqrt(b))
    from its first multiple there that is at least p * p; what the strides
    leave of m is 1 or m's one prime above sqrt(m).  Returns phi over the
    span and, per odd integer, its distinct odd primes, smallest first,
    padded with the dtype's maximum, and their count (0 for a prime)."""
    phi = np.arange(a, b + 1, dtype=np.int64)
    rest = phi.copy()
    o0, n_odd = a | 1, (b - (a | 1)) // 2 + 1
    width = 1  # the most distinct odd primes below sqrt(b) that fit, and one more
    while width < len(primes) and prod(primes[1 : width + 1].tolist()) <= b:
        width += 1
    dtype = np.int32 if b < 2 ** 31 else np.int64
    qs = np.full((n_odd, width), np.iinfo(dtype).max, dtype=dtype)
    used = np.zeros(n_odd, dtype=np.int8)
    for p in primes.tolist():
        lo = max(p * p, -(-a // p) * p)
        phi[lo - a :: p] //= p
        phi[lo - a :: p] *= p - 1
        pk = p
        while pk <= b:
            rest[max(lo, -(-a // pk) * pk) - a :: pk] //= p
            pk *= p
        if p > 2:
            rows = np.arange((lo + p * (lo % 2 == 0) - o0) // 2, n_odd, p)
            qs[rows, used[rows]] = p
            used[rows] += 1
    rows = np.flatnonzero((rest[o0 - a :: 2] > 1) & (used > 0))  # not the primes
    qs[rows, used[rows]] = rest[o0 - a :: 2][rows]
    used[rows] += 1
    phi //= rest  # and times rest - 1 where rest is a prime
    rest -= 1
    phi *= np.maximum(rest, 1, out=rest)
    return phi, qs, used


class _Span:
    """The canonical clustering over [a, b]: writes each integer's class into
    ``labels``, and adds the span's members to ``sizes`` (class c >= 2 within
    [2, a - 1] on entry).  The odd composites are rows sorted by class i,
    descending, so the rows with i > j are a prefix for every j: ``m``,
    ``i``, exact ``s_i`` and ``d1`` (scores of classes i and 1), primes
    ``qs``.  ``gain[m - a]`` is the conflicts m adds in its canonical class.
    """

    def __init__(self, a: int, b: int, table: PrimeTable, sizes: np.ndarray,
                 labels: np.ndarray):
        phi, qs, used = _sieve_span(a, b, table.primes[: table.pi(isqrt(b))])
        # m - 1 - phi(m) friends below m, less those in its class: the
        # (m - 2) / 2 evens for even m, s_i for an odd composite (below)
        self.gain = np.subtract(np.arange(a - 1, b), phi, out=phi)
        self.gain[a % 2 :: 2] -= np.arange((a + a % 2) // 2 - 1, b // 2)
        o0 = a | 1
        odd = np.arange(o0, b + 1, 2, dtype=np.int64)
        comp = qs[:, 0] != np.iinfo(qs.dtype).max
        olab = np.searchsorted(table.primes, np.where(comp, qs[:, 0], odd)) + 1
        labels[a % 2 :: 2] = 1
        labels[o0 - a :: 2] = olab
        # class c's odd integers, in order: rows order[start[c]:start[c + 1]]
        np.minimum(olab, len(sizes), out=olab)
        self.order = np.argsort(olab, kind="stable")
        self.start = np.searchsorted(olab[self.order], np.arange(len(sizes) + 1))
        rows = np.flatnonzero(comp)
        self.rows = rows[np.argsort(-olab[rows], kind="stable")]
        self.i = olab[self.rows]
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(len(olab))
        self.s_i = sizes[self.i] + rank[self.rows] - self.start[self.i]
        self.m = odd[self.rows]
        gain_odd = self.gain[o0 - a :: 2]
        self.d1 = gain_odd[self.rows] - (self.m - 1) // 2  # (m - 1) // 2 - phi(m)
        gain_odd[self.rows] -= self.s_i
        self.qs = qs[self.rows]
        self.width = np.maximum.accumulate(used[self.rows])  # columns rows[:k + 1] use
        self.base = sizes.copy()
        sizes += np.diff(self.start)

    def bounds(self, table: PrimeTable):
        """Yield (j, bound) for 2 <= j < largest i: bound[k] >= the score of
        class j for each row k with i > j.  A friend of m in class j is p_j * k,
        k <= x = (m - 1) // p_j with no prime below p_j, and a prime q | m,
        q > p_j, divides k.  So friends <= W = sum of phi(x // q, j - 1) <=
        sum of phi(x // q, min(j - 1, 4)), a wheel lookup each, and the score
        2 * friends - s_j is at most 2 * min(W, s_j) - s_j.
        """
        neg_i = -self.i  # ascending
        for j in range(2, int(self.i[0]) if len(self.i) else 2):
            k = int(np.searchsorted(neg_i, -j))
            x = (self.m[:k] - 1) // table._primes_list[j - 1]
            mod, tot, pref = _WHEEL_PREFIX[min(j - 1, 4)]
            w = np.zeros(k, dtype=np.int64)
            for q in self.qs[:k, : self.width[k - 1]].T:
                y, r = np.divmod(x // q, mod)
                w += y * tot + pref[r + 1]
            members = self.order[self.start[j] : self.start[j + 1]]
            s_j = self.base[j] + np.searchsorted(members, self.rows[:k])
            yield j, 2 * np.minimum(w, s_j) - s_j


def run_accelerated(n: int, table: PrimeTable) -> GreedyState:
    """Greedy run that certifies every canonical choice by counting.

    Evens join class 1 and primes open their class; an odd composite joins
    the class i of its smallest prime if s_i beats class 1, a fresh class
    (0) and each class 2 <= j < i (no class beyond i can beat it).  Per
    ``SPAN`` (``_Span``), class 1 is scored exactly, each class j is ruled
    out by a sound bound, an integer left open is scored exactly by
    ``class_scores``, and the conflicts are summed in closed form.

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
    labels = np.empty(n - 1, dtype=np.int64)
    sizes = np.zeros(table.pi(isqrt(n)) + 1, dtype=np.int64)
    conflicts = 0
    anomalies: list[tuple[int, int, int]] = []
    for a in range(2, n + 1, SPAN):
        b = min(a + SPAN - 1, n)
        span = _Span(a, b, table, sizes, labels[a - 2 : b - 1])
        if anomalies:
            continue
        settled = span.d1 < span.s_i
        for _, bound in span.bounds(table):
            settled[: len(bound)] &= bound < span.s_i[: len(bound)]
        for m in np.sort(span.m[~settled]).tolist():
            vals = class_scores(m, factorize(m, table), table)
            chosen = vals.index(max(vals))  # ties to the smallest class
            if chosen != len(vals) - 1:  # s_i >= 1, so never a fresh class
                anomalies.append((m, len(vals) - 1, chosen))
                labels[m - 2] = chosen
                # friends of m below it, less those in class chosen
                conflicts += (int(span.gain[: m - a].sum())
                              + (m - 1) // 2 + vals[1] - vals[chosen])
                break
        else:
            conflicts += int(span.gain.sum())
    unverified = list(range(anomalies[0][0] + 1, n + 1)) if anomalies else []
    return GreedyState(Partition(n, labels), "accelerated", anomalies, unverified,
                       conflicts)


def class_scores(n: int, f: Factorization, table: PrimeTable,
                 sizes: list[int] | None = None) -> list[int]:
    """Exact scores of odd n >= 3 against the canonical clustering of [2, n-1].

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
    """
    qs = f.distinct_primes
    i = table.prime_index(qs[0])
    if sizes is None:
        sizes = [0, 0]
    for c in range(len(sizes), i + 1):
        sizes.append(class_size(c, n - 1, table))
    vals = [0, (n - 1) // 2 - totient(f)]  # class 1: (n-1)/2 evens, phi(n)/2 enemies
    if i > 2:
        divisors = mobius_divisors(qs)  # shared by the classes
        vals += [tally_diff_fast(j, n, divisors, sizes[j], table) for j in range(2, i)]
    vals.append(sizes[i])
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
                        chosen_j=vals.index(max(vals)), expected_j=i)


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
