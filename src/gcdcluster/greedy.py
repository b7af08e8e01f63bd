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
exact class sizes, class 1 from the totient, and a wheel friend bound that
falls with the class, so one bound below s_i rules out every class left.

``verify_range`` asks the same question per n against the canonical
clustering of [2, n-1], scoring every class exactly a block of odd integers
at a time, so its only running state is its window's class sizes, and a
sweep can fan out over windows and still merge deterministically.  Every
exact score (``verify_range``'s, ``run_accelerated``'s, ``class_scores``')
comes from ``_score_rows``, one numpy Moebius pass over many odd composites.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import isqrt, prod

import numpy as np

from .counts import class_size, tally_diffs, wheel_phi
from .counts import tally_diff_fast, tally_even_class  # noqa: F401  (wrapped by perfbench)
from .errors import OutOfRangeError, ResourceGuardError
from .partition import Partition
from .primes import Factorization, PrimeTable, factorize, totient

DEFAULT_REFERENCE_GUARD = 100_000
SPAN = 200_000  # integers per span of ``run_accelerated`` and per CLI ``verify`` call
VERIFY_BLOCK = 256  # odd integers per block of ``verify_range``
VERIFY_PAIRS = 1024  # (n, j) pairs per ``counts.tally_diffs`` call
VERIFY_STOP_LIMIT = 2 ** 60  # odd n below it: Moebius sums < 1.1 * n, int64s < 2**62


@dataclass
class GreedyState:
    """Snapshot of a greedy run over [2, partition.n]."""

    partition: Partition
    mode: str  # "reference" | "accelerated"
    anomalies: list[tuple[int, int, int]] = field(default_factory=list)  # (n, expected, chosen)
    unverified: range = range(0)  # the integers after the first anomaly
    conflicts: int = 0
    bound_checks: int = 0  # accelerated: (integer, class) pairs bounded
    exact_checks: int = 0  # accelerated: integers scored exactly, by ``_score_rows``


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
        return _record_json(self.n, self.spf_index, sorted(self.deltas.items()),
                            self.chosen_j, self.expected_j)


def _record_json(n: int, spf_index: int, deltas, chosen_j: int, expected_j: int) -> str:
    """A record as ``json.dumps`` writes it; ``deltas`` yields (j, delta), j rising."""
    text = ", ".join([f'"{j}": {d}' for j, d in deltas])
    return (f'{{"n": {n}, "spf_index": {spf_index}, "deltas": {{{text}}}, '
            f'"chosen_j": {chosen_j}, "expected_j": {expected_j}, '
            f'"status": "{"pass" if chosen_j == expected_j else "fail"}"}}')


@dataclass
class VerifyReport:
    start: int
    stop: int
    checked: int = 0
    auto_passed: int = 0
    anomalies: list[tuple[int, int, int]] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return not self.anomalies

    def summary_json(self) -> str:
        return json.dumps({
            "summary": {
                "from": self.start,
                "to": self.stop,
                "checked": self.checked,
                "auto_passed": self.auto_passed,
                "anomalies": [list(a) for a in self.anomalies],
                "unverified": [],  # every odd composite is checked
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
    table = PrimeTable(n)
    labels = np.zeros(n - 1, dtype=np.int64)
    labels[0] = 1
    mask = np.zeros(n - 1, dtype=bool)
    next_id = 1
    conflicts = 0
    for m in range(3, n + 1):
        _fill_friend_mask(mask, m, factorize(m, table).distinct_primes)
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


class _Ranks:
    """Class sizes along a run of odd integers: ``lab[k]`` is the k-th's class
    (primes included), ``sizes[c]`` class c's size before the run (classes from
    len(sizes) on are not counted), ``counts[c]`` its members in the run."""

    def __init__(self, lab: np.ndarray, sizes: np.ndarray):
        self.length, top = len(lab), len(sizes)
        lab = np.minimum(lab, top)
        order = np.argsort(lab, kind="stable")
        self.keys = lab[order] * self.length + order  # (class, position), increasing
        self.start = np.searchsorted(self.keys, np.arange(top + 1) * self.length)
        self.counts = np.diff(self.start)
        self.base = sizes - self.start[:-1]

    def size(self, c, k):
        """Class c's size below the k-th odd integer; c is one class or one per k."""
        if np.ndim(c):
            return self.base[c] + np.searchsorted(self.keys, c * self.length + k)
        lo, hi = self.start[c], self.start[c + 1]
        return np.searchsorted(self.keys[lo:hi], c * self.length + k) + (self.base[c] + lo)


class _Span:
    """The canonical clustering over [a, b]: writes each integer's class into
    ``labels`` and adds the span's members to ``sizes`` (class c >= 2 within
    [2, a - 1] on entry).  Rows are the odd composites m, rising: class ``i``,
    exact ``s_i`` and ``d1`` (scores of classes i and 1), primes ``qs`` and
    their count ``used``.  ``gain[m - a]``: the conflicts m adds in its class.
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
        self.ranks = _Ranks(olab, sizes)
        rank = np.empty_like(olab)  # each odd integer's place in the ranks' keys
        rank[self.ranks.keys % len(olab)] = np.arange(len(olab))
        self.rows = np.flatnonzero(comp)
        self.i = olab[self.rows]
        self.s_i = self.ranks.base[self.i] + rank[self.rows]
        self.m = odd[self.rows]
        gain_odd = self.gain[o0 - a :: 2]
        self.d1 = gain_odd[self.rows] - (self.m - 1) // 2  # (m - 1) // 2 - phi(m)
        gain_odd[self.rows] -= self.s_i
        self.qs, self.used = qs[self.rows], used[self.rows]
        sizes += self.ranks.counts

    def bounds(self, table: PrimeTable):
        """Yield (j, k, W_j) for j = 2, 3, ...: the rows k still open and their
        friend bound; then ``exact`` marks the rows to score exactly.  Friends
        of m in class j are p_j * k, k <= x = (m - 1) // p_j free of the first
        j - 1 primes and divisible by a prime q | m, so at most W_j = sum of
        phi(x // q, min(j - 1, 4)), and score_j <= 2 * min(W_j, s_j) - s_j <=
        W_j.  A row goes exact where the middle term reaches s_i, and closes
        where W_j < s_i: as j rises, x falls and r = min(j - 1, 4) never falls,
        and phi(y, r) rises with y and falls with r, so W_j never rises.
        """
        self.exact = self.d1 >= self.s_i
        k, j = np.flatnonzero((self.i > 2) & ~self.exact), 2
        while len(k):
            x = (self.m[k] - 1) // table._primes_view[j - 1]
            w = sum(wheel_phi(x // q, min(j - 1, 4)) for q in self.qs[k, : self.used[k].max()].T)
            yield j, k, w
            s_i, s_j = self.s_i[k], self.ranks.size(j, self.rows[k])
            fail = 2 * np.minimum(w, s_j) - s_j >= s_i
            self.exact[k[fail]] = True
            k, j = k[~fail & (w >= s_i) & (self.i[k] > j + 1)], j + 1


def run_accelerated(n: int, table: PrimeTable) -> GreedyState:
    """Greedy run that certifies every canonical choice by counting.

    Evens join class 1 and primes open their class; an odd composite joins
    the class i of its smallest prime if s_i beats class 1, a fresh class
    (0) and each class 2 <= j < i (no class beyond i can beat it).  Per
    ``SPAN``, ``_Span`` scores class 1 exactly and bounds each class j >= 2
    until the friend bound W_j, falling with j, is below s_i; ``_score_rows``
    scores what stays open exactly.  Conflicts are summed in closed form.

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
    state = GreedyState(Partition(n, labels), "accelerated")
    for a in range(2, n + 1, SPAN):
        span = _Span(a, min(a + SPAN - 1, n), table, sizes, labels[a - 2 : a + SPAN - 2])
        if state.anomalies:
            continue
        state.bound_checks += sum(len(k) for _, k, _ in span.bounds(table))
        rows = np.flatnonzero(span.exact)
        state.exact_checks += len(rows)
        scores = _score_rows(span.m[rows], span.qs[rows], span.i[rows], span.d1[rows],
                             lambda o, j: span.ranks.size(j, span.rows[rows[o]]), table)
        for m, vals in zip(span.m[rows].tolist(), scores):
            chosen = vals.index(max(vals))  # ties to the smallest class
            if chosen != len(vals) - 1:  # s_i >= 1, so never a fresh class
                state.anomalies.append((m, len(vals) - 1, chosen))
                labels[m - 2] = chosen
                # friends of m below it, less those in class chosen
                state.conflicts += (int(span.gain[: m - a].sum())
                                    + (m - 1) // 2 + vals[1] - vals[chosen])
                state.unverified = range(m + 1, n + 1)
                break
        else:
            state.conflicts += int(span.gain.sum())
    return state


def class_scores(n: int, f: Factorization, table: PrimeTable) -> list[int]:
    """Exact scores of odd n >= 3 against the canonical clustering of [2, n-1].

    With i the index of n's smallest prime, entry 0 is the fresh class (0),
    entry j < i is friends-minus-enemies of n in class j, and entry i is the
    size of class i, all of whose members are friends of n.  No class beyond
    i can beat entry i, so the greedy step picks the argmax of this list,
    ties to the smallest index.  ``_score_rows`` scores n alone (below
    ``VERIFY_STOP_LIMIT``), each class c opened by ``class_size(c, n - 1)``.
    """
    if n >= VERIFY_STOP_LIMIT:
        raise OutOfRangeError(f"{n} is not below {VERIFY_STOP_LIMIT}, the int64 kernel's limit")
    qs = f.distinct_primes
    i = table.prime_index(qs[0])
    (vals,) = _score_rows(np.array([n]), np.array([qs]), np.array([i]),
                          np.array([(n - 1) // 2 - totient(f)]),  # (n-1)/2 evens, phi(n)/2 enemies
                          lambda o, j: np.array([class_size(c, n - 1, table) for c in j.tolist()]),
                          table)
    return vals


def _score_rows(n: np.ndarray, qs: np.ndarray, i: np.ndarray, d1: np.ndarray, s_j,
                table: PrimeTable) -> list[list[int]]:
    """``class_scores`` of each odd composite n[k], given its primes ``qs[k]``
    (padded with values above n[k]), class i[k] and score d1[k] in class 1;
    ``s_j(o, j)`` reads class j[t]'s size below n[o[t]].  Every delta_j comes
    from ``tally_diffs``, ``VERIFY_PAIRS`` pairs (k, j) at a time."""
    scores = [[0, d] for d in d1.tolist()]
    ends = np.cumsum(np.r_[0, i - 2])  # row k's pairs are ends[k] .. ends[k + 1] - 1
    for lo in range(0, ends[-1], VERIFY_PAIRS):
        pair = np.arange(lo, min(lo + VERIFY_PAIRS, ends[-1]))
        o = np.searchsorted(ends, pair, side="right") - 1
        j = pair - ends[o] + 2
        deltas = tally_diffs(n[o], j, qs[o], s_j(o, j), table).tolist()
        cuts = np.maximum(ends[o[0] : o[-1] + 2] - lo, 0).tolist()  # row o[0] + t: cuts[t:t + 2]
        for k, a, b in zip(range(o[0], o[-1] + 1), cuts, cuts[1:]):
            scores[k] += deltas[a:b]
    for row, s_i in zip(scores, s_j(np.arange(len(n)), i).tolist()):
        row.append(s_i)
    return scores


def verify_single(n: int, table: PrimeTable) -> VerifyRecord | None:
    """Class-selection check for one integer against the canonical state.

    Returns None for even or prime n (those choices follow from parity and
    primality alone).  For an odd composite with smallest-prime-factor index
    i, scores every class up to i exactly with ``class_scores`` and reports
    which class a greedy step would pick.
    """
    if n % 2 == 0:
        return None
    f = factorize(n, table)
    if f.distinct_primes[0] == n:
        return None
    vals = class_scores(n, f, table)
    i = len(vals) - 1
    return VerifyRecord(n=n, spf_index=i, deltas=dict(enumerate(vals[1:], 1)),
                        chosen_j=vals.index(max(vals)), expected_j=i)


def verify_table_limit(stop: int) -> int:
    """Smallest table limit that scores every odd composite n <= stop: it
    covers sqrt(stop) (factorization) and stop // 13 (the largest pi lookup
    of the counting; classes at wheel indices need none).  The int64 kernel
    refuses stop >= ``VERIFY_STOP_LIMIT``."""
    if stop >= VERIFY_STOP_LIMIT:
        raise OutOfRangeError(f"{stop} is not below {VERIFY_STOP_LIMIT}, the int64 kernel's limit")
    return max(2, isqrt(stop), stop // 13)


def verify_range(start: int, stop: int, table: PrimeTable,
                 out=None) -> VerifyReport:
    """Check every n in [start, stop] for canonical class selection.

    Even and prime n auto-pass; each odd composite gets an exact check, and
    ``out``, when given, is called per block of ``VERIFY_BLOCK`` odd integers
    with the block's records (``verify_single``'s) as JSONL lines, if it has
    any.  A class is opened with ``class_size`` where a block first needs it,
    and each block's odd integers then join their classes, pass or fail,
    since every check is against the canonical state.  Disjoint ranges can
    run anywhere, each with its own sizes, and their reports merge
    deterministically; each block's odd composites go to ``_score_rows``.

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
    sizes = np.zeros(2, dtype=np.int64)  # sizes[c], c >= 2: class c below the block
    for a in range(start | 1, stop + 1, 2 * VERIFY_BLOCK):
        sizes = _verify_block(a, min(a + 2 * VERIFY_BLOCK - 2, stop), table, sizes,
                              report, out)
    return report


def _verify_block(a: int, b: int, table: PrimeTable, sizes: np.ndarray,
                  report: VerifyReport, out) -> np.ndarray:
    """``verify_range`` on the odd integers of [a, b], a odd; returns
    ``sizes`` grown to the classes the block opened, plus its members."""
    fs = [factorize(n, table) for n in range(a, b + 1, 2)]
    odd = np.arange(a, b + 1, 2, dtype=np.int64)
    spf = np.array([f.distinct_primes[0] for f in fs], dtype=np.int64)
    rows = np.flatnonzero(spf != odd)  # the odd composites
    report.auto_passed += len(odd) - len(rows)
    report.checked += len(rows)
    lab = np.searchsorted(table.primes, spf) + 1
    i = lab[rows]
    top = int(i.max(initial=1)) + 1  # the classes the block scores
    if top > len(sizes):
        sizes = np.append(sizes, [class_size(c, a - 1, table) for c in range(len(sizes), top)])
    ranks = _Ranks(lab, sizes)
    sizes += ranks.counts
    if not len(rows):
        return sizes
    comp = [fs[k] for k in rows.tolist()]
    width = max(len(f.distinct_primes) for f in comp)
    qs = np.array([f.distinct_primes + (2 ** 63 - 1,) * (width - len(f.distinct_primes))
                   for f in comp])
    scores = _score_rows(odd[rows], qs, i, np.array([(f.n - 1) // 2 - totient(f) for f in comp]),
                         lambda o, j: ranks.size(j, rows[o]), table)
    lines = []
    for n, i_k, vals in zip(odd[rows].tolist(), i.tolist(), scores):
        chosen = vals.index(max(vals))  # ties to the smallest class
        if chosen != i_k:
            report.anomalies.append((n, i_k, chosen))
        if out is not None:
            lines.append(_record_json(n, i_k, enumerate(vals[1:], 1), chosen, i_k) + "\n")
    if out is not None:
        out("".join(lines))
    return sizes
