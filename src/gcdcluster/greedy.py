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
falls with the class, so one bound below s_i rules out every class left; past
a row's cut (p_j ** 2 >= n / p_i) the classes left score in closed form.

``verify_range`` asks the same question per n against the canonical
clustering of [2, n-1], scoring every class exactly a block of odd integers
at a time, so its only running state is its window's class sizes, and a
sweep can fan out over windows and still merge deterministically.  Both
sweeps build the same rows (``_Rows``: odd integers, their classes and class
sizes); every exact score comes from ``_score_rows`` into one flat array: one
numpy Moebius pass for each class j with p_j ** 2 < n / p_i, a closed form
for the rest.  Past ``factorize`` a block stays in numpy up to its records,
which ``_Records`` writes by one ``%``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate, chain
from math import isqrt, prod

import numpy as np

from .counts import class_size, legendre_phi, tally_diffs, wheel_phi
from .counts import tally_diff_fast, tally_even_class  # noqa: F401  (wrapped by perfbench)
from .errors import OutOfRangeError, ResourceGuardError
from .partition import Partition
from .primes import Factorization, PrimeTable, factorize, totient

DEFAULT_REFERENCE_GUARD = 100_000
SPAN = 200_000  # integers per span of the ``_Span`` walk and per CLI ``verify`` call
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
        return json.dumps({"n": self.n, "spf_index": self.spf_index,
                           "deltas": dict(sorted(self.deltas.items())), "chosen_j": self.chosen_j,
                           "expected_j": self.expected_j, "status": self.status})


class _Records:
    """``verify``'s JSONL records for ``out`` as ``json.dumps`` writes them, a block
    by one ``%``: per row, the head, its i deltas' slice of ``keys`` (', "1": %d,
    "2": %d, ...' to twice the largest class yet; key c ends at ``ends[c]``) and a
    pass or fail tail, over one flat int64 array, n, i, delta_1 .. delta_i, chosen, i."""

    def __init__(self, out):
        self.out, self.keys, self.ends = out, "", [0]

    def write(self, m, i, chosen, vals, starts) -> None:
        """The records of odd composites m[k] of class i[k], with winner
        chosen[k] and ``_score_rows`` scores vals[starts[k] : starts[k + 1]]."""
        if i.max() >= len(self.ends):
            keys = [f', "{j}": %d' for j in range(1, 2 * int(i.max()) + 1)]
            self.keys, self.ends = "".join(keys), [0, *accumulate(map(len, keys))]
        at = starts[:-1] + 3 * np.arange(len(m))  # row k's values start at at[k]
        flat = np.empty(len(vals) + 3 * len(m), dtype=np.int64)
        flat[np.arange(len(vals)) + np.repeat(at - starts[:-1] + 1, i + 1)] = vals
        flat[at], flat[at + 1], flat[at + i + 2], flat[at + i + 3] = m, i, chosen, i
        keys, ends, head = self.keys, self.ends, '{"n": %d, "spf_index": %d, "deltas": {'
        tail = '}, "chosen_j": %%d, "expected_j": %%d, "status": "%s"}\n'
        tails = tail % "fail", tail % "pass"
        self.out("".join([head + keys[2 : ends[c]] + tails[c == w]
                          for c, w in zip(i.tolist(), chosen.tolist())]) % tuple(flat.tolist()))


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


def run_reference(n: int) -> GreedyState:
    """Greedy run scored member by member over all previous integers.

    Every existing class is scored at every step with no structural
    shortcuts, so this run is the executable ground truth the accelerated
    mode is checked against.  Quadratic work, refused above ``DEFAULT_REFERENCE_GUARD``.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > DEFAULT_REFERENCE_GUARD:
        raise ResourceGuardError(
            f"reference greedy at n={n} refused (guard {DEFAULT_REFERENCE_GUARD})")
    table = PrimeTable(n)
    labels = np.zeros(n - 1, dtype=np.int64)
    labels[0] = 1
    mask = np.zeros(n - 1, dtype=bool)
    next_id = 1
    conflicts = 0
    for m in range(3, n + 1):
        mask[: m - 2] = False  # friends of m below it: the multiples of its primes
        for q in factorize(m, table).distinct_primes:
            mask[q - 2 : m - 2 : q] = True
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
    padded with the dtype's maximum, and their count (0 for a prime).  Every
    value stays at most b, so the dtype is int32 below 2 ** 31."""
    dtype = np.int32 if b < 2 ** 31 else np.int64
    phi = np.arange(a, b + 1, dtype=dtype)
    rest = phi.copy()
    o0, n_odd = a | 1, (b - (a | 1)) // 2 + 1
    width = 1  # the most distinct odd primes below sqrt(b) that fit, and one more
    while width < len(primes) and prod(primes[1 : width + 1].tolist()) <= b:
        width += 1
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


class _Rows:
    """Odd integers ``odd`` in their canonical classes ``lab`` (those of their
    smallest primes ``spf``), advancing ``sizes[c]`` (class c's size, c <
    len(sizes)) past them.  Rows are the odd composites, rising: place ``k``,
    ``m``, class ``i``, class size ``s_i`` below m, class 1 score ``d1``,
    primes ``qs`` (padded above m) and their count ``used``.  ``size`` reads
    only the sorted ``keys``, so a caller done with ``lab`` may drop it."""

    def __init__(self, odd, spf, qs, used, d1, sizes, table: PrimeTable):
        self.lab = np.searchsorted(table.primes, spf) + 1
        self.length, top = len(odd), len(sizes)
        # (class, place) of every odd integer as class * length + place,
        # increasing, primes included: below (top + 1) * length, so int32 there
        dtype = np.int32 if (top + 1) * self.length < 2 ** 31 else np.int64
        self.keys = np.minimum(self.lab, top).astype(dtype) * self.length
        self.keys += np.arange(self.length, dtype=dtype)
        self.keys.sort()
        start = np.searchsorted(self.keys, np.arange(top + 1, dtype=dtype) * self.length)
        self.base = sizes - start[:-1]  # plus the place in ``keys``: the size below
        place = np.empty_like(self.keys)
        place[self.keys % self.length] = np.arange(self.length, dtype=dtype)
        self.k = np.flatnonzero(spf != odd)
        self.m, self.i = odd[self.k], self.lab[self.k]
        self.s_i = self.base[self.i] + place[self.k]
        self.d1, self.qs, self.used = d1, qs, used
        sizes += np.diff(start)

    def size(self, c, k):
        """Class c's size below the k-th odd integer; c is one class or one per k."""
        # in the keys' dtype: an int64 key would make numpy copy int32 keys
        key = np.asarray(c * self.length + k, dtype=self.keys.dtype)
        return self.base[c] + np.searchsorted(self.keys, key)

    def scores(self, sel, table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
        """``_score_rows`` of the rows ``sel``: their flat scores and row starts."""
        return _score_rows(self.m[sel], self.qs[sel], self.i[sel], self.d1[sel],
                           lambda o, j: self.size(j, self.k[sel][o]), table)


class _Span:
    """The canonical clustering over [a, b]: each integer's class goes into
    ``labels``, a prime's counted on from ``pi`` (pi(a - 1); pi(b) after), so no
    prime above isqrt(b) is read; the odd integers go into ``rows`` (``sizes`` on
    entry: within [2, a - 1]).  ``gain[m - a]``: the conflicts m adds in its class."""

    def __init__(self, a: int, b: int, table: PrimeTable, sizes: np.ndarray,
                 labels: np.ndarray, pi: int):
        phi, qs, used = _sieve_span(a, b, table.primes[: table.pi(isqrt(b))])
        # m - 1 - phi(m) friends below m, less those in its class: the
        # (m - 2) / 2 evens for even m, s_i for an odd composite (below);
        # |gain|, the odd m and |d1| are at most b, so they take the sieve's
        # dtype, int32 below 2 ** 31
        self.gain = np.subtract(np.arange(a - 1, b, dtype=phi.dtype), phi, out=phi)
        self.gain[a % 2 :: 2] -= np.arange((a + a % 2) // 2 - 1, b // 2, dtype=phi.dtype)
        odd = np.arange(a | 1, b + 1, 2, dtype=phi.dtype)
        comp = used > 0  # the odd composites
        spf, qs = np.where(comp, qs[:, 0], odd), qs[comp]  # frees the sieve's matrix early
        gain_odd = self.gain[1 - a % 2 :: 2]
        self.rows = _Rows(odd, spf, qs, used[comp], gain_odd[comp] - (odd[comp] - 1) // 2,
                          sizes, table)  # d1 = (m - 1) // 2 - phi(m)
        prime = np.flatnonzero(~comp)
        self.pi = pi + (a == 2) + len(prime)
        self.rows.lab[prime] = np.arange(self.pi - len(prime) + 1, self.pi + 1)
        labels[a % 2 :: 2] = 1
        labels[1 - a % 2 :: 2] = self.rows.lab
        del self.rows.lab  # written; the bound loop reads the keys
        gain_odd[self.rows.k] -= self.rows.s_i

    def bounds(self, table: PrimeTable):
        """Yield (j, t, W_j) for j = 2, 3, ...: the rows t still open and their
        friend bound; then ``exact`` marks the rows to score exactly.

        Friends of m in class j are p_j * k, k <= x = (m - 1) // p_j free of the
        first j - 1 primes and divisible by a prime q | m, so at most W_j = sum
        of phi(x // q, min(j - 1, 4)), and score_j <= 2 * min(W_j, s_j) - s_j <=
        W_j.  A row goes exact where the middle term reaches s_i, and closes
        where W_j < s_i: as j rises, x falls and r = min(j - 1, 4) never falls,
        and phi(y, r) rises with y and falls with r, so W_j never rises.

        A row also closes at its cut, the first pass j with p_j ** 2 >= c = m /
        p_i, before W_j is taken (so m = p ** 2 and p * q, whose W_j stays at
        s_i, do not ride on to class i - 1).  There every class j' in [j, i - 1]
        scores exactly off - s_j', with off = 2 + 2 * mu(m), which is 2 for p **
        2 and 4 for p * q, as ``_score_rows`` proves (c is p_i or a prime q >
        p_i, as p_i ** 2 > p_j ** 2 >= c).  s_j' = phi((m - 1) // p_j', j' - 1)
        never rises with j', so the best of those classes is off - s_{i-1}: the
        row closes if off - s_{i-1} < s_i (ties go to the smaller class) and
        goes exact otherwise.  s_{i-1} is read from the keys, for the rows at
        their cut only, so no array per row is kept.
        """
        r = self.rows
        self.exact = r.d1 >= r.s_i
        t, j = np.flatnonzero((r.i > 2) & ~self.exact), 2
        while len(t):
            p = table._primes_view[j - 1]
            q = r.qs[t, 0]
            c = r.m[t] // q
            at = c <= p * p  # the rows at their cut
            u, off = t[at], 2 + 2 * (c[at] > q[at])
            self.exact[u[off - r.size(r.i[u] - 1, r.k[u]) >= r.s_i[u]]] = True
            t = t[~at]
            if len(t):
                x = (r.m[t] - 1) // p
                cols = range(r.used[t].max())  # qs a column at a time: no (rows, width) copy
                w = sum(wheel_phi(x // r.qs[t, col], min(j - 1, 4)) for col in cols)
                yield j, t, w
                s_i, s_j = r.s_i[t], r.size(j, r.k[t])
                fail = 2 * np.minimum(w, s_j) - s_j >= s_i
                self.exact[t[fail]] = True
                t = t[~fail & (w >= s_i) & (r.i[t] > j + 1)]
            j += 1


def _spans(n: int, table: PrimeTable, labels):
    """(a, the ``_Span`` over [a, b]) per ``SPAN`` integers of [2, n], in order,
    class sizes and pi(a - 1) carried across spans; [a, b]'s labels go to
    ``labels(a, b)``.  The table need only reach isqrt(n)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if isqrt(n) > table.limit:
        raise OutOfRangeError(f"isqrt(n) = {isqrt(n)} exceeds table limit {table.limit}")
    sizes, pi = np.zeros(table.pi(isqrt(n)) + 1, dtype=np.int64), 0
    for a in range(2, n + 1, SPAN):
        b = min(a + SPAN - 1, n)
        span = _Span(a, b, table, sizes, labels(a, b), pi)
        pi = span.pi
        yield a, span
        del span  # one span alive at a time: freed before the next is built


def canonical_conflicts(n: int, table: PrimeTable) -> int:
    """Conflicts of the canonical clustering of [2, n]: every span's ``_Span.gain``, summed."""
    scratch, total = np.empty(SPAN, dtype=np.int64), 0
    for _, span in _spans(n, table, lambda a, b: scratch[: b - a + 1]):
        total += int(span.gain.sum())
        del span  # one span alive at a time: freed before the next is built
    return total


def run_accelerated(n: int, table: PrimeTable) -> GreedyState:
    """Greedy run that certifies every canonical choice by counting.

    Evens join class 1 and primes open their class; an odd composite joins
    the class i of its smallest prime if s_i beats class 1, a fresh class
    (0) and each class 2 <= j < i (no class beyond i can beat it).  Per
    ``SPAN``, ``_Span`` scores class 1 exactly and bounds each class j >= 2
    until the friend bound W_j, falling with j, is below s_i, or until the
    row's cut, past which every class scores in closed form; its rows score
    what stays open exactly.  Conflicts are summed in closed form.  The table
    need reach only n's pi horizon, ``verify_table_limit(n)``.

    A step whose winner differs from class i is recorded as an anomaly and
    labeled with the actual winner.  The scores of every later step assume
    the canonical clustering, which no longer holds, so every integer after
    the first anomaly is labeled by the canonical rule, recorded as
    unverified, and left out of ``conflicts``.
    """
    if table.limit < verify_table_limit(n):  # its exact rows read pi(y) up to n's pi horizon
        raise OutOfRangeError(f"table limit {table.limit} is below n={n}'s pi horizon")
    labels = np.empty(n - 1, dtype=np.int64)
    state = GreedyState(Partition(n, labels), "accelerated")
    for a, span in _spans(n, table, lambda a, b: labels[a - 2 : b - 1]):
        if not state.anomalies:
            state.bound_checks += sum(len(k) for _, k, _ in span.bounds(table))
            sel = np.flatnonzero(span.exact)
            state.exact_checks += len(sel)
            vals, starts = span.rows.scores(sel, table)
            i, chosen = span.rows.i[sel], _winners(vals, starts)  # s_i >= 1: never class 0
            bad = np.flatnonzero(chosen != i)
            if len(bad):
                k, m, c = bad[0], int(span.rows.m[sel[bad[0]]]), int(chosen[bad[0]])
                state.anomalies.append((m, int(i[k]), c))
                labels[m - 2] = c
                # friends of m below it, less those in class c
                state.conflicts += (int(span.gain[: m - a].sum()) + (m - 1) // 2
                                    + int(vals[starts[k] + 1] - vals[starts[k] + c]))
                state.unverified = range(m + 1, n + 1)
            else:
                state.conflicts += int(span.gain.sum())
        del span  # one span alive at a time: freed before the next is built
    return state


def _winners(vals: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Each row's first class at its maximum, row k's scores vals[starts[k] : starts[k + 1]]."""
    top = np.repeat(np.maximum.reduceat(vals, starts[:-1]), np.diff(starts))
    hit = np.flatnonzero(vals == top)
    return hit[np.searchsorted(hit, starts[:-1])] - starts[:-1]


def class_scores(n: int, f: Factorization, table: PrimeTable) -> list[int]:
    """Exact scores of odd n >= 3 against the canonical clustering of [2, n-1].

    With i the index of n's smallest prime, entry 0 is the fresh class (0),
    entry j < i is friends-minus-enemies of n in class j, and entry i is the
    size of class i, all of whose members are friends of n.  No class beyond
    i can beat entry i, so the greedy step picks the argmax of this list,
    ties to the smallest index.  ``_score_rows`` scores n alone (below
    ``VERIFY_STOP_LIMIT``), each chunk's classes opened by one ``class_size``;
    the classes past its cut (every class of a prime, some of p ** 2 and p * q)
    in closed form.
    """
    if n >= VERIFY_STOP_LIMIT:
        raise OutOfRangeError(f"{n} is not below {VERIFY_STOP_LIMIT}, the int64 kernel's limit")
    return _scores_below(n, f, table.prime_index(f.distinct_primes[0]), table).tolist()


def move_score(n: int, f: Factorization, j: int, table: PrimeTable) -> int:
    """The change in conflicts when odd n >= 3 moves from class i, its smallest
    prime's, to class 0 <= j <= i, against the canonical clustering of [2, n-1]:
    entry i of ``class_scores`` less entry j, with no other class scored.  The
    fresh class scores 0.  A prime n has s_i = 0 and class j scores -s_j (c = 1
    in ``_score_rows``), s_j = 1 past the table, as p_j is then in (sqrt(n), n).
    Else s_i is one ``class_size``, and ``_score_rows`` scores classes 1 .. j as
    if n's class were j + 1: it reads i only to clip its cut."""
    if n >= VERIFY_STOP_LIMIT:
        raise OutOfRangeError(f"{n} is not below {VERIFY_STOP_LIMIT}, the int64 kernel's limit")
    i = class_index(f.distinct_primes[0], table)
    if not 0 <= j <= i:
        raise ValueError(f"need 0 <= j <= {i}, got {j}")
    if j == i or (j == 0 and f.distinct_primes[0] == n):
        return 0
    if f.distinct_primes[0] == n:
        return class_size(j, n - 1, table) if j <= len(table.primes) else 1
    return class_size(i, n - 1, table) - (int(_scores_below(n, f, j + 1, table)[j]) if j else 0)


def class_index(p: int, table: PrimeTable) -> int:
    """pi(p) of the prime p: by bisection where the table holds p, else by
    Meissel's pi(p) = phi(p, b - 1) - phi(p // p_b, b - 1) + b - 1, b =
    pi(isqrt(p)), one ``legendre_phi`` call of two terms, which needs a table
    only to the pi horizon of p (``verify_table_limit(p)``).  The first term has
    p_b ** 2 <= p, so it is deep and reads no pi itself; its children read pi(y)
    only where y ** 3 < p ** 2, as in ``verify_table_limit``.  The second reads
    pi(y) only where y < p_b ** 2, with y <= p / p_b, so y ** 3 < p ** 2 too.
    (phi(p, b) itself would close as 1 + pi(p) - b and read pi(p).)"""
    if p <= table.limit:
        return table.prime_index(p)
    b = table.pi(isqrt(p))
    phi = legendre_phi(np.array([p, p // table.prime(b)]), np.array([b - 1, b - 1]), table)
    return int(phi[0] - phi[1]) + b - 1


def _scores_below(n: int, f: Factorization, i: int, table: PrimeTable) -> np.ndarray:
    """[0, delta_1, ..., delta_{i-1}, s_i] of odd n, whose smallest prime's class is i or later."""
    return _score_rows(np.array([n]), np.array([f.distinct_primes]), np.array([i]),
                       np.array([(n - 1) // 2 - totient(f)]),  # (n-1)/2 evens, phi(n)/2 enemies
                       lambda o, j: class_size(j, n - 1, table), table)[0]


def _score_rows(n: np.ndarray, qs: np.ndarray, i: np.ndarray, d1: np.ndarray, s_j,
                table: PrimeTable) -> tuple[np.ndarray, np.ndarray]:
    """``class_scores`` of each odd n[k], given its primes ``qs[k]`` (padded with
    values above n[k]), class i[k] and score d1[k] in class 1; ``s_j(o, j)`` reads
    class j[t]'s size below n[o[t]].  Returns flat int64 ``vals`` and row starts:
    vals[starts[k] : starts[k + 1]] is [0, delta_1, ..., delta_{i-1}, s_i], written
    in by index, ``VERIFY_PAIRS`` pairs (k, j) at a time: first every row's open
    classes 2 .. cut - 1, by ``tally_diffs``, then its closed ones, cut .. i - 1,
    where cut is the first class with p_j ** 2 >= c = n / p_i.  For j < i,
    ``tally_diffs`` sums mu(d) * phi((n/d - 1) // p_j, j - 1) over squarefree d | n;
    where c <= p_j ** 2, each d > 1 has n/d <= c, so a quotient below p_j and a phi
    of 1 if n/d > p_j, else 0; and n/d >= p_i > p_j but for d = n.  So enemies =
    s_j - 1 - mu(n), delta_j = 2 + 2 * mu(n) - s_j, and as c <= p_j ** 2 < p_i ** 2,
    c is 1 (n prime: -s_j), p_i (n = p_i ** 2: 2 - s_j) or a prime q > p_i (4 - s_j)."""
    starts = np.cumsum(np.r_[0, i + 1])
    vals = np.zeros(starts[-1], dtype=np.int64)
    c = n // qs[:, 0]
    square = table.primes[: np.searchsorted(table.primes, isqrt(int(c.max(initial=1)))) + 2] ** 2
    cut = np.clip(np.searchsorted(square, c) + 1, 2, i)
    off = 2 * (c > 1) + 2 * (c > qs[:, 0])  # 2 + 2 * mu(n) in a closed class
    row, first = np.r_[0 : len(n), 0 : len(n)], np.r_[np.full(len(n), 2), cut]  # open, then closed
    ends = np.cumsum(np.r_[0, cut - 2, i - cut])
    for lo in range(0, ends[-1], VERIFY_PAIRS):
        pair = np.arange(lo, min(lo + VERIFY_PAIRS, ends[-1]))
        seg = np.searchsorted(ends, pair, side="right") - 1
        o, j = row[seg], pair - ends[seg] + first[seg]
        s = s_j(o, j)
        delta, h = off[o] - s, np.searchsorted(seg, len(n))  # the first h pairs are open
        if h:
            delta[:h] = tally_diffs(n[o[:h]], j[:h], qs[o[:h]], s[:h], table)
        vals[starts[o] + j] = delta
    vals[starts[:-1] + 1], vals[starts[1:] - 1] = d1, s_j(np.arange(len(n)), i)
    return vals, starts


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
    covers sqrt(stop) (factorization) and L, the least integer with L ** 3 >=
    stop ** 2: ``legendre_phi`` reads pi(y) only where y < p ** 2 and y <= N / p
    (p = p_{r+1}, N <= stop: a class opening has N = start - 1, a ``tally_diffs``
    term N = n - 1 and p = p_j, a deep term's child its parent's N), so y ** 3 <
    (y * p) ** 2 <= stop ** 2.  The int64 kernel refuses stop >= ``VERIFY_STOP_LIMIT``."""
    if stop >= VERIFY_STOP_LIMIT:
        raise OutOfRangeError(f"{stop} is not below {VERIFY_STOP_LIMIT}, the int64 kernel's limit")
    cube = round(stop ** (2 / 3))  # a float guess; the integer tests decide L
    while cube ** 3 < stop * stop:
        cube += 1
    while (cube - 1) ** 3 >= stop * stop:
        cube -= 1
    return max(2, isqrt(stop), cube)


def verify_range(start: int, stop: int, table: PrimeTable,
                 out=None) -> VerifyReport:
    """Check every n in [start, stop] for canonical class selection.

    Even and prime n auto-pass; each odd composite gets an exact check, and
    ``out``, when given, is called per block of ``VERIFY_BLOCK`` odd integers
    with the block's records (``verify_single``'s) as JSONL lines, if it has
    any.  Every class an odd composite up to ``stop`` can have, c <=
    pi(isqrt(stop)), is opened below ``start`` by one ``class_size``, and
    each block's odd integers then join their classes, pass or fail, since
    every check is against the canonical state.  Disjoint ranges can run
    anywhere, each with its own sizes; their reports merge deterministically.
    """
    if start < 2 or stop < start:
        raise ValueError(f"bad range [{start}, {stop}]")
    if table.limit < verify_table_limit(stop):
        raise ValueError(f"table limit {table.limit} too small to verify up to "
                         f"{stop}; need at least {verify_table_limit(stop)}")
    report = VerifyReport(start=start, stop=stop)
    sizes = np.zeros(max(table.pi(isqrt(stop)), 1) + 1, dtype=np.int64)  # sizes[c], c >= 2
    sizes[2:] = class_size(np.arange(2, len(sizes)), start - 1, table)  # below start
    records = None if out is None else _Records(out)
    for a in range(start | 1, stop + 1, 2 * VERIFY_BLOCK):
        _verify_block(a, min(a + 2 * VERIFY_BLOCK - 2, stop), table, sizes, report, records)
    report.auto_passed = stop - start + 1 - report.checked  # the evens and the primes
    return report


def _verify_block(a: int, b: int, table: PrimeTable, sizes: np.ndarray,
                  report: VerifyReport, records: _Records | None) -> None:
    """``verify_range`` on the odd integers of [a, b], a odd; adds the
    block's members to ``sizes``, and its record lines to ``records.out``.  Past
    one ``factorize`` per odd integer, in order, all is numpy: ``qs`` by one scatter,
    phi(m) by an exact update per column, each row's winner by ``_winners``."""
    ds = [factorize(n, table).distinct_primes for n in range(a, b + 1, 2)]
    count = np.fromiter(map(len, ds), dtype=np.int64, count=len(ds))
    flat = np.fromiter(chain.from_iterable(ds), dtype=np.int64, count=int(count.sum()))
    odd = np.arange(a, b + 1, 2, dtype=np.int64)
    spf = flat[np.cumsum(count) - count]
    comp = spf != odd
    m, used = odd[comp], count[comp]
    qs = np.full((len(m), used.max(initial=1)), 2 ** 63 - 1, dtype=np.int64)
    qs[np.arange(qs.shape[1]) < used[:, None]] = flat[np.repeat(comp, count)]
    phi = m.copy()
    for q in qs.T:
        phi = np.where(q <= m, phi // q * (q - 1), phi)
    report.checked += len(m)
    rows = _Rows(odd, spf, qs, used.astype(np.int8), (m - 1) // 2 - phi, sizes, table)
    if not len(m):
        return
    vals, starts = rows.scores(slice(None), table)
    chosen = _winners(vals, starts)
    bad = np.flatnonzero(chosen != rows.i)
    report.anomalies += zip(m[bad].tolist(), rows.i[bad].tolist(), chosen[bad].tolist())
    if records is not None:
        records.write(m, rows.i, chosen, vals, starts)
