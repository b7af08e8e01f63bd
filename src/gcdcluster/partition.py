"""Partitions of [2, n], the friend/enemy relation, and exact conflict counts.

A pair a != b of integers are friends when gcd(a, b) > 1 and enemies
otherwise.  A conflict of a partition is an unordered pair that is either
enemies sharing a class or friends split across classes; the clustering
objective is the number of conflicts.

Class id convention: partitions built by ``canonical_partition`` (and by the
greedy engine while it stays regular) label each integer with the 1-based
index of its smallest prime factor, so class 1 is the evens, class 2 the odd
multiples of 3, and so on.  Id 0 is reserved to mean "a fresh empty class"
when scoring candidate moves.  Arbitrary partitions may use any positive ids.

Partition values are plain data and safe to hand between threads; mutation is
single-owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import OutOfRangeError, ResourceGuardError
from .primes import PrimeTable, _sieve_spf

# O(n^2) pair enumeration above this point is refused unless overridden.
DEFAULT_CONFLICT_GUARD = 100_000

CSV_HEADER = "integer,class"
CSV_BLOCK = 16384  # rows per string of ``csv_blocks``
_POW10 = 10 ** np.arange(19, dtype=np.int64)  # how many are <= m: m's digit count


def similar(a: int, b: int) -> bool:
    """True when a and b are friends, i.e. gcd(a, b) > 1.

    Self-pairs are not edges of the relation and are rejected.
    """
    if a == b:
        raise ValueError(f"self-pair ({a}, {a}) is not an edge")
    if a < 2 or b < 2:
        raise ValueError(f"vertices start at 2, got ({a}, {b})")
    return gcd(a, b) > 1


@dataclass
class Partition:
    """Labels for every integer in [2, n]; labels[k] is the class of k + 2."""

    n: int
    labels: np.ndarray

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"need n >= 2, got {self.n}")
        if len(self.labels) != self.n - 1:
            raise ValueError(
                f"labels cover {len(self.labels)} integers, expected {self.n - 1}")

    @property
    def class_sizes(self) -> dict[int, int]:
        """Size of each nonempty class, counted from the labels on each read."""
        ids, counts = np.unique(self.labels, return_counts=True)
        return {int(c): int(k) for c, k in zip(ids, counts)}

    def label(self, m: int) -> int:
        if m < 2 or m > self.n:
            raise ValueError(f"{m} outside [2, {self.n}]")
        return int(self.labels[m - 2])

    def members(self, class_id: int) -> np.ndarray:
        return np.flatnonzero(self.labels == class_id) + 2


def canonical_partition(n: int, table: PrimeTable) -> Partition:
    """The regular clustering: class of m = index of its smallest prime factor,
    from one smallest-prime-factor sieve of [2, n] (not the table's cached
    array), so every n up to ``table.limit`` takes the same path."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if n > table.limit:
        raise OutOfRangeError(f"n={n} exceeds table limit {table.limit}")
    labels = np.searchsorted(table.primes, _sieve_spf(n)[2:]) + 1
    return Partition(n, labels.astype(np.int64, copy=False))


def exceptional_partition(n: int, table: PrimeTable) -> Partition:
    """The canonical partition of [2, n] with n itself moved to the even class.

    Only defined for odd n divisible by 3 (the shape of the first greedy
    irregularity).
    """
    if n % 2 == 0 or n % 3 != 0:
        raise ValueError(f"need odd n divisible by 3, got {n}")
    part = canonical_partition(n, table)
    part.labels[n - 2] = 1
    return part


def count_conflicts(p: Partition, guard: int = DEFAULT_CONFLICT_GUARD) -> int:
    """Exact number of conflicting unordered pairs in [2, p.n].

    A pair conflicts when friendship and co-membership disagree.  Quadratic in
    p.n, hence refused above ``guard``; the greedy engine never needs this at
    scale because it scores single-element moves by class scores instead.
    Deterministic regardless of internal chunking.
    """
    if p.n > guard:
        raise ResourceGuardError(f"O(n^2) conflict count at n={p.n} refused (guard {guard}); "
                                 "raise the guard explicitly if you really want this")
    values = np.arange(2, p.n + 1, dtype=np.int64)
    labels = p.labels
    total = 0
    for idx in range(len(values) - 1):
        a = int(values[idx])
        friends = np.gcd(values[idx + 1 :], a) > 1
        same = labels[idx + 1 :] == labels[idx]
        total += int(np.count_nonzero(friends != same))
    return total


def _csv_rows(*cols: np.ndarray) -> str:
    """One CSV row per index of the int64 columns ``cols``, as f-strings write
    them: per column a sign, its widest value's digits right-aligned and a comma
    (a newline after the last), in one uint8 matrix; one mask drops unused signs
    and leading zeros."""
    mags = [np.where(c < 0, -c.view(np.uint64), c.view(np.uint64)) for c in cols]  # |c|
    widths = [len(str(int(q.max()))) for q in mags]
    mat = np.empty((len(cols[0]), sum(widths) + 2 * len(cols)), dtype=np.uint8)
    keep, x = np.ones(mat.shape, dtype=bool), 0
    for c, q, w in zip(cols, mags, widths):
        q = q.astype(np.uint32) if w < 10 else q  # divides faster
        for y in range(x + w, x, -1):  # the digits, right to left
            r = q // 10  # a divmod or a % takes several times as long
            mat[:, y] = q - 10 * r
            keep[:, y - 1] = r > 0  # the digit left of y, unless a leading zero
            q = r
        mat[:, x + 1 : x + w + 1] += ord("0")
        mat[:, x], keep[:, x] = ord("-"), c < 0
        mat[:, x + w + 1] = ord(",")
        x += w + 2
    mat[:, -1] = ord("\n")
    return np.compress(keep.ravel(), mat.ravel()).tobytes().decode("ascii")


def csv_blocks(p: Partition):
    """``partition_to_csv`` in pieces: the header, then ``CSV_BLOCK`` rows at a time."""
    yield CSV_HEADER + "\n"
    for k in range(0, p.n - 1, CSV_BLOCK):
        labels = p.labels[k : k + CSV_BLOCK].astype(np.int64, copy=False)
        yield _csv_rows(np.arange(k + 2, k + 2 + len(labels), dtype=np.int64), labels)


def json_blocks(p: Partition):
    """The JSON object of each class id (text, increasing) and its members
    (increasing), ``CSV_BLOCK`` members at a time, written by ``_csv_rows`` as
    ", m" each: a class opens where its predecessors' digits plus 2 each end."""
    ids, counts = np.unique(p.labels, return_counts=True)  # its sorted copy goes before the order
    heads = np.cumsum(counts) - counts  # each class's first place in the order
    ids = ids.tolist()
    order = np.argsort(p.labels, kind="stable")
    order += 2
    sep = "{"
    for k in range(0, len(order), CSV_BLOCK):
        members = order[k : k + CSV_BLOCK]
        text = ("\n" + _csv_rows(members)[:-1]).replace("\n", ", ")
        starts = np.r_[0, np.cumsum(np.searchsorted(_POW10, members, side="right") + 2)]
        lo, hi = np.searchsorted(heads, (k, k + CSV_BLOCK))
        cut = 0
        for at, c in zip(starts[heads[lo:hi] - k].tolist(), ids[lo:hi]):
            yield f'{text[cut:at]}{sep}"{c}": ['
            cut, sep = at + 2, "], "
        yield text[cut:]
    yield "]}"


def partition_to_csv(p: Partition) -> str:
    """CSV serialization: header then one "integer,class" row per integer."""
    return "".join(csv_blocks(p))


def read_partition_csv(fh) -> Partition:
    header = fh.readline().strip()
    if header != CSV_HEADER:
        raise ValueError(f"bad header {header!r}, expected {CSV_HEADER!r}")
    rows = []
    for line in fh:
        line = line.strip()
        if not line:
            continue
        m_str, c_str = line.split(",")
        rows.append((int(m_str), int(c_str)))
    if not rows:
        raise ValueError("empty partition file")
    rows.sort()
    n = rows[-1][0]
    if [m for m, _ in rows] != list(range(2, n + 1)):
        raise ValueError("rows must cover exactly [2, n]")
    labels = np.array([c for _, c in rows], dtype=np.int64)
    return Partition(n, labels)
