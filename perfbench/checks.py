"""Output checks for the benchmark, computed without the gcdcluster package.

Everything here is written from the definitions: a numpy sieve for primes and
smallest prime factors, trial division, and two counting routes for the
members of a canonical class that are coprime to n (a smallest-prime-factor
array for small ranges, literal inclusion-exclusion for large ones).  None of
it shares code with the program it checks.
"""

from __future__ import annotations

import json
from math import isqrt

import numpy as np

# Largest range the smallest-prime-factor route counts over (4 bytes each).
SPF_ROUTE_MAX = 4_000_000


def primes_upto(n: int) -> np.ndarray:
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)


def spf_upto(n: int) -> np.ndarray:
    """spf[k] = smallest prime factor of k for 2 <= k <= n; spf[1] = n + 1."""
    spf = np.zeros(n + 1, dtype=np.int32)
    for p in primes_upto(isqrt(n)).tolist():
        block = spf[p :: p]
        block[block == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    spf[1] = n + 1
    return spf


def odd_composites(start: int, stop: int) -> np.ndarray:
    """Odd composite integers in [start, stop], by a segmented sieve."""
    composite = np.zeros(stop - start + 1, dtype=bool)
    for p in primes_upto(isqrt(stop)).tolist():
        first = max(p * p, (start + p - 1) // p * p)
        composite[first - start :: p] = True
    values = np.arange(start, stop + 1, dtype=np.int64)
    return values[composite & (values % 2 == 1)]


def canonical_labels(n: int) -> np.ndarray:
    """Class of every integer in [2, n]: the 1-based index of its smallest prime."""
    spf = spf_upto(n)[2:]
    return np.searchsorted(primes_upto(n), spf) + 1


class DeltaReferee:
    """Friends-minus-enemies of an odd composite n in every class up to its own.

    Class j holds the integers below n whose smallest prime is p_j; for j
    below n's class, that is p_j * k with k free of the first j - 1 primes,
    and a member is an enemy exactly when k is also coprime to n.
    """

    def __init__(self, n_max: int):
        self.primes = primes_upto(isqrt(n_max) + 1).tolist()
        self.spf = spf_upto(min(SPF_ROUTE_MAX, n_max))

    def factor(self, n: int) -> list[int]:
        qs = []
        rem = n
        for p in self.primes:
            if p * p > rem:
                break
            if rem % p == 0:
                qs.append(p)
                while rem % p == 0:
                    rem //= p
        if rem > 1:
            qs.append(rem)
        return qs

    def free_count(self, x: int, j: int, qs: list[int]) -> int:
        """#{1 <= k <= x : k has no prime among p_1..p_{j-1} or qs}.

        Every q in qs must exceed p_{j-1}.
        """
        if j == 1 or x > len(self.spf) - 1:
            return _inclusion_exclusion(x, sorted(self.primes[: j - 1] + qs))
        p_j = self.primes[j - 1]
        total = 0
        for d, sign in _squarefree_products(qs):
            if d <= x:
                total += sign * int(np.count_nonzero(self.spf[1 : x // d + 1] >= p_j))
        return total

    def deltas(self, n: int) -> tuple[int, dict[int, int]]:
        """(class index of n, {j: friends - enemies of n in class j})."""
        qs = self.factor(n)
        i = self.primes.index(qs[0]) + 1
        out = {}
        for j in range(1, i):
            x = (n - 1) // self.primes[j - 1]
            size = self.free_count(x, j, [])
            enemies = self.free_count(x, j, qs)
            out[j] = size - 2 * enemies
        out[i] = self.free_count((n - 1) // qs[0], i, [])
        return i, out


def _squarefree_products(qs: list[int]):
    out = [(1, 1)]
    for q in qs:
        out += [(d * q, -s) for d, s in out]
    return out


def _inclusion_exclusion(x: int, ps: list[int]) -> int:
    """#{1 <= k <= x : no p in ps divides k}, ps ascending, pruned at d > x."""
    total = 0
    stack = [(0, 1, 1)]
    while stack:
        pos, d, sign = stack.pop()
        total += sign * (x // d)
        for k in range(pos, len(ps)):
            nd = d * ps[k]
            if nd > x:
                break
            stack.append((k + 1, nd, -sign))
    return total


def chosen_class(deltas: dict[int, int]) -> int:
    """The greedy's pick: largest delta, smallest index on ties, 0 = fresh class."""
    best_j, best = 0, 0
    for j in sorted(deltas):
        if deltas[j] > best:
            best_j, best = j, deltas[j]
    return best_j


def parse_verify_output(text: str) -> tuple[list[dict], dict]:
    """(records, summary) of a ``verify`` JSONL report; ValueError if malformed."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty output")
    try:
        return [json.loads(line) for line in lines[:-1]], json.loads(lines[-1])["summary"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"no summary line: {exc!r}") from None


def check_verify_output(records: list[dict], summary: dict, start: int, stop: int,
                        composites: np.ndarray, anomalies: list[list[int]]) -> list[str]:
    """Problems with a ``verify`` report; an empty list means correct."""
    problems = []
    expected = {
        "from": start, "to": stop, "checked": len(composites),
        "auto_passed": stop - start + 1 - len(composites),
        "anomalies": anomalies, "unverified": [], "all_pass": not anomalies,
    }
    for key, want in expected.items():
        if summary.get(key) != want:
            problems.append(f"summary {key} = {summary.get(key)!r}, expected {want!r}")
    ns = np.array([r.get("n", -1) for r in records], dtype=np.int64)
    if len(ns) != len(composites) or not np.array_equal(ns, composites):
        problems.append(f"{len(ns)} records do not cover the {len(composites)} "
                        "odd composites in order")
    failing = [[r.get("n"), r.get("expected_j"), r.get("chosen_j")]
               for r in records if r.get("status") != "pass"]
    if failing != anomalies:
        problems.append(f"failing records {failing[:5]}, expected {anomalies}")
    return problems


def check_records(records: list[dict], ns: list[int], referee: DeltaReferee) -> list[str]:
    """Recompute the full record of each n in ``ns`` and compare."""
    by_n = {r.get("n"): r for r in records}
    problems = []
    for n in ns:
        rec = by_n.get(n)
        if rec is None:
            problems.append(f"no record for {n}")
            continue
        i, deltas = referee.deltas(n)
        chosen = chosen_class(deltas)
        want = {"n": n, "spf_index": i,
                "deltas": {str(j): d for j, d in sorted(deltas.items())},
                "chosen_j": chosen, "expected_j": i,
                "status": "pass" if chosen == i else "fail"}
        if rec != want:
            problems.append(f"record {n} = {rec}, expected {want}")
    return problems


def check_greedy_csv(text: str, n: int, labels: np.ndarray) -> list[str]:
    """A ``greedy`` CSV must list [2, n] in order with the canonical labels."""
    header, _, body = text.partition("\n")
    if header != "integer,class":
        return [f"bad header {header!r}"]
    try:
        table = np.array(body.replace(",", " ").split(), dtype=np.int64).reshape(-1, 2)
    except ValueError as exc:
        return [f"unparsable rows: {exc}"]
    if not np.array_equal(table[:, 0], np.arange(2, n + 1)):
        return [f"rows do not cover [2, {n}] in order"]
    bad = np.flatnonzero(table[:, 1] != labels)
    if len(bad):
        return [f"{len(bad)} labels differ from canonical, first at {int(bad[0]) + 2}"]
    return []
