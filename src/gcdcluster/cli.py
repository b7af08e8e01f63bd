"""Command-line frontend.

Subcommands expose the engine end to end: ``greedy`` prints partitions,
``verify`` runs the regularity sweep (JSONL to stdout, one object per checked
integer plus a summary), ``tables`` regenerates the threshold table and the
three-prime census, ``n0`` runs the irregularity search, and ``conflicts``
answers conflict-count (a span at a time) and move-delta queries at any scale.

stdout carries only machine-readable output; progress goes to stderr.  Exit
codes: 0 success (all checks pass), 1 a verification anomaly was found, 2 a
resource guard refused the work or memory ran out, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import deque
from functools import lru_cache, partial
from math import isqrt

from . import greedy as greedy_mod
from . import thresholds
from .errors import OutOfRangeError, ResourceGuardError
from .partition import csv_blocks, json_blocks, partition_to_csv  # noqa: F401  (perfbench)
from .primes import DEFAULT_SPF_LIMIT, PrimeTable, build_prime_table, factorize

EXIT_OK = 0
EXIT_ANOMALY = 1
EXIT_REFUSED = 2
EXIT_USAGE = 64

TABLES_LIMIT = 1_000_000  # the table ``tables`` builds unless a census needs more


class _UsageError(Exception):
    """A command line refused before any work: ``main`` prints it, exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gcdcluster",
                     description="greedy gcd clustering of the integers, exactly")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("greedy", help="run the greedy clustering, print the partition")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--mode", choices=("reference", "accelerated"), default="accelerated")
    g.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    g.add_argument("--out", default=None)
    g.add_argument("--guard", type=int, default=None,
                   help="override the reference-mode size guard")

    v = sub.add_parser("verify", help="check canonical class selection over a range")
    v.add_argument("--from", dest="start", type=int, required=True)
    v.add_argument("--to", dest="stop", type=int, required=True)
    v.add_argument("--workers", type=int, default=1,
                   help="worker processes, from 1 to the CPU count")
    v.add_argument("--out", default=None, help="JSONL path (default stdout)")

    t = sub.add_parser("tables", help="emit the threshold table or the census")
    t.add_argument("--which", choices=("n1", "census"), required=True)
    t.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    t.add_argument("--i", type=int, default=None)
    t.add_argument("--j", type=int, default=None)
    t.add_argument("--t", type=int, default=None)
    t.add_argument("--p", type=int, default=None, help="census: single prime")
    t.add_argument("--bound", type=int, default=None, help="census: explicit bound")

    n0 = sub.add_parser("n0", help="search for the first irregular integer")
    n0.add_argument("--bound", type=int, default=2 * 10 ** 8)

    c = sub.add_parser("conflicts", help="conflict counts and move deltas")
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--to-class", dest="to_class", type=int, default=None,
                   help="score moving n itself from its canonical class here "
                        "(tally-based; this and the count both work at any scale)")
    return parser


def _verify_limit(start: int, stop: int) -> int:
    """The table that scores every odd composite up to ``stop``, widened to
    ``min(stop, DEFAULT_SPF_LIMIT)`` so that small jobs keep the SPF fast path;
    a window starting above ``DEFAULT_SPF_LIMIT`` never reads the SPF array."""
    spf = min(stop, DEFAULT_SPF_LIMIT) if start <= DEFAULT_SPF_LIMIT else 0
    return max(greedy_mod.verify_table_limit(stop), spf)


def _open_out(path: str | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w"), True


def cmd_greedy(args) -> int:
    if args.n < 2:
        raise _UsageError("--n must be at least 2")
    if args.guard is not None and args.mode != "reference":
        raise _UsageError("--guard applies only to --mode reference")
    if args.mode == "reference":
        guard = args.guard if args.guard is not None else greedy_mod.DEFAULT_REFERENCE_GUARD
        state = greedy_mod.run_reference(args.n, guard=guard)
    else:
        table = build_prime_table(max(args.n, 1000))
        state = greedy_mod.run_accelerated(args.n, table)
    fh, close = _open_out(args.out)
    try:
        if args.fmt == "csv":
            fh.writelines(csv_blocks(state.partition))  # never the whole text at once
        else:
            head = {"n": state.partition.n, "mode": state.mode, "conflicts": state.conflicts,
                    "anomalies": [list(a) for a in state.anomalies]}
            fh.write(json.dumps(head)[:-1] + ', "classes": ')  # the object stays open for them
            fh.writelines(json_blocks(state.partition))
            fh.write("}\n")
    finally:
        if close:
            fh.close()
    if state.anomalies:
        n, expected, chosen = state.anomalies[0]
        print(f"greedy: anomaly at n={n} (class {chosen} beat class {expected}); "
              f"the {len(state.unverified)} integers after it are unverified",
              file=sys.stderr)
        return EXIT_ANOMALY
    return EXIT_OK


def _worker_pool(workers: int):
    from concurrent.futures import ProcessPoolExecutor  # not loaded by serial runs
    return ProcessPoolExecutor(workers)


@lru_cache(maxsize=1)
def _worker_table(limit: int) -> PrimeTable:
    return build_prime_table(limit)


def _verify_chunk(span: tuple[int, int], limit: int) -> tuple[list, greedy_mod.VerifyReport]:
    """One span verified in a worker: its record lines, and its report.  The
    worker builds its table at its first span, not in a pool initializer, so
    that a ``MemoryError`` reaches the parent as that span's result."""
    lines: list[str] = []
    report = greedy_mod.verify_range(*span, _worker_table(limit), lines.append)
    return lines, report


def _map_ahead(pool, fn, items, ahead: int):
    """``pool.map(fn, items)`` in order, with at most ``ahead`` items submitted
    and not yet taken by the caller (finished ones wait in this process)."""
    pending = deque()
    for item in items:
        if len(pending) == ahead:
            yield pending.popleft().result()
        pending.append(pool.submit(fn, item))
    while pending:
        yield pending.popleft().result()


def cmd_verify(args) -> int:
    if args.start < 2 or args.stop < args.start:
        raise _UsageError(f"bad range [{args.start}, {args.stop}]")
    cpus = os.cpu_count() or 1
    if not 1 <= args.workers <= cpus:
        raise _UsageError(f"--workers must be in [1, {cpus}], got {args.workers}")
    limit = _verify_limit(args.start, args.stop)
    spans = [(a, min(a + greedy_mod.SPAN - 1, args.stop))
             for a in range(args.start, args.stop + 1, greedy_mod.SPAN)]
    fh, close = _open_out(args.out)
    pool = None
    try:
        if args.workers == 1:
            table = build_prime_table(limit)
            # records stream straight to the output; no lines are left over
            chunks = (([], greedy_mod.verify_range(a, b, table, fh.write))
                      for a, b in spans)
        else:
            pool = _worker_pool(args.workers)
            chunks = _map_ahead(pool, partial(_verify_chunk, limit=limit), spans,
                                args.workers + 1)
        total = greedy_mod.VerifyReport(args.start, args.stop)
        started = time.monotonic()
        for lines, report in chunks:
            fh.writelines(lines)
            total.checked += report.checked
            total.auto_passed += report.auto_passed
            total.anomalies += report.anomalies
            elapsed = max(time.monotonic() - started, 1e-9)
            rate = (report.stop - args.start + 1) / elapsed
            print(f"verify: at n={report.stop}, {total.checked} checked, "
                  f"{len(total.anomalies)} anomalies, {rate:.0f} integers/s",
                  file=sys.stderr)
        fh.write(total.summary_json() + "\n")
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if close:
            fh.close()
    return EXIT_ANOMALY if total.anomalies else EXIT_OK


def cmd_tables(args) -> int:
    # from i = 14265 on, an n1 passes CPython's 4300-digit limit on int-to-text
    # conversion, a guard for parsing untrusted text, not for printing results
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # Python 3.10.7 on; 0: none
    try:
        if digits:
            sys.set_int_max_str_digits(0)
        text = _tables_text(args)
    except ValueError as exc:  # an option, index, cell or prime the thresholds refuse
        raise _UsageError(exc)
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
    sys.stdout.write(text)
    return EXIT_OK


def _tables_text(args) -> str:
    n1, i, t, p = args.which == "n1", args.i is not None, args.t is not None, args.p is not None
    for flag, value, read, rule in (  # an option given is refused where it goes unread
            ("--i", args.i, n1, "--which n1"),
            ("--j", args.j, n1 and i and t, "--which n1, --i and --t"),
            ("--t", args.t, n1 and i, "--which n1 and --i"),
            ("--p", args.p, not n1, "--which census"),
            ("--bound", args.bound, not n1 and p, "--which census and --p")):
        if value is not None and not read:
            raise ValueError(f"{flag} is read only with {rule}")
    if i and not t and not 3 <= args.i <= 20:
        raise ValueError(f"i = {args.i} is outside the table's rows 3 <= i <= 20 "
                         "(pass --t to compute a cell)")
    j = args.i - 1 if args.j is None and i else args.j
    if t and not 1 <= j < args.i:  # a cell n1(i, j, t) needs i > j >= 1 and t >= 1
        raise ValueError(f"--j must be in [1, i - 1] for i = {args.i}, got {j}"
                         + (" (its default, i - 1)" if args.j is None else ""))
    if t and args.t < 1:
        raise ValueError(f"--t must be at least 1, got {args.t}")
    # 2 has no class below; a composite is refused by trial division, not a sieve sized from it
    if p and (not thresholds.is_prime(args.p) or (args.p == 2 and args.bound is None)):
        raise ValueError(f"--p must be a prime >= 3, or 2 with --bound, got {args.p}")
    limit = TABLES_LIMIT
    if p:
        limit = max(limit, thresholds.census_table_limit(args.p, args.bound))
    table = build_prime_table(limit)
    if n1:
        if t:
            records = [thresholds.n1_table(args.i, j, args.t, table)]
        else:
            records = [r for r in thresholds.table1_records(table) if not i or r.i == args.i]
        if args.fmt == "csv":
            return thresholds.table1_csv(records, table)
        return json.dumps([r.__dict__ for r in records]) + "\n"
    rows = (thresholds.census_report(table, (args.p,), args.bound) if p
            else thresholds.census_report(table))
    if args.fmt == "csv":
        return "\n".join(["p,count"] + [f"{r['p']},{r['count']}" for r in rows]) + "\n"
    return json.dumps(rows) + "\n"


def cmd_n0(args) -> int:
    table = build_prime_table(1000)
    value = thresholds.find_n0(args.bound, table)
    sys.stdout.write(json.dumps({
        "bound": args.bound,
        "found": value is not None,
        "value": value,
    }) + "\n")
    return EXIT_OK


def cmd_conflicts(args) -> int:
    n = args.n
    if args.to_class is not None and (n < 3 or n % 2 == 0):
        raise _UsageError("move scoring is defined for odd n >= 3")
    if n < 2:
        raise _UsageError("--n must be at least 2")
    if args.to_class is None:  # the count reads primes up to isqrt(n) only
        total = greedy_mod.canonical_conflicts(n, build_prime_table(max(isqrt(n), 2)))
        sys.stdout.write(json.dumps({"n": n, "clustering": "canonical", "conflicts": total}) + "\n")
        return EXIT_OK
    if args.to_class < 0:  # refused before any sieve
        raise _UsageError(f"--to-class must be at least 0, got {args.to_class}")
    table = build_prime_table(_verify_limit(n, n))
    f = factorize(n, table)
    if f.distinct_primes[0] > table.limit:  # a prime's class index is pi(n)
        del table  # let the small table go before the large one is built
        table = build_prime_table(n)
    i = table.prime_index(f.distinct_primes[0])
    if args.to_class > i:  # refused before any class is scored
        raise _UsageError(f"--to-class must be in [0, {i}] for n={n}")
    # moving n from class i to class j changes the conflicts by score i - score j
    vals = greedy_mod.class_scores(n, f, table)
    sys.stdout.write(json.dumps({"n": n, "from_class": i, "to_class": args.to_class,
                                 "delta": vals[i] - vals[args.to_class]}) + "\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"greedy": cmd_greedy, "verify": cmd_verify, "tables": cmd_tables,
                "n0": cmd_n0, "conflicts": cmd_conflicts}
    try:
        return handlers[args.command](args)
    except ResourceGuardError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except MemoryError as exc:
        print(f"refused: {args.command} ran out of memory: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except (_UsageError, OutOfRangeError) as exc:  # a bad command line or a query past its table
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
