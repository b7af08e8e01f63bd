"""Run the gcdcluster CLI in this process, with timing hooks installed.

    python3 perfbench/probe.py SRC PROBE_DIR TRACE TICK -- CLI_ARGS...

The CLI is imported from ``SRC`` and called exactly as ``python -m
gcdcluster CLI_ARGS`` would call it; stdout, stderr and the exit code are the
CLI's own.  The hooks replace names where their callers look them up
(module globals of ``gcdcluster.greedy`` and ``gcdcluster.cli``, methods of
``PrimeTable`` at class level), so nothing in the package changes.

With TRACE 0 only cheap hooks run: the monotonic time at which the first
sweep call starts (end of set-up), the sieve limit of each table build, and
ticks: the monotonic time at probe start, after the imports, around each
table build and at every TICK-th ``factorize`` call (0: none).  The ticks
split each process at the same points of its work, so the benchmark can
compare those segments across the processes of a run.
With TRACE 1 every public entry point of ``primes``, ``counts``, ``greedy``,
``partition`` and ``cli`` that the sweeps reach is wrapped, and spans are
aggregated per name (calls, total seconds, self seconds).  At exit the
process writes its figures to PROBE_DIR as JSON for the benchmark to read.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

MEMO_KEY_SHIFT = 20  # phi memo keys (y, r) are packed as y << 20 | r


class Tracer:
    """Per-name call count, total and self time; one frame stack per process."""

    def __init__(self):
        self.stats: dict[str, list] = {}   # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self.samples: dict[str, list[float]] = {}
        self.stack: list[float] = []

    def wrap(self, name, fn, sample=False, before=None):
        agg = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.samples.setdefault(name, []) if sample else None
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            t0 = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child
                if stack:
                    stack[-1] += dt
                if durations is not None:
                    durations.append(dt)
        return wrapper


class Probe:
    def __init__(self, probe_dir: str, trace: bool, tick_every: int = 0):
        self.dir = probe_dir
        self.trace = trace
        self.tick_every = tick_every
        self.ticks: list[float] = []
        self.tracer = Tracer()
        self.tables: list = []
        self.table_bytes: dict[int, int] = {}
        self.memo_dumped: dict[int, int] = {}
        self.marked_pid = None

    def _append(self, name: str, line: str):
        fd = os.open(os.path.join(self.dir, name),
                     os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, (line + "\n").encode())
        finally:
            os.close(fd)

    def mark_sweep_start(self, *_):
        if self.marked_pid != os.getpid():
            self.marked_pid = os.getpid()
            self._append("marks", repr(time.monotonic()))

    def install(self):
        from gcdcluster import cli, greedy, primes

        probe = self

        build = cli.build_prime_table

        @functools.wraps(build)
        def build_prime_table(limit, *args, **kwargs):
            if not probe.trace:
                probe.ticks.append(time.monotonic())
            table = build(limit, *args, **kwargs)
            if not probe.trace:
                probe.ticks.append(time.monotonic())
            probe.tables.append(table)
            probe._append("limits", str(int(limit)))
            return table

        cli.build_prime_table = build_prime_table
        if not self.trace:
            for name in ("verify_range", "run_accelerated"):
                setattr(greedy, name, _before(getattr(greedy, name),
                                              self.mark_sweep_start))
            if self.tick_every:
                greedy.factorize = _ticking(greedy.factorize, self.tick_every,
                                            self.ticks)
            return

        t = self.tracer
        counters = t.counters
        counters["factorize_spf"] = 0

        def count_spf_path(n, table, *_):
            if n <= table.spf_limit:
                counters["factorize_spf"] += 1

        cli.build_prime_table = t.wrap("primes.build", build_prime_table)
        greedy.factorize = t.wrap("primes.factorize", greedy.factorize,
                                  before=count_spf_path)
        primes.PrimeTable.pi = t.wrap("primes.pi", primes.PrimeTable.pi)
        primes.PrimeTable.prime_index = t.wrap("primes.prime_index",
                                               primes.PrimeTable.prime_index)
        greedy.tally_diff_fast = t.wrap("counts.tally_diff", greedy.tally_diff_fast)
        greedy.class_size = t.wrap("counts.class_size", greedy.class_size)
        greedy.tally_even_class = t.wrap("counts.tally_even", greedy.tally_even_class)
        greedy.verify_single = t.wrap("greedy.verify_single", greedy.verify_single,
                                      sample=True)
        greedy.VerifyRecord.to_json = t.wrap("greedy.record_json",
                                             greedy.VerifyRecord.to_json)
        greedy.verify_range = t.wrap("greedy.verify_range", greedy.verify_range,
                                     before=self.mark_sweep_start)
        greedy.run_accelerated = t.wrap("greedy.run_accelerated",
                                        greedy.run_accelerated,
                                        before=self.mark_sweep_start)
        cli.partition_to_csv = t.wrap("partition.csv", cli.partition_to_csv)
        cli.main = t.wrap("cli.main", cli.main)

    def dump(self):
        if not self.trace:
            if self.ticks:
                self._append("ticks", "\n".join(map(repr, self.ticks)))
            return
        pid = os.getpid()
        for k, table in enumerate(self.tables):
            key = id(table)
            if key not in self.table_bytes:
                self.table_bytes[key] = table_nbytes(table)
            memo = getattr(table, "_phi_cache", None) or {}
            done = self.memo_dumped.get(key, 0)
            if len(memo) > done:
                _save_memo_keys(os.path.join(self.dir, f"memo-{pid}-{k}-{done}.npy"),
                                memo, done)
                self.memo_dumped[key] = len(memo)
        t = self.tracer
        record = {
            "spans": t.stats,
            "counters": t.counters,
            "samples": t.samples,
            "table_bytes": [self.table_bytes[id(tb)] for tb in self.tables],
        }
        path = os.path.join(self.dir, f"trace-{pid}.json")
        with open(path + ".tmp", "w") as fh:
            json.dump(record, fh)
        os.replace(path + ".tmp", path)


def _before(fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        hook(*args)
        return fn(*args, **kwargs)
    return wrapper


def _ticking(fn, every: int, ticks: list[float]):
    """``fn`` that appends the monotonic time to ``ticks`` every ``every`` calls."""
    calls = [0]
    clock = time.monotonic

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        calls[0] += 1
        if calls[0] % every == 0:
            ticks.append(clock())
        return fn(*args, **kwargs)
    return wrapper


def table_nbytes(table) -> int:
    """Bytes held by a table's arrays and int lists, computed from their sizes.

    numpy arrays count their buffer.  A list counts its pointer array plus one
    int object per element, each sized like the wider of its two end
    elements, which is exact for the sorted prime lists a table keeps.
    """
    import numpy as np

    total = 0
    for value in vars(table).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif isinstance(value, list) and value and isinstance(value[-1], int):
            widest = max(abs(value[0]), abs(value[-1]))
            total += sys.getsizeof(value) + len(value) * sys.getsizeof(widest)
    return total


def _save_memo_keys(path, memo, start):
    import itertools

    import numpy as np

    keys = itertools.islice(memo, start, None)
    packed = np.fromiter((y << MEMO_KEY_SHIFT | r for y, r in keys),
                         dtype=np.int64, count=len(memo) - start)
    np.save(path, packed)


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[4] != "--":
        print("usage: probe.py SRC PROBE_DIR TRACE TICK -- CLI_ARGS...", file=sys.stderr)
        return 64
    started = time.monotonic()
    src, probe_dir, trace = os.path.abspath(argv[0]), argv[1], argv[2] == "1"
    tick_every = int(argv[3])
    sys.path.insert(0, src)
    import gcdcluster
    from gcdcluster import cli
    imported = time.monotonic()

    if not os.path.abspath(gcdcluster.__file__).startswith(src + os.sep):
        print(f"probe: gcdcluster imported from {gcdcluster.__file__}, not {src}",
              file=sys.stderr)
        return 70
    probe = Probe(probe_dir, trace, tick_every)
    if not trace:
        probe.ticks += [started, imported]
    probe.install()
    try:
        return cli.main(argv[5:])
    finally:
        sys.stdout.flush()
        probe.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
