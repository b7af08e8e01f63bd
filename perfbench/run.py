"""End-to-end benchmark of the gcdcluster CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--smoke]     # every workload, a table

Run it from the root of a source checkout: the CLI is imported from ``src/``
there.  Each run starts fresh CLI processes one after another, as a user
would (``verify`` or ``greedy`` with the sieve sized by the CLI itself),
captures stdout and checks it against values computed in ``checks.py``,
until ``--seconds`` have passed (at least three processes, one with
``--smoke``).

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json over the run's processes:

* ``wall_s``          process start to exit, as the sum over fixed
                      segments of the work of the fastest time any process
                      of the run took for that segment (see ``end_to_end``);
* ``setup_s``         process start to the first integer processed
                      (interpreter, imports, prime table), median;
* ``throughput_ips``  integers of the input range per second after set-up,
                      computed like ``wall_s``;
* ``peak_rss_mb``     peak resident memory of the CLI process, median.

With ``--trace 1`` the run alternates untraced and traced processes and
reports the per-layer metrics of BENCHMARK.json from the traced ones (see
``probe.py``; ``layer_map.json`` says which end-to-end metric each should
move).  The line before the result describes the environment.  A failed
output check makes ``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from statistics import median, median_low

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402

FIRST_IRREGULAR = 111_546_435  # the single anomaly, (n, expected_j, chosen_j) = (n, 2, 1)
RUN_DEADLINE_S = 170           # a run must end within 180 s
SAMPLED_RECORDS = 100          # JSONL records recomputed per run, chosen by the seed
WORK_DIR = ".perfbench_work"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str     # "verify" or "greedy"
    size: int        # N of the prefix [2, N], or W of the window
    smoke_size: int
    window: bool = False
    tick_every: int = 0  # factorize calls per timed segment

    def inputs(self, seed: int, smoke: bool) -> "Inputs":
        size = self.smoke_size if smoke else self.size
        if self.command == "greedy":
            return Inputs(["greedy", "--n", str(size), "--mode", "accelerated"],
                          2, size, 0, [])
        if self.window:
            # the seed only moves the window; it always holds FIRST_IRREGULAR
            start = FIRST_IRREGULAR - random.Random(seed).randrange(size)
            stop = start + size - 1
        else:
            start, stop = 2, size
        args = ["verify", "--from", str(start), "--to", str(stop)]
        anomalies = [[FIRST_IRREGULAR, 2, 1]] if start <= FIRST_IRREGULAR <= stop else []
        return Inputs(args, start, stop, 1 if anomalies else 0, anomalies)


@dataclass
class Inputs:
    args: list[str]
    start: int
    stop: int
    exit_code: int
    anomalies: list[list[int]]


WORKLOADS = {w.name: w for w in (
    Workload("verify-low", "verify", 50_000, 2_000, tick_every=100),
    Workload("verify-high", "verify", 2_500, 200, window=True, tick_every=10),
    Workload("greedy", "greedy", 100_000, 2_000, tick_every=250),
)}


@dataclass
class Proc:
    traced: bool
    wall_s: float
    setup_s: float | None
    rss_mb: float
    exit_code: int
    out: str
    probe_dir: str
    limits: list[int]
    segments: list[float]   # durations between consecutive ticks, t0 to t1
    setup_segments: int     # how many of them end by the end of set-up
    problems: list[str] = field(default_factory=list)


class Expected:
    """Reference values for one run's inputs, computed before any timing."""

    def __init__(self, workload: Workload, inputs: Inputs, seed: int):
        self.workload = workload
        self.inputs = inputs
        self.reference_out: str | None = None
        if workload.command == "greedy":
            self.labels = checks.canonical_labels(inputs.stop)
            self.composites = checks.odd_composites(3, inputs.stop)
            return
        self.composites = checks.odd_composites(inputs.start, inputs.stop)
        pool = self.composites.tolist()
        picks = random.Random(seed).sample(pool, min(SAMPLED_RECORDS, len(pool)))
        self.sample = sorted(set(picks) | {a[0] for a in inputs.anomalies})
        self.referee = checks.DeltaReferee(inputs.stop)

    def check(self, proc: Proc) -> list[str]:
        problems = []
        if proc.exit_code != self.inputs.exit_code:
            problems.append(f"exit code {proc.exit_code}, expected {self.inputs.exit_code}")
        if proc.setup_s is None:
            problems.append("no sweep started")
        if self.reference_out is not None and proc.out == self.reference_out:
            return problems  # byte-identical to an output checked in full
        if self.workload.command == "greedy":
            problems += checks.check_greedy_csv(proc.out, self.inputs.stop, self.labels)
        else:
            try:
                records, summary = checks.parse_verify_output(proc.out)
            except ValueError as exc:
                return problems + [f"unparsable output: {exc}"]
            problems += checks.check_verify_output(
                records, summary, self.inputs.start, self.inputs.stop, self.composites,
                self.inputs.anomalies)
            problems += checks.check_records(records, self.sample, self.referee)
        if not problems:
            self.reference_out = proc.out
        return problems


def run_process(root: str, work: str, args: list[str], traced: bool, tick_every: int,
                timeout: float) -> Proc:
    probe_dir = tempfile.mkdtemp(dir=work)
    out_path = os.path.join(probe_dir, "stdout")
    result_path = os.path.join(probe_dir, "spawn.json")
    env = {k: v for k, v in os.environ.items() if k != "GCDCLUSTER_CACHE_DIR"}
    cmd = [sys.executable, os.path.join(HERE, "spawn.py"), result_path, str(timeout),
           out_path, os.path.join(probe_dir, "stderr"), "--",
           sys.executable, os.path.join(HERE, "probe.py"), os.path.join(root, "src"),
           probe_dir, "1" if traced else "0", str(tick_every), "--", *args]
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=timeout + 10)
    with open(result_path) as fh:
        spawned = json.load(fh)
    marks = _read_lines(os.path.join(probe_dir, "marks"))
    with open(out_path) as fh:
        text = fh.read()
    t0, t1 = spawned["t0"], spawned["t1"]
    setup_end = min(float(m) for m in marks) if marks else None
    ticks = [float(x) for x in _read_lines(os.path.join(probe_dir, "ticks"))]
    bounds = sorted([t0, *([setup_end] if marks else []), *ticks, t1])
    return Proc(traced=traced, wall_s=t1 - t0,
                setup_s=setup_end - t0 if marks else None,
                rss_mb=spawned["maxrss_kb"] * 1024 / 1e6, exit_code=spawned["exit"],
                out=text, probe_dir=probe_dir,
                limits=[int(x) for x in _read_lines(os.path.join(probe_dir, "limits"))],
                segments=[b - a for a, b in zip(bounds, bounds[1:])],
                setup_segments=bounds.index(setup_end) if marks else 0)


def _read_lines(path: str) -> list[str]:
    try:
        with open(path) as fh:
            return fh.read().split()
    except FileNotFoundError:
        return []


def end_to_end(procs: list[Proc], inputs: Inputs) -> dict[str, float]:
    """End-to-end figures over the run's plain processes that passed their checks.

    Every process of a run does the same work and is cut at the same points
    of it (the ticks of ``probe.py`` and the end of set-up), so segment k
    means the same work in each.  On a shared host other tenants slow the
    processor by up to half, in spells of a second or more: far longer than
    a segment and shorter than a run.  The fastest time of each segment
    across the run's processes (sweep segments last a few milliseconds) is
    therefore a steady figure of the program's own speed: wall_s is the sum
    of those, and throughput_ips divides the integers by the sum after
    set-up.  setup_s and peak_rss_mb are medians over the processes.
    """
    ok = [p for p in procs if not p.traced and not p.problems]
    if not ok:
        return {}
    integers = inputs.stop - inputs.start + 1
    fastest = [min(column) for column in zip(*(p.segments for p in ok))]
    return {
        "wall_s": sum(fastest),
        "setup_s": median(p.setup_s for p in ok),
        "throughput_ips": integers / sum(fastest[ok[0].setup_segments:]),
        "peak_rss_mb": median(p.rss_mb for p in ok),
    }


def per_layer(proc: Proc, expected: Expected) -> dict[str, float]:
    """Per-layer figures of one traced process."""
    spans: dict[str, list[float]] = {}
    counters: dict[str, list[int]] = {}
    samples: list[float] = []
    table_bytes: list[int] = []
    for name in os.listdir(proc.probe_dir):
        if not name.startswith("trace-") or not name.endswith(".json"):
            continue
        with open(os.path.join(proc.probe_dir, name)) as fh:
            rec = json.load(fh)
        for span, agg in rec["spans"].items():
            acc = spans.setdefault(span, [0, 0.0, 0.0])
            for k in range(3):
                acc[k] += agg[k]
        for key, value in rec["counters"].items():
            counters.setdefault(key, []).append(value)
        samples += rec["samples"].get("greedy.verify_single", [])
        table_bytes += rec["table_bytes"]
    memo_keys = [np.load(os.path.join(proc.probe_dir, name))
                 for name in os.listdir(proc.probe_dir) if name.startswith("memo-")]
    memo = np.unique(np.concatenate(memo_keys)) if memo_keys else np.zeros(0)

    def calls(name):
        return spans.get(name, [0, 0.0, 0.0])[0]

    def self_s(name):
        return spans.get(name, [0, 0.0, 0.0])[2]

    if expected.workload.command == "greedy":
        checked = len(expected.composites)
    else:
        checked = json.loads(proc.out.splitlines()[-1])["summary"]["checked"]
    integers = expected.inputs.stop - expected.inputs.start + 1
    single_us = np.array(samples) * 1e6
    factorize_calls = calls("primes.factorize")
    return {
        "primes.build_s": spans.get("primes.build", [0, 0.0])[1],
        "primes.table_mb": max(table_bytes, default=0) / 1e6,
        "primes.factorize.calls": factorize_calls,
        "primes.factorize.spf_share":
            sum(counters.get("factorize_spf", [0])) / factorize_calls if factorize_calls else 0.0,
        "primes.factorize.self_s": self_s("primes.factorize"),
        "primes.pi.calls": calls("primes.pi"),
        "primes.pi.self_s": self_s("primes.pi"),
        "primes.prime_index.calls": calls("primes.prime_index"),
        "primes.prime_index.self_s": self_s("primes.prime_index"),
        "counts.tally_diff.calls": calls("counts.tally_diff"),
        "counts.tally_diff.self_s": self_s("counts.tally_diff"),
        "counts.tally_diff.per_check": calls("counts.tally_diff") / checked if checked else 0.0,
        "counts.class_size.calls": calls("counts.class_size"),
        "counts.class_size.self_s": self_s("counts.class_size"),
        "counts.tally_even.calls": calls("counts.tally_even"),
        "counts.phi_memo.entries": len(memo),
        "greedy.checked": checked,
        "greedy.auto_passed": integers - checked,
        "greedy.verify_single.calls": calls("greedy.verify_single"),
        "greedy.verify_single.self_s": self_s("greedy.verify_single"),
        "greedy.verify_single.p50_us":
            float(np.percentile(single_us, 50)) if len(single_us) else 0.0,
        "greedy.verify_single.p99_us":
            float(np.percentile(single_us, 99)) if len(single_us) else 0.0,
        "greedy.record_json.self_s": self_s("greedy.record_json"),
        "greedy.run_accelerated.self_s": self_s("greedy.run_accelerated"),
        "partition.csv.self_s": self_s("partition.csv"),
        "cli.stdout_mb": len(proc.out.encode()) / 1e6,
    }


def run_workload(root: str, work: str, workload: Workload, seed: int,
                 seconds: float, trace: bool, smoke: bool, log) -> dict:
    inputs = workload.inputs(seed, smoke)
    expected = Expected(workload, inputs, seed)
    min_rounds = 1 if smoke or trace else 3
    procs: list[Proc] = []
    layers: list[dict[str, float]] = []
    t_start = time.monotonic()
    rounds = 0
    while True:
        round_start = time.monotonic()
        for traced in ((False, True) if trace else (False,)):
            elapsed = time.monotonic() - t_start
            proc = run_process(root, work, inputs.args, traced, workload.tick_every,
                               max(5.0, RUN_DEADLINE_S - elapsed))
            proc.problems = expected.check(proc)
            plain = [p for p in procs if not p.traced]
            shape = (len(proc.segments), proc.setup_segments)
            if not traced and plain and shape != (len(plain[0].segments),
                                                  plain[0].setup_segments):
                proc.problems.append(f"timed segments (all, set-up) {shape} differ "
                                     "from the run's first process")
            procs.append(proc)
            if traced and not proc.problems:
                layers.append(per_layer(proc, expected))
            setup = "-" if proc.setup_s is None else f"{proc.setup_s:.3f}"
            log(f"{workload.name} {'traced' if traced else 'plain '} "
                f"wall {proc.wall_s:.3f} s setup {setup} s "
                f"rss {proc.rss_mb:.1f} MB exit {proc.exit_code}"
                + (f" FAILED: {'; '.join(proc.problems)}" if proc.problems else ""))
            shutil.rmtree(proc.probe_dir)
            proc.out = ""
        rounds += 1
        elapsed = time.monotonic() - t_start
        # start another round only if it should end within the run's seconds
        if rounds >= min_rounds and elapsed + (time.monotonic() - round_start) > seconds:
            break
        if any(p.problems for p in procs) or elapsed > RUN_DEADLINE_S / 2:
            break
    failed = sum(1 for p in procs if p.problems)
    if trace:
        # median_low: a value one traced process measured, counts stay integers
        metrics = {name: median_low(layer[name] for layer in layers)
                   for name in (layers[0] if layers else {})}
        plain = [p.wall_s for p in procs if not p.traced and not p.problems]
        traced = [p.wall_s for p in procs if p.traced and not p.problems]
        if plain and traced:
            metrics["trace.overhead"] = median(traced) / median(plain)
    else:
        metrics = end_to_end(procs, inputs)
    return {"attempted": len(procs), "failed": failed, "metrics": metrics,
            "limits": sorted({x for p in procs for x in p.limits})}


def environment(root: str, workload: str, seed: int, result: dict, smoke: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "smoke": smoke,
        "cores": os.cpu_count(),
        "memory_gb": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 1e9, 2),
        "python": platform.python_version(), "numpy": np.__version__,
        "commit": git_commit(root), "table_limits": result["limits"],
    }


def git_commit(root: str) -> str | None:
    """HEAD of the checkout, read from .git without running git; None if absent."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.strip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, one round per run: a quick self-check")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gcdcluster", "cli.py")):
        print(f"perfbench: no gcdcluster source under {root}/src; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def log(msg):
        print(msg, file=sys.stderr, flush=True)

    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(root, WORK_DIR))
    try:
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        results = {name: run_workload(root, work, WORKLOADS[name], args.seed, seconds,
                                      bool(args.trace), args.smoke, log)
                   for name in names}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, WORK_DIR))
        except OSError:
            pass

    if args.workload == "all":
        return print_table(results, wanted)
    result = results[args.workload]
    print(json.dumps({"env": environment(root, args.workload, args.seed, result,
                                         args.smoke)}))
    correct = result["failed"] == 0
    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            correct = False
            log(f"perfbench: metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": result["metrics"][m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


def print_table(results: dict, wanted: list[dict]) -> int:
    status = 0
    for name, result in results.items():
        ratio = result["failed"] / result["attempted"]
        rows = [(m["name"], result["metrics"].get(m["name"]), m["unit"]) for m in wanted]
        rows.append(("failed_ratio", ratio, "ratio"))
        for metric, value, unit in rows:
            shown = "missing" if value is None else f"{value:.6g}"
            print(f"{name:14s} {metric:32s} {shown:>14s} {unit}")
        if result["failed"] or any(value is None for _, value, _ in rows):
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
