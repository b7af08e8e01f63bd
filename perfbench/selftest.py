"""Self-test of the benchmark on its smoke setting.

    python3 -m pytest -q perfbench/selftest.py      # from the repository root

The file name keeps it out of the package's own test collection: it runs the
smoke setting of every workload (tiny N and W, one round per run), which
still builds the CLI's full sieve for the windows near 111546435.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from math import gcd

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT_COUNTS = ("primes.factorize.calls", "primes.pi.calls", "primes.prime_index.calls",
                "counts.tally_diff.calls", "counts.tally_diff.per_check",
                "counts.class_size.calls", "counts.tally_even.calls",
                "counts.phi_memo.entries", "greedy.checked", "greedy.auto_passed",
                "greedy.verify_single.calls")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def smoke(workload, trace, cwd=ROOT, seed=3):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def test_benchmark_json_shape():
    s = spec()
    assert set(s) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                      "per_layer"}
    assert [w["name"] for w in s["workloads"]] == list(run.WORKLOADS)
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    names += [w["name"] for w in s["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in s["end_to_end"] + s["per_layer"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in s["workloads"])
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    with open(os.path.join(HERE, "layer_map.json")) as fh:
        mapped = [e["metric"] for e in json.load(fh)["per_layer"]]
    assert mapped == [m["name"] for m in s["per_layer"]]


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_end_to_end(workload):
    env, res = result_of(smoke(workload, 0))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [m["name"] for m in spec()["end_to_end"]]
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert env["table_limits"] and env["seed"] == 3


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_smoke_traced_counts_repeat(workload):
    first = result_of(smoke(workload, 1))[1]
    second = result_of(smoke(workload, 1))[1]
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [m["name"] for m in spec()["per_layer"]]
    assert ({m: first["metrics"][m]["value"] for m in EXACT_COUNTS}
            == {m: second["metrics"][m]["value"] for m in EXACT_COUNTS})


def test_fails_without_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = smoke("verify-low", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_referee_matches_gcd_scan():
    referee = checks.DeltaReferee(3000)
    primes = checks.primes_upto(3000).tolist()
    spf = checks.spf_upto(3000)
    for n in (9, 15, 105, 221, 1155, 2001, 2737, 2993):
        if spf[n] == n:
            continue
        i, deltas = referee.deltas(n)
        assert primes[i - 1] == spf[n]
        for j, delta in deltas.items():
            members = [m for m in range(2, n) if spf[m] == primes[j - 1]]
            friends = sum(1 for m in members if gcd(m, n) > 1)
            assert delta == 2 * friends - len(members)


def test_checks_reject_wrong_output():
    inputs = run.WORKLOADS["verify-low"].inputs(0, smoke=True)
    expected = run.Expected(run.WORKLOADS["verify-low"], inputs, 0)
    composites = expected.composites
    n = int(composites[5])
    i, deltas = expected.referee.deltas(n)
    good = {"n": n, "spf_index": i, "deltas": {str(j): d for j, d in deltas.items()},
            "chosen_j": i, "expected_j": i, "status": "pass"}
    bad = dict(good, deltas={**good["deltas"], str(i): deltas[i] + 1})
    for rec, ok in ((good, True), (bad, False)):
        assert (checks.check_records([rec], [n], expected.referee) == []) is ok
    summary = {"from": 2, "to": 2000, "checked": len(composites) - 1,
               "auto_passed": 0, "anomalies": [], "unverified": [], "all_pass": True}
    assert checks.check_verify_output([], summary, 2, 2000, composites, [])
    with pytest.raises(ValueError):
        checks.parse_verify_output(json.dumps(good))
    labels = checks.canonical_labels(50)
    rows = "".join(f"{m},{c}\n" for m, c in zip(range(2, 51), labels))
    assert checks.check_greedy_csv("integer,class\n" + rows, 50, labels) == []
    assert checks.check_greedy_csv("integer,class\n" + rows.replace("49,4", "49,1"),
                                   50, labels)


def test_end_to_end_sums_fastest_segments():
    def proc(segments, setup_segments=2, **kw):
        return run.Proc(traced=False, wall_s=sum(segments),
                        setup_s=sum(segments[:setup_segments]), rss_mb=10.0,
                        exit_code=0, out="", probe_dir="", limits=[],
                        segments=segments, setup_segments=setup_segments, **kw)

    procs = [proc([1.0, 2.0, 3.0, 4.0]), proc([2.0, 1.0, 4.0, 1.0]),
             proc([0.5, 0.5, 0.5, 0.5], problems=["wrong output"])]
    inputs = run.Inputs([], 2, 101, 0, [])
    metrics = run.end_to_end(procs, inputs)
    assert metrics["wall_s"] == 1.0 + 1.0 + 3.0 + 1.0
    assert metrics["throughput_ips"] == 100 / (3.0 + 1.0)
    assert metrics["setup_s"] == 3.0  # median of 3.0 and 3.0
    assert metrics["peak_rss_mb"] == 10.0


def test_plain_process_is_cut_into_segments(tmp_path):
    workload = run.WORKLOADS["verify-low"]
    inputs = workload.inputs(0, smoke=True)
    proc = run.run_process(ROOT, str(tmp_path), inputs.args, False,
                           workload.tick_every, 60)
    odd = (inputs.stop - inputs.start + 1) // 2
    # interpreter, imports, then up to set-up end; one per tick after it
    assert proc.setup_segments >= 3
    assert len(proc.segments) >= proc.setup_segments + odd // workload.tick_every
    assert abs(sum(proc.segments) - proc.wall_s) < 1e-9
