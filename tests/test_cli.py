"""CLI surface: formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from gcdcluster import (build_prime_table, canonical_partition, cli, count_conflicts, greedy,
                        partition_to_csv, primes)
from gcdcluster.cli import main
from gcdcluster.thresholds import n1_table
from oracles import naive_spf
from test_greedy import class_1_wins_at

FIRST_IRREGULAR = 111546435


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_greedy_modes_byte_identical(capsys):
    code1, out1, _ = run_cli(capsys, "greedy", "--n", "15", "--mode", "reference")
    code2, out2, _ = run_cli(capsys, "greedy", "--n", "15", "--mode", "accelerated")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("integer,class\n2,1\n")
    assert "15,2" in out1


def test_greedy_base_case(capsys):
    code, out, _ = run_cli(capsys, "greedy", "--n", "2")
    assert code == 0
    assert out == "integer,class\n2,1\n"


def test_greedy_json(capsys):
    code, out, _ = run_cli(capsys, "greedy", "--n", "15", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["classes"]["2"] == [3, 9, 15]
    assert doc["conflicts"] == 10
    assert doc["anomalies"] == []


def test_greedy_json_classes_in_label_order(capsys, table):
    code, out, _ = run_cli(capsys, "greedy", "--n", "3000", "--format", "json")
    assert code == 0
    part = greedy.run_accelerated(3000, table).partition
    classes = {}
    for m in range(2, 3001):
        classes.setdefault(part.label(m), []).append(m)
    got = json.loads(out)["classes"]
    assert got == {str(c): ms for c, ms in classes.items()}
    assert list(got) == [str(c) for c in sorted(classes)]  # in increasing class id


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_greedy_anomaly_exit_1(capsys, monkeypatch, fmt):
    class_1_wins_at(105, monkeypatch)
    st = greedy.run_accelerated(300, build_prime_table(1000))
    code, out, err = run_cli(capsys, "greedy", "--n", "300", "--format", fmt)
    assert code == 1
    assert err == ("greedy: anomaly at n=105 (class 1 beat class 2); "
                   "the 195 integers after it are unverified\n")
    if fmt == "csv":
        assert out == partition_to_csv(st.partition)
    else:
        doc = json.loads(out)
        assert doc["anomalies"] == [[105, 2, 1]]
        assert doc["conflicts"] == st.conflicts
        assert 105 in doc["classes"]["1"]


@pytest.mark.parametrize("argv", [("--n", "100", "--guard", "5"),
                                  ("--n", "100", "--mode", "accelerated", "--guard", "100000")])
def test_greedy_usage_exit_64(capsys, monkeypatch, argv):
    # the accelerated greedy has no guard; refused before any table
    limits = record_table_limits(monkeypatch)
    code, out, err = run_cli(capsys, "greedy", *argv)
    assert code == 64
    assert out == ""
    assert err == "greedy: --guard applies only to --mode reference\n"
    assert limits == []


def test_greedy_reference_guard_exit_2(capsys):
    code, out, err = run_cli(capsys, "greedy", "--n", "200000", "--mode", "reference")
    assert code == 2
    assert "refused" in err


def test_verify_small_range(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", "2", "--to", "2000")
    assert code == 0
    lines = out.strip().split("\n")
    summary = json.loads(lines[-1])["summary"]
    assert summary["all_pass"] is True
    first = json.loads(lines[0])
    assert first["n"] == 9 and first["status"] == "pass"


def test_verify_at_first_irregular_exit_1(capsys):
    code, out, _ = run_cli(capsys, "verify", "--from", str(FIRST_IRREGULAR),
                           "--to", str(FIRST_IRREGULAR))
    assert code == 1
    lines = out.strip().split("\n")
    rec = json.loads(lines[0])
    assert rec["status"] == "fail"
    assert rec["chosen_j"] == 1 and rec["expected_j"] == 2
    summary = json.loads(lines[-1])["summary"]
    assert summary["anomalies"] == [[FIRST_IRREGULAR, 2, 1]]


def test_verify_bad_range_exit_64(capsys):
    code, _, err = run_cli(capsys, "verify", "--from", "5", "--to", "4")
    assert code == 64
    assert "bad range" in err


def record_table_limits(monkeypatch, table=None):
    """Make ``cli.build_prime_table`` log each limit asked for; return the log.
    With ``table`` given, that table stands in for every build."""
    limits = []
    build = cli.build_prime_table

    def recording_build(limit, *args, **kwargs):
        limits.append(limit)
        return table if table is not None else build(limit, *args, **kwargs)

    monkeypatch.setattr(cli, "build_prime_table", recording_build)
    return limits


def test_verify_default_table_size(capsys, monkeypatch, table):
    start, stop = 111546000, 111546500
    limits = record_table_limits(monkeypatch, table)
    code, _, _ = run_cli(capsys, "verify", "--from", str(start), "--to", str(stop))
    assert code == 1
    # the window starts above the SPF limit, so the table is not widened to
    # it: the pi horizon, the least L with L ** 3 >= stop ** 2 (above isqrt(stop))
    assert limits == [231724]
    assert 231723 ** 3 < stop ** 2 <= 231724 ** 3


def test_verify_above_spf_limit_sieves_no_spf(capsys, monkeypatch):
    # every integer of this window is above the SPF limit and is factored by
    # trial division, so the table never sieves its SPF array
    sieved = []
    sieve = primes._sieve_spf
    monkeypatch.setattr(primes, "_sieve_spf",
                        lambda limit: sieved.append(limit) or sieve(limit))
    code, _, _ = run_cli(capsys, "verify", "--from", "111546000", "--to", "111546500")
    assert code == 1
    assert sieved == []


def test_verify_workers_deterministic(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code1, out1, _ = run_cli(capsys, "verify", "--from", "2", "--to", "3000")
    out_path = tmp_path / "w2.jsonl"
    code2 = main(["verify", "--from", "2", "--to", "3000", "--workers", "2",
                  "--out", str(out_path)])
    capsys.readouterr()
    assert code1 == code2 == 0
    assert out_path.read_text() == out1


def test_verify_workers_match_serial_near_1e8(capsys, monkeypatch, tmp_path):
    # each chunk opens its own class sizes where it starts
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["verify", "--from", "111546300", "--to", "111546600"]
    code1, out1, _ = run_cli(capsys, *argv)
    out_path = tmp_path / "w2.jsonl"
    code2 = main(argv + ["--workers", "2", "--out", str(out_path)])
    capsys.readouterr()
    assert code1 == code2 == 1
    assert out_path.read_text() == out1


@pytest.mark.parametrize("argv", [("verify", "--from", "2", "--to", "3000"),
                                  ("greedy", "--n", "3000")])
@pytest.mark.parametrize("where", ["directory", "missing parent"])
def test_out_that_cannot_be_opened_exit_64(capsys, monkeypatch, tmp_path, argv, where):
    # refused as a usage error in one stderr line, before any table or sweep
    limits = record_table_limits(monkeypatch)
    path = tmp_path if where == "directory" else tmp_path / "missing" / "x.out"
    code, out, err = run_cli(capsys, *argv, "--out", str(path))
    assert (code, out, limits) == (64, "", [])
    assert err.startswith(f"{argv[0]}: cannot open --out {path}: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv", [("verify", "--from", "2", "--to", "3000"),
                                  ("greedy", "--n", "3000", "--format", "json")])
def test_out_holds_the_stdout_bytes(capsys, tmp_path, argv):
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "x.out"))
    assert code1 == code2 == 0 and out2 == ""
    assert (tmp_path / "x.out").read_text() == out1


@pytest.mark.parametrize("start, stop, code", [(2, 3000, 0),
                                               (111546300, 111546600, 1)])
def test_verify_small_chunks_match_one_chunk(capsys, monkeypatch, start, stop, code):
    # spans of 97 integers from --from: every chunk opens its own class sizes
    # and memo, both paths print one progress line per chunk, and the output
    # is the one-chunk serial run's, byte for byte
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    argv = ["verify", "--from", str(start), "--to", str(stop)]
    code1, out1, _ = run_cli(capsys, *argv)
    assert code1 == code
    monkeypatch.setattr(greedy, "SPAN", 97)
    chunks = -(-(stop - start + 1) // 97)
    for workers in ("1", "2"):
        code2, out2, err = run_cli(capsys, *argv, "--workers", workers)
        assert (code2, out2) == (code1, out1)
        progress = [line for line in err.splitlines() if line.startswith("verify:")]
        assert len(progress) == chunks
        assert progress[-1].startswith(f"verify: at n={stop}, ")
    summary = json.loads(out1.splitlines()[-1])["summary"]
    assert summary["anomalies"] == ([[FIRST_IRREGULAR, 2, 1]] if code else [])


def test_map_ahead_keeps_k_plus_1_spans_in_flight():
    # a finished span waits in the parent until it is written; with K workers
    # at most K + 1 spans are submitted and not yet taken
    class Future:
        def __init__(self, pool, value):
            self.pool, self.value = pool, value

        def result(self):
            self.pool.in_flight -= 1
            return self.value

    class Pool:
        in_flight = peak = 0

        def submit(self, fn, item):
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
            return Future(self, fn(item))

    for workers, items in ((1, 10), (2, 7), (3, 2), (2, 0)):
        pool = Pool()
        taken = []
        for value in cli._map_ahead(pool, lambda x: x * x, range(items), workers + 1):
            taken.append(value)
            assert pool.in_flight <= workers  # plus the one being written
        assert taken == [x * x for x in range(items)]
        assert pool.peak == min(workers + 1, items) and pool.in_flight == 0


@pytest.mark.parametrize("workers", ["0", "-1", "3", "100000"])
def test_verify_workers_out_of_range_exit_64(capsys, monkeypatch, workers):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_worker_pool", no_pool)
    limits = record_table_limits(monkeypatch)
    code, out, err = run_cli(capsys, "verify", "--from", "2", "--to", "3000",
                             "--workers", workers)
    assert code == 64
    assert out == ""
    assert err == f"verify: --workers must be in [1, 2], got {workers}\n"
    assert limits == []  # refused before any sieve


def test_cli_import_leaves_out_the_process_pool():
    # only verify --workers K > 1 loads concurrent.futures.process (and
    # multiprocessing with it)
    code = ("import sys, gcdcluster.cli; "
            "sys.exit('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# The next tests run in a fresh interpreter: this one's heap is frozen at its
# first in-process ``main``, and it has loaded ``thresholds`` already.

def fresh_python(code: str) -> str:
    """Run ``code`` in a fresh interpreter; its stdout (``main``'s output included)."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_main_freezes_the_heap_once():
    # the first call freezes what the imports made; a second freezes nothing more
    out = fresh_python(
        "import gc; from gcdcluster import cli; assert gc.get_freeze_count() == 0; "
        "cli.main(['greedy', '--n', '100']); frozen = gc.get_freeze_count(); "
        "cli.main(['greedy', '--n', '100']); print(frozen, gc.get_freeze_count())")
    frozen, again = map(int, out.split("\n")[-2].split())
    assert frozen > 0
    assert again == frozen


def test_garbage_between_calls_is_not_frozen():
    # a cycle dropped between two calls is still collectable after the second;
    # automatic collection stays off until then, so that only a freeze could keep it
    out = fresh_python(
        "import gc, weakref; from gcdcluster import cli; cli.main(['greedy', '--n', '100']); "
        "gc.disable(); a, b = cli._UsageError(), cli._UsageError(); a.b, b.a = b, a; "
        "ref = weakref.ref(a); del a, b; cli.main(['greedy', '--n', '100']); "
        "gc.enable(); gc.collect(); print(ref() is None)")
    assert out.split("\n")[-2] == "True"


@pytest.mark.parametrize("argv, loaded", [
    (["greedy", "--n", "100"], False),
    (["verify", "--from", "2", "--to", "100"], False),
    (["conflicts", "--n", "105", "--to-class", "1"], False),
    (["n0", "--bound", "1000"], True),
])
def test_only_tables_and_n0_load_thresholds(argv, loaded):
    out = fresh_python(f"import sys; from gcdcluster import cli; cli.main({argv!r}); "
                       "print('gcdcluster.thresholds' in sys.modules)")
    assert out.split("\n")[-2] == str(loaded)


_EXPORTS = (  # every name the package exported when thresholds was imported eagerly
    "class_size coprime_count floor_identity_lhs_rhs DegenerateThresholdError GcdClusterError "
    "OutOfRangeError ResourceGuardError GreedyState VerifyRecord VerifyReport class_scores "
    "run_accelerated run_reference verify_range verify_single Partition canonical_partition "
    "count_conflicts exceptional_partition partition_to_csv read_partition_csv similar "
    "Factorization PrimeTable build_prime_table factorize rosser_schoenfeld_bounds totient "
    "FIRST_IRREGULAR CandidateCensus ThresholdRecord census_report census_three_factor "
    "even_class_criterion prime_count_inequality find_n0 n1_remark_candidate n1_table "
    "proposition_census table1_records three_factor_candidates __version__").split()


def test_package_exports_resolve_lazily():
    out = fresh_python(
        "import sys, gcdcluster; lazy = 'gcdcluster.thresholds' not in sys.modules; "
        f"from gcdcluster import {', '.join(_EXPORTS)}; "
        "from gcdcluster.thresholds import find_n0 as f, FIRST_IRREGULAR as n; "
        "assert (f, n) == (find_n0, FIRST_IRREGULAR) == (gcdcluster.find_n0, 111546435); "
        "unknown = [name for name in ('no_such_name', 'Fraction') if not hasattr(gcdcluster, name)]; "
        "print(lazy, gcdcluster.thresholds.__name__, unknown)")
    assert out == "True gcdcluster.thresholds ['no_such_name', 'Fraction']\n"
    out = fresh_python("import gcdcluster; print(gcdcluster.thresholds.FIRST_IRREGULAR)")
    assert out == "111546435\n"


def test_verify_golden_window_straddling_1e7(capsys, data_dir):
    code, out, _ = run_cli(capsys, "verify", "--from", "9999901", "--to", "10000100")
    assert code == 0
    assert out == (data_dir / "verify_9999901_10000100.jsonl").read_text()


def test_verify_golden_window_above_1e8(capsys, data_dir):
    code, out, _ = run_cli(capsys, "verify", "--from", "111546400", "--to", "111546500")
    assert code == 1
    assert out == (data_dir / "verify_111546400_111546500.jsonl").read_text()


def test_tables_n1_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "n1")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "i,p,t,n1,infeasible"
    assert len(lines) == 80
    assert "3,5,1,24,0" in lines
    assert "7,17,5,26186,1" in lines
    assert "19,67,2,97553073,0" in lines


def test_tables_n1_json_single_cell(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "n1", "--i", "4",
                           "--j", "3", "--t", "1", "--format", "json")
    assert code == 0
    docs = json.loads(out)
    assert docs == [{"i": 4, "j": 3, "t": 1, "n1": 93, "infeasible": False}]


def test_tables_n1_index_bound(capsys):
    # the table's rows stop at i = 20; a cell beyond them is computed with --t
    code, _, err = run_cli(capsys, "tables", "--which", "n1", "--i", "21")
    assert code == 64
    assert err == ("tables: i = 21 is outside the table's rows 3 <= i <= 20 "
                   "(pass --t to compute a cell)\n")
    code, out, _ = run_cli(capsys, "tables", "--which", "n1", "--i", "21", "--t", "1")
    assert code == 0 and out == "i,p,t,n1,infeasible\n21,73,1,297357385,0\n"


@pytest.mark.parametrize("i, t", [(14265, 1), (78496, 3), (78497, 3)])
def test_tables_n1_cell_past_int_digit_limit(capsys, monkeypatch, table, i, t):
    # n1 has more than 4300 digits from i = 14265 on (23,637 at i = 78496,
    # t = 3, the largest cell the 10^6 table holds); tables prints it exactly
    # and leaves the interpreter's limit as it found it.  The 10^6 table ends
    # at p_78498 = 999983, so for i + t - 1 = 78499 it doubles once
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    want = n1_table(i, i - 1, t, table)
    limits = record_table_limits(monkeypatch)
    code, out, _ = run_cli(capsys, "tables", "--which", "n1", "--i", str(i), "--t", str(t))
    assert code == 0
    code_json, out_json, _ = run_cli(capsys, "tables", "--which", "n1", "--i", str(i),
                                     "--t", str(t), "--format", "json")
    assert code_json == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    doubled = [cli.TABLES_LIMIT, 2 * cli.TABLES_LIMIT][: 1 + (i + t - 1 > 78498)]
    assert limits == 2 * doubled
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        _, row = out.splitlines()
        assert row == f"{i},{table.prime(i)},{t},{want.n1},{int(want.infeasible)}"
        assert len(str(want.n1)) > 4300
        assert json.loads(out_json) == [want.__dict__]
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


def test_tables_census_csv(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "census")
    assert code == 0
    assert out == ("p,count\n19,4\n23,18\n29,65\n31,216\n37,513\n41,1302\n43,3097\n")


def test_tables_census_beyond_default_table(capsys, monkeypatch):
    # every r of 19 * q * r below 10^6 is at most 999999 // (19 * 23) = 2288
    monkeypatch.setattr(cli, "TABLES_LIMIT", 1000)
    limits = record_table_limits(monkeypatch)
    code, out, _ = run_cli(capsys, "tables", "--which", "census", "--p", "19",
                           "--bound", "1000000")
    qr = range(23 * 29, 999999 // 19 + 1)  # q * r with 19 < q < r prime
    want = sum(1 for m in qr if 19 < (q := naive_spf(m)) < m // q == naive_spf(m // q))
    assert code == 0
    assert limits == [2288]
    assert out == f"p,count\n19,{want}\n"


@pytest.mark.parametrize("p,limit", [(997, 1013), (1009, 1019)])
def test_tables_census_default_bound_near_table_end(capsys, monkeypatch, p, limit):
    # the default bound n1(i, i-1, 3) reads the two primes after p, past
    # the 1000 table for p = 997 and p itself for p = 1009
    monkeypatch.setattr(cli, "TABLES_LIMIT", 1000)
    limits = record_table_limits(monkeypatch)
    code, out, _ = run_cli(capsys, "tables", "--which", "census", "--p", str(p))
    assert code == 0
    assert limits == [limit]
    assert out == f"p,count\n{p},0\n"


@pytest.mark.parametrize("argv", [
    ("--which", "census", "--p", "20"),
    ("--which", "census", "--p", "20", "--bound", "1000000"),
    ("--which", "n1", "--i", "3", "--j", "5", "--t", "1"),
    ("--which", "n1", "--i", "21"),
    # options that the chosen path would drop unread
    ("--which", "n1", "--i", "5", "--j", "2"),  # --j is read only with --t
    ("--which", "n1", "--t", "1"),
    ("--which", "n1", "--j", "2", "--t", "1"),
    # a composite --p, by trial division before a sieve sized from it
    ("--which", "census", "--p", "4"),
    ("--which", "census", "--p", "9", "--bound", "10000000000"),
    ("--which", "n1", "--p", "19"),
    ("--which", "n1", "--i", "5", "--bound", "1000"),
    ("--which", "census", "--p", "1000001"),
    ("--which", "census", "--i", "5"),
    ("--which", "census", "--p", "19", "--t", "1"),
    ("--which", "census", "--p", "25", "--bound", "1000"),
    ("--which", "census", "--bound", "1000000"),
    ("--which", "n1", "--i", "78496"),  # the table's rows stop at i = 20
    # the table's rows start at i = 3; only a cell (--t) is scored below
    ("--which", "n1", "--i", "2"),
    ("--which", "n1", "--i", "0"),
    ("--which", "n1", "--i", "-5"),
    # no prime below 2, and 2's default bound needs a class below its own
    ("--which", "census", "--p", "0"),
    ("--which", "census", "--p", "1"),
    ("--which", "census", "--p", "-5"),
    ("--which", "census", "--p", "2"),
    # a cell n1(i, j, t) needs i > j >= 1 and t >= 1, checked before any table
    ("--which", "n1", "--i", "3", "--j", "3", "--t", "1"),
    ("--which", "n1", "--i", "3", "--j", "0", "--t", "1"),
    ("--which", "n1", "--i", "1", "--t", "1"),  # the default j = i - 1 = 0
    ("--which", "n1", "--i", "3", "--j", "2", "--t", "0"),
    ("--which", "n1", "--i", "3", "--t", "-1"),
])
def test_tables_usage_exit_64(capsys, monkeypatch, argv):
    limits = record_table_limits(monkeypatch)
    code, out, err = run_cli(capsys, "tables", *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("tables: ") and err.count("\n") == 1
    assert limits == []
    if argv[:3] == ("--which", "census", "--p") and "--t" not in argv:
        assert err == f"tables: --p must be a prime >= 3, or 2 with --bound, got {argv[3]}\n"
    if "--t" in argv and int(argv[argv.index("--t") + 1]) < 1:
        assert "--t" in err
    elif argv[:2] == ("--which", "n1") and "--t" in argv and "--i" in argv:
        assert "--j" in err


def test_tables_census_of_2_with_bound(capsys):
    # 2 * q * r < 1000 with 2 < q < r prime: 2 has no default bound, an explicit one works
    code, out, _ = run_cli(capsys, "tables", "--which", "census", "--p", "2", "--bound", "1000")
    assert code == 0
    assert out == "p,count\n2,93\n"


def test_tables_census_json_residuals(capsys):
    code, out, _ = run_cli(capsys, "tables", "--which", "census", "--p", "67",
                           "--format", "json")
    rows = json.loads(out)
    assert code == 0 and [r["p"] for r in rows] == [67]
    assert rows[-1]["residual"] == rows[-1]["count"] - 90338 == -1540


def test_tables_census_bound_compares_nothing(capsys):
    # an explicit bound is not the reported count's reading, even where it
    # equals p = 19's calibrated bound n1(8, 7, 3) = 17815
    code, out, _ = run_cli(capsys, "tables", "--which", "census", "--p", "19",
                           "--bound", "17815", "--format", "json")
    assert code == 0
    assert json.loads(out) == [{"p": 19, "bound": 17815, "count": 4,
                                "reported": None, "residual": None}]


def test_n0_search(capsys):
    code, out, _ = run_cli(capsys, "n0")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"bound": 200000000, "found": True, "value": FIRST_IRREGULAR}
    code, out, _ = run_cli(capsys, "n0", "--bound", "1000000")
    assert json.loads(out)["found"] is False


def test_conflicts_count(capsys):
    code, out, _ = run_cli(capsys, "conflicts", "--n", "15")
    assert code == 0
    assert json.loads(out)["conflicts"] == 10


def test_conflicts_count_has_no_guard(capsys, monkeypatch):
    # the count is linear and unguarded: 200000 runs from one table of the
    # primes up to isqrt(200000) = 447, all its spans read
    limits = record_table_limits(monkeypatch)
    code, out, _ = run_cli(capsys, "conflicts", "--n", "200000")
    assert code == 0 and json.loads(out)["n"] == 200000
    assert limits == [447]


@pytest.mark.parametrize("argv", [("--n", "15", "--guard", "5"),
                                  ("--n", "105", "--to-class", "1", "--guard", "500")])
def test_conflicts_guard_option_unknown(capsys, monkeypatch, argv):
    # neither the count nor a move score takes --guard: argparse refuses it
    # before any table is built
    limits = record_table_limits(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["conflicts", *argv])
    assert exc.value.code == 64
    assert "unrecognized arguments: --guard" in capsys.readouterr().err
    assert limits == []


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(n=st.one_of(st.integers(2, 3000),
                   st.sampled_from([2 + 97 * k + d for k in range(1, 31) for d in (-1, 0, 1)])))
@example(n=2)
@example(n=98)  # the first span ends, a = 99 starts the next
@example(n=3000)
def test_conflicts_count_over_small_spans(capsys, monkeypatch, small_table, n):
    # spans of 97 integers: the count carries class sizes across span edges
    # and reaches the last, partial span; the referee labels [2, n] from one
    # smallest-prime-factor sieve and counts pair by pair
    monkeypatch.setattr(greedy, "SPAN", 97)
    code, out, _ = run_cli(capsys, "conflicts", "--n", str(n))
    assert code == 0
    want = count_conflicts(canonical_partition(n, small_table))
    assert out == f'{{"n": {n}, "clustering": "canonical", "conflicts": {want}}}\n'


@pytest.mark.parametrize("argv", [("verify", "--from", "2", "--to", "100"),
                                  ("greedy", "--n", "100")])
def test_memory_error_exit_2(capsys, monkeypatch, argv):
    def no_memory(limit):
        raise MemoryError("Unable to allocate the table")

    monkeypatch.setattr(cli, "build_prime_table", no_memory)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"refused: {argv[0]} ran out of memory: Unable to allocate the table\n"


def test_memory_error_in_a_worker_exit_2(capsys, monkeypatch):
    # each worker builds its table on its first span, so a failed allocation
    # comes back as that span's MemoryError, not as a broken pool; fork
    # carries the doctored build into the workers
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    def no_memory(limit):
        raise MemoryError("Unable to allocate the table")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "build_prime_table", no_memory)
    monkeypatch.setattr(cli, "_worker_pool",
                        lambda workers: ProcessPoolExecutor(workers, get_context("fork")))
    code, out, err = run_cli(capsys, "verify", "--from", "2", "--to", "100", "--workers", "2")
    assert code == 2
    assert out == ""
    assert err == "refused: verify ran out of memory: Unable to allocate the table\n"


@pytest.mark.parametrize("stop, argv", [
    (greedy.VERIFY_STOP_LIMIT, ("verify", "--from", "2", "--to")),
    (greedy.VERIFY_STOP_LIMIT + 1, ("verify", "--workers", "2", "--from", "2", "--to")),
    (greedy.VERIFY_STOP_LIMIT + 1, ("conflicts", "--to-class", "1", "--n")),
])
def test_beyond_int64_headroom_exit_64_before_any_table(capsys, monkeypatch, stop, argv):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was created")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(cli, "_worker_pool", no_pool)
    limits = record_table_limits(monkeypatch)
    code, out, err = run_cli(capsys, *argv, str(stop))
    assert code == 64
    assert out == ""
    assert err == (f"{argv[0]}: {stop} is not below {greedy.VERIFY_STOP_LIMIT}, "
                   "the int64 kernel's limit\n")
    assert limits == []


def test_conflicts_move_delta_at_scale(capsys):
    code, out, _ = run_cli(capsys, "conflicts", "--n", str(FIRST_IRREGULAR),
                           "--to-class", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == -686785
    assert doc["from_class"] == 2


# argv: the table limits built before the refusal
_CONFLICTS_REFUSED = {
    ("--n", "105", "--to-class", "7"): [105],  # 105 is in class 2
    ("--n", "105", "--to-class", "-1"): [],
    ("--n", "1", "--to-class", "1"): [],
    ("--n", "1"): [],
    ("--n", "10007", "--to-class", "1231"): [10007],  # a prime, class pi(10007) = 1230
    ("--n", "104", "--to-class", "1"): [],  # an even n has no move score
    ("--n", "1000000007", "--to-class", "50847536"): [1000001],  # pi(n) on its horizon table
}


@pytest.mark.parametrize("argv", list(_CONFLICTS_REFUSED))
def test_conflicts_out_of_range_exit_64(capsys, monkeypatch, argv):
    # refused before any class is scored, and a negative class before any sieve
    def no_scoring(*args):
        raise AssertionError("move_score ran")

    monkeypatch.setattr(greedy, "move_score", no_scoring)
    limits = record_table_limits(monkeypatch)
    code, out, err = run_cli(capsys, "conflicts", *argv)
    assert code == 64
    assert out == ""
    assert err.startswith("conflicts: ") and err.count("\n") == 1
    assert limits == _CONFLICTS_REFUSED[argv]


def test_conflicts_prime_beyond_default_table(capsys, monkeypatch):
    # above the SPF limit the first table is not widened to n: the pi horizon
    # of 10007, 465 ** 3 >= 10007 ** 2 > 464 ** 3, holds p_1 .. p_90.  A
    # prime's class index pi(n) = 1230 is read on it (Meissel), and classes
    # 1 .. j + 1 are read for its score, so the table is rebuilt up to n only
    # where p_{j+1} lies past it and j < 1230 (j = 1230 scores nothing)
    for j, built in ((0, [465]), (1, [465]), (2, [465]), (89, [465]), (90, [465, 10007]),
                     (1229, [465, 10007]), (1230, [465])):
        code, expected, _ = run_cli(capsys, "conflicts", "--n", "10007", "--to-class", str(j))
        with monkeypatch.context() as patch:
            patch.setattr(cli, "DEFAULT_SPF_LIMIT", 1000)
            limits = record_table_limits(patch)
            code2, out, _ = run_cli(capsys, "conflicts", "--n", "10007", "--to-class", str(j))
        assert code == code2 == 0
        assert limits == built, j
        assert out == expected
        assert json.loads(out)["from_class"] == 1230


def test_unknown_flag_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["greedy", "--bogus"])
    assert exc.value.code == 64
    capsys.readouterr()


def test_missing_subcommand_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 64
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("greedy", "--n", "10", "--limit", "1000"),
    ("--seed-cache", "x", "greedy", "--n", "10"),
    ("tables", "--which", "n1", "--i", "21", "--t", "1", "--force"),  # cells need no override
    ("tables", "--which", "census", "--long-run"),  # --p 67 prints that row
])
def test_removed_table_flags_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 64
    assert capsys.readouterr().err.startswith("gcdcluster: error: ")


def test_cache_env_writes_nothing(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("GCDCLUSTER_CACHE_DIR", str(tmp_path))
    code, out, _ = run_cli(capsys, "greedy", "--n", "6")
    assert code == 0 and out == "integer,class\n2,1\n3,2\n4,1\n5,3\n6,1\n"
    assert list(tmp_path.iterdir()) == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gcdcluster", "greedy", "--n", "6"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "integer,class\n2,1\n3,2\n4,1\n5,3\n6,1\n"
