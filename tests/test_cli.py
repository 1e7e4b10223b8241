"""Tests for the command-line interface: exit codes, schemas, determinism."""

import argparse
import builtins
import hashlib
import importlib.util
import json
import os
import random
import stat
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import digit_limit
from ulrichci import cli, symfunc, ulrich_functions
from ulrichci.ci_invariants import CIConfig, chi_OX
from ulrichci.cli import _scan_checks, main
from ulrichci.polyring import MultiPoly
from ulrichci.ulrich_functions import (
    SCAN_B_VALUES,
    SUPPORTED_PAIRS,
    build_f,
    build_g4,
    check_scan_grid,
    verify_cg_scan,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def _fresh_imports(*args: str) -> tuple[int, set[str]]:
    """Exit code and every module imported by a fresh ``python -X importtime ARGS``."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    lines = [line for line in done.stderr.splitlines() if line.startswith("import time:")]
    return done.returncode, {line.rpartition("|")[2].strip() for line in lines}


#: The computation modules, and the standard library's exact arithmetic they use.
ENGINE = {
    "fractions",
    "ulrichci.ci_invariants",
    "ulrichci.ulrich_functions",
    "ulrichci.symfunc",
    "ulrichci.polyring",
    "ulrichci.exact_arith",
    "ulrichci.report",
}


def test_cli_import_loads_only_what_commands_need():
    # The pool, dataclasses and tempfile are loaded where they are used, if at all
    # (the interpreter's start-up may load some of them, so only the rest counts).
    code, startup = _fresh_imports("-c", "pass")
    assert code == 0
    # -X importtime lists a module even when its import raises, so check the exit code.
    code, loaded = _fresh_imports("-c", "import ulrichci.cli")
    assert code == 0
    loaded -= startup
    assert "ulrichci.cli" in loaded
    lazy = {"concurrent.futures", "multiprocessing", "dataclasses", "inspect", "tempfile"}
    assert loaded & lazy == set()
    # Neither the package nor the CLI loads the engine before a command runs it.
    assert loaded & ENGINE == set()
    code, loaded = _fresh_imports("-c", "import ulrichci")
    assert code == 0
    assert "ulrichci" in loaded
    assert loaded & ENGINE == set()
    for argv, exit_code in (
        (["--version"], 0),
        (["--help"], 0),
        (["verify", "--suite", "nope"], 2),
    ):
        code, loaded = _fresh_imports("-m", "ulrichci.cli", *argv)
        assert code == exit_code, argv
        assert loaded & ENGINE == set(), argv
    # A certificate runs the engine, but starts no pool and writes no file.
    code, loaded = _fresh_imports(
        "-m", "ulrichci.cli", "certify", "--n", "4", "--degrees", "3,2", "--r", "2"
    )
    assert code == 0
    assert "ulrichci.ci_invariants" in loaded
    assert (loaded - startup) & {"concurrent.futures", "multiprocessing", "tempfile"} == set()


def test_benchmark_scan_starts_no_pool():
    # The benchmark grid's walks take 1,386 bound values, far within the
    # scan's serial budget, so at two workers the scan still imports no pool.
    code, startup = _fresh_imports("-c", "pass")
    assert code == 0
    code, loaded = _fresh_imports(
        "-m", "ulrichci.cli", "scan", "--s-max", "12", "--d-max", "10", "--b", "8,9", "--workers", "2"
    )
    assert code == 0
    assert "ulrichci.ulrich_functions" in loaded
    assert (loaded - startup) & {"concurrent.futures", "multiprocessing"} == set()


# -- verify ------------------------------------------------------------------


def test_verify_tf2_single_s(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "tf2", "--s", "4")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["summary"] == {"total": 13, "passed": 13, "failed": 0}


def test_verify_gl4_range(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "gl4", "--s", "4..5")
    assert code == 0
    assert [r["lemma"] for r in doc["results"]] == ["gl4(1)", "gl4(2)"] * 2


def test_verify_cg_counts_tuples(capsys):
    code, doc = run_json(
        capsys, "verify", "--suite", "cg", "--s-max", "3", "--d-max", "4"
    )
    assert code == 0
    scans = [r for r in doc["results"] if r["lemma"] == "cg/scan"]
    assert scans and all(r["witness"]["tuples_checked"] > 0 for r in scans)
    # The suite scans SCAN_B_VALUES, which the grid check before it counts.
    assert [r["parameters"]["b"] for r in scans] == [8, 8, 9, 9]
    assert SCAN_B_VALUES == (8, 9)
    checked = sum(r["witness"]["tuples_checked"] for r in scans)
    assert checked == 2 * check_scan_grid(3, 4, SCAN_B_VALUES)


def test_verify_range_below_suite_minimum(capsys):
    code = main(["verify", "--suite", "gl1", "--s", "2..3"])
    assert code == 2


@pytest.mark.parametrize(
    "module,name,suite,pairs",
    [
        (ulrich_functions, "verify_gl4", "gl4", [()]),
        (ulrich_functions, "verify_tf0", "tf0", SUPPORTED_PAIRS),
        (symfunc, "verify_tf2bis", "tf2bis", [()]),
    ],
)
def test_verify_runs_the_verifier_bound_on_its_module(monkeypatch, module, name, suite, pairs):
    # A verifier replaced on its module (by a test or a tracer) is the one a suite runs.
    verify, calls = getattr(module, name), []

    def counting(*args):
        calls.append(args)
        return verify(*args)

    monkeypatch.setattr(module, name, counting)
    assert main(["verify", "--suite", suite, "--s", "5..6"]) == 0
    assert calls == [(s, *pair) for s in (5, 6) for pair in pairs]


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--suite", "gl4", "--s", "4..13"], "--s must be at most 12 (MAX_VARS), got 13"),
        (["--s", "13"], "--s must be at most 12 (MAX_VARS), got 13"),
        (["--suite", "cg", "--s-max", "12"], "--s-max must be at most 11 for suite cg"),
        (["--d-max", "1", "--s", "5..8"], "scan needs s_max >= 2 and d_max >= 2\n"),
        (["--suite", "cg", "--s-max", "1"], "scan needs s_max >= 2 and d_max >= 2\n"),
        (
            ["--d-max", "100000000"],
            "scan over s <= 6, d <= 100000000 and 2 b value(s) covers more than "
            "1000000000 tuples (MAX_SCAN_TUPLES)\n",
        ),
    ],
    ids=["gl4", "all", "cg", "all-d-max", "cg-s-max", "all-huge-d-max"],
)
def test_verify_beyond_max_vars_exits_2_before_work(monkeypatch, capsys, argv, message):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the size check")

    monkeypatch.setattr(cli, "_run_suite", no_work)
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")


def test_verify_scan_range_ignored_without_cg(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "gl4", "--s", "4", "--d-max", "1")
    assert code == 0 and doc["status"] == "pass"


def test_verify_largest_sizes_within_max_vars(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "gl4", "--s", "12")
    assert code == 0 and doc["summary"] == {"total": 2, "passed": 2, "failed": 0}
    code, doc = run_json(
        capsys, "verify", "--suite", "cg", "--s-max", "11", "--d-max", "2"
    )
    assert code == 0 and doc["status"] == "pass"
    assert {r["parameters"]["s"] for r in doc["results"]} == set(range(2, 12))


def test_verify_all_clips_range_to_each_suite_minimum(capsys):
    code, doc = run_json(capsys, "verify", "--s", "1..5")
    assert code == 0
    s_seen = {}
    for r in doc["results"]:
        family = r["lemma"].split("(")[0].split("/")[0]
        s_seen.setdefault(family, set()).add(r["parameters"]["s"])
    assert s_seen["tf2-bis"] == {5}
    assert s_seen["gl1"] == s_seen["gl4"] == {4, 5}
    assert s_seen["tf0"] == s_seen["gl2"] == {1, 2, 3, 4, 5}


def test_verify_table_errors_are_failed_checks(monkeypatch, capsys):
    # A built polynomial with no expansion fails its gl1/gl2 check (exit 1),
    # and the other checks of the run are still reported.
    uf = ulrich_functions
    monkeypatch.setattr(uf, "build_f", lambda s, r, m: build_f(s, r, m) + 1)
    monkeypatch.setitem(
        uf._DERIVED_BUILDERS,
        "g4",
        lambda s: build_g4(s) + MultiPoly.variable(s, 0).times_all_vars(),
    )
    for suite, passed, error in (
        ("gl1", 0, "term with exponents (0, 0, 0, 0) is not divisible by all variables"),
        ("gl2", 5, "polynomial is not symmetric"),
    ):
        code, doc = run_json(capsys, "verify", "--suite", suite, "--s", "4")
        assert code == 1
        assert doc["summary"]["passed"] == passed
        failed = [r for r in doc["results"] if r["status"] == "fail"]
        assert failed[0]["lemma"] == f"{suite}(1)"
        assert failed[0]["witness"] == {"error": error}


def test_verify_tf2bis_expansion_errors_are_failed_checks(monkeypatch, capsys):
    # A wrong inverse map leaves the restriction outside the basis span: the
    # agreement record fails with the error, and verify exits 1, not 2.
    restriction_map = symfunc._restriction_map
    monkeypatch.setattr(symfunc, "_restriction_map", lambda c, t: restriction_map(c, t + 1))
    code, doc = run_json(capsys, "verify", "--suite", "tf2bis", "--s", "5..5")
    assert code == 1
    assert doc["results"][-1] == {
        "lemma": "tf2-bis/expansion-agreement",
        "parameters": {"s": 5},
        "status": "fail",
        "witness": {"partition": [4], "error": "polynomial is outside the basis span"},
    }


def test_verify_text_summary(capsys):
    code, out = run(capsys, "verify", "--suite", "tf2", "--s", "4")
    assert code == 0
    assert "13/13 checks passed" in out


# -- invariants -----------------------------------------------------------------


def test_invariants_table(capsys):
    code, doc = run_json(
        capsys, "invariants", "--n", "4", "--degrees", "3", "--r", "2", "--m", "0..4"
    )
    assert code == 0
    assert doc["invariants"]["deg_Z"] == 5
    assert doc["invariants"]["e"] == "5/3" and not doc["invariants"]["e_integral"]
    # Ulrich vanishing shows in the chi_E column
    rows = {row["m"]: row for row in doc["euler_table"]}
    assert rows[0]["chi_E"] > 0


def test_invariants_parity_reported_inline(capsys):
    code, doc = run_json(
        capsys, "invariants", "--n", "4", "--degrees", "4", "--r", "3", "--m", "0..1"
    )
    assert code == 0
    assert doc["invariants"]["parity_obstruction"] is True
    assert all(row["chi_OZ"] is None for row in doc["euler_table"])


def test_invariants_type22_rank3(capsys):
    code, doc = run_json(
        capsys, "invariants", "--n", "4", "--degrees", "2,2", "--r", "3"
    )
    assert code == 0
    assert doc["invariants"]["u"] == 3
    assert doc["invariants"]["e"] == "15/4" and not doc["invariants"]["e_integral"]


def test_invariants_twist_range_is_bounded(monkeypatch, capsys):
    # Fails before any work, the default range 0..n included.
    query = ["invariants", "--degrees", "3,2", "--r", "2"]
    for extra, spans in (
        (["--n", "4", "--m", "0..100000000"], 100000001),
        (["--n", "10000"], 10001),
    ):
        code = main(query + extra)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: --m spans {spans} twists; at most 10000\n"
    query.extend(["--n", "4"])
    monkeypatch.setattr(cli, "MAX_TWISTS", 3)
    assert run(capsys, *query, "--m", "-1..1")[0] == 0
    assert main(query + ["--m", "-1..2"]) == 2
    assert "error: --m spans 4 twists; at most 3" in capsys.readouterr().err


def test_invariants_prints_values_beyond_the_str_digit_limit(capsys):
    # chi_OX(cfg, 7200) has more digits than str(int) allows by default; main
    # prints it from that default and restores it, so the test lifts it to read.
    query = ["invariants", "--n", "7200", "--degrees", "3,2", "--r", "2", "--m", "7200..7200"]
    expected = chi_OX(CIConfig(7200, (3, 2), 2), 7200)
    with digit_limit(4300):
        code, out = run(capsys, *query)
        json_code, json_out = run(capsys, *query, "--format", "json")
    with digit_limit(0):
        assert code == 0 and f" {expected} " in out
        assert len(str(abs(expected))) > 4300
        assert json_code == 0 and json.loads(json_out)["euler_table"][0]["chi_OX"] == expected


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--n", "4", "--degrees", "3,2", "--r", "2"],
        ["--version"],
        ["invariants", "--n", "4", "--degrees", "1", "--r", "2"],
    ],
    ids=["success", "exit", "error"],
)
def test_main_restores_the_digit_limit_of_the_caller(capsys, argv):
    with digit_limit(5000):
        try:
            main(argv)
        except SystemExit:
            pass
        assert sys.get_int_max_str_digits() == 5000


# -- certify ------------------------------------------------------------------------


def test_certify_exit_codes(capsys):
    assert main(["certify", "--n", "6", "--degrees", "2,3", "--r", "3"]) == 0
    capsys.readouterr()
    assert main(["certify", "--n", "4", "--degrees", "2", "--r", "2"]) == 0
    capsys.readouterr()
    assert main(["certify", "--n", "3", "--degrees", "2", "--r", "2"]) == 2


def test_certify_document_schema(capsys):
    code, doc = run_json(capsys, "certify", "--n", "5", "--degrees", "2", "--r", "2")
    assert code == 0
    assert list(doc.keys()) == [
        "schema_version",
        "input",
        "verdict",
        "reason",
        "witnesses",
        "hypotheses",
        "tool_version",
    ]
    assert doc["verdict"] == "NON_EXISTENCE"
    assert doc["witnesses"]["d_times_q"] == 180


def test_certify_round_trip(capsys):
    _, doc = run_json(capsys, "certify", "--n", "4", "--degrees", "3,2", "--r", "2")
    assert json.loads(json.dumps(doc)) == doc


# -- scan -----------------------------------------------------------------------------


def test_scan_exit_and_totals(capsys):
    code, doc = run_json(
        capsys, "scan", "--s-max", "3", "--d-max", "4", "--b", "8,9"
    )
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["total_tuples"] == sum(c["tuples_checked"] for c in doc["cells"])


def test_scan_workers_change_nothing(capsys):
    _, seq = run_json(
        capsys, "scan", "--s-max", "4", "--d-max", "5", "--workers", "1"
    )
    _, par = run_json(
        capsys, "scan", "--s-max", "4", "--d-max", "5", "--workers", "2"
    )
    seq["parameters"].pop("workers")
    par["parameters"].pop("workers")
    assert seq == par


def test_scan_per_tuple_listing(capsys):
    code, out = run(
        capsys, "scan", "--s-max", "2", "--d-max", "3", "--b", "8", "--list-tuples"
    )
    assert code == 0
    assert "q(2, 1) = 90" in out


def test_scan_usage_error(capsys):
    assert main(["scan", "--s-max", "1", "--d-max", "4"]) == 2


def test_scan_empty_b_exits_2(capsys):
    assert main(["scan", "--s-max", "3", "--d-max", "2", "--b", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scan needs at least one b value\n"


def test_scan_repeated_b_exits_2_before_work(monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the grid check")

    monkeypatch.setattr(ulrich_functions, "_scan_slice", no_work)
    assert main(["scan", "--s-max", "3", "--d-max", "3", "--b", "8,8"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: b value 8 is repeated; each b is scanned once\n"


def test_scan_default_b_is_scan_b_values(capsys):
    code, doc = run_json(capsys, "scan", "--s-max", "3", "--d-max", "3")
    assert doc["parameters"]["b"] == doc["b_values"] == list(SCAN_B_VALUES)
    assert (code, doc) == run_json(capsys, "scan", "--s-max", "3", "--d-max", "3", "--b", "8,9")
    assert main(["scan", "--s-max", "3", "--d-max", "3", "--b", ""]) == 2


@pytest.mark.parametrize(
    "option, value, command",
    [
        ("--b", "-3,5", ["scan", "--s-max", "2", "--d-max", "2"]),
        ("--m", "-3..6", ["invariants", "--n", "5", "--degrees", "2,3", "--r", "2"]),
        ("--b", "-3,-5", ["scan", "--s-max", "2", "--d-max", "2"]),
        ("--m", "-5..-1", ["invariants", "--n", "5", "--degrees", "2,3", "--r", "2"]),
    ],
    ids=["scan-b", "invariants-m", "scan-b-two-negatives", "invariants-m-negative-range"],
)
def test_value_starting_with_minus(capsys, option, value, command):
    # argparse alone reads "-3,5" as an option and exits 2.
    spaced = run(capsys, *command, option, value)
    joined = run(capsys, *command, f"{option}={value}")
    assert spaced == joined
    assert joined[0] in (0, 1)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--s-max", "2", "--d-max", "100000000"],
        ["scan", "--s-max", "100000000", "--d-max", "2"],
        ["scan", "--s-max", "100000000", "--d-max", "100000000", "--b", "8"],
        ["verify", "--suite", "cg", "--s-max", "11", "--d-max", "100000000"],
    ],
    ids=["scan-d-max", "scan-s-max", "scan-both", "verify-cg"],
)
def test_huge_scan_grid_exits_2_at_once(capsys, argv):
    # The grid is counted before any cell or task exists.
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: scan over s <= ")
    assert captured.err.endswith(" covers more than 1000000000 tuples (MAX_SCAN_TUPLES)\n")
    assert elapsed < 1


def test_scan_reports_omitted_violations(capsys):
    code, out = run(capsys, "scan", "--s-max", "6", "--d-max", "10", "--b", "-1000")
    assert code == 1
    line = next(row for row in out.splitlines() if row.startswith("b=-1000 s=6:"))
    assert line.startswith("b=-1000 s=6: 5004 tuples")
    assert line.endswith(", 5004 VIOLATIONS")
    witness = _scan_checks(verify_cg_scan(6, 10, b_values=(-1000,)))[-1].witness
    assert len(witness["violations"]) == 1000
    assert witness["violations_omitted"] == 4004


#: sha256 of scan --format json stdout with parameters.workers removed, taken
#: when each b had its own walk over the tuples: one grid whose cells cap and
#: omit violations, one that lists every tuple; and the benchmark grid, which
#: passes, taken when each tuple was one Horner step.  The listed grid once
#: repeated b = 5; a repeated b is now refused, and its digest is of that
#: report with the repeated cells dropped, as the code before printed it.
SCAN_DIGESTS = {
    "bench": (
        ["--s-max", "12", "--d-max", "10", "--b", "8,9"],
        "911b28ca3c421bd6b8a1e57fdd6c918c83e62993ee7a69e46d6fb0924f2d47fd",
    ),
    "capped": (
        ["--s-max", "6", "--d-max", "10", "--b=-1000,0,5,8,9"],
        "52efbdf8fca075ded3dd6f804797bc082ed13be866024769a4434e277404e217",
    ),
    "listed": (
        ["--s-max", "4", "--d-max", "5", "--b=-3,5", "--list-tuples"],
        "79c96d7078d861a32eb360f932eb63ce6d75fee543f0e9c5e789b3e493fbf303",
    ),
    # Minima tied across rows, a table value (b - 5) y + 5 x^2 that is not
    # monotone along a row (b = 3) and rows with a negative slope in x.
    "ties": (
        ["--s-max", "11", "--d-max", "4", "--b=-23,-10,-4,3,8"],
        "684ab6faf16570434f5c69a6621328f675230789e5fd07f78b903e97a2628c1d",
    ),
}


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize("name", sorted(SCAN_DIGESTS))
def test_scan_report_digest(capsys, name, workers):
    argv, digest = SCAN_DIGESTS[name]
    code, doc = run_json(capsys, "scan", *argv, "--workers", workers)
    assert code == {"pass": 0, "fail": 1}[doc["status"]]
    assert doc["parameters"].pop("workers") == int(workers)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == digest


#: sha256 of the raw scan --format json --workers 1 stdout of each grid of
#: SCAN_DIGESTS, taken when json.dumps(doc, indent=2) wrote it: these pin the
#: emitted bytes, indent and newlines included.
SCAN_STDOUT_DIGESTS = {
    "bench": "db17a0882c0ca05976b480019447f7e79217ecef15783458b23884e7202056c6",
    "capped": "94584be3046273e7fbaca22dee0e5651ed66d4fe484cae8626ffab053d9a0ea8",
    "listed": "2f50e93e1422ccbe781b4fa501bceb02f1d73b7e631eb11af2cf0d09d05d3472",
    "ties": "273e797f22690e6a1340c29492f091559124e7e6caf50f9b9c6f3a4d515a7e9c",
}


@pytest.mark.parametrize("name", sorted(SCAN_STDOUT_DIGESTS))
def test_scan_stdout_digest(capsys, name):
    argv, _ = SCAN_DIGESTS[name]
    code, out = run(capsys, "scan", *argv, "--workers", "1", "--format", "json")
    assert code == {"pass": 0, "fail": 1}[json.loads(out)["status"]]
    assert hashlib.sha256(out.encode()).hexdigest() == SCAN_STDOUT_DIGESTS[name]


# -- output handling ------------------------------------------------------------------


def test_output_file(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code = main(
        [
            "certify",
            "--n",
            "5",
            "--degrees",
            "2",
            "--r",
            "2",
            "--format",
            "json",
            "--output",
            str(path),
        ]
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["verdict"] == "NON_EXISTENCE"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "tf2bis", "--s", "5..6"],
        ["verify", "--suite", "cg", "--s-max", "3", "--d-max", "3"],
        ["certify", "--n", "4", "--degrees", "3,2", "--r", "2"],
        ["certify", "--n", "5", "--degrees", "2", "--r", "1"],
        ["invariants", "--n", "5", "--degrees", "4,3,2", "--r", "3", "--m=-3..3"],
        ["scan", "--s-max", "4", "--d-max", "5", "--b=-3,5", "--list-tuples"],
    ],
    ids=["verify", "verify-cg", "certify", "certify-rank1", "invariants", "scan"],
)
def test_json_output_is_json_dumps_indent_2(tmp_path, monkeypatch, capsys, argv):
    # json.dumps(doc, indent=2) is the oracle of the emitted bytes, on stdout
    # and in an --output file, for the document each command hands to _emit.
    docs = []
    emit = cli._emit

    def recording(doc, render, args):
        docs.append(doc)
        emit(doc, render, args)

    monkeypatch.setattr(cli, "_emit", recording)
    code, out = run(capsys, *argv, "--format", "json")
    path = tmp_path / "out.json"
    assert main([*argv, "--format", "json", "--output", str(path)]) == code
    assert capsys.readouterr().out == ""
    first, second = docs
    assert first == second
    assert out == json.dumps(first, indent=2) + "\n"
    assert path.read_text() == out


class _HalfWriter:
    """File stand-in that writes half of what it is given, then fails."""

    def __init__(self, handle):
        self.handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, text):
        self.handle.write(text[: len(text) // 2])
        raise OSError("disk full")


def _fail_replace(src, dst):
    raise OSError("rename failed")


_CERTIFY = ["certify", "--n", "5", "--degrees", "2", "--r", "2"]


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_failed_output_keeps_existing_file(tmp_path, monkeypatch, capsys, failure):
    path = tmp_path / "cert.json"
    path.write_text("old\n")
    if failure == "write":
        half_open = lambda file, mode="r": _HalfWriter(builtins.open(file, mode))
        monkeypatch.setattr(cli, "open", half_open, raising=False)
    else:
        monkeypatch.setattr(cli.os, "replace", _fail_replace)
    assert main([*_CERTIFY, "--output", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {path}: ")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["cert.json"]


def test_output_into_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "nodir" / "cert.json"
    assert main([*_CERTIFY, "--output", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: No such file or directory\n"


def test_output_keeps_mode_of_existing_file(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    path.write_text("old\n")
    path.chmod(0o640)
    assert main([*_CERTIFY, "--output", str(path)]) == 0
    assert "NON_EXISTENCE" in path.read_text()
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_new_output_file_follows_umask(tmp_path, capsys):
    path = tmp_path / "cert.txt"
    old_umask = os.umask(0o027)
    try:
        assert main([*_CERTIFY, "--output", str(path)]) == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(path.stat().st_mode) == 0o640


def test_output_writes_through_symlink(tmp_path, capsys):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert main([*_CERTIFY, "--output", str(link)]) == 0
    assert link.is_symlink()
    assert "NON_EXISTENCE" in target.read_text()


def test_output_to_devnull_keeps_device(capsys):
    assert main([*_CERTIFY, "--output", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def test_output_to_fifo_writes_through(tmp_path, capsys):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(
        target=lambda: received.append(fifo.read_text()), daemon=True
    )
    reader.start()
    assert main([*_CERTIFY, "--output", str(fifo)]) == 0
    reader.join(timeout=10)
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert received and "NON_EXISTENCE" in received[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "--n", "4", "--degrees", "3", "--r", "2"],
        ["scan", "--s-max", "4", "--d-max", "5", "--b", "8,9", "--list-tuples"],
    ],
    ids=["certify", "scan"],
)
def test_closed_stdout_keeps_the_exit_code(argv):
    # A reader such as `| head -1` may close the pipe before the output is written.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "ulrichci.cli", *argv, "--format", "text"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_usage_error_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 2


_COMMAND_LINES = {
    "verify": ["verify", "--suite", "tf2", "--s", "4"],
    "invariants": ["invariants", "--n", "4", "--degrees", "3,2", "--r", "2"],
    "certify": _CERTIFY,
    "scan": ["scan", "--s-max", "2", "--d-max", "2"],
}


@pytest.mark.parametrize("command", sorted(_COMMAND_LINES))
def test_unrecognized_argument_is_reported_by_its_command(capsys, command):
    with pytest.raises(SystemExit) as err:
        main([*_COMMAND_LINES[command], "--bogus", "1"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, _, message = captured.err.partition(f"ulrichci {command}: error: ")
    assert usage.startswith(f"usage: ulrichci {command} [-h]")
    assert message == "unrecognized arguments: --bogus 1\n"


@pytest.mark.parametrize(
    "command, option, value, message",
    [
        ("verify", "--s", "9..5", "empty range '9..5'"),
        ("invariants", "--m", "abc", "expected an integer or a range \"low..high\", got 'abc'"),
        ("certify", "--degrees", "3,x", "expected comma separated integers, got '3,x'"),
        ("scan", "--b", "8,x", "expected comma separated integers, got '8,x'"),
    ],
)
def test_invalid_value_is_reported_by_its_option(capsys, command, option, value, message):
    with pytest.raises(SystemExit) as err:
        main([*_COMMAND_LINES[command], option, value])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, _, error = captured.err.partition(f"ulrichci {command}: error: ")
    assert usage.startswith(f"usage: ulrichci {command} [-h]")
    assert error == f"argument {option}: {message}\n"


_TOP_USAGE = "usage: ulrichci [-h] [--version] {verify,invariants,certify,scan} ...\n"


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["--version"], 0, cli.__version__ + "\n", ""),
        (["--help"], 0, _TOP_USAGE, ""),
        (["verify", "-h"], 0, "usage: ulrichci verify [-h]", ""),
        (["scan", "--help"], 0, "usage: ulrichci scan [-h]", ""),
        (
            ["nope"],
            2,
            "",
            _TOP_USAGE + "ulrichci: error: argument command: invalid choice: 'nope' "
            "(choose from 'verify', 'invariants', 'certify', 'scan')\n",
        ),
        (
            [],
            2,
            "",
            _TOP_USAGE + "ulrichci: error: the following arguments are required: command\n",
        ),
    ],
    ids=["version", "help", "command-h", "command-help", "unknown-command", "no-command"],
)
def test_top_level_options_and_errors(capsys, argv, code, out, err):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    captured = capsys.readouterr()
    assert captured.out.startswith(out) and bool(captured.out) == bool(out)
    assert captured.err == err


def test_command_line_is_parsed_once_by_its_command(monkeypatch, capsys):
    # A well-formed line is read by the strict reader alone; a line it
    # declines reaches its command's parser once, and --version the top level.
    parsed = []
    parse = argparse.ArgumentParser.parse_known_args

    def recording_parse(self, *args, **kwargs):
        parsed.append(self)
        return parse(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording_parse)
    for command, argv in _COMMAND_LINES.items():
        assert main(argv) == 0
        assert parsed == [], command
    assert main(["invariants", "--n", "4", "--deg", "3,2", "--r", "2"]) == 0
    assert parsed == [cli._COMMANDS["invariants"]]
    parsed.clear()
    with pytest.raises(SystemExit):
        main(["--version"])
    assert parsed == [cli._PARSER]


#: Values each option type accepts, values no option accepts, and tokens no option has.
_GOOD_VALUES = {
    int: ("0", "4", "12", " 7", "1_0"),
    cli._positive_int: ("1", "2"),
    cli._parse_int_list: ("3,2", "8,9", "2,,3", ""),
    cli._parse_range: ("5..8", "4", " 2..3"),
    None: ("out.json", "a=b", ""),
}
_BAD_VALUES = ("-3", "-3,5", "-1..1", "9..5", "x", "3,x", "--", "-", "0..")
_JUNK = ("-h", "--help", "--", "--bogus", "-x", "x", "=")


@st.composite
def _command_lines(draw, command):
    """Options with values of their type, some required ones left out, and junk.

    Junk is a prefix of an option, a repeat, a value of the wrong type, a
    negative value, an unknown option or a stray token.
    """
    options = cli._OPTIONS[command]
    chosen = draw(st.sets(st.sampled_from(sorted(options))))
    if draw(st.booleans()):
        chosen |= {name for name, action in options.items() if action.required}
    pieces = []
    for name in sorted(chosen):
        action = options[name]
        if action.nargs == 0:
            pieces.append([name])
            continue
        value = draw(st.sampled_from(action.choices or _GOOD_VALUES[action.type]))
        pieces.append(draw(st.sampled_from([[name, value], [f"{name}={value}"]])))
    names = st.sampled_from(
        sorted(options) + [o[:k] for o in options for k in range(3, len(o))] + list(_JUNK)
    )
    values = st.sampled_from(_BAD_VALUES + tuple(v for vs in _GOOD_VALUES.values() for v in vs))
    pieces += draw(st.lists(
        st.one_of(
            names.map(lambda name: [name]),
            st.tuples(names, values).map(list),
            st.tuples(names, values).map(lambda p: ["=".join(p)]),
        ),
        max_size=3,
    ))
    return [token for piece in draw(st.permutations(pieces)) for token in piece]


@pytest.mark.parametrize("command", sorted(_COMMAND_LINES))
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_strict_reader_returns_none_or_what_argparse_returns(command, data):
    argv = data.draw(_command_lines(command))
    args = cli._read_strict(command, argv)
    assert args is None or args == cli._COMMANDS[command].parse_args(argv)


@pytest.mark.parametrize(
    "command, argv",
    [
        ("verify", ["--s", "4", "--s", "4"]),  # a repeat, which argparse reads as the last
        ("scan", ["--s-max", "2", "--d-max", "2", "--list-tuples", "--list-tuples"]),
        ("scan", ["--s-max", "2", "--d-max", "2", "--list-tuples=1"]),  # a flag with a value
        ("verify", ["--sui", "tf2"]),  # an abbreviation
        ("verify", ["--seed", "-3"]),  # a separate value starting with "-"
        ("verify", ["--s"]),
        ("verify", ["--suite", "nope"]),
        ("verify", ["--workers", "0"]),
        ("certify", ["--n", "4", "--degrees", "3,2"]),  # a required option missing
        ("certify", ["--n", "4", "--degrees", "3,2", "--r", "2", "-h"]),
        ("scan", ["--s-max", "2", "--d-max", "2", "--", "x"]),
    ],
)
def test_strict_reader_declines_every_other_line(command, argv):
    assert cli._read_strict(command, argv) is None


def test_strict_reader_reads_every_benchmark_command_line():
    # The benchmark's lines take the fast path, so it is the path measured.
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    lines = [argv for _, _, argv in next(workloads.query_passes(1))]
    for name in ("verify", "scan"):
        lines += [argv for _, argv in workloads.repetition(name, 1, random.Random(1))]
    assert {argv[0] for argv in lines} == set(_COMMAND_LINES)
    for argv in map(cli._glue_signed_values, lines):
        args = cli._read_strict(argv[0], argv[1:])
        assert args is not None and args == cli._COMMANDS[argv[0]].parse_args(argv[1:]), argv


def test_text_is_rendered_only_for_text_output(monkeypatch, capsys):
    rendered = []
    emit = cli._emit

    def counting_emit(doc, render, args):
        emit(doc, lambda: rendered.append(1) or render(), args)

    monkeypatch.setattr(cli, "_emit", counting_emit)
    for command, argv in _COMMAND_LINES.items():
        assert run(capsys, *argv, "--format", "json")[0] == 0
        assert rendered == [], command
        assert run(capsys, *argv)[0] == 0
        assert rendered == [1], command
        rendered.clear()


def test_invalid_invariants_input_exits_2(capsys):
    assert main(["invariants", "--n", "4", "--degrees", "1", "--r", "2"]) == 2


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(_CERTIFY) == 0
    assert main(["invariants", "--n", "4", "--degrees", "3,2", "--r", "2"]) == 0
    assert built == []


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5", "2"])
def test_workers_env_var_is_ignored(monkeypatch, capsys, value):
    # --workers is the one way to set a worker count; it defaults to 1.
    commands = [
        ["scan", "--s-max", "2", "--d-max", "2"],
        ["verify", "--suite", "cg"],
        ["invariants", "--n", "4", "--degrees", "3,2", "--r", "2"],
        _CERTIFY,
    ]
    monkeypatch.delenv("ULRICHCI_WORKERS", raising=False)
    unset = [run(capsys, *command, "--format", "json") for command in commands]
    monkeypatch.setenv("ULRICHCI_WORKERS", value)
    assert [run(capsys, *command, "--format", "json") for command in commands] == unset
    assert [code for code, _ in unset] == [0, 0, 0, 0]
    assert json.loads(unset[0][1])["parameters"]["workers"] == 1


@pytest.mark.parametrize(
    "command",
    [["scan", "--s-max", "2", "--d-max", "2"], ["verify", "--suite", "cg"]],
    ids=["scan", "verify"],
)
@pytest.mark.parametrize("value", ["0", "-2", "x"])
def test_invalid_workers_flag_exits_2(capsys, command, value):
    with pytest.raises(SystemExit) as err:
        main([*command, "--workers", value])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        f"error: argument --workers: must be a positive integer, got '{value}'"
        in captured.err
    )


@pytest.mark.parametrize("value", ["0", "-3", "x", "5"])
def test_invalid_samples_flag_exits_2(capsys, value):
    # tf2bis is exact on the basis, so there is no sample count to set:
    # --samples is refused whatever its value.
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "tf2bis", "--s", "5", "--samples", value])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: --samples {value}" in captured.err


def test_seed_changes_no_output_byte(capsys):
    # --seed is accepted for old command lines and ignored.
    runs = {
        run(capsys, "verify", *seed, "--format", "json")
        for seed in ([], ["--seed", "0"], ["--seed", "1"])
    }
    assert len(runs) == 1
    code, out = runs.pop()
    assert code == 0 and "seed" not in json.loads(out)["parameters"]


#: sha256 of the --format json stdout of verify runs, pinned so that any
#: rewrite of the arithmetic must keep the reports byte-identical.
REPORT_DIGESTS = {
    "default": (
        [],
        "b8f67971a98aca69dbcf8027d9839452ccf71906a3ce0b9df54ec154a822d121",
    ),
    "s5-8-seed1": (
        ["--s", "5..8", "--seed", "1"],
        "24abc471f8dd3cf9f42ddf98522bf23b6e696055abbaaff47513c483bc0e8826",
    ),
    # The widest packed keys: twelve exponent fields.
    "s11-12": (
        ["--s", "11..12"],
        "5f4a75ecbddba7e77560b818dc368f27f7363720d52228d16f7208f1b067d7bc",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_verify_report_digest(capsys, name):
    argv, digest = REPORT_DIGESTS[name]
    code, out = run(capsys, "verify", *argv, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


#: certify and invariants requests over ranks 1-3, the quadric and (2,2)
#: exceptions and parity-obstructed tuples; the sha256 of their concatenated
#: --format json stdout pins the query path byte for byte.
QUERY_GRID = [
    (n, degrees, r)
    for n in ("4", "5")
    for degrees in ("2", "2,2", "3", "3,2", "4,3,2", "5,5,3,2,2")
    for r in ("1", "2", "3")
]
QUERY_DIGESTS = {
    "certify": "429a7e3d710db91b2141526907c76b01275c37d9f768aed8d1608d3557c2be45",
    "invariants": "9280ddeb449bdc9296fe084e970da7210f1e3c72b222b83f52ef18a047eb3325",
}


#: invariants requests beyond the default twists: --m -12..12 over QUERY_GRID
#: and a large dimension, pinned the same way.
INVARIANTS_DIGESTS = {
    "grid-m-12..12": (
        [
            ["--n", n, "--degrees", degrees, "--r", r, "--m", "-12..12"]
            for n, degrees, r in QUERY_GRID
        ],
        "6ab2876c6ffb915cd631d236c6ca9f94d2be5663984463dffe21b326a5a3f351",
    ),
    "n300": (
        [["--n", "300", "--degrees", "3,4", "--r", "2"]],
        "3057508444860935ef1600f7596a83ce188697024425a7f16964ff67b9fdc437",
    ),
}


@pytest.mark.parametrize("command", sorted(QUERY_DIGESTS))
def test_query_report_digest(capsys, command):
    digest = hashlib.sha256()
    for n, degrees, r in QUERY_GRID:
        argv = ["--n", n, "--degrees", degrees, "--r", r, "--format", "json"]
        _, out = run(capsys, command, *argv)
        digest.update(out.encode())
    assert digest.hexdigest() == QUERY_DIGESTS[command]


@pytest.mark.parametrize("name", sorted(INVARIANTS_DIGESTS))
def test_invariants_report_digest(capsys, name):
    requests, expected = INVARIANTS_DIGESTS[name]
    digest = hashlib.sha256()
    for argv in requests:
        _, out = run(capsys, "invariants", *argv, "--format", "json")
        digest.update(out.encode())
    assert digest.hexdigest() == expected


def test_verify_all_default_budget(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "all")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["summary"]["failed"] == 0
