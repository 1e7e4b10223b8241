"""Tests for the command-line interface: exit codes, schemas, determinism."""

import argparse
import builtins
import hashlib
import json
import os
import stat
import threading

import pytest

from ulrichci import cli, ulrich_functions
from ulrichci.cli import _scan_checks, main
from ulrichci.polyring import MultiPoly
from ulrichci.ulrich_functions import build_f, build_g4, verify_cg_scan


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


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


def test_verify_range_below_suite_minimum(capsys):
    code = main(["verify", "--suite", "gl1", "--s", "2..3"])
    assert code == 2


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--suite", "gl4", "--s", "4..13"], "--s must be at most 12 (MAX_VARS), got 13"),
        (["--s", "13"], "--s must be at most 12 (MAX_VARS), got 13"),
        (["--suite", "cg", "--s-max", "12"], "--s-max must be at most 11 for suite cg"),
        (["--d-max", "1", "--s", "5..8"], "scan needs s_max >= 2 and d_max >= 2\n"),
        (["--suite", "cg", "--s-max", "1"], "scan needs s_max >= 2 and d_max >= 2\n"),
    ],
    ids=["gl4", "all", "cg", "all-d-max", "cg-s-max"],
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


@pytest.mark.parametrize(
    "option, value, command",
    [
        ("--b", "-3,5", ["scan", "--s-max", "2", "--d-max", "2"]),
        ("--m", "-3..6", ["invariants", "--n", "5", "--degrees", "2,3", "--r", "2"]),
    ],
    ids=["scan-b", "invariants-m"],
)
def test_value_starting_with_minus(capsys, option, value, command):
    # argparse alone reads "-3,5" as an option and exits 2.
    spaced = run(capsys, *command, option, value)
    joined = run(capsys, *command, f"{option}={value}")
    assert spaced == joined
    assert joined[0] in (0, 1)


def test_scan_reports_omitted_violations(capsys):
    code, out = run(capsys, "scan", "--s-max", "6", "--d-max", "10", "--b", "-1000")
    assert code == 1
    line = next(row for row in out.splitlines() if row.startswith("b=-1000 s=6:"))
    assert line.startswith("b=-1000 s=6: 5004 tuples")
    assert line.endswith(", 5004 VIOLATIONS")
    witness = _scan_checks(verify_cg_scan(6, 10, b_values=(-1000,)))[-1].witness
    assert len(witness["violations"]) == 1000
    assert witness["violations_omitted"] == 4004


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


def test_usage_error_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 2


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


def test_workers_env_var_sets_default(monkeypatch, capsys):
    monkeypatch.setenv("ULRICHCI_WORKERS", "2")
    scan = ("scan", "--s-max", "2", "--d-max", "2")
    code, doc = run_json(capsys, *scan)
    assert code == 0 and doc["parameters"]["workers"] == 2
    code, doc = run_json(capsys, *scan, "--workers", "1")
    assert code == 0 and doc["parameters"]["workers"] == 1


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_invalid_workers_env_var_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("ULRICHCI_WORKERS", value)
    for command in (
        ["scan", "--s-max", "2", "--d-max", "2"],
        ["verify", "--suite", "cg"],
        ["invariants", "--n", "4", "--degrees", "3,2", "--r", "2"],
        _CERTIFY,
    ):
        assert main(command) == 2, command
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            "error: ULRICHCI_WORKERS must be a positive integer"
        )


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


@pytest.mark.parametrize("value", ["0", "-3", "x"])
def test_invalid_samples_flag_exits_2(capsys, value):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "tf2bis", "--s", "5", "--samples", value])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert (
        f"error: argument --samples: must be a positive integer, got '{value}'"
        in captured.err
    )


#: sha256 of the --format json stdout of verify runs, pinned so that any
#: rewrite of the arithmetic must keep the reports byte-identical.
REPORT_DIGESTS = {
    "default": (
        [],
        "9366d2c35eb0a3aaf5e70338203a0ac749015424382ac5aa45b093d2736b2f2a",
    ),
    "s5-8-seed1": (
        ["--s", "5..8", "--seed", "1"],
        "67e500088a9f92c534435833c9eae109ed2e51ea016b52ce51a04b77755a8e3a",
    ),
}


@pytest.mark.parametrize("name", sorted(REPORT_DIGESTS))
def test_verify_report_digest(monkeypatch, capsys, name):
    monkeypatch.delenv("ULRICHCI_WORKERS", raising=False)
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


@pytest.mark.parametrize("command", sorted(QUERY_DIGESTS))
def test_query_report_digest(capsys, command):
    digest = hashlib.sha256()
    for n, degrees, r in QUERY_GRID:
        argv = ["--n", n, "--degrees", degrees, "--r", r, "--format", "json"]
        _, out = run(capsys, command, *argv)
        digest.update(out.encode())
    assert digest.hexdigest() == QUERY_DIGESTS[command]


def test_verify_all_default_budget(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "all")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["summary"]["failed"] == 0
