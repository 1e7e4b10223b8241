"""Tests for the command-line interface: exit codes, schemas, determinism."""

import json

import pytest

from ulrichci.cli import main


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


def test_usage_error_unknown_suite():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "nope"])
    assert err.value.code == 2


def test_invalid_invariants_input_exits_2(capsys):
    assert main(["invariants", "--n", "4", "--degrees", "1", "--r", "2"]) == 2


def test_workers_env_var_sets_default(monkeypatch, capsys):
    monkeypatch.setenv("ULRICHCI_WORKERS", "2")
    from ulrichci.cli import _build_parser

    args = _build_parser().parse_args(["scan", "--s-max", "2", "--d-max", "2"])
    assert args.workers == 2


@pytest.mark.parametrize("value", ["abc", "0", "-3", "1.5"])
def test_invalid_workers_env_var_exits_2(monkeypatch, capsys, value):
    monkeypatch.setenv("ULRICHCI_WORKERS", value)
    assert main(["scan", "--s-max", "2", "--d-max", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ULRICHCI_WORKERS must be a positive integer")


def test_verify_all_default_budget(capsys):
    code, doc = run_json(capsys, "verify", "--suite", "all")
    assert code == 0
    assert doc["status"] == "pass"
    assert doc["summary"]["failed"] == 0
