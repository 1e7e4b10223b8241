"""Command-line front end: verification suites, invariant tables, certificates, scans.

Exit codes: 0 success (all identities pass / certificate conclusive), 1 a
check failed or the certificate is inconclusive, 2 invalid usage.  Structured
output is a single JSON document per invocation with a schema version field;
worker counts affect wall time only, never any reported value or ordering.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import stat
import sys
import tempfile

from . import __version__
from .ci_invariants import (
    EXCLUDED,
    INCONCLUSIVE,
    NON_EXISTENCE,
    CIConfig,
    ParityError,
    _frac_doc,
    c2X_coeff,
    c2_E_coeff,
    canonical_coeff,
    certify,
    chi_E,
    chi_OX,
    chi_OZ,
    deg_Z,
    det_twist,
    parity_obstruction,
)
from .polyring import MAX_VARS
from .report import FAIL, PASS, CheckResult, all_ok, summarize
from .symfunc import verify_tf2_table, verify_tf2bis
from .ulrich_functions import (
    GL4_CONSTANTS,
    SUPPORTED_PAIRS,
    ScanReport,
    verify_cg_induction,
    verify_cg_scan,
    verify_gl1,
    verify_gl2,
    verify_gl4,
    verify_tf0,
    verify_tf1,
)

SCHEMA_VERSION = 1

#: Most twists one invariants table may hold, so a huge --m fails before any work.
MAX_TWISTS = 10_000

SUITES = ("all", "tf0", "tf1", "tf2", "tf2bis", "gl1", "gl2", "gl4", "cg")


def _over_pairs(verify):
    return lambda s, args: [c for r, m in SUPPORTED_PAIRS for c in verify(s, r, m)]


#: The suites run once per s: suite -> (checks at one s, smallest valid s,
#: default s-range).  The default ranges keep the full default run well under
#: a minute on commodity hardware; deeper ranges are opt-in.
_RANGED_SUITES = {
    "tf0": (_over_pairs(verify_tf0), 1, (1, 6)),
    "tf1": (_over_pairs(verify_tf1), 1, (1, 6)),
    "tf2": (lambda s, args: verify_tf2_table(s), 1, (4, 6)),
    "tf2bis": (
        lambda s, args: verify_tf2bis(s, samples=args.samples, seed=args.seed),
        5,
        (5, 6),
    ),
    "gl1": (lambda s, args: verify_gl1(s), 4, (4, 6)),
    "gl2": (lambda s, args: verify_gl2(s), 1, (1, 6)),
    "gl4": (lambda s, args: verify_gl4(s), 4, (4, 6)),
}


def _parse_range(text: str) -> tuple[int, int]:
    """Parse "4..8" or "5" into an inclusive (low, high) pair."""
    if ".." in text:
        low_s, _, high_s = text.partition("..")
        low, high = int(low_s), int(high_s)
    else:
        low = high = int(text)
    if low > high:
        raise ValueError(f"empty range {text!r}")
    return low, high


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip())


def _positive_int(text: str) -> int:
    """argparse type for a worker or sample count."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


#: Options whose value may start with a negative integer (a list or a range).
_SIGNED_OPTIONS = ("--b", "--m")
_SIGNED_VALUE = re.compile(r"-\d[\d,.]*$")


def _glue_signed_values(argv: list[str]) -> list[str]:
    """Write "--b -3,5" as "--b=-3,5".

    argparse takes a value that starts with "-" and is not a single number
    for an option, so "--b -3,5" and "--m -3..6" would fail with "expected
    one argument".
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in _SIGNED_OPTIONS and _SIGNED_VALUE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _default_workers() -> int:
    env = os.environ.get("ULRICHCI_WORKERS")
    if not env:
        return 1
    try:
        return _positive_int(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"ULRICHCI_WORKERS {exc}") from None


def _replaceable(path: str) -> bool:
    """Whether a renamed file may take PATH's place unnoticed.

    True when PATH's directory is writable and PATH is absent or a regular
    file of this user with one link; a device, FIFO, symlink, hard-linked or
    foreign file is written through.
    """
    if not os.access(os.path.dirname(path) or ".", os.W_OK):
        return False
    try:
        st = os.lstat(path)
    except FileNotFoundError:
        return True
    return stat.S_ISREG(st.st_mode) and st.st_nlink == 1 and st.st_uid == os.geteuid()


def _write_output(path: str, payload: str) -> None:
    if not _replaceable(path):
        with open(path, "w") as handle:
            handle.write(payload)
        return
    # Write a sibling file and rename it over the target, so a failed write
    # never leaves a partial output file.
    if os.path.exists(path):
        mode = stat.S_IMODE(os.stat(path).st_mode)
    else:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with open(fd, "w") as handle:
            handle.write(payload)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _emit(doc: dict, text: str, args) -> None:
    payload = json.dumps(doc, indent=2) if args.format == "json" else text
    if not args.output:
        print(payload)
        return
    try:
        _write_output(args.output, payload + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {args.output}: {exc.strerror or exc}") from None


def _base_doc(command: str, parameters: dict) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "command": command,
        "parameters": parameters,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _run_suite(suite: str, args) -> list[CheckResult]:
    if suite == "cg":
        report = verify_cg_scan(args.s_max, args.d_max, workers=args.workers)
        results = _scan_checks(report)
        for s in range(2, args.s_max + 1):
            for b, _ in GL4_CONSTANTS.values():
                results.extend(verify_cg_induction(s, b))
        return results
    checks_at, min_s, default_range = _RANGED_SUITES[suite]
    low, high = args.s if args.s else default_range
    if low < min_s:
        # Under --suite all, each suite runs the part of --s it supports.
        if args.suite != "all":
            raise ValueError(f"suite {suite} requires s >= {min_s}")
        low = min_s
    return [c for s in range(low, high + 1) for c in checks_at(s, args)]


def _scan_checks(report: ScanReport) -> list[CheckResult]:
    checks = []
    for cell in report.cells:
        witness = cell.to_dict()
        del witness["b"], witness["s"]
        if not witness["violations"]:
            del witness["violations"]
        checks.append(
            CheckResult(
                lemma="cg/scan",
                parameters={"b": cell.b, "s": cell.s, "d_max": report.d_max},
                status=PASS if cell.ok else FAIL,
                witness=witness,
            )
        )
    return checks


def _cmd_verify(args) -> int:
    suites = list(SUITES[1:]) if args.suite == "all" else [args.suite]
    # Fail before any work: the ranged suites work in s variables, cg in s-max + 1.
    if args.suite != "cg" and args.s and args.s[1] > MAX_VARS:
        raise ValueError(f"--s must be at most {MAX_VARS} (MAX_VARS), got {args.s[1]}")
    if "cg" in suites and args.s_max >= MAX_VARS:
        raise ValueError(
            f"--s-max must be at most {MAX_VARS - 1} for suite cg (MAX_VARS - 1), "
            f"got {args.s_max}"
        )
    if "cg" in suites and (args.s_max < 2 or args.d_max < 2):
        raise ValueError("scan needs s_max >= 2 and d_max >= 2")
    results: list[CheckResult] = []
    for suite in suites:
        results.extend(_run_suite(suite, args))
    summary = summarize(results)
    status = PASS if all_ok(results) else FAIL
    doc = _base_doc(
        "verify",
        {
            "suite": args.suite,
            "s": list(args.s) if args.s else None,
            "s_max": args.s_max,
            "d_max": args.d_max,
            "samples": args.samples,
            "seed": args.seed,
            "workers": args.workers,
        },
    )
    doc["results"] = [r.to_dict() for r in results]
    doc["summary"] = summary
    doc["status"] = status
    lines = []
    for r in results:
        params = " ".join(f"{k}={v}" for k, v in r.parameters.items())
        lines.append(f"{r.status.upper():4s} {r.lemma} {params}")
    lines.append(
        f"{summary['passed']}/{summary['total']} checks passed"
        + (f", {summary['failed']} FAILED" if summary["failed"] else "")
    )
    _emit(doc, "\n".join(lines), args)
    return 0 if status == PASS else 1


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _cmd_invariants(args) -> int:
    cfg = CIConfig(args.n, _parse_int_list(args.degrees), args.r)
    m_low, m_high = args.m if args.m else (0, cfg.n)
    if m_high - m_low >= MAX_TWISTS:
        raise ValueError(f"--m spans {m_high - m_low + 1} twists; at most {MAX_TWISTS}")
    obstructed = parity_obstruction(cfg)
    e, e_integral = c2_E_coeff(cfg)
    table = []
    for m in range(m_low, m_high + 1):
        row = {
            "m": m,
            "chi_OX": chi_OX(cfg, m),
            "chi_OZ": None if obstructed else chi_OZ(cfg, m),
            "chi_E": chi_E(cfg, m),
        }
        table.append(row)
    invariants = {
        "K_X_coefficient": canonical_coeff(cfg),
        "c2_X_coefficient": c2X_coeff(cfg),
        "u": _frac_doc(det_twist(cfg)),
        "parity_obstruction": obstructed,
        "deg_Z": _frac_doc(deg_Z(cfg)),
        "e": _frac_doc(e),
        "e_integral": e_integral,
    }
    doc = _base_doc(
        "invariants",
        {"n": cfg.n, "degrees": list(cfg.degrees), "r": cfg.r, "m": [m_low, m_high]},
    )
    doc["invariants"] = invariants
    doc["euler_table"] = table
    lines = [
        f"complete intersection: n={cfg.n} degrees={cfg.degrees} r={cfg.r}",
        f"  K_X coefficient      {invariants['K_X_coefficient']}",
        f"  c2(X) coefficient    {invariants['c2_X_coefficient']}",
        f"  u = r(S-s)/2         {invariants['u']}"
        + ("  (parity obstruction: no integral determinant)" if obstructed else ""),
        f"  deg Z                {invariants['deg_Z']}",
        f"  e = c2(E) coeff      {invariants['e']}"
        + ("" if e_integral else "  (non-integral)"),
        f"  {'m':>4s} {'chi(O_X(m))':>14s} {'chi(O_Z(m))':>14s} {'chi(E(m))':>14s}",
    ]
    for row in table:
        chi_oz = "n/a" if row["chi_OZ"] is None else str(row["chi_OZ"])
        lines.append(
            f"  {row['m']:>4d} {row['chi_OX']:>14d} {chi_oz:>14s} {row['chi_E']:>14d}"
        )
    _emit(doc, "\n".join(lines), args)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _cmd_certify(args) -> int:
    certificate = certify(args.n, _parse_int_list(args.degrees), args.r)
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(certificate.to_dict())
    lines = [
        f"verdict: {certificate.verdict}",
        f"reason: {certificate.reason}",
    ]
    for key, value in certificate.witnesses.items():
        lines.append(f"  {key}: {value}")
    if certificate.hypotheses:
        lines.append("conditional on: " + "; ".join(certificate.hypotheses))
    _emit(doc, "\n".join(lines), args)
    if certificate.verdict in (NON_EXISTENCE, EXCLUDED):
        return 0
    return 1


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _cmd_scan(args) -> int:
    b_values = _parse_int_list(args.b)
    report = verify_cg_scan(
        args.s_max,
        args.d_max,
        b_values=b_values,
        workers=args.workers,
        per_tuple=args.list_tuples,
    )
    doc = _base_doc(
        "scan",
        {
            "s_max": args.s_max,
            "d_max": args.d_max,
            "b": list(b_values),
            "workers": args.workers,
        },
    )
    doc.update(report.to_dict())
    lines = []
    for cell in report.cells:
        lines.append(
            f"b={cell.b} s={cell.s}: {cell.tuples_checked} tuples, "
            f"min q = {cell.min_q} at {cell.min_tuple}"
            + (
                f", {len(cell.violations) + cell.violations_omitted} VIOLATIONS"
                if cell.violations
                else ""
            )
        )
        if cell.per_tuple is not None:
            for tup, q in cell.per_tuple:
                lines.append(f"    q{tuple(tup)} = {q}")
    lines.append(
        f"total: {report.total_tuples} tuples (weakly decreasing, product >= 2, "
        f"all-ones excluded); status: {'ok' if report.ok else 'VIOLATIONS FOUND'}"
    )
    _emit(doc, "\n".join(lines), args)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ulrichci",
        description="Exact verification of the symmetric-function identities and "
        "non-existence certificates for low-rank Ulrich bundles on complete "
        "intersections.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    common.add_argument("--output", help="write output to this path instead of stdout")
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--n", type=int, required=True)
    query.add_argument("--degrees", required=True, help='comma separated, e.g. "2,3"')
    query.add_argument("--r", type=int, required=True)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run identity verification suites"
    )
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument(
        "--s", type=_parse_range, default=None, help='s range, e.g. "4..8" or "5"'
    )
    p_verify.add_argument("--s-max", type=int, default=6, help="scan: largest s")
    p_verify.add_argument("--d-max", type=int, default=6, help="scan: largest degree")
    p_verify.add_argument(
        "--samples",
        type=_positive_int,
        default=25,
        help="random polynomials per s (tf2bis)",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--workers", type=_positive_int)
    p_verify.set_defaults(func=_cmd_verify)

    p_inv = sub.add_parser(
        "invariants", parents=[common, query], help="print invariant and Euler tables"
    )
    p_inv.add_argument(
        "--m", type=_parse_range, default=None, help='twist range, e.g. "0..4"'
    )
    p_inv.set_defaults(func=_cmd_invariants)

    p_cert = sub.add_parser(
        "certify", parents=[common, query], help="emit a non-existence certificate"
    )
    p_cert.set_defaults(func=_cmd_certify)

    p_scan = sub.add_parser(
        "scan", parents=[common], help="exhaustive positivity scan of q_{s,b}"
    )
    p_scan.add_argument("--s-max", type=int, required=True)
    p_scan.add_argument("--d-max", type=int, required=True)
    p_scan.add_argument("--b", default="8,9", help='comma separated, e.g. "8,9"')
    p_scan.add_argument("--workers", type=_positive_int)
    p_scan.add_argument(
        "--list-tuples",
        action="store_true",
        help="include per-tuple q values (small scans only)",
    )
    p_scan.set_defaults(func=_cmd_scan)
    return parser


_PARSER = _build_parser()


def main(argv=None) -> int:
    argv = _glue_signed_values(sys.argv[1:] if argv is None else list(argv))
    try:
        workers = _default_workers()
        args = _PARSER.parse_args(argv)
        if "workers" in args and args.workers is None:
            args.workers = workers
        return args.func(args)
    except (ValueError, ParityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
