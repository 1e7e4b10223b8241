"""Command-line front end: verification suites, invariant tables, certificates, scans.

Exit codes: 0 success (all identities pass / a certificate is issued), 1 a
check failed, 2 invalid usage.  Structured output is a single JSON document
per invocation with a schema version field; worker counts affect wall time
only, never any reported value or ordering.

A command line made only of its command's exact options, each once and
with values that parse, is read by a strict reader without argparse; every
other line, help and usage errors included, goes to argparse.
"""

from __future__ import annotations

import argparse
import os
import re
import stat
import sys

from . import __version__

SCHEMA_VERSION = 1

#: Most twists one invariants table may hold, so a huge --m fails before any work.
MAX_TWISTS = 10_000

#: The suites run once per s: suite -> (home module, verifier, smallest valid
#: s, default s-range, whether it runs once per supported (r, m) pair).  The
#: verifier is read off its module when the suite runs, so only verify loads
#: the engine and a binding replaced on the module is the one called.  The default ranges keep the full default run well under
#: a minute on commodity hardware; deeper ranges are opt-in.
_RANGED_SUITES = {
    "tf0": ("ulrich_functions", "verify_tf0", 1, (1, 6), True),
    "tf1": ("ulrich_functions", "verify_tf1", 1, (1, 6), True),
    "tf2": ("symfunc", "verify_tf2_table", 1, (4, 6), False),
    "tf2bis": ("symfunc", "verify_tf2bis", 5, (5, 6), False),
    "gl1": ("ulrich_functions", "verify_gl1", 4, (4, 6), False),
    "gl2": ("ulrich_functions", "verify_gl2", 1, (1, 6), False),
    "gl4": ("ulrich_functions", "verify_gl4", 4, (4, 6), False),
}

SUITES = ("all", *_RANGED_SUITES, "cg")


def _parse_range(text: str) -> tuple[int, int]:
    """argparse type: "4..8" or "5" as an inclusive (low, high) pair."""
    low_s, dots, high_s = text.partition("..")
    try:
        low, high = int(low_s), int(high_s if dots else low_s)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f'expected an integer or a range "low..high", got {text!r}'
        ) from None
    if low > high:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return low, high


def _parse_int_list(text: str) -> tuple[int, ...]:
    """argparse type: comma separated integers, empty parts skipped."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma separated integers, got {text!r}"
        ) from None


def _positive_int(text: str) -> int:
    """argparse type for a worker count."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


#: Options whose value may start with a negative integer (a list or a range).
_SIGNED_OPTIONS = ("--b", "--m")
_SIGNED_VALUE = re.compile(r"-\d[-\d,.]*$")


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
    import tempfile  # only --output writes a file

    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with open(fd, "w") as handle:
            handle.write(payload)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _emit(doc: dict, render, args) -> None:
    """Print DOC as JSON, or the text render() returns; --output writes it instead.

    The JSON is report.to_json's, the bytes of json.dumps(doc, indent=2);
    render is called only for --format text.  Once the reader closes stdout,
    the rest goes to os.devnull, where the flush at exit cannot fail.
    """
    if args.format == "json":
        from .report import to_json

        payload = to_json(doc)
    else:
        payload = render()
    if not args.output:
        try:
            print(payload, flush=True)
        except BrokenPipeError:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
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


def _run_suite(suite: str, args) -> list:
    if suite == "cg":
        from .ulrich_functions import SCAN_B_VALUES, verify_cg_induction, verify_cg_scan

        report = verify_cg_scan(
            args.s_max, args.d_max, SCAN_B_VALUES, workers=args.workers
        )
        results = _scan_checks(report)
        for s in range(2, args.s_max + 1):
            for b in SCAN_B_VALUES:
                results.extend(verify_cg_induction(s, b))
        return results
    home, name, min_s, default_range, pairs = _RANGED_SUITES[suite]
    low, high = args.s if args.s else default_range
    if low < min_s:
        # Under --suite all, each suite runs the part of --s it supports.
        if args.suite != "all":
            raise ValueError(f"suite {suite} requires s >= {min_s}")
        low = min_s
    from importlib import import_module

    verify = getattr(import_module(f".{home}", __package__), name)
    if pairs:
        from .ulrich_functions import SUPPORTED_PAIRS

        return [
            c for s in range(low, high + 1) for r, m in SUPPORTED_PAIRS for c in verify(s, r, m)
        ]
    return [c for s in range(low, high + 1) for c in verify(s)]


def _scan_checks(report) -> list:
    from .report import FAIL, PASS, CheckResult

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
    from .polyring import MAX_VARS
    from .report import FAIL, PASS, all_ok, summarize
    from .ulrich_functions import SCAN_B_VALUES, check_scan_grid

    suites = list(SUITES[1:]) if args.suite == "all" else [args.suite]
    # Fail before any work: the ranged suites work in s variables, cg in s-max + 1,
    # and the scan has a bounded grid.
    if args.suite != "cg" and args.s and args.s[1] > MAX_VARS:
        raise ValueError(f"--s must be at most {MAX_VARS} (MAX_VARS), got {args.s[1]}")
    if "cg" in suites and args.s_max >= MAX_VARS:
        raise ValueError(
            f"--s-max must be at most {MAX_VARS - 1} for suite cg (MAX_VARS - 1), "
            f"got {args.s_max}"
        )
    if "cg" in suites:
        check_scan_grid(args.s_max, args.d_max, SCAN_B_VALUES)
    results = []
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
            "workers": args.workers,
        },
    )
    doc["results"] = [r.to_dict() for r in results]
    doc["summary"] = summary
    doc["status"] = status

    def render() -> str:
        lines = []
        for r in results:
            params = " ".join(f"{k}={v}" for k, v in r.parameters.items())
            lines.append(f"{r.status.upper():4s} {r.lemma} {params}")
        lines.append(
            f"{summary['passed']}/{summary['total']} checks passed"
            + (f", {summary['failed']} FAILED" if summary["failed"] else "")
        )
        return "\n".join(lines)

    _emit(doc, render, args)
    return 0 if status == PASS else 1


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------


def _cmd_invariants(args) -> int:
    from .ci_invariants import CIConfig, _frac_doc, c2X_coeff, c2_E_coeff, canonical_coeff
    from .ci_invariants import deg_Z, det_twist, euler_table, parity_obstruction

    cfg = CIConfig(args.n, args.degrees, args.r)
    m_low, m_high = args.m if args.m else (0, cfg.n)
    if m_high - m_low >= MAX_TWISTS:
        raise ValueError(f"--m spans {m_high - m_low + 1} twists; at most {MAX_TWISTS}")
    obstructed = parity_obstruction(cfg)
    e, e_integral = c2_E_coeff(cfg)
    table = euler_table(cfg, m_low, m_high)
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

    def render() -> str:
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
        return "\n".join(lines)

    _emit(doc, render, args)
    return 0


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------


def _cmd_certify(args) -> int:
    from .ci_invariants import certify

    certificate = certify(args.n, args.degrees, args.r)
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(certificate.to_dict())

    def render() -> str:
        lines = [
            f"verdict: {certificate.verdict}",
            f"reason: {certificate.reason}",
        ]
        for key, value in certificate.witnesses.items():
            lines.append(f"  {key}: {value}")
        if certificate.hypotheses:
            lines.append("conditional on: " + "; ".join(certificate.hypotheses))
        return "\n".join(lines)

    _emit(doc, render, args)
    return 0


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------


def _cmd_scan(args) -> int:
    from .ulrich_functions import SCAN_B_VALUES, verify_cg_scan

    b_values = SCAN_B_VALUES if args.b is None else args.b
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

    def render() -> str:
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
        return "\n".join(lines)

    _emit(doc, render, args)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _build_parser() -> tuple[argparse.ArgumentParser, dict, dict]:
    """The top-level parser, each command's parser and each command's options.

    A command's options map each option string to the Action add_argument
    returned for it; _read_strict reads them.
    """
    parser = argparse.ArgumentParser(
        prog="ulrichci",
        description="Exact verification of the symmetric-function identities and "
        "non-existence certificates for low-rank Ulrich bundles on complete "
        "intersections.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    shared = (
        common.add_argument(
            "--format", choices=("text", "json"), default="text", help="output format"
        ),
        common.add_argument("--output", help="write output to this path instead of stdout"),
    )
    query = argparse.ArgumentParser(add_help=False)
    asked = shared + (
        query.add_argument("--n", type=int, required=True),
        query.add_argument(
            "--degrees", type=_parse_int_list, required=True, help='comma separated, e.g. "2,3"'
        ),
        query.add_argument("--r", type=int, required=True),
    )

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run identity verification suites"
    )
    verify = shared + (
        p_verify.add_argument("--suite", choices=SUITES, default="all"),
        p_verify.add_argument(
            "--s", type=_parse_range, default=None, help='s range, e.g. "4..8" or "5"'
        ),
        p_verify.add_argument("--s-max", type=int, default=6, help="scan: largest s"),
        p_verify.add_argument("--d-max", type=int, default=6, help="scan: largest degree"),
        p_verify.add_argument(
            "--seed",
            type=int,
            help="accepted and ignored: every check is exact and samples nothing",
        ),
        p_verify.add_argument("--workers", type=_positive_int, default=1),
    )
    p_verify.set_defaults(func=_cmd_verify)

    p_inv = sub.add_parser(
        "invariants", parents=[common, query], help="print invariant and Euler tables"
    )
    invariants = asked + (
        p_inv.add_argument(
            "--m", type=_parse_range, default=None, help='twist range, e.g. "0..4"'
        ),
    )
    p_inv.set_defaults(func=_cmd_invariants)

    p_cert = sub.add_parser(
        "certify", parents=[common, query], help="emit a non-existence certificate"
    )
    p_cert.set_defaults(func=_cmd_certify)

    p_scan = sub.add_parser(
        "scan", parents=[common], help="exhaustive positivity scan of q_{s,b}"
    )
    scan = shared + (
        p_scan.add_argument("--s-max", type=int, required=True),
        p_scan.add_argument("--d-max", type=int, required=True),
        p_scan.add_argument("--b", type=_parse_int_list, help='comma separated, e.g. "8,9"'),
        p_scan.add_argument("--workers", type=_positive_int, default=1),
        p_scan.add_argument(
            "--list-tuples",
            action="store_true",
            help="include per-tuple q values (small scans only)",
        ),
    )
    p_scan.set_defaults(func=_cmd_scan)
    options = {
        name: {string: action for action in actions for string in action.option_strings}
        for name, actions in (
            ("verify", verify), ("invariants", invariants), ("certify", asked), ("scan", scan)
        )
    }
    return parser, sub.choices, options


_PARSER, _COMMANDS, _OPTIONS = _build_parser()


def _read_strict(command: str, argv: list[str]) -> argparse.Namespace | None:
    """The Namespace _COMMANDS[command].parse_args(argv) returns, or None.

    Reads only a line of the command's exact option strings, each given at
    most once: a flag bare, any other option with a value joined by "=" or in
    the next token that does not start with "-" and passes the option's type
    and choices, and every required option present.  Any other line is None,
    left to argparse: help, abbreviations, repeats, negative values and errors.
    """
    options = _OPTIONS[command]
    given = {}
    tokens = iter(argv)
    for token in tokens:
        name, joined, value = token.partition("=")
        action = options.get(name)
        if action is None or action in given:
            return None
        if action.nargs == 0:  # a store_true flag
            if joined:
                return None
            given[action] = action.const
            continue
        if not joined:
            value = next(tokens, "-")  # a missing value is declined as "-" is
        if value.startswith("-"):
            return None
        try:
            value = action.type(value) if action.type else value
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        given[action] = value
    args = argparse.Namespace(func=_COMMANDS[command].get_default("func"))
    for action in options.values():
        if action in given:
            value = given[action]
        elif action.required:
            return None
        else:
            value = action.default
            if isinstance(value, str) and action.type:
                value = action.type(value)
        setattr(args, action.dest, value)
    return args


def main(argv=None) -> int:
    """Run one command line and return its exit code.

    _read_strict reads a well-formed line without argparse.  Every other
    line goes to the command's argparse parser, so help, usage errors and
    their exit codes are argparse's own; the top-level parser sees only
    --version, --help and a missing or unknown command.  Exact values may
    have more digits than str(int) allows by default, so the digit limit is
    lifted while main runs and the caller's limit is restored after.
    """
    argv = _glue_signed_values(sys.argv[1:] if argv is None else list(argv))
    command = _COMMANDS.get(argv[0]) if argv else None
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if command is None:
            args = _PARSER.parse_args(argv)
        else:
            args = _read_strict(argv[0], argv[1:]) or command.parse_args(argv[1:])
        return args.func(args)
    except ValueError as exc:  # ParityError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
