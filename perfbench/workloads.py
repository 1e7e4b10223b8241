"""Inputs and output checks of the three benchmark workloads.

Every workload is a closed loop with one client: the next request is sent
only when the previous one has returned.  Each workload issues two request
kinds, and the end-to-end metrics ``kind1_p50_ms`` / ``kind2_p50_ms`` are the
median latencies of its first and second kind.

verify  (kinds: verify, verify_default)
    ``ulrichci verify --s 5..8 --format json --seed <seed>`` and the default
    budget ``ulrichci verify --format json --seed <seed>``, each in a fresh
    process, so the builders' lru_caches start cold as in every real CLI
    call.  Both cover all eight suites (292 and 249 checks); the first is
    dominated by the construction engine at s = 7, 8, the second is the
    plain cold call the roadmap tracks.  This is the workload where the
    engine, polyring and symfunc do the work.
scan    (kinds: scan_w1, scan_w2)
    ``ulrichci scan --s-max 12 --d-max 10 --b 8,9`` with ``--workers 1`` and
    with ``--workers 2`` (1,293,248 tuples each): q_value, tuple enumeration
    and the process pool, with no polynomial work.  The same layer is used
    serially and pooled, so a pool or streaming change that helps one path
    and costs the other shows, and so does the materialised tuple list in
    peak RSS.
query   (kinds: certify, invariants)
    One process sending ``certify`` and ``invariants`` requests
    (``--format json``) through ``cli.main`` over a 1000-point grid in seeded
    order: n in {4,5,6,8}, weakly decreasing degree tuples of 1-5 entries in
    2..5, r in {2,3}.  The engine and polyring do no work here, so this is
    the bypass workload for engine changes, and the one where per-request
    parsing, certificate and binomial arithmetic costs show.

The seed sets the order of the two kinds within each verify and scan
repetition, the ``verify --seed`` of the tf2bis samples, and the order of
the query grid.  The program receives only the generated arguments.
"""

from __future__ import annotations

import itertools
import json
import random
from math import comb

KINDS = {
    "verify": ("verify", "verify_default"),
    "scan": ("scan_w1", "scan_w2"),
    "query": ("certify", "invariants"),
}

#: Checks each verify request must report; fewer counts the missing as failed.
VERIFY_CHECKS = {"verify": 292, "verify_default": 249}

SCAN_S_MAX = 12
SCAN_D_MAX = 10
SCAN_B = (8, 9)
SCAN_CELLS = len(SCAN_B) * (SCAN_S_MAX - 1)

QUERY_GRID = [
    (n, degrees, r)
    for n in (4, 5, 6, 8)
    for k in range(1, 6)
    for degrees in itertools.combinations_with_replacement(range(5, 1, -1), k)
    for r in (2, 3)
]

CERTIFIED = ("NON_EXISTENCE", "EXCLUDED")


def _scan_argv(workers: int) -> list[str]:
    return [
        "scan", "--s-max", str(SCAN_S_MAX), "--d-max", str(SCAN_D_MAX),
        "--b", ",".join(map(str, SCAN_B)), "--workers", str(workers), "--format", "json",
    ]


def repetition(workload: str, seed: int, rng: random.Random) -> list[tuple[str, list[str]]]:
    """One repetition of a process workload: both kinds, in seeded order."""
    if workload == "verify":
        reqs = [
            ("verify", ["verify", "--s", "5..8", "--format", "json", "--seed", str(seed)]),
            ("verify_default", ["verify", "--format", "json", "--seed", str(seed)]),
        ]
    elif workload == "scan":
        reqs = [("scan_w1", _scan_argv(1)), ("scan_w2", _scan_argv(2))]
    else:
        raise ValueError(f"{workload!r} has no process repetitions")
    rng.shuffle(reqs)
    return reqs


def query_argv(kind: str, point) -> list[str]:
    n, degrees, r = point
    return [
        kind, "--n", str(n), "--degrees", ",".join(map(str, degrees)),
        "--r", str(r), "--format", "json",
    ]


def query_passes(seed: int):
    """Endless passes over the query grid, each in a fresh seeded order.

    Yields lists of (request id, kind, argv); a pass holds one certify
    (even id) and one invariants (odd id) request per grid point.
    """
    rng = random.Random(seed)
    requests = [
        (2 * i + j, kind, query_argv(kind, point))
        for i, point in enumerate(QUERY_GRID)
        for j, kind in enumerate(KINDS["query"])
    ]
    while True:
        order = list(requests)
        rng.shuffle(order)
        yield order


def query_point(request_id: int):
    return QUERY_GRID[request_id // 2]


# ---------------------------------------------------------------------------
# Output checks.  Each returns (operations attempted, operations failed).
# ---------------------------------------------------------------------------


def _load(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


def check_verify(kind: str, rc: int, text: str) -> tuple[int, int]:
    """A verify request: exit 0, status pass, and every check passing."""
    expected = VERIFY_CHECKS[kind]
    doc = _load(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("results"), list):
        return expected, expected
    results = doc["results"]
    attempted = max(len(results), expected)
    if rc != 0 or doc.get("status") != "pass":
        return attempted, attempted
    failed = sum(1 for r in results if r.get("status") != "pass")
    return attempted, failed + attempted - len(results)


def scan_cells(rc: int, text: str):
    doc = _load(text)
    if rc != 0 or not isinstance(doc, dict) or doc.get("status") != "pass":
        return None
    return doc.get("cells")


def check_scan_pair(cells_w1, cells_w2) -> tuple[int, int]:
    """Both scan outputs of a repetition, one operation per cell.

    Each cell must report the closed-form count C(s+d_max-1, s) - 1 and no
    violations, and the --workers 2 cells must equal the --workers 1 cells.
    """
    failed = 0
    for cells in (cells_w1, cells_w2):
        if cells is None or len(cells) != SCAN_CELLS:
            failed += SCAN_CELLS
            continue
        for cell in cells:
            s = cell["s"]
            if cell["tuples_checked"] != comb(s + SCAN_D_MAX - 1, s) - 1 or cell["violations"]:
                failed += 1
    if cells_w1 is not None and cells_w2 is not None and len(cells_w1) == len(cells_w2):
        failed += sum(1 for a, b in zip(cells_w1, cells_w2) if a != b)
    return 2 * SCAN_CELLS, min(failed, 2 * SCAN_CELLS)


class QueryChecker:
    """Checks query responses; a response equal to an already checked one passes.

    Certify must give a NON_EXISTENCE or EXCLUDED verdict for the requested
    input.  Invariants at n = 4 must give chi(O_X(m)) equal to the engine
    route ``build_a(s, m).eval(degrees)``, which shares no code with the
    inclusion-exclusion that ``chi_OX`` uses.
    """

    def __init__(self):
        self._checked: dict[int, str] = {}
        self._build_a = None

    def _chi_ox_engine(self, degrees, m: int) -> int:
        if self._build_a is None:
            from ulrichci.ulrich_functions import build_a

            self._build_a = build_a
        return self._build_a(len(degrees), m).eval(degrees)

    def ok(self, request_id: int, rc: int, text: str) -> bool:
        if rc != 0:
            return False
        if self._checked.get(request_id) == text:
            return True
        n, degrees, r = query_point(request_id)
        doc = _load(text)
        if not isinstance(doc, dict):
            return False
        if request_id % 2 == 0:
            good = doc.get("verdict") in CERTIFIED and doc.get("input") == {
                "n": n, "degrees": list(degrees), "r": r,
            }
        else:
            table = doc.get("euler_table") or []
            good = doc.get("parameters", {}).get("degrees") == list(degrees) and [
                row["m"] for row in table
            ] == list(range(n + 1))
            if good and n == 4:
                good = all(
                    row["chi_OX"] == self._chi_ox_engine(degrees, row["m"]) for row in table
                )
        if good:
            self._checked[request_id] = text
        return good
