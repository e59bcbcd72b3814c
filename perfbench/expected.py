"""Recorded mathematical results and the checks that compare outputs to them.

Only mathematical fields are compared, never a whole envelope, so a report
that gains counters or a new ``schema_version`` still passes while a wrong
number fails.  Every check returns a list of problems; empty means correct.
"""

from __future__ import annotations

import csv
import io
import json
import math

# Computed specs: facet count, h-vector, dim, reg, a-invariant, Gorenstein.
# Facet counts of (12,), (2,2,4,4) and (2,2,2,2,2,2) match the baseline table
# in ROADMAP.md; reg, dim, a and Gorensteinness agree with the closed forms.
INVARIANTS: dict[tuple[int, ...], dict] = {
    (12,): {"facet_count": 3962, "h_vector": [1, 53, 606, 1716, 1287, 286, 13],
            "dim": 13, "reg": 6, "a_invariant": -7, "gorenstein": False},
    (2, 2, 4, 4): {"facet_count": 20696, "h_vector": [1, 50, 710, 3746, 7836, 6412, 1820, 120, 1],
                   "dim": 16, "reg": 8, "a_invariant": -8, "gorenstein": False},
    (2, 2, 2, 2, 2, 2): {"facet_count": 38012,
                         "h_vector": [1, 48, 666, 3843, 10332, 13230, 7812, 1926, 153, 1],
                         "dim": 18, "reg": 9, "a_invariant": -9, "gorenstein": False},
    (2, 10): {"facet_count": 7384, "h_vector": [1, 52, 673, 2562, 3003, 1001, 91, 1],
              "dim": 14, "reg": 7, "a_invariant": -7, "gorenstein": False},
    (3, 3, 4): {"facet_count": 2398, "h_vector": [1, 32, 283, 867, 916, 286, 13],
                "dim": 13, "reg": 6, "a_invariant": -7, "gorenstein": False},
    (2, 2, 2, 4): {"facet_count": 3146, "h_vector": [1, 31, 271, 910, 1225, 616, 91, 1],
                   "dim": 14, "reg": 7, "a_invariant": -7, "gorenstein": False},
    (5,): {"facet_count": 10, "h_vector": [1, 4, 4, 1],
           "dim": 6, "reg": 3, "a_invariant": -3, "gorenstein": True},
    (2, 4): {"facet_count": 28, "h_vector": [1, 7, 12, 7, 1],
             "dim": 8, "reg": 4, "a_invariant": -4, "gorenstein": True},
    (6,): {"facet_count": 32, "h_vector": [1, 8, 16, 7],
           "dim": 7, "reg": 3, "a_invariant": -4, "gorenstein": False},
    (8,): {"facet_count": 198, "h_vector": [1, 19, 85, 84, 9],
           "dim": 9, "reg": 4, "a_invariant": -5, "gorenstein": False},
    (4, 5): {"facet_count": 687, "h_vector": [1, 25, 164, 321, 165, 11],
             "dim": 11, "reg": 5, "a_invariant": -6, "gorenstein": False},
    (2, 3, 4): {"facet_count": 924, "h_vector": [1, 24, 159, 373, 300, 66, 1],
                "dim": 12, "reg": 6, "a_invariant": -6, "gorenstein": False},
    (2, 6): {"facet_count": 276, "h_vector": [1, 18, 86, 125, 45, 1],
             "dim": 10, "reg": 5, "a_invariant": -5, "gorenstein": False},
}

# Prediction-only specs (c < d + 4): closed-form values, exit code 3.
PREDICTED: dict[tuple[int, ...], dict] = {
    (3,): {"dim": 3, "reg": 0, "a_invariant": -3, "gorenstein": True},
    (1, 1, 1, 1): {"dim": 5, "reg": 1, "a_invariant": -4, "gorenstein": False},
}

# Hilbert function of the fiber cone in degrees 0..t_max: the rank oracle
# and the face count must both give these values.
HILBERT: dict[tuple[int, ...], list[int]] = {
    (5,): [1, 10, 49, 165, 440, 1001],
    (2, 4): [1, 15, 104, 475],
    (6,): [1, 15, 100, 427, 1379],
    (8,): [1, 28, 301, 1869],
    (4, 5): [1, 36, 505, 4061],
    (2, 3, 4): [1, 36, 525, 4517],
    (2, 6): [1, 28, 321, 2195],
}


def spec_tag(n: tuple[int, ...]) -> str:
    """Metric tag of a spec, e.g. ``n2-2-4-4``."""
    return "n" + "-".join(str(v) for v in n)


def hilbert_by_faces(f: list[int], t: int) -> int:
    """Degree-t monomials supported on faces, from the f-vector f[k-1]."""
    if t == 0:
        return 1
    return sum(f[k - 1] * math.comb(t - 1, k - 1) for k in range(1, t + 1))


def _parse_json(stdout: bytes) -> tuple[dict | None, list[str]]:
    try:
        return json.loads(stdout), []
    except ValueError as exc:
        return None, [f"stdout is not JSON: {exc}"]


def _compare(where: str, got: dict, want: dict) -> list[str]:
    return [
        f"{where}.{key}: got {got.get(key)!r}, expected {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]


def check_invariants(n: tuple[int, ...], stdout: bytes, table: dict = INVARIANTS) -> list[str]:
    """``invariants --format json``; prediction-only specs carry no
    certification, only the closed-form values."""
    data, problems = _parse_json(stdout)
    if data is None:
        return problems
    inv = data.get("invariants") or {}
    if inv.get("closed_form_match") is not True:
        problems.append("invariants.closed_form_match is not true")
    if n in PREDICTED:
        return problems + _compare("invariants", inv, {**PREDICTED[n], "mode": "prediction-only"})
    problems += _compare("invariants", inv, table[n])
    if (data.get("verification") or {}).get("passed") is not True:
        problems.append("verification.passed is not true")
    return problems


def check_verify(n: tuple[int, ...], t_max: int, stdout: bytes, table: dict = HILBERT) -> list[str]:
    """``verify --format json``: certification passed, every oracle row equal
    and equal to the recorded Hilbert function."""
    data, problems = _parse_json(stdout)
    if data is None:
        return problems
    ver = data.get("verification") or {}
    orc = data.get("oracle") or {}
    if ver.get("passed") is not True:
        problems.append("verification.passed is not true")
    if ver.get("facets") != INVARIANTS[n]["facet_count"]:
        problems.append(f"verification.facets: got {ver.get('facets')!r}, "
                        f"expected {INVARIANTS[n]['facet_count']}")
    if orc.get("passed") is not True:
        problems.append("oracle.passed is not true")
    want = [[t, value, value, True] for t, value in enumerate(table[n][: t_max + 1])]
    if orc.get("rows") != want:
        problems.append(f"oracle.rows: got {orc.get('rows')!r}, expected {want!r}")
    return problems


def check_batch_csv(lines: list[str], stdout: bytes) -> list[str]:
    """Default ``batch`` CSV: one row per input line, in input order."""
    try:
        rows = list(csv.DictReader(io.StringIO(stdout.decode())))
    except (UnicodeDecodeError, csv.Error) as exc:
        return [f"stdout is not CSV: {exc}"]
    if len(rows) != len(lines):
        return [f"batch printed {len(rows)} rows for {len(lines)} lines"]
    problems = []
    for line, row in zip(lines, rows):
        n = tuple(int(v) for v in line.split(","))
        if n in PREDICTED:
            want = PREDICTED[n]
            expected = {"facets": "", "reg": str(want["reg"]), "a": str(want["a_invariant"]),
                        "gorenstein": str(want["gorenstein"]).lower(), "pass": "prediction-only"}
        else:
            want = INVARIANTS[n]
            expected = {"facets": str(want["facet_count"]), "reg": str(want["reg"]),
                        "a": str(want["a_invariant"]),
                        "gorenstein": str(want["gorenstein"]).lower(), "pass": "true"}
        expected.update(c=str(sum(n)), d=str(len(n)))
        problems += _compare(f"batch line {line}", row, expected)
    return problems


def check_layers(n: tuple[int, ...], t_max: int, report: dict) -> list[str]:
    """One spec's traced layer run (see ``layers.py``); ``t_max`` 0 means
    the oracle was not run."""
    where = f"trace {spec_tag(n)}"
    want = INVARIANTS[n]
    problems = _compare(where, report, {"h_vector": want["h_vector"], "certified": True,
                                        "hilbert_paths_equal": True})
    problems += _compare(where, report.get("counts") or {},
                         {"facet_complex.facets": want["facet_count"],
                          "dual_quotients.nonlinear_reports": 0})
    if t_max:
        expected = HILBERT[n][: t_max + 1]
        f = report.get("f_vector") or []
        by_faces = [hilbert_by_faces(f, t) for t in range(t_max + 1)] if len(f) >= t_max else None
        if report.get("ranks") != expected or by_faces != expected:
            problems.append(f"{where}: ranks {report.get('ranks')!r}, faces {by_faces!r}, "
                            f"expected {expected!r}")
    return problems
