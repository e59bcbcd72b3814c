"""Command-line front end: batch computation, verification, report files.

Exit codes: 0 all checks pass; 1 mathematical mismatch or failed
certification; 2 usage or capacity errors; 3 prediction-only (no complex is
built when c < d + 4, closed-form predictions are emitted instead).

Reports are deterministic: identical configuration yields byte-identical
output.  Wall-clock timings are therefore only included on request.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import re
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .dual_quotients import (
    MUTATIONS,
    VerificationResult,
    _facets,
    colon_generators,
    enumerate_facets,
    first_facet,
    predict_LG,
    verify_linear_quotients,
)
from .errors import PreconditionError, ScrollError, VerificationError
from .facet_complex import Facet, _face_vector, _hf_from_counts, facet_tree, is_facet
from .invariants import full_report
from .oracle import (
    DEFAULT_MODULUS,
    CrossCheckResult,
    _preflight,
    cross_check,
    fiber_hilbert_function,
)
from .scroll_model import ScrollSpec, build_matrix, leaves_profile, require_alpha

EXIT_OK = 0
EXIT_MATH = 1
EXIT_USAGE = 2
EXIT_PREDICTION_ONLY = 3

SCHEMA_VERSION = 4
CSV_COLUMNS = ("c", "d", "facets", "reg", "a", "gorenstein", "pass")
MAX_REPORTED_FAILURES = 100


@dataclass(slots=True)
class ReportEnvelope:
    """Schema-stable result wrapper; every field is always present."""

    spec: dict
    mode: str
    invariants: dict | None = None
    verification: dict | None = None
    oracle: dict | None = None
    timings: dict | None = None
    error: str | None = None
    schema_version: int = SCHEMA_VERSION
    tool: dict = field(default_factory=lambda: {"name": "scrollfiber", "version": __version__})

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


# An integer option: ASCII decimal digits after an optional minus sign, with
# optional surrounding spaces.  ``int`` alone would also take ``1_2``, ``+5``
# and non-ASCII digits.  The minus sign parses, so that a negative value is
# refused by the check of its option, with that option's message.
DECIMAL = re.compile("-?[0-9]+")


def _parse_int(text: str) -> int:
    """The argparse ``type`` of every integer option: ``DECIMAL``, refused
    with argparse's own message for a value that is no int."""
    if not DECIMAL.fullmatch(text.strip()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_n(text: str) -> tuple[tuple[int, ...], bool]:
    """Block degrees from comma-separated ``DECIMAL`` values; a negative
    degree is refused as not positive.  Returns the sorted degrees and
    whether sorting moved any."""
    parts = [part.strip() for part in text.split(",")]
    if not all(DECIMAL.fullmatch(part) for part in parts):
        raise PreconditionError(f"cannot parse block degrees from {text!r}")
    values = tuple(map(int, parts))
    if not values or any(v < 1 for v in values):
        raise PreconditionError(f"block degrees must be positive integers: {text!r}")
    ordered = tuple(sorted(values))
    return ordered, ordered != values


def _parse_modulus(text: str) -> int | str:
    if text == "rational":
        return text
    if not DECIMAL.fullmatch(text.strip()):
        raise PreconditionError(f"modulus must be an integer or 'rational': {text!r}")
    return int(text)


def _spec_dict(spec: ScrollSpec, normalized: bool) -> dict:
    return {"n": list(spec.n), "c": spec.c, "d": spec.d, "normalized": normalized}


def _verification_dict(result: VerificationResult) -> dict:
    entries = []
    for report in result.failing[:MAX_REPORTED_FAILURES]:
        entries.append(
            {
                "alpha": report.facet.alpha,
                "vertices": sorted(list(v) for v in report.facet.vertices),
                "linear": report.linear,
                "computed_generators": sorted(
                    sorted(list(v) for v in gen) for gen in report.computed_generators
                ),
                "predicted": sorted(list(v) for v in report.predicted_LG),
            }
        )
    return {
        "passed": result.passed,
        "facets": result.facet_count,
        "mode": "scan" if result.scanned else "indexed",
        "mutation": result.mutation,
        "failure_count": len(result.failing),
        "failures": entries,
    }


def _oracle_dict(result: CrossCheckResult) -> dict:
    return {
        "t_max": result.t_max,
        "modulus": str(result.modulus),
        "passed": result.passed,
        "notes": list(result.notes),
        "rows": [[row.t, row.fiber_rank, row.face_count, row.equal] for row in result.rows],
        "blocks": [list(entry) for entry in result.blocks],
    }


def _summary_row(envelope: ReportEnvelope) -> list[str]:
    inv = envelope.invariants
    if envelope.error is not None or inv is None:
        status = "error"
        return ["", "", "", "", "", "", status]
    if envelope.mode == "prediction-only":
        status = "prediction-only"
    else:
        verified = envelope.verification["passed"] if envelope.verification else False
        status = "true" if (inv["closed_form_match"] and verified) else "false"
    return [
        str(inv["c"]),
        str(inv["d"]),
        "" if inv["facet_count"] is None else str(inv["facet_count"]),
        str(inv["reg"]),
        str(inv["a_invariant"]),
        "true" if inv["gorenstein"] else "false",
        status,
    ]


def _render_csv(envelopes: Sequence[ReportEnvelope]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for envelope in envelopes:
        writer.writerow(_summary_row(envelope))
    return buffer.getvalue()


def _render_text(envelope: ReportEnvelope) -> str:
    lines = []
    spec = envelope.spec
    if spec.get("n") is None:
        lines.append(f"spec: unparsable input {spec.get('input')!r}")
    else:
        lines.append(
            f"spec: n=({','.join(str(v) for v in spec['n'])}) c={spec['c']} d={spec['d']}"
        )
    if spec.get("normalized"):
        lines.append("note: block degrees were reordered non-decreasingly")
    lines.append(f"mode: {envelope.mode}")
    if envelope.error is not None:
        lines.append(f"error: {envelope.error}")
    inv = envelope.invariants
    if inv is not None:
        if inv["facet_count"] is not None:
            lines.append(f"facets: {inv['facet_count']}")
        if inv["h_vector"] is not None:
            lines.append("h-vector: " + " ".join(str(v) for v in inv["h_vector"]))
        lines.append(f"dim: {inv['dim']}")
        lines.append(f"reg: {inv['reg']}")
        lines.append(f"a-invariant: {inv['a_invariant']}")
        lines.append(f"reduction number: {inv['reduction_number']}")
        lines.append(f"gorenstein: {'true' if inv['gorenstein'] else 'false'}")
        lines.append(f"closed-form match: {'true' if inv['closed_form_match'] else 'false'}")
    ver = envelope.verification
    if ver is not None:
        status = "pass" if ver["passed"] else f"FAIL ({ver['failure_count']} facets)"
        suffix = f" [mutation: {ver['mutation']}]" if ver.get("mutation") else ""
        lines.append(f"linear quotients: {status} over {ver['facets']} facets{suffix}")
        for entry in ver["failures"][:10]:
            gens = entry["computed_generators"]
            lines.append(f"  offending facet (alpha={entry['alpha']}): generators {gens}")
    orc = envelope.oracle
    if orc is not None:
        lines.append(f"oracle (modulus {orc['modulus']}, t <= {orc['t_max']}):")
        for t, fiber, faces_val, equal in orc["rows"]:
            mark = "ok" if equal else "MISMATCH"
            lines.append(f"  t={t}: fiber={fiber} faces={faces_val} {mark}")
        for note in orc["notes"]:
            lines.append(f"  note: {note}")
        lines.append(f"oracle: {'pass' if orc['passed'] else 'FAIL'}")
    if envelope.timings is not None:
        for key, value in envelope.timings.items():
            lines.append(f"timing {key}: {value}s")
    return "\n".join(lines) + "\n"


def _render(envelope: ReportEnvelope, fmt: str) -> str:
    if fmt == "json":
        return envelope.to_json()
    if fmt == "csv":
        return _render_csv([envelope])
    return _render_text(envelope)


def _write_output(text: str, out_dir: str | None, filename: str) -> None:
    """Write the report to ``out_dir`` (or ``SCROLLFIBER_OUT_DIR``), then print it."""
    out_dir = out_dir or os.environ.get("SCROLLFIBER_OUT_DIR")
    if out_dir:
        try:
            Path(out_dir).mkdir(parents=True, exist_ok=True)
            (Path(out_dir) / filename).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise PreconditionError(f"cannot write the report to {out_dir}: {exc}")
    sys.stdout.write(text)


def _stopwatch(timings: dict[str, float] | None) -> Callable[[str], None]:
    """``lap(name)`` records under ``name`` the seconds since the previous
    lap (or since this call), rounded to milliseconds, when ``timings`` is a
    dict; otherwise it records nothing."""
    last = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal last
        now = time.perf_counter()
        if timings is not None:
            timings[name] = round(now - last, 3)
        last = now

    return lap


def cmd_invariants(
    spec: ScrollSpec, normalized: bool, timings: dict[str, float] | None = None
) -> tuple[ReportEnvelope, int]:
    """Full invariant report; prediction-only (exit 3) when c < d + 4.  A
    failed certification is exit 1 with the verification block, failing
    facets included, and no invariants.  ``timings`` receives the seconds
    of the stage ``certify``, which folds the facets as it certifies them."""
    lap = _stopwatch(timings)
    envelope = ReportEnvelope(spec=_spec_dict(spec, normalized), mode="computed")
    try:
        if spec.has_complex:
            envelope.verification = _verification_dict(verify_linear_quotients(spec))
            lap("certify")
        report = full_report(spec)
    except VerificationError as exc:
        envelope.error = str(exc)
        return envelope, EXIT_MATH
    envelope.mode, envelope.invariants = report.mode, asdict(report)
    if report.mode == "prediction-only":
        return envelope, EXIT_PREDICTION_ONLY
    return envelope, EXIT_OK if report.closed_form_match else EXIT_MATH


def cmd_verify(
    spec: ScrollSpec,
    normalized: bool,
    t_max: int,
    modulus: int | str,
    mutation: str | None,
    timings: dict[str, float] | None = None,
) -> tuple[ReportEnvelope, int]:
    """Linear-quotients certification plus the rank-oracle cross-check; an
    enumeration or face count that fails its certificate is exit 1.  The
    oracle's pre-flight checks run first, so a refused oracle run certifies
    nothing.  ``timings`` receives the seconds of the stages ``certify`` and
    ``oracle``."""
    _preflight(spec, t_max, modulus)
    lap = _stopwatch(timings)
    try:
        verification = verify_linear_quotients(spec, mutation=mutation)
        lap("certify")
        oracle_result = cross_check(spec, t_max, modulus=modulus)
        lap("oracle")
    except VerificationError as exc:
        envelope = ReportEnvelope(spec=_spec_dict(spec, normalized), mode="computed", error=str(exc))
        return envelope, EXIT_MATH
    envelope = ReportEnvelope(
        spec=_spec_dict(spec, normalized),
        mode="computed",
        verification=_verification_dict(verification),
        oracle=_oracle_dict(oracle_result),
    )
    passed = verification.passed and oracle_result.passed
    return envelope, EXIT_OK if passed else EXIT_MATH


def cmd_facets(
    spec: ScrollSpec, normalized: bool, fmt: str, alpha: int | None, limit: int
) -> str:
    """Render the facet list (with trees).  Only the groups it reaches are
    folded and checked, and only the views it prints are built."""
    if limit < 0:
        raise PreconditionError(f"--limit must be >= 0 (0 emits every facet), got {limit}")
    if alpha is not None:
        require_alpha(spec, alpha)  # before any fold, at any c
    views = itertools.islice(_facets(spec, alpha), min(limit, sys.maxsize) or None)
    if fmt == "json":
        facets = [
            {
                "alpha": f.alpha,
                "vertices": sorted(list(v) for v in f.vertices),
                "parents": sorted([list(v), list(p)] for v, p in facet_tree(f).parent.items()),
            }
            for f in views
        ]
        payload = {
            "schema_version": SCHEMA_VERSION,
            "spec": _spec_dict(spec, normalized),
            "count": len(facets),
            "facets": facets,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines = [
        f"alpha={f.alpha}  " + " ".join(f"({a},{b})" for a, b in sorted(f.vertices)) for f in views
    ]
    header = f"{len(lines)} facets of n=({','.join(str(v) for v in spec.n)})"
    return "\n".join([header, *lines]) + "\n"


def _batch_line(
    line: str, reports: dict[tuple[int, ...], tuple[ReportEnvelope, int]]
) -> tuple[ReportEnvelope, int]:
    try:
        n, normalized = _parse_n(line)
    except PreconditionError as exc:
        envelope = ReportEnvelope(
            spec={"n": None, "c": None, "d": None, "normalized": False, "input": line},
            mode="error",
            error=str(exc),
        )
        return envelope, EXIT_USAGE
    if n not in reports:
        spec = ScrollSpec(n)
        try:
            reports[n] = cmd_invariants(spec, normalized)
        except ScrollError as exc:
            envelope = ReportEnvelope(spec=_spec_dict(spec, normalized), mode="error", error=str(exc))
            reports[n] = envelope, EXIT_USAGE
    envelope, code = reports[n]
    return replace(envelope, spec={**envelope.spec, "normalized": normalized}), code


def cmd_batch(path: str) -> tuple[list[ReportEnvelope], int]:
    """One invariant envelope per input line, in input order; errors never stop
    the run.  Each distinct scroll type is computed once per run: a line whose
    degrees equal an earlier line's after sorting gets a copy of that line's
    report with its own ``normalized`` flag.  Only the reports are kept; a
    line's spec and its intermediate results are freed before the next line
    starts."""
    try:
        raw = Path(path).read_text(encoding="utf-8-sig")  # drops a leading BOM
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read batch file {path}: {exc}")
    lines = [line.strip() for line in raw.splitlines()]
    lines = [line for line in lines if line]
    reports: dict[tuple[int, ...], tuple[ReportEnvelope, int]] = {}
    results = [_batch_line(line, reports) for line in lines]
    codes = {code for _, code in results}
    exit_code = next((code for code in (EXIT_USAGE, EXIT_MATH) if code in codes), EXIT_OK)
    return [envelope for envelope, _ in results], exit_code


def cmd_selftest() -> int:
    """Built-in example checks; prints one line per check."""
    checks: list[tuple[str, bool]] = []

    spec = ScrollSpec((2, 2, 4, 4))
    top_row = tuple(col[0] for col in build_matrix(spec).columns)
    checks.append(
        (
            "matrix arrangement (2,2,4,4)",
            top_row
            == ((1, 0), (2, 0), (3, 0), (4, 0), (3, 1), (4, 1), (3, 2), (4, 2), (4, 3), (3, 3), (2, 1), (1, 1)),
        )
    )
    expected_leaves = frozenset({(2, 3), (3, 4), (4, 5), (5, 6), (10, 11), (11, 12)})
    checks.append(("leaf set (2,2,4,4) alpha=2", leaves_profile(spec, 2).leaves == expected_leaves))
    first = first_facet(spec, 2)
    expected_first = frozenset((k, 12) for k in range(1, 11)) | expected_leaves
    checks.append(("first facet (2,2,4,4) alpha=2", first.vertices == expected_first))
    checks.append(("first facet is a facet", is_facet(spec, first.vertices)))
    try:
        faces = verify_linear_quotients(spec).passed
    except VerificationError:
        faces = False
    checks.append(("face count equals certified h (2,2,4,4)", faces))

    spec245 = ScrollSpec((2, 4, 5))
    example = Facet(
        vertices=frozenset(
            {
                (1, 2), (1, 3), (1, 4), (1, 6), (1, 7), (1, 8), (1, 9), (1, 11),
                (2, 3), (3, 4), (4, 5), (4, 6), (9, 11), (10, 11),
            }
        ),
        alpha=1,
        spec=spec245,
    )
    predicted = predict_LG(example)
    expected_lg = frozenset({(1, 2), (1, 3), (1, 4), (1, 6), (1, 9)})
    checks.append(("column-1 generators (2,4,5)", predicted == expected_lg))
    gens = colon_generators(example, enumerate_facets(spec245))
    checks.append(("colon generators match prediction", gens == frozenset(frozenset((v,)) for v in expected_lg)))

    spec5 = ScrollSpec((5,))
    result = verify_linear_quotients(spec5)
    checks.append(("linear quotients (5)", result.passed))
    checks.append(("h-vector (5)", result.degree_counts == (1, 4, 4, 1)))
    faces5 = _face_vector(spec5)
    oracle_ok = all(
        fiber_hilbert_function(spec5, t) == _hf_from_counts(faces5, t) for t in range(3)
    )
    checks.append(("rank oracle agrees (5), t <= 2", oracle_ok))
    rational_ok = all(
        fiber_hilbert_function(spec5, t, modulus="rational") == fiber_hilbert_function(spec5, t)
        for t in (1, 2, 3)
    )
    checks.append(("rational rank equals modular rank (5), t <= 3", rational_ok))

    failed = 0
    for name, ok in checks:
        print(f"selftest: {name} ... {'ok' if ok else 'FAIL'}")
        if not ok:
            failed += 1
    print(f"selftest: {len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_MATH


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scrollfiber",
        description="Fiber-cone invariants of rational normal scrolls via the initial complex.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, formats: Sequence[str] = ("text", "json")) -> None:
        p.add_argument("--n", required=True, help="block degrees, e.g. 2,2,4,4")
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out-dir", default=None, help="also write the report to this directory")

    p_inv = sub.add_parser("invariants", help="compute and check all invariants")
    add_common(p_inv, ("text", "json", "csv"))

    p_ver = sub.add_parser("verify", help="certify linear quotients and run the rank oracle")
    add_common(p_ver)
    p_ver.add_argument("--t-max", type=_parse_int, default=3)
    p_ver.add_argument("--modulus", default=str(DEFAULT_MODULUS),
                       help="prime modulus for the rank oracle, or 'rational'")
    p_ver.add_argument("--mutate-rule", choices=sorted(MUTATIONS), default=None,
                       help="diagnostic rule mutation (checker self-test)")
    for p in (p_inv, p_ver):
        p.add_argument("--timings", action="store_true", help="include wall-clock timings")

    p_fac = sub.add_parser("facets", help="dump the facet list")
    add_common(p_fac)
    p_fac.add_argument("--alpha", type=_parse_int, default=None, help="restrict to one group")
    p_fac.add_argument("--limit", type=_parse_int, default=0, help="emit at most this many facets")

    p_bat = sub.add_parser("batch", help="one report per line of a file of block-degree lists")
    p_bat.add_argument("file", help="input file, one comma-separated n per line")
    p_bat.add_argument("--format", choices=("text", "json", "csv"), default="csv")
    p_bat.add_argument("--out-dir", default=None)

    sub.add_parser("selftest", help="run the built-in example checks")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return cmd_selftest()

        if args.command == "batch":
            envelopes, code = cmd_batch(args.file)
            if args.format == "json":
                text = "".join(
                    json.dumps(e.to_dict(), sort_keys=True) + "\n" for e in envelopes
                )
            elif args.format == "csv":
                text = _render_csv(envelopes)
            else:
                text = "".join(_render_text(e) for e in envelopes)
            _write_output(text, args.out_dir, f"batch.{args.format}")
            for envelope in envelopes:
                if envelope.error is not None:
                    print(f"error: {envelope.error}", file=sys.stderr)
            return code

        if args.command == "invariants" and args.format == "csv" and args.timings:
            raise PreconditionError("--timings needs --format text or json: csv has no timing column")
        n, normalized = _parse_n(args.n)
        if normalized:
            print(f"note: n reordered non-decreasingly to {','.join(map(str, n))}", file=sys.stderr)
        spec = ScrollSpec(n)
        filename = f"{args.command}-n{'-'.join(map(str, n))}.{args.format}"

        if args.command == "facets":
            text = cmd_facets(spec, normalized, args.format, args.alpha, args.limit)
            _write_output(text, args.out_dir, filename)
            return EXIT_OK

        started = time.perf_counter()
        stages: dict[str, float] = {}
        if args.command == "invariants":
            envelope, code = cmd_invariants(spec, normalized, stages)
        else:  # verify
            envelope, code = cmd_verify(
                spec, normalized, args.t_max, _parse_modulus(args.modulus), args.mutate_rule, stages
            )
        if args.timings and envelope.mode == "computed" and envelope.error is None:
            envelope.timings = {**stages, "total": round(time.perf_counter() - started, 3)}
        _write_output(_render(envelope, args.format), args.out_dir, filename)
        return code

    except ScrollError as exc:  # a failed check that no report holds is exit 1
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH if isinstance(exc, VerificationError) else EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
