"""Traced layer calls, run by ``run.py`` in a fresh process each.

    python3 perfbench/layers.py spec N WINDOW T_MAX MODULUS
    python3 perfbench/layers.py cli FILE batch|serial

``spec`` calls each layer's public functions for one scroll type in pipeline
order -- enumeration, certification, face walk, Hilbert comparison and, when
T_MAX > 0, the rank oracle at degrees 1..T_MAX -- timing each call and
reading the process's max-RSS after it.  ``cli`` times ``main`` on the lines
of FILE, either as one ``batch`` call or as one ``invariants`` call per line.
Both print one JSON object on stdout.  The package itself is not modified.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from expected import hilbert_by_faces


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def trace_spec(n: tuple[int, ...], window: int, t_max: int, modulus: str) -> dict:
    from scrollfiber import (
        ScrollSpec,
        build_rank_problem,
        enumerate_facets,
        face_counts,
        h_vector_from_quotients,
        hilbert_function_from_h,
        rank_mod_prime,
        rank_rational,
        verify_linear_quotients,
    )

    spec = ScrollSpec(n)
    times: dict[str, float] = {}
    rss: dict[str, float] = {}

    start = time.perf_counter()
    facets = enumerate_facets(spec)
    times["facet_complex.enumerate_s"] = time.perf_counter() - start
    rss["facet_complex.rss_mb"] = _rss_mb()

    start = time.perf_counter()
    result = verify_linear_quotients(spec)
    times["dual_quotients.certify_s"] = time.perf_counter() - start
    rss["dual_quotients.rss_mb"] = _rss_mb()

    start = time.perf_counter()
    f = face_counts(facets, window)
    times["invariants.face_walk_s"] = time.perf_counter() - start

    start = time.perf_counter()
    hv = h_vector_from_quotients(result.reports)
    dim = spec.c + spec.d
    paths_equal = all(
        hilbert_function_from_h(hv.h, dim, t) == hilbert_by_faces(f, t) for t in range(window + 1)
    )
    times["invariants.hilbert_check_s"] = time.perf_counter() - start
    rss["invariants.rss_mb"] = _rss_mb()

    shape = {"oracle.rows": 0, "oracle.cols": 0, "oracle.nnz": 0, "oracle.dense_cells": 0}
    build_s = modp_s = rational_s = 0.0
    ranks = [1]
    by_degree = []
    for t in range(1, t_max + 1):
        began = time.perf_counter()
        problem = build_rank_problem(spec, t)
        build_s += time.perf_counter() - began
        rows, cols = problem.shape
        shape["oracle.rows"] += rows
        shape["oracle.cols"] += cols
        shape["oracle.nnz"] += sum(len(row.terms) for row in problem.rows)
        shape["oracle.dense_cells"] += rows * cols
        start = time.perf_counter()
        if modulus == "rational":
            ranks.append(rank_rational(problem))
            rational_s += time.perf_counter() - start
        else:
            ranks.append(rank_mod_prime(problem, int(modulus)))
            modp_s += time.perf_counter() - start
        by_degree.append([t, time.perf_counter() - began])
        del problem
    times.update({"oracle.build_s": build_s, "oracle.rank_modp_s": modp_s,
                  "oracle.rank_rational_s": rational_s})
    rss["oracle.rss_mb"] = _rss_mb() if t_max else 0.0

    nonlinear = sum(not report.linear for report in result.reports)
    return {
        "certified": result.passed,
        "f_vector": list(f),
        "h_vector": list(hv.h),
        "hilbert_paths_equal": paths_equal,
        "ranks": ranks if t_max else None,
        "oracle_by_degree": by_degree,
        "times": times,
        "rss": rss,
        "counts": {
            "facet_complex.facets": len(facets),
            "dual_quotients.nonlinear_reports": nonlinear,
            "invariants.faces_visited": sum(f),
            **shape,
        },
    }


def time_cli(path: str, mode: str) -> dict:
    from scrollfiber.cli import main

    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle if line.strip()]
    if mode == "batch":
        argvs = [["batch", path]]
    else:
        argvs = [["invariants", "--n", line, "--format", "json"] for line in lines]
    results = []
    start = time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        results.append([code, out.getvalue()])
    return {"seconds": time.perf_counter() - start, "results": results}


def main(argv: list[str]) -> int:
    if argv[:1] == ["spec"] and len(argv) == 5:
        n = tuple(int(v) for v in argv[1].split(","))
        report = trace_spec(n, int(argv[2]), int(argv[3]), argv[4])
    elif argv[:1] == ["cli"] and len(argv) == 3 and argv[2] in ("batch", "serial"):
        report = time_cli(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
