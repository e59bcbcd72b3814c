"""Acceptance gate: every criterion at exact-arithmetic tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
live).  All comparisons are integer or set equalities; there are no numeric
tolerances anywhere.
"""

from __future__ import annotations

import math
from contextlib import contextmanager

import pytest
from conftest import DESK_SPECS, brute_force_facets, crossing, desk_specs_with_complex

from scrollfiber import (
    Facet,
    ScrollSpec,
    closed_form,
    colon_generators,
    cross_check,
    enumerate_facets,
    face_counts,
    fiber_hilbert_function,
    first_facet,
    full_report,
    h_vector_from_quotients,
    hilbert_function_from_h,
    leaves_profile,
    numerator_from_face_counts,
    predict_LG,
    verify_linear_quotients,
)
from scrollfiber.facet_complex import _face_vector, _hf_from_counts


# The worked example, shared with the desk suite so its results are computed once.
SPEC_2244 = next(s for s in DESK_SPECS if s.n == (2, 2, 4, 4))


@contextmanager
def criterion(number: int, name: str):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        print(f"[criterion {number:02d}] {name}: {'PASS' if ok else 'FAIL'}")


def test_criterion_01_worked_example_fidelity():
    with criterion(1, "leaf set and first facet of (2,2,4,4) at alpha=2"):
        spec = SPEC_2244
        leaves = leaves_profile(spec, 2).leaves
        assert leaves == {(2, 3), (3, 4), (4, 5), (5, 6), (10, 11), (11, 12)}
        expected = frozenset((k, 12) for k in range(1, 11)) | leaves
        facet = first_facet(spec, 2)
        assert facet.vertices == expected
        assert len(facet.vertices) == 16


def test_criterion_02_worked_generator_prediction():
    with criterion(2, "predicted and computed colon generators of the (2,4,5) facet"):
        spec = ScrollSpec((2, 4, 5))
        facet = Facet(
            vertices=frozenset(
                {
                    (1, 2), (1, 3), (1, 4), (1, 6), (1, 7), (1, 8), (1, 9), (1, 11),
                    (2, 3), (3, 4), (4, 5), (4, 6), (9, 11), (10, 11),
                }
            ),
            alpha=1,
            spec=spec,
        )
        predicted = predict_LG(facet)
        column_one = {v for v in predicted if v[0] == 1}
        assert column_one == {(1, 2), (1, 3), (1, 4), (1, 6), (1, 9)}
        computed = colon_generators(facet, enumerate_facets(spec))
        assert computed == frozenset(frozenset({v}) for v in predicted)


def test_criterion_03_linear_quotients_certification():
    with criterion(3, "linear quotients across the desk suite"):
        for spec in desk_specs_with_complex():
            result = verify_linear_quotients(spec)
            assert result.passed, f"certification failed for {spec}"
            assert result.reports[0].computed_generators == frozenset()
            for report in result.reports[1:]:
                assert report.computed_generators, f"empty colon off the top for {spec}"
                assert all(len(g) == 1 for g in report.computed_generators)
                assert report.matches_prediction


def test_criterion_04_brute_force_facet_oracle():
    with criterion(4, "enumeration equals the exhaustive facet filter"):
        for n in [(5,), (6,), (7,), (1, 5), (2, 4), (3, 3)]:
            spec = ScrollSpec(n)
            enumerated = {f.vertices for f in enumerate_facets(spec)}
            assert enumerated == brute_force_facets(spec), f"mismatch for {spec}"


def test_criterion_05_closed_form_reproduction():
    with criterion(5, "regularity, a-invariant, reduction number, dimension"):
        for spec in desk_specs_with_complex():
            report = full_report(spec)
            c, d = spec.c, spec.d
            assert report.reg == math.ceil((c + d - 1) / 2)
            assert report.a_invariant == report.reg - (c + d)
            assert report.reduction_number == report.reg
            assert report.dim == c + d
            assert report.closed_form_match
        big = full_report(SPEC_2244)
        assert (big.reg, big.a_invariant) == (8, -8)


def test_criterion_06_gorenstein_reproduction():
    with criterion(6, "palindromic h-vector exactly at c = 4 + d"):
        for spec in desk_specs_with_complex():
            report = full_report(spec)
            palindromic = report.h_vector == report.h_vector[::-1]
            assert palindromic == (spec.c == 4 + spec.d), f"wrong for {spec}"
            assert report.gorenstein == palindromic
        for n in [(5,), (2, 4), (3, 3), (2, 2, 2)]:
            spec = ScrollSpec(n)
            assert closed_form(spec.c, spec.d).gorenstein
        for n in [(2, 2, 4, 4), (1, 2, 2, 4)]:
            spec = ScrollSpec(n)
            assert not closed_form(spec.c, spec.d).gorenstein


def test_criterion_07_two_path_hilbert_agreement():
    with criterion(7, "face counts equal the h-polynomial expansion at every degree"):
        for spec in desk_specs_with_complex():
            result = verify_linear_quotients(spec)  # checks the identity itself
            assert result.passed
            dim = spec.c + spec.d
            assert numerator_from_face_counts(_face_vector(spec), dim) == result.degree_counts
        # independent spot check through the public face-count entry point
        spec = ScrollSpec((2, 4))
        facets = enumerate_facets(spec)
        h = verify_linear_quotients(spec).degree_counts
        for t in range(6):
            by_h = hilbert_function_from_h(h, spec.c + spec.d, t)
            assert _hf_from_counts(face_counts(facets, max(t, 1)), t) == by_h


def test_criterion_08_oracle_equality():
    with criterion(8, "rank oracle equals the face-count Hilbert function"):
        for spec in desk_specs_with_complex():
            if spec.c > 8:
                continue
            result = cross_check(spec, 3)
            assert result.passed, f"oracle mismatch for {spec}: {result.rows}"
        deep = cross_check(ScrollSpec((5,)), 4)
        assert deep.passed


def test_criterion_09_cd_invariance():
    with criterion(9, "everything depends only on c and d"):
        reports = [full_report(ScrollSpec(n)) for n in [(1, 5), (2, 4), (3, 3)]]
        assert len({r.facet_count for r in reports}) == 1
        assert len({r.h_vector for r in reports}) == 1
        tables = {
            n: tuple(
                (row.t, row.fiber_rank) for row in cross_check(ScrollSpec(n), 3).rows
            )
            for n in [(1, 5), (2, 4), (3, 3)]
        }
        assert len(set(tables.values())) == 1
        small_pair = {
            n: tuple(fiber_hilbert_function(ScrollSpec(n), t) for t in range(4))
            for n in [(1, 1, 4), (2, 2, 2)]
        }
        assert small_pair[(1, 1, 4)] == small_pair[(2, 2, 2)]


def test_criterion_10_structural_invariants():
    with criterion(10, "structural invariants of every enumerated facet"):
        for spec in desk_specs_with_complex():
            c, d = spec.c, spec.d
            for alpha in range(1, c - d - 2):
                current = leaves_profile(spec, alpha).leaves
                following = leaves_profile(spec, alpha + 1).leaves
                assert len(current ^ following) == 2
                assert current - following == {(alpha, alpha + 1)}

            facets = enumerate_facets(spec)
            for facet in facets:
                assert len(facet.vertices) == c + d
                units = {v for v in facet.vertices if v[1] - v[0] == 1}
                assert len(units) == d + 2
                assert (1, c) in facet.vertices
                vertices = sorted(facet.vertices)
                assert not any(
                    crossing(u, v)
                    for i, u in enumerate(vertices)
                    for v in vertices[i + 1 :]
                )

            result = verify_linear_quotients(spec)
            hv = h_vector_from_quotients(result.reports)
            assert hv.h[0] == 1
            assert sum(hv.h) == len(facets)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
