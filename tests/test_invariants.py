"""h-vectors, Hilbert functions two ways, closed forms, and full reports."""

from __future__ import annotations

import itertools
import math

import pytest
from conftest import desk_specs_with_complex

from scrollfiber import (
    CapacityError,
    ColonReport,
    DomainError,
    Facet,
    PreconditionError,
    ScrollSpec,
    VerificationError,
    closed_form,
    enumerate_facets,
    face_counts,
    full_report,
    h_vector_from_quotients,
    hilbert_data,
    hilbert_function_by_faces,
    hilbert_function_from_h,
    numerator_from_face_counts,
    verify_linear_quotients,
    vertex_set,
)
from scrollfiber import invariants
from scrollfiber.dual_quotients import _enumerated
from scrollfiber.facet_complex import _bitset_index


def quotient_h(n):
    return h_vector_from_quotients(verify_linear_quotients(ScrollSpec(n)).reports)


class TestHVector:
    @pytest.mark.parametrize("n", [(5,), (6,), (1, 5), (2, 4), (2, 2, 2, 2)])
    def test_unit_start_and_total(self, n):
        spec = ScrollSpec(n)
        hv = quotient_h(n)
        assert hv.h[0] == 1
        assert hv.total == len(enumerate_facets(spec))

    def test_degree_is_the_regularity_bound(self):
        for n in [(5,), (6,), (7,), (1, 5), (2, 4), (3, 3), (2, 2, 2, 2)]:
            spec = ScrollSpec(n)
            assert quotient_h(n).degree == (spec.c + spec.d) // 2

    def test_refuses_nonlinear_reports(self):
        spec = ScrollSpec((5,))
        good = verify_linear_quotients(spec).reports
        bad = ColonReport(
            facet=good[1].facet,
            computed_generators=frozenset({frozenset({(1, 2), (2, 3)})}),
            predicted_LG=frozenset(),
            linear=False,
            matches_prediction=False,
        )
        with pytest.raises(VerificationError):
            h_vector_from_quotients(list(good) + [bad])

    def test_refuses_no_reports(self):
        with pytest.raises(PreconditionError, match="no colon reports"):
            h_vector_from_quotients([])


class TestFaceCounting:
    def test_degree_zero_and_one(self):
        spec = ScrollSpec((1, 5))
        facets = enumerate_facets(spec)
        assert hilbert_function_by_faces(spec, facets, 0) == 1
        # every vertex lies in some facet, so degree one counts all of V
        covered = set().union(*(f.vertices for f in facets))
        assert covered == set(vertex_set(spec))
        assert hilbert_function_by_faces(spec, facets, 1) == math.comb(spec.c, 2)

    @pytest.mark.parametrize("n", [(5,), (6,), (1, 5), (3, 3), (2, 2, 2, 2)])
    def test_two_paths_agree_up_to_five(self, n):
        spec = ScrollSpec(n)
        data = hilbert_data(spec)
        facets = enumerate_facets(spec)
        for t in range(6):
            by_faces = invariants._hf_from_counts(data.f, t)
            assert by_faces == hilbert_function_by_faces(spec, facets, t)
            assert by_faces == hilbert_function_from_h(data.h_polynomial.h, spec.c + spec.d, t)

    @pytest.mark.parametrize("n", [(5,), (6,), (7,), (1, 5), (2, 4), (3, 3)])
    def test_numerator_from_full_face_vector(self, n):
        # Clearing (1-t)^dim from the face-count series must reproduce the
        # h-vector certified by the quotients, degree included.
        spec = ScrollSpec(n)
        dim = spec.c + spec.d
        f = face_counts(enumerate_facets(spec), dim)
        assert numerator_from_face_counts(f, dim) == quotient_h(n).h

    def test_numerator_refuses_faces_above_dim(self):
        # Three sizes of faces do not fit under (1-t)^2; none is dropped.
        with pytest.raises(PreconditionError, match="faces of 3 vertices, above dim=2"):
            numerator_from_face_counts((3, 3, 1), 2)
        assert numerator_from_face_counts((3, 3), 2) == (1, 1, 1)

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setattr(invariants, "MAX_FACE_NODES", 100)
        spec = ScrollSpec((2, 2, 4, 4))
        with pytest.raises(CapacityError):
            face_counts(enumerate_facets(spec), 3)

    @pytest.mark.parametrize(
        "spec", [s for s in desk_specs_with_complex() if s.c <= 9], ids=str
    )
    def test_walk_equals_brute_force_faces(self, spec):
        # Every face of size <= 4 is a subset of some facet; collect them all.
        faces = {
            face
            for facet in enumerate_facets(spec)
            for k in range(1, 5)
            for face in itertools.combinations(sorted(facet.vertices), k)
        }
        expected = tuple(sum(len(face) == k for face in faces) for k in range(1, 5))
        assert face_counts(enumerate_facets(spec), 4) == expected

    def test_facets_of_another_scroll_are_refused(self):
        five = enumerate_facets(ScrollSpec((5,)))
        six = enumerate_facets(ScrollSpec((6,)))
        # Equal specs are one scroll, whichever object holds them.
        assert hilbert_function_by_faces(ScrollSpec((5,)), five, 2) == 49
        with pytest.raises(DomainError, match=r"another scroll given for \(5\)"):
            hilbert_function_by_faces(ScrollSpec((5,)), six, 2)
        with pytest.raises(DomainError, match="facets of several scrolls"):
            face_counts(five + enumerate_facets(ScrollSpec((2, 4))), 2)

    @pytest.mark.parametrize("max_size", [0, -1])
    def test_rejects_sizes_below_one(self, max_size):
        with pytest.raises(PreconditionError):
            face_counts(enumerate_facets(ScrollSpec((5,))), max_size)


def _skeleton(masks):
    """The 1-skeleton of the facets ``masks``: entry ``pos`` is the mask of
    the neighbours of the vertex at bit ``pos``."""
    adj = [0] * max(map(int.bit_length, masks))
    for mask in masks:
        for pos in range(mask.bit_length()):
            if mask >> pos & 1:
                adj[pos] |= mask & ~(1 << pos)
    return adj


def _cover_walk(masks, max_size):
    """Reference face count: the facet-cover walk the clique walk replaced.
    A face's cover is the bitset of the facets containing it; a face
    extends by a vertex above its largest one while the cover stays
    non-empty."""
    index = _bitset_index(masks)
    counts = [0] * (max_size + 1)

    def walk(candidates, cover, size):
        hits = [(w, sub) for w in candidates if (sub := cover & index[w])]
        counts[size + 1] += len(hits)
        if size + 1 < max_size:
            extensions = [w for w, _ in hits]
            for i, (_, sub) in enumerate(hits):
                walk(extensions[i + 1 :], sub, size + 1)

    walk(range(len(index) - 1, -1, -1), -1, 0)
    return tuple(counts[1:])


class TestCliqueWalk:
    @pytest.mark.parametrize(
        "spec", [s for s in desk_specs_with_complex() if s.c <= 9], ids=str
    )
    def test_equals_the_cover_walk_up_to_dim(self, spec):
        dim = spec.c + spec.d
        expected = _cover_walk(_enumerated(spec)[0], dim)
        assert face_counts(enumerate_facets(spec), dim) == expected

    @pytest.mark.parametrize("n", [(12,), (2, 2, 4, 4)])
    def test_equals_the_cover_walk_at_window_five(self, n):
        spec = ScrollSpec(n)
        expected = _cover_walk(_enumerated(spec)[0], 5)
        assert face_counts(enumerate_facets(spec), 5) == expected

    @pytest.mark.parametrize("n", [(5,), (2, 4), (2, 2, 2, 2), (1, 2, 2, 4)])
    def test_certificate_fails_with_a_facet_dropped(self, n):
        spec = ScrollSpec(n)
        masks = _enumerated(spec)[0]
        invariants._certify_flag(_skeleton(masks), masks)
        for drop in (0, len(masks) // 2, len(masks) - 1):
            kept = masks[:drop] + masks[drop + 1 :]
            with pytest.raises(VerificationError, match="not flag"):
                invariants._certify_flag(_skeleton(masks), kept)

    def test_certificate_fails_with_an_edge_added_or_removed(self):
        spec = ScrollSpec((2, 4))
        masks = _enumerated(spec)[0]
        adj = _skeleton(masks)
        u, v = next(
            (u, v)
            for u, v in itertools.combinations(range(len(adj)), 2)
            if adj[u] and adj[v] and not adj[u] >> v & 1
        )
        w = next(pos for pos in range(len(adj)) if adj[u] >> pos & 1)
        for a, b, change in ((u, v, int.__or__), (u, w, lambda x, y: x & ~y)):
            mutant = list(adj)
            mutant[a] = change(mutant[a], 1 << b)
            mutant[b] = change(mutant[b], 1 << a)
            with pytest.raises(VerificationError, match="not flag"):
                invariants._certify_flag(mutant, masks)

    def test_face_counts_refuses_a_complex_that_is_not_flag(self):
        # The hollow triangle on (1,2), (1,3), (2,3): every edge is a facet,
        # so the triangle is a clique of the skeleton but not a face.
        spec = ScrollSpec((5,))
        hollow = [
            Facet(vertices=frozenset(pair), alpha=1, spec=spec)
            for pair in itertools.combinations([(1, 2), (1, 3), (2, 3)], 2)
        ]
        with pytest.raises(VerificationError, match="maximal clique of 3 vertices"):
            face_counts(hollow, 3)
        assert face_counts(hollow[:2], 3) == (3, 2, 0)


class TestClosedForm:
    def test_reference_values(self):
        report = closed_form(12, 4)
        assert (report.reg, report.a_invariant, report.dim) == (8, -8, 16)
        assert report.reduction_number == 8
        assert not report.gorenstein

        report = closed_form(5, 1)
        assert (report.reg, report.dim, report.a_invariant) == (3, 6, -3)
        assert report.gorenstein  # c = 4 + d

        report = closed_form(6, 2)
        assert report.gorenstein
        assert report.reg == 4

        assert closed_form(9, 4).reg == 6
        assert not closed_form(9, 4).gorenstein

    def test_small_regime(self):
        report = closed_form(3, 3)
        assert (report.reg, report.dim, report.a_invariant) == (0, 3, -3)
        assert report.gorenstein
        assert closed_form(6, 3).reg == 3
        assert closed_form(6, 3).dim == 9

    def test_degenerate_two(self):
        report = closed_form(2, 1)
        assert (report.reg, report.dim) == (0, 1)
        assert report.gorenstein

    def test_rejects_tiny(self):
        with pytest.raises(PreconditionError):
            closed_form(1, 1)

    @pytest.mark.parametrize("c, d", [(3, 5), (4, 5), (2, 3)])
    def test_rejects_fewer_columns_than_blocks(self, c, d):
        # Every block of a scroll has a column, so no scroll has c < d.
        with pytest.raises(PreconditionError, match=f"need c >= d, .* got c={c}, d={d}"):
            closed_form(c, d)

    def test_keeps_the_message_for_c_below_two(self):
        with pytest.raises(PreconditionError, match=r"need c >= 2 and d >= 1, got c=1, d=3"):
            closed_form(1, 3)


class TestFullReport:
    def test_gorenstein_iff_palindromic(self):
        gorenstein_specs = [(5,), (1, 5), (2, 4), (3, 3), (2, 2, 2, 2)]
        for n in gorenstein_specs:
            report = full_report(ScrollSpec(n))
            assert report.gorenstein
            assert report.h_vector == report.h_vector[::-1]
            assert report.closed_form_match
        for n in [(6,), (7,), (1, 2, 2, 4)]:
            report = full_report(ScrollSpec(n))
            assert not report.gorenstein
            assert report.h_vector != report.h_vector[::-1]
            assert report.closed_form_match

    def test_report_identities(self):
        for n in [(5,), (6,), (1, 5), (2, 2, 2, 2), (1, 2, 2, 4)]:
            report = full_report(ScrollSpec(n))
            assert report.a_invariant == report.reg - report.dim
            assert report.reduction_number == report.reg
            assert report.dim == report.c + report.d
            assert sum(report.h_vector) == report.facet_count

    def test_equal_cd_specs_share_everything(self):
        reports = [full_report(ScrollSpec(n)) for n in [(1, 5), (2, 4), (3, 3)]]
        assert len({r.h_vector for r in reports}) == 1
        assert len({r.facet_count for r in reports}) == 1
        f_vectors = [hilbert_data(ScrollSpec(n)).f for n in [(1, 5), (2, 4), (3, 3)]]
        assert f_vectors[0] == f_vectors[1] == f_vectors[2]
        big = [full_report(ScrollSpec(n)) for n in [(1, 2, 2, 4), (2, 2, 2, 3)]]
        assert big[0].h_vector == big[1].h_vector
        assert big[0].facet_count == big[1].facet_count

    def test_builds_no_facet_view_and_no_report(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-facet object was built")

        monkeypatch.setattr(Facet, "__init__", refuse)
        monkeypatch.setattr(ColonReport, "__init__", refuse)
        report = full_report(ScrollSpec((2, 2, 4, 4)))
        assert report.facet_count == 20696
        assert report.h_vector == (1, 50, 710, 3746, 7836, 6412, 1820, 120, 1)
        assert report.closed_form_match

    def test_prediction_only_below_threshold(self):
        report = full_report(ScrollSpec((1, 1, 1)))
        assert report.mode == "prediction-only"
        assert report.facet_count is None
        assert report.h_vector is None
        assert report.reg == 0
        assert report.a_invariant == -3

    def test_full_window_matches(self):
        report = full_report(ScrollSpec((2, 4)))
        assert report.mode == "computed"
        assert report.closed_form_match


class TestHilbertWindow:
    def test_long_window_sums_only_the_sizes_that_occur(self):
        # (5,) has faces of sizes 1..6 only; degree 20,000 needs no more.
        data = hilbert_data(ScrollSpec((5,)))
        assert len(data.f) == 6
        by_faces = invariants._hf_from_counts(data.f, 20_000)
        assert by_faces == hilbert_function_from_h((1, 4, 4, 1), 6, 20_000)
