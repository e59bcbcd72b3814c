"""Facet order, colon generators, predictions, and the certification."""

from __future__ import annotations

import dataclasses
import itertools
import marshal
import math
import os
import random
import threading
import time
import tracemalloc
import types
from collections import Counter

import pytest
from conftest import DESK_SPECS, assert_no_child, desk_specs_with_complex

from scrollfiber import (
    DomainError,
    Facet,
    InternalError,
    PreconditionError,
    ScrollSpec,
    StructuralError,
    UnsupportedRegimeError,
    VerificationError,
    colon_generators,
    enumerate_facets,
    first_facet,
    precedes,
    predict_LG,
    verify_linear_quotients,
)
from scrollfiber import dual_quotients, facet_complex, scroll_model
from scrollfiber.dual_quotients import (
    _certified,
    _certify,
    _classes,
    _enumerated,
    _facet_order,
    _fold,
    _predict,
    _scanned,
)
from scrollfiber.facet_complex import _grid, _mask, _walk

# Shared desk spec objects keep their enumerations between tests.
DESK_BY_N = {s.n: s for s in DESK_SPECS}

SPEC_245 = ScrollSpec((2, 4, 5))
EXAMPLE_245 = Facet(
    vertices=frozenset(
        {
            (1, 2), (1, 3), (1, 4), (1, 6), (1, 7), (1, 8), (1, 9), (1, 11),
            (2, 3), (3, 4), (4, 5), (4, 6), (9, 11), (10, 11),
        }
    ),
    alpha=1,
    spec=SPEC_245,
)


def _minimal_diffs(facet, earlier):
    """Reference quadratic scan on frozensets: the inclusion-minimal
    difference sets of ``facet`` against the ``earlier`` facets."""
    diffs = sorted({facet.vertices - g.vertices for g in earlier}, key=len)
    kept = []
    for s in diffs:
        if not any(k <= s for k in kept):
            kept.append(s)
    return frozenset(kept)


def _certified_order(spec, mutation):
    facets = enumerate_facets(spec)
    return [facets[rank] for rank in _facet_order(spec, mutation)]


def _agreement_cases(specs):
    """(n, mutation) cases; the unmutated ones keep the ids n0, n1, ..."""
    return [
        pytest.param(n, mutation, id=f"n{i}" if mutation is None else f"n{i}-{mutation}")
        for mutation in (None, "c2", "b2", "swap-groups")
        for i, n in enumerate(specs)
    ]


def _assert_engines_agree(spec, mutation):
    """Each indexed report against the quadratic scan over its prefix of the
    facet order; linearity, match, pass and failure count recomputed here."""
    indexed = verify_linear_quotients(spec, mutation=mutation)
    facets = _certified_order(spec, mutation)
    failures = 0
    for rank, (r, f) in enumerate(zip(indexed.reports, facets, strict=True)):
        computed = _minimal_diffs(f, facets[:rank])
        predicted = predict_LG(f, mutation=mutation)
        linear = all(len(s) == 1 for s in computed)
        matches = linear and {v for s in computed for v in s} == predicted
        assert r.facet.vertices == f.vertices
        assert r.computed_generators == computed
        assert r.predicted_LG == predicted
        assert (r.linear, r.matches_prediction) == (linear, matches)
        failures += not (linear and matches)
    assert indexed.passed == (failures == 0)
    assert len(indexed.failing) == failures


class TestOrder:
    def test_higher_group_precedes(self):
        facets = enumerate_facets(ScrollSpec((7,)))
        in_three = next(f for f in facets if f.alpha == 3)
        in_two = next(f for f in facets if f.alpha == 2)
        assert precedes(in_three, in_two)
        assert not precedes(in_two, in_three)

    def test_irreflexive(self):
        facet = enumerate_facets(ScrollSpec((5,)))[0]
        assert not precedes(facet, facet)

    def test_total_on_distinct_facets(self):
        facets = enumerate_facets(ScrollSpec((6,)))
        for i, f in enumerate(facets):
            for g in facets[i + 1 :]:
                assert precedes(f, g) != precedes(g, f)

    @pytest.mark.parametrize("n", [(1, 5), (12,), (2, 2, 4, 4)])
    def test_enumeration_is_descending(self, n):
        spec = DESK_BY_N.get(n) or ScrollSpec(n)
        facets = enumerate_facets(spec)
        assert all(precedes(f, g) for f, g in zip(facets, facets[1:]))

    def test_swapped_order_transposes_the_two_greatest_groups(self):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        facets = enumerate_facets(spec)
        swapped = _certified_order(spec, "swap-groups")
        assert swapped != facets
        top = spec.c - spec.d - 2
        for alpha in range(1, top + 1):
            assert [f for f in swapped if f.alpha == alpha] == [
                f for f in facets if f.alpha == alpha
            ]
        alphas = list(dict.fromkeys(f.alpha for f in swapped))
        assert alphas == [top - 1, top, *range(top - 2, 0, -1)]

    @pytest.mark.parametrize("alpha", ["x", 1.0, True, None])
    def test_an_alpha_that_is_not_an_int_is_refused(self, alpha):
        f, g = enumerate_facets(ScrollSpec((5,)))[:2]
        bad = Facet(f.vertices, alpha=alpha, spec=f.spec)
        for pair in ((g, bad), (bad, g)):
            with pytest.raises(PreconditionError, match=f"alpha must be an int, got {alpha!r}"):
                precedes(*pair)

    def test_cross_spec_comparison_rejected(self):
        f = enumerate_facets(ScrollSpec((5,)))[0]
        g = enumerate_facets(ScrollSpec((6,)))[0]
        with pytest.raises(DomainError):
            precedes(f, g)


class TestColonGenerators:
    def test_greatest_facet_has_empty_colon(self):
        spec = ScrollSpec((6,))
        facets = enumerate_facets(spec)
        greatest = first_facet(spec, spec.c - spec.d - 2)
        assert facets[0].vertices == greatest.vertices
        assert colon_generators(facets[0], facets) == frozenset()

    def test_group_first_facets_have_principal_colon(self):
        for n in [(6,), (7,), (2, 4), (2, 2, 2, 2)]:
            spec = ScrollSpec(n)
            facets = enumerate_facets(spec)
            for alpha in range(1, spec.c - spec.d - 2):
                gens = colon_generators(first_facet(spec, alpha), facets)
                assert gens == frozenset({frozenset({(alpha, alpha + 1)})})

    def test_incomplete_list_detected(self):
        spec = ScrollSpec((5,))
        facets = enumerate_facets(spec)
        with pytest.raises(DomainError):
            colon_generators(facets[1], facets[1:])

    def test_worked_245_equality(self):
        gens = colon_generators(EXAMPLE_245, enumerate_facets(SPEC_245))
        expected = frozenset({(1, 2), (1, 3), (1, 4), (1, 6), (1, 9)})
        assert gens == frozenset(frozenset({v}) for v in expected)


class TestPredictLG:
    def test_worked_245_column_one(self):
        predicted = predict_LG(EXAMPLE_245)
        column_one = {v for v in predicted if v[0] == 1}
        assert column_one == {(1, 2), (1, 3), (1, 4), (1, 6), (1, 9)}
        assert predicted == column_one

    def test_first_facets(self):
        for n in [(6,), (1, 5), (2, 2, 2, 2), (2, 2, 4, 4)]:
            spec = ScrollSpec(n)
            top = spec.c - spec.d - 2
            assert predict_LG(first_facet(spec, top)) == frozenset()
            for alpha in range(1, top):
                assert predict_LG(first_facet(spec, alpha)) == {(alpha, alpha + 1)}

    def test_mislabelled_alpha_raises(self):
        # An alpha-5 facet labelled with the greatest group, alpha = 6, used
        # to get the plausible prediction frozenset() in place of {(5, 6)}.
        spec = DESK_BY_N[(2, 2, 4, 4)]
        facet = first_facet(spec, 5)
        assert predict_LG(facet) == {(5, 6)}
        with pytest.raises(StructuralError):
            predict_LG(Facet(facet.vertices, alpha=6, spec=spec))

    def test_alpha_that_is_not_an_int_raises(self):
        # The table of 1 is built, and 1.0 == 1 would find it.
        spec = ScrollSpec((5,))
        facet = first_facet(spec, 1)
        with pytest.raises(PreconditionError, match=r"alpha must lie in \[1, 2\], got 1.0"):
            predict_LG(Facet(facet.vertices, alpha=1.0, spec=spec))

    def test_prediction_stays_inside_the_facet(self):
        for facet in enumerate_facets(ScrollSpec((2, 2, 2, 2))):
            predicted = predict_LG(facet)
            assert predicted <= facet.vertices
            for b in {v[0] for v in facet.vertices}:
                top = max(v for v in facet.vertices if v[0] == b)
                assert top not in predicted

    def test_max_prediction_size_matches_regularity(self):
        for n in [(5,), (6,), (2, 4), (2, 2, 2, 2)]:
            spec = ScrollSpec(n)
            biggest = max(len(predict_LG(f)) for f in enumerate_facets(spec))
            assert biggest == (spec.c + spec.d) // 2


# Every desk spec with a complex, plus (12,); (2,2,4,4) is a desk spec.
FOLD_SPECS = [*desk_specs_with_complex(), ScrollSpec((12,))]


class TestPredictionFold:
    @pytest.mark.parametrize("mutation", [None, "c2", "b2"])
    @pytest.mark.parametrize("spec", FOLD_SPECS, ids=lambda spec: ",".join(map(str, spec.n)))
    def test_fold_equals_the_walk_on_every_facet(self, spec, mutation):
        # Certification no longer parses the facets, so every enumerated mask
        # is parsed here, and its prediction over the walk is the fold's.
        masks, groups, _ = _enumerated(spec)
        grid, greatest = _grid(spec), spec.alphas[-1]
        walked = [
            _predict(_walk(spec, masks[rank], alpha), grid, alpha, greatest, mutation)
            for alpha, ranks in groups.items()
            for rank in ranks
        ]
        folded_masks, folded_groups, packed = _fold(spec, mutation)
        assert (folded_masks, folded_groups) == (masks, groups)
        width = len(packed) // len(masks)
        unpacked = range(0, len(packed), width)
        assert [int.from_bytes(packed[i : i + width], "little") for i in unpacked] == walked

    @pytest.mark.parametrize("spec", FOLD_SPECS, ids=lambda spec: ",".join(map(str, spec.n)))
    def test_each_group_is_one_range_of_ranks(self, spec):
        # Greatest alpha first, consecutive, together every rank once.
        masks, groups, _ = _enumerated(spec)
        assert list(groups) == list(reversed(spec.alphas))
        assert all(type(ranks) is range and ranks.step == 1 for ranks in groups.values())
        stops = [0, *(ranks.stop for ranks in groups.values())]
        assert [ranks.start for ranks in groups.values()] == stops[:-1]
        assert stops[-1] == len(masks)
        views = enumerate_facets(spec)
        for alpha, ranks in groups.items():
            assert ranks, f"the group at {alpha} is empty"
            assert all(views[rank].alpha == alpha for rank in ranks)
            assert first_facet(spec, alpha) == views[ranks.start]

    def test_certification_parses_no_facet(self, monkeypatch):
        def no_walk(spec, mask, alpha):
            raise AssertionError("certification parsed a facet")

        monkeypatch.setattr(facet_complex, "_walk", no_walk)
        monkeypatch.setattr(dual_quotients, "_walk", no_walk)
        result = verify_linear_quotients(ScrollSpec((2, 2, 4, 4)))
        assert result.passed
        assert result.degree_counts == (1, 50, 710, 3746, 7836, 6412, 1820, 120, 1)

    def test_a_fresh_spec_folds_once_and_each_rule_mutation_once_more(self, monkeypatch):
        calls = []
        fold = dual_quotients._fold

        def counted(spec, mutation):
            calls.append(mutation)
            return fold(spec, mutation)

        monkeypatch.setattr(dual_quotients, "_fold", counted)
        spec = ScrollSpec((2, 4))
        assert verify_linear_quotients(spec).passed
        enumerate_facets(spec)
        first_facet(spec, 1)
        assert calls == [None]
        for mutation in ("swap-groups", "c2", "b2"):
            assert not verify_linear_quotients(spec, mutation=mutation).passed
        assert calls == [None, "c2", "b2"]

    def test_fold_is_checked_against_the_enumeration(self, monkeypatch):
        spec = ScrollSpec((2, 4))
        masks, groups, packed = _enumerated(spec)
        swapped = list(masks)
        swapped[1], swapped[2] = swapped[2], swapped[1]
        assert any(1 in ranks and 2 in ranks for ranks in groups.values())
        monkeypatch.setattr(
            dual_quotients, "_enumerated", lambda spec: (tuple(swapped), groups, packed)
        )
        with pytest.raises(InternalError, match="prediction fold"):
            verify_linear_quotients(spec, mutation="c2")


class TestEachFacetOnce:
    """The enumeration lists each facet once, part of the certificate: the
    masks strictly increase within a group's range, and a facet's units are
    its group's leaf set."""

    def test_a_duplicate_mask_is_an_internal_error(self, monkeypatch):
        real = dual_quotients._fold

        def duplicated(spec, mutation):
            masks, groups, packed = real(spec, mutation)
            ranks = next(r for r in groups.values() if len(r) > 1)
            masks = list(masks)
            masks[ranks.start + 1] = masks[ranks.start]
            return tuple(masks), groups, packed

        monkeypatch.setattr(dual_quotients, "_fold", duplicated)
        with pytest.raises(InternalError, match=r"group at alpha=\d+ of \(6\) do not strictly"):
            enumerate_facets(ScrollSpec((6,)))

    def test_a_facet_under_another_group_is_an_internal_error(self):
        # The greatest facet, claimed by each other group in turn.
        spec = ScrollSpec((6,))
        masks, groups, _ = _enumerated(spec)
        dual_quotients._check_distinct(spec, masks, groups)
        for alpha in spec.alphas[:-1]:
            with pytest.raises(InternalError, match="holds other units than its leaves"):
                dual_quotients._check_distinct(spec, masks, {alpha: range(1)})


class TestVerification:
    def test_a_facet_of_another_size_is_an_internal_error(self, monkeypatch):
        # The root dropped from the first facet of the greatest group keeps
        # the masks increasing and the units, so only the size check sees it.
        real = dual_quotients._fold

        def shrunk(spec, mutation):
            masks, groups, packed = real(spec, mutation)
            root = _grid(spec)[1][spec.c]
            return (masks[0] ^ root, *masks[1:]), groups, packed

        monkeypatch.setattr(dual_quotients, "_fold", shrunk)
        with pytest.raises(InternalError, match=r"facets of sizes \[5, 6\], not 6"):
            verify_linear_quotients(ScrollSpec((5,)))

    @pytest.mark.parametrize("n", [(5,), (6,), (1, 5), (2, 4), (3, 3), (2, 2, 2, 2)])
    def test_desk_specs_certify(self, n):
        result = verify_linear_quotients(ScrollSpec(n))
        assert result.passed
        assert all(r.linear and r.matches_prediction for r in result.reports)
        assert result.reports[0].computed_generators == frozenset()

    @pytest.mark.parametrize(
        "n, mutation", _agreement_cases([(5,), (6,), (1, 5), (2, 2, 2, 2), (2, 4)])
    )
    def test_indexed_engine_agrees_with_full_scan(self, n, mutation):
        _assert_engines_agree(ScrollSpec(n), mutation)

    @pytest.mark.parametrize("n", [(5,), (2, 4), (2, 2, 2, 2)])
    def test_lazy_reports_equal_the_audit_path(self, n):
        spec = ScrollSpec(n)
        result = verify_linear_quotients(spec)
        facets = enumerate_facets(spec)
        assert result._reports is None
        assert [r.facet for r in result.reports] == facets
        for report, facet in zip(result.reports, facets, strict=True):
            computed = colon_generators(facet, facets)
            assert report.computed_generators == computed
            assert report.predicted_LG == predict_LG(facet)
            assert report.linear and report.matches_prediction
        assert result.reports is result.reports
        assert result.facet_count == len(facets)
        degrees = [len(r.computed_generators) for r in result.reports]
        assert result.degree_counts == tuple(degrees.count(k) for k in range(max(degrees) + 1))
        assert (result.failing, result.scanned) == ((), False)

    def test_small_scroll_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            verify_linear_quotients(ScrollSpec((2, 2, 2)))

    def test_mutated_leftmost_leaf_rule_fails(self):
        result = verify_linear_quotients(ScrollSpec((2, 4)), mutation="c2")
        assert not result.passed
        assert result.failing
        # the mutation only disturbs predictions, never the computed colons
        assert all(r.linear for r in result.reports)

    def test_mutated_sibling_rule_fails(self):
        result = verify_linear_quotients(ScrollSpec((6,)), mutation="b2")
        assert not result.passed

    @pytest.mark.parametrize(
        "n, c2, b2, swap",
        [
            ((2, 4), 9, 4, 28),
            ((6,), 4, 14, 18),
            ((2, 2, 2, 2), 90, 34, 264),
            ((1, 2, 2, 4), 165, 179, 594),
        ],
    )
    def test_mutation_failure_counts(self, n, c2, b2, swap):
        spec = DESK_BY_N[n]
        counts = {
            m: len(verify_linear_quotients(spec, mutation=m).failing)
            for m in ("c2", "b2", "swap-groups")
        }
        assert counts == {"c2": c2, "b2": b2, "swap-groups": swap}

    def test_swapped_group_order_is_a_diagnostic(self):
        result = verify_linear_quotients(ScrollSpec((5,)), mutation="swap-groups")
        default = verify_linear_quotients(ScrollSpec((5,)))
        assert isinstance(result.passed, bool)
        assert [r.facet.alpha for r in result.reports] != [
            r.facet.alpha for r in default.reports
        ]

    @pytest.mark.parametrize("n, mutation", _agreement_cases([(5,), (6,), (1, 5), (2, 4)]))
    def test_indexed_engine_agrees_with_full_scan_under_mutated_order(self, n, mutation):
        # The index logic is order-agnostic; it must reproduce the quadratic
        # scan under the mutated order and rules, where certification fails.
        _assert_engines_agree(ScrollSpec(n), mutation)

    def test_quadratic_fallback_on_a_shuffled_order(self, monkeypatch):
        # No order the public API offers has non-linear quotients on small
        # specs, so the diagnostic scan is reached through a shuffled facet
        # order, which both the certified stream and the scan read.
        spec = ScrollSpec((6,))
        enumerated = enumerate_facets(spec)
        order = list(range(len(enumerated)))
        random.Random(0).shuffle(order)
        facets = [enumerated[rank] for rank in order]
        monkeypatch.setattr(dual_quotients, "_facet_order", lambda spec, mutation: order)
        result = verify_linear_quotients(spec)
        reports = result.reports
        assert sum(not r.linear for r in reports) == 16
        # The shuffled order is no shelling, so the face identity fails and
        # every facet's colon ideal comes from the scan.
        assert result.scanned
        scan = list(_scanned(spec, None))
        assert sum(len(diffs) > gens.bit_count() for _, gens, diffs, _ in scan) == 16
        assert result.failing == tuple(r for r in reports if not r.matches_prediction)
        assert [r.computed_generators for r in reports] == [
            _minimal_diffs(f, facets[:rank]) for rank, f in enumerate(facets)
        ]


def _all_ridges_certified(spec, mutation):
    """Reference forward pass that tests every vertex of every facet and
    keeps every ridge F - u certified so far: a ridge seen before marks a
    generator."""
    masks, _, packed = _enumerated(spec)
    if mutation in ("c2", "b2"):
        packed = _fold(spec, mutation)[2]
    width = len(packed) // len(masks)
    ridges = set()
    for rank in dual_quotients._facet_order(spec, mutation):
        f, gens = masks[rank], 0
        for u in (1 << k for k in range(f.bit_length()) if f >> k & 1):
            if f ^ u in ridges:
                gens |= u
            ridges.add(f ^ u)
        predicted = int.from_bytes(packed[rank * width : (rank + 1) * width], "little")
        yield rank, gens, predicted


class TestPendingRidges:
    @pytest.mark.parametrize("mutation", [None, "c2", "b2", "swap-groups"])
    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=lambda spec: str(spec.n))
    def test_stream_equals_the_all_ridges_pass(self, spec, mutation):
        assert list(_certified(spec, mutation)) == list(_all_ridges_certified(spec, mutation))

    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=lambda spec: str(spec.n))
    def test_stream_equals_the_all_ridges_pass_on_a_shuffled_order(self, spec, monkeypatch):
        # Off the enumeration's order every vertex is a candidate, so the
        # stream counts every vertex whose ridge an earlier facet holds.
        order = list(range(len(_enumerated(spec)[0])))
        random.Random(len(spec.n)).shuffle(order)
        monkeypatch.setattr(dual_quotients, "_facet_order", lambda spec, mutation: order)
        assert list(_certified(spec, None)) == list(_all_ridges_certified(spec, None))

    def test_swapped_order_tests_predictions_past_the_moved_groups(self, monkeypatch):
        # (7,) has 4 groups.  Past the two moved ranges the order is the
        # enumeration's own, so each facet with a ridge that another facet
        # may hold reads its unmutated prediction in the ridge passes; a
        # moved facet tests every vertex and reads none.
        spec = DESK_BY_N[(7,)]
        masks, groups, _ = _enumerated(spec)
        _, second, *rest = groups.values()
        assert rest and second.stop < len(masks)
        group_of, within, cross = _classes(spec)
        reads = []
        real = dual_quotients._missed

        class Recorded(list):
            def __getitem__(self, rank):
                reads.append(rank)
                return super().__getitem__(rank)

        def missed(masks, order, tested, *args):
            return real(masks, order, Recorded(tested), *args)

        monkeypatch.setattr(dual_quotients, "MIN_FORKED_FACETS", math.inf)
        monkeypatch.setattr(dual_quotients, "_missed", missed)
        list(_certified(spec, "swap-groups"))
        hashed = [m & (within[g] | cross[g]) for m, g in zip(masks, group_of)]
        assert all(hashed)
        assert set(reads) == set(range(second.stop, len(masks)))

    def _doctored(self, choose, rank=None):
        """A fresh (6,) whose kept packed prediction of the facet at ``rank``
        (by default one with the most generators) has the bit of
        ``choose(facet, predicted)`` flipped: the spec, its facets, that
        facet's rank and the chosen vertex."""
        spec = ScrollSpec((6,))
        facets = enumerate_facets(spec)
        if rank is None:
            rank = max(range(len(facets)), key=lambda r: len(predict_LG(facets[r])))
        vertex = choose(facets[rank], predict_LG(facets[rank]))
        masks, _, packed = _enumerated(spec)
        width = len(packed) // len(masks)
        cell = slice(rank * width, (rank + 1) * width)
        flipped = int.from_bytes(packed[cell], "little") ^ _mask(spec, [vertex])
        packed[cell] = flipped.to_bytes(width, "little")
        return spec, facets, rank, vertex

    def test_a_prediction_missing_a_generator_fails_that_facet(self):
        spec, facets, rank, missed = self._doctored(lambda facet, predicted: min(predicted))
        result = verify_linear_quotients(spec)
        (report,) = result.failing
        assert report.facet == facets[rank]
        assert report.predicted_LG == predict_LG(facets[rank]) - {missed}
        assert report.computed_generators == colon_generators(facets[rank], facets)
        assert frozenset({missed}) in report.computed_generators
        assert report.linear and not report.matches_prediction
        # The missed generator breaks the face identity, so the scan names
        # the facet.
        assert result.scanned
        assert result.degree_counts == verify_linear_quotients(ScrollSpec((6,))).degree_counts

    def test_a_prediction_with_a_non_generator_fails_that_facet(self):
        spec, facets, rank, extra = self._doctored(
            lambda facet, predicted: min(facet.vertices - predicted)
        )
        result = verify_linear_quotients(spec)
        (report,) = result.failing
        assert report.facet == facets[rank]
        assert report.predicted_LG == predict_LG(facets[rank]) | {extra}
        assert report.computed_generators == colon_generators(facets[rank], facets)
        assert report.linear and not report.matches_prediction
        assert not result.scanned

    @pytest.mark.parametrize(
        "choose",
        [
            lambda facet, predicted: min(predicted),
            lambda facet, predicted: min(facet.vertices - predicted),
        ],
        ids=["generator-cleared", "non-generator-set"],
    )
    def test_every_doctored_prediction_fails_its_facet(self, choose):
        # Each of the 31 facets of (6,) with a generator, doctored once.
        facets = enumerate_facets(ScrollSpec((6,)))
        ranks = [rank for rank, facet in enumerate(facets) if predict_LG(facet)]
        assert len(ranks) == 31
        for rank in ranks:
            spec, _, _, _ = self._doctored(choose, rank)
            result = verify_linear_quotients(spec)
            assert not result.passed
            assert [report.facet for report in result.failing] == [facets[rank]]

    def test_over_the_scan_budget_a_failed_identity_is_refused_unscanned(self, monkeypatch):
        spec, facets, _, _ = self._doctored(lambda facet, predicted: min(predicted))

        def no_scan(spec, mutation):
            raise AssertionError("the diagnostic scan ran over its budget")

        monkeypatch.setattr(dual_quotients, "MAX_SCANNED_FACETS", len(facets) - 1)
        monkeypatch.setattr(dual_quotients, "_scanned", no_scan)
        h = verify_linear_quotients(ScrollSpec((6,))).degree_counts
        with pytest.raises(VerificationError) as caught:
            verify_linear_quotients(spec)
        message = str(caught.value)
        assert message.startswith(f"the faces of (6) give h = {h}, but its generators count (")
        assert message.endswith(
            f"its {len(facets):,} facets are over the diagnostic scan's budget of {len(facets) - 1:,}"
        )

    def test_at_the_scan_budget_the_scan_names_the_facet(self, monkeypatch):
        spec, facets, rank, _ = self._doctored(lambda facet, predicted: min(predicted))
        monkeypatch.setattr(dual_quotients, "MAX_SCANNED_FACETS", len(facets))
        result = verify_linear_quotients(spec)
        assert result.scanned
        assert [report.facet for report in result.failing] == [facets[rank]]


def _bits(mask):
    """The one-bit masks of the set bits of ``mask``."""
    return [1 << k for k in range(mask.bit_length()) if mask >> k & 1]


class TestRidgeClasses:
    """``_certified`` certifies the ridges by classes of leaf set, never
    looking up a ridge that no other facet can hold, in two halves of the
    classes, one in a forked child on large specs."""

    @pytest.mark.parametrize("mutation", [None, "c2", "b2", "swap-groups", "shuffled"])
    @pytest.mark.parametrize(
        "spec",
        [s for s in desk_specs_with_complex() if s.n != (2, 2, 4, 4)],
        ids=lambda spec: str(spec.n),
    )
    def test_every_assignment_of_groups_gives_the_all_ridges_stream(
        self, spec, mutation, monkeypatch
    ):
        # Every set of groups whose within-group ridges join the pass of the
        # cross-group ones in the first half, the rest in the second.
        # (2,2,4,4), with 64 sets, runs its own halves in TestPendingRidges.
        if mutation == "shuffled":
            order = list(range(len(_enumerated(spec)[0])))
            random.Random(len(spec.n)).shuffle(order)
            monkeypatch.setattr(dual_quotients, "_facet_order", lambda spec, mutation: order)
            mutation = None
        expected = list(_all_ridges_certified(spec, mutation))
        groups = range(len(spec.alphas))
        for size in range(len(groups) + 1):
            for chosen in itertools.combinations(groups, size):

                def halves(spec, within, cross, chosen=chosen):
                    first = [w * (g in chosen) for g, w in enumerate(within)]
                    return (cross, first), ([w * (g not in chosen) for g, w in enumerate(within)],)

                monkeypatch.setattr(dual_quotients, "_halves", halves)
                assert list(_certified(spec, mutation)) == expected, chosen

    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=lambda spec: str(spec.n))
    def test_the_halves_split_the_classes_by_group(self, spec):
        masks, groups, _ = _enumerated(spec)
        group_of, within, cross = _classes(spec)
        assert group_of == bytes(g for g, ranks in enumerate(groups.values()) for _ in ranks)
        (crossing, first), (second,) = dual_quotients._halves(spec, within, cross)
        assert crossing == cross
        units = _mask(spec, [(a, a + 1) for a in range(1, spec.c)])
        for g, (ranks, w, x) in enumerate(zip(groups.values(), within, cross)):
            assert x & ~units == 0 and w & masks[ranks.start] & units == 0
            assert (first[g], second[g]) in ((w, 0), (0, w))

        def looked_up(half):
            sizes = ((len(r), masks[r.start] & scope) for r, scope in zip(groups.values(), half))
            return sum(count * scoped.bit_count() for count, scoped in sizes)

        # No other set of groups balances the ridges looked up better.
        best = min(
            max(looked_up(cross) + looked_up(half), looked_up(within) - looked_up(half))
            for chosen in itertools.product((0, 1), repeat=len(within))
            for half in [[w * c for w, c in zip(within, chosen)]]
        )
        assert max(looked_up(cross) + looked_up(first), looked_up(second)) == best

    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=lambda spec: str(spec.n))
    def test_a_skipped_ridge_lies_in_one_facet_and_a_shared_one_in_one_pass(self, spec):
        # Brute force over every ridge of every enumerated facet.
        masks, _, _ = _enumerated(spec)
        group_of, within, cross = _classes(spec)
        passes = [scopes for half in dual_quotients._halves(spec, within, cross) for scopes in half]
        holders = Counter(f ^ v for f in masks for v in _bits(f))
        pass_of = {}
        for rank, f in enumerate(masks):
            g = group_of[rank]
            for v in _bits(f):
                scoped = [i for i, scopes in enumerate(passes) if scopes[g] & v]
                if not scoped:
                    assert holders[f ^ v] == 1
                else:
                    (i,) = scoped
                    assert pass_of.setdefault(f ^ v, i) == i
        assert len(pass_of) < len(holders)

    def test_a_shared_leaf_set_is_an_internal_error(self, monkeypatch):
        spec = ScrollSpec((6,))
        _enumerated(spec)  # each facet's units are checked against its leaf set here
        real = dual_quotients.leaves_profile

        def shared(spec, alpha):
            return dataclasses.replace(real(spec, alpha), leaves=real(spec, 1).leaves)

        monkeypatch.setattr(dual_quotients, "leaves_profile", shared)
        with pytest.raises(InternalError, match=r"two groups of \(6\) share a leaf set"):
            verify_linear_quotients(spec)

    def test_a_class_map_that_skips_a_shared_ridge_fails(self, monkeypatch):
        # Each vertex whose ridge another facet of (7,) holds, cleared from
        # its group's scope: the generators it stops counting break the
        # face identity, which over the scan budget is an error.
        spec = DESK_BY_N[(7,)]
        masks, _, _ = _enumerated(spec)
        group_of, within, cross = _classes(spec)
        holders = Counter(f ^ v for f in masks for v in _bits(f))
        shared = {
            (group_of[rank], v)
            for rank, f in enumerate(masks)
            for v in _bits(f)
            if holders[f ^ v] > 1
        }
        assert any(v & cross[g] for g, v in shared) and any(v & within[g] for g, v in shared)
        monkeypatch.setattr(dual_quotients, "MAX_SCANNED_FACETS", 0)
        assert verify_linear_quotients(ScrollSpec((7,))).passed
        for g, v in sorted(shared):
            doctored = (
                group_of,
                [w & ~v if h == g else w for h, w in enumerate(within)],
                [x & ~v if h == g else x for h, x in enumerate(cross)],
            )
            monkeypatch.setattr(dual_quotients, "_classes", lambda _, doctored=doctored: doctored)
            with pytest.raises(VerificationError, match="over the diagnostic scan's budget"):
                verify_linear_quotients(ScrollSpec((7,)))

    def _forks(self, monkeypatch, cutoff=0):
        """Fork at ``cutoff`` facets and count this process's forks."""
        forks = []
        real = os.fork

        def fork():
            forks.append(os.getpid())
            return real()

        monkeypatch.setattr(dual_quotients, "MIN_FORKED_FACETS", cutoff)
        monkeypatch.setattr(os, "fork", fork)
        return forks

    def _halves(self, monkeypatch, fail=None):
        """The halves this process certifies; ``fail(parent)`` says whether
        a half raises, in this process or in a child."""
        parent, calls = os.getpid(), []
        real = dual_quotients._missed

        def missed(*args):
            if os.getpid() == parent:
                calls.append(args[-1])
            if fail is not None and fail(os.getpid() == parent):
                raise RuntimeError("a class failed")
            return real(*args)

        monkeypatch.setattr(dual_quotients, "_missed", missed)
        return calls

    @pytest.mark.parametrize("mutation", [None, "swap-groups"])
    def test_the_forked_stream_is_the_in_process_one(self, mutation, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = list(_certified(spec, mutation))
        forks = self._forks(monkeypatch)
        calls = self._halves(monkeypatch)
        assert list(_certified(spec, mutation)) == expected
        assert len(forks) == len(calls) == 1
        assert_no_child()

    def test_below_the_cutoff_nothing_forks(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        forks = self._forks(monkeypatch, cutoff=len(_enumerated(spec)[0]) + 1)
        calls = self._halves(monkeypatch)
        list(_certified(spec, None))
        assert forks == [] and len(calls) == 2 and calls[0] != calls[1]

    def test_a_process_running_threads_does_not_fork(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = list(_certified(spec, None))
        forks = self._forks(monkeypatch)
        streams = []
        worker = threading.Thread(target=lambda: streams.append(list(_certified(spec, None))))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and streams == [expected] and forks == []

    def test_without_os_fork_both_classes_run_in_process(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = list(_certified(spec, "swap-groups"))
        monkeypatch.setattr(dual_quotients, "MIN_FORKED_FACETS", 0)
        monkeypatch.delattr(os, "fork")
        calls = self._halves(monkeypatch)
        assert list(_certified(spec, "swap-groups")) == expected
        assert len(calls) == 2 and calls[0] != calls[1]

    def test_a_failing_fork_runs_both_classes_in_process(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = list(_certified(spec, "swap-groups"))

        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(dual_quotients, "MIN_FORKED_FACETS", 0)
        monkeypatch.setattr(os, "fork", fork)
        calls = self._halves(monkeypatch)
        assert list(_certified(spec, "swap-groups")) == expected
        assert len(calls) == 2 and calls[0] != calls[1]

    def test_a_child_that_fails_is_reaped_and_its_class_run_here(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = list(_certified(spec, "swap-groups"))
        forks = self._forks(monkeypatch)
        calls = self._halves(monkeypatch, fail=lambda parent: not parent)
        assert list(_certified(spec, "swap-groups")) == expected
        assert len(forks) == 1 and len(calls) == 2 and calls[0] != calls[1]
        assert_no_child()

    def test_a_short_payload_runs_the_child_class_here(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = list(_certified(spec, "swap-groups"))
        self._forks(monkeypatch)
        calls = self._halves(monkeypatch)
        cut = types.SimpleNamespace(dumps=lambda m: marshal.dumps(m)[:-1], loads=marshal.loads)
        monkeypatch.setattr(scroll_model, "marshal", cut)
        assert list(_certified(spec, "swap-groups")) == expected
        assert len(calls) == 2 and calls[0] != calls[1]
        assert_no_child()

    def test_a_raising_class_here_kills_the_child(self, monkeypatch):
        # The child's class would take a minute; the kill ends it at once.
        spec = DESK_BY_N[(2, 2, 4, 4)]
        forks = self._forks(monkeypatch)

        def fail(parent):
            if not parent:
                time.sleep(60)
            return parent

        self._halves(monkeypatch, fail=fail)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="a class failed"):
            list(_certified(spec, None))
        assert time.monotonic() - began < 30 and len(forks) == 1
        assert_no_child()


class TestCompactCertification:
    # Measured 73 bytes per facet at the peak (Python 3.11): the predictions
    # decoded once and the few ridges still pending.  A set of every ridge
    # certified so far took 844.
    BYTES_PER_FACET = 200

    def test_certification_stays_under_the_per_facet_byte_bound(self):
        spec = ScrollSpec((12,))
        masks, _, _ = _enumerated(spec)
        tracemalloc.start()
        try:
            result = _certify(spec, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.passed and result.facet_count == len(masks) == 3962
        assert peak < self.BYTES_PER_FACET * len(masks)
