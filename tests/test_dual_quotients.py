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
from conftest import DESK_SPECS, assert_no_child, checked_groups, desk_specs_with_complex

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
    _cut,
    _facet_order,
    _fold,
    _predict,
    _scanned,
)
from scrollfiber.facet_complex import _grid, _mask, _walk

# Shared desk spec objects keep their tables and certifications between tests.
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
    facets, groups = enumerate_facets(spec), checked_groups(spec)[1]
    order = dual_quotients._facet_order(spec, mutation)
    return [facets[groups[alpha][p]] for alpha, positions in order for p in positions]


def _shuffled(spec, seed):
    """The enumeration's order of the groups, each group's facets shuffled
    within it."""
    rng, order = random.Random(seed), []
    for alpha, positions in _facet_order(spec, None):
        positions = list(positions)
        rng.shuffle(positions)
        order.append((alpha, positions))
    return order


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
        masks, groups = checked_groups(spec)
        grid, greatest = _grid(spec), spec.alphas[-1]
        for alpha, ranks in groups.items():
            walked = [
                _predict(_walk(spec, masks[rank], alpha), grid, alpha, greatest, mutation)
                for rank in ranks
            ]
            assert _fold(spec, alpha, mutation) == (masks[ranks.start : ranks.stop], walked)

    @pytest.mark.parametrize("spec", FOLD_SPECS, ids=lambda spec: ",".join(map(str, spec.n)))
    def test_each_group_is_one_range_of_ranks(self, spec):
        # Greatest alpha first, consecutive, together every rank once.
        masks, groups = checked_groups(spec)
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

    def test_certification_folds_each_group_once_and_each_rule_mutation_twice(
        self, monkeypatch
    ):
        # Nothing is kept but the result: certification folds each group in
        # the certified order, and under a rule mutation folds it once more,
        # and each facet reader folds the groups it reads, at each call.
        calls = []

        def counted(spec, alpha, mutation):
            calls.append((alpha, mutation))
            return _fold(spec, alpha, mutation)

        monkeypatch.setattr(dual_quotients, "_fold", counted)
        spec = ScrollSpec((7,))
        enumeration = list(reversed(spec.alphas))
        assert verify_linear_quotients(spec).passed
        assert verify_linear_quotients(spec).passed
        assert calls == [(alpha, None) for alpha in enumeration]
        calls.clear()
        enumerate_facets(spec)
        first_facet(spec, 1)
        enumerate_facets(spec)
        assert calls == [(alpha, None) for alpha in enumeration + [1] + enumeration]
        for mutation in ("swap-groups", "c2", "b2"):
            calls.clear()
            result = verify_linear_quotients(spec, mutation=mutation)
            assert not result.passed and not result.scanned
            order = [alpha for alpha, _ in _facet_order(spec, mutation)]
            twice = mutation in ("c2", "b2")
            assert calls == [
                fold for alpha in order for fold in [(alpha, None)] + [(alpha, mutation)] * twice
            ]

    def test_a_mutated_fold_is_checked_against_the_unmutated_one(self, monkeypatch):
        def swapped(spec, alpha, mutation):
            masks, predicted = _fold(spec, alpha, mutation)
            if mutation == "c2" and alpha == 1:
                masks[1], masks[2] = masks[2], masks[1]
            return masks, predicted

        spec = ScrollSpec((2, 4))
        assert len(_fold(spec, 1, None)[0]) > 2
        monkeypatch.setattr(dual_quotients, "_fold", swapped)
        assert verify_linear_quotients(spec).passed
        with pytest.raises(InternalError, match=r"the c2 fold of the group at alpha=1 of \(2,4\)"):
            verify_linear_quotients(spec, mutation="c2")


class TestEachFacetOnce:
    """The enumeration lists each facet once, part of the certificate: the
    masks strictly increase within a group's range, and a facet's units are
    its group's leaf set."""

    @pytest.mark.parametrize("reader", [enumerate_facets, verify_linear_quotients])
    def test_a_duplicate_mask_is_an_internal_error(self, monkeypatch, reader):
        def duplicated(spec, alpha, mutation):
            masks, predicted = _fold(spec, alpha, mutation)
            masks[1] = masks[0]
            return masks, predicted

        monkeypatch.setattr(dual_quotients, "_fold", duplicated)
        with pytest.raises(InternalError, match=r"group at alpha=3 of \(6\) do not strictly"):
            reader(ScrollSpec((6,)))

    def test_a_facet_under_another_group_is_an_internal_error(self):
        # The greatest facet, claimed by each other group in turn.
        spec = ScrollSpec((6,))
        masks, groups = checked_groups(spec)
        for alpha, ranks in groups.items():
            dual_quotients._check_group(spec, alpha, masks[ranks.start : ranks.stop], len(ranks))
        for alpha in spec.alphas[:-1]:
            with pytest.raises(InternalError, match="holds other units than its leaves"):
                dual_quotients._check_group(spec, alpha, masks[:1], 1)

    def test_a_group_folded_short_of_its_count_is_an_internal_error(self, monkeypatch):
        def dropped(spec, alpha, mutation):
            masks, predicted = _fold(spec, alpha, mutation)
            return masks[1:], predicted[1:]

        monkeypatch.setattr(dual_quotients, "_fold", dropped)
        for reader in (enumerate_facets, verify_linear_quotients):
            with pytest.raises(InternalError, match=r"folded 8 facets of the group at alpha=3"):
                reader(ScrollSpec((6,)))


class TestVerification:
    def test_a_facet_of_another_size_is_an_internal_error(self, monkeypatch):
        # The root dropped from the first facet of the greatest group keeps
        # the masks increasing and the units, so only the size check sees it.
        def shrunk(spec, alpha, mutation):
            masks, predicted = _fold(spec, alpha, mutation)
            if alpha == spec.alphas[-1]:
                masks[0] ^= _grid(spec)[1][spec.c]
            return masks, predicted

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
        # specs, so the diagnostic scan is reached through an order with
        # each group shuffled within itself, which both the certified runs
        # and the scan read.
        spec = ScrollSpec((6,))
        order = _shuffled(spec, 0)
        monkeypatch.setattr(dual_quotients, "_facet_order", lambda spec, mutation: order)
        facets = _certified_order(spec, None)
        result = verify_linear_quotients(spec)
        reports = result.reports
        assert sum(not r.linear for r in reports) == 14
        # The shuffled order is no shelling, so the face identity fails and
        # every facet's colon ideal comes from the scan.
        assert result.scanned
        scan = list(_scanned(spec, None))
        assert sum(len(diffs) > gens.bit_count() for *_, gens, _, diffs in scan) == 14
        assert result.failing == tuple(r for r in reports if not r.matches_prediction)
        assert [r.facet for r in reports] == facets
        assert [r.computed_generators for r in reports] == [
            _minimal_diffs(f, facets[:rank]) for rank, f in enumerate(facets)
        ]


def _all_ridges_certified(spec, mutation):
    """Reference forward pass that tests every vertex of every facet and
    keeps every ridge F - u certified so far: a ridge seen before marks a
    generator.  Its entries have the shape of ``_certified``'s: alpha,
    mask, generators, prediction and no minimal differences."""
    masks, groups = checked_groups(spec)
    ridges = set()
    for alpha, positions in dual_quotients._facet_order(spec, mutation):
        predicted = _fold(spec, alpha, mutation)[1]
        for p in positions:
            f, gens = masks[groups[alpha][p]], 0
            for u in (1 << k for k in range(f.bit_length()) if f >> k & 1):
                if f ^ u in ridges:
                    gens |= u
                ridges.add(f ^ u)
            yield alpha, f, gens, predicted[p], None


def _degree_counts(spec, entries):
    """The degree counts of ``_certified`` for ``entries``."""
    counts = [0] * (spec.c + spec.d + 1)
    for _, _, gens, _, _ in entries:
        counts[gens.bit_count()] += 1
    return counts


def _bits(mask):
    """The one-bit masks of the set bits of ``mask``."""
    return [1 << k for k in range(mask.bit_length()) if mask >> k & 1]


class TestPendingRidges:
    @pytest.mark.parametrize("mutation", [None, "c2", "b2", "swap-groups"])
    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=lambda spec: str(spec.n))
    def test_entries_equal_the_all_ridges_pass(self, spec, mutation):
        expected = list(_all_ridges_certified(spec, mutation))
        counts = _degree_counts(spec, expected)
        assert _certified(spec, mutation, every=True) == (counts, expected)
        failing = [entry for entry in expected if entry[2] != entry[3]]
        assert _certified(spec, mutation) == (counts, failing)

    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=lambda spec: str(spec.n))
    def test_entries_equal_the_all_ridges_pass_on_a_shuffled_order(self, spec, monkeypatch):
        # Off the enumeration's order every vertex is a candidate, so the
        # runs count every vertex whose ridge an earlier facet holds.
        order = _shuffled(spec, len(spec.n))
        monkeypatch.setattr(dual_quotients, "_facet_order", lambda spec, mutation: order)
        expected = list(_all_ridges_certified(spec, None))
        assert _certified(spec, None, every=True) == (_degree_counts(spec, expected), expected)

    def test_swapped_order_tests_predictions_past_the_moved_groups(self, monkeypatch):
        # (7,) has 4 groups.  Past the two moved groups the order is the
        # enumeration's own, so each facet there tests its unmutated
        # prediction; a moved facet tests every vertex.
        spec = DESK_BY_N[(7,)]
        held = {}
        real = dual_quotients._group

        def group(*args):
            held[args[2]] = real(*args)
            return held[args[2]]

        monkeypatch.setattr(dual_quotients, "_group", group)
        _certified(spec, "swap-groups")
        order = [alpha for alpha, _ in _facet_order(spec, "swap-groups")]
        assert order == [3, 4, 2, 1]
        for alpha in order:
            masks, unmutated = _fold(spec, alpha, None)
            assert masks != unmutated
            assert held[alpha].tested == (masks if alpha in order[:2] else unmutated)

    def _doctored(self, monkeypatch, choose, rank=None):
        """A fresh (6,) whose group fold flips, in the prediction of the
        facet at ``rank`` (by default one with the most generators), the
        bit of ``choose(facet, predicted)``: the spec, its facets, that
        facet's rank and the chosen vertex."""
        spec = ScrollSpec((6,))
        facets = enumerate_facets(spec)
        if rank is None:
            rank = max(range(len(facets)), key=lambda r: len(predict_LG(facets[r])))
        vertex = choose(facets[rank], predict_LG(facets[rank]))
        alpha = facets[rank].alpha
        position = rank - checked_groups(spec)[1][alpha].start

        def doctored(folded, group, mutation):
            masks, predicted = _fold(folded, group, mutation)
            if folded is spec and group == alpha and mutation is None:
                predicted[position] ^= _mask(spec, [vertex])
            return masks, predicted

        monkeypatch.setattr(dual_quotients, "_fold", doctored)
        return spec, facets, rank, vertex

    def test_a_prediction_missing_a_generator_fails_that_facet(self, monkeypatch):
        spec, facets, rank, missed = self._doctored(
            monkeypatch, lambda facet, predicted: min(predicted)
        )
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

    def test_a_prediction_with_a_non_generator_fails_that_facet(self, monkeypatch):
        spec, facets, rank, extra = self._doctored(
            monkeypatch, lambda facet, predicted: min(facet.vertices - predicted)
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
    def test_every_doctored_prediction_fails_its_facet(self, monkeypatch, choose):
        # Each of the 31 facets of (6,) with a generator, doctored once.
        facets = enumerate_facets(ScrollSpec((6,)))
        ranks = [rank for rank, facet in enumerate(facets) if predict_LG(facet)]
        assert len(ranks) == 31
        for rank in ranks:
            spec, _, _, _ = self._doctored(monkeypatch, choose, rank)
            result = verify_linear_quotients(spec)
            assert not result.passed
            assert [report.facet for report in result.failing] == [facets[rank]]

    def test_over_the_scan_budget_a_failed_identity_is_refused_unscanned(self, monkeypatch):
        spec, facets, _, _ = self._doctored(monkeypatch, lambda facet, predicted: min(predicted))

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
        spec, facets, rank, _ = self._doctored(monkeypatch, lambda facet, predicted: min(predicted))
        monkeypatch.setattr(dual_quotients, "MAX_SCANNED_FACETS", len(facets))
        result = verify_linear_quotients(spec)
        assert result.scanned
        assert [report.facet for report in result.failing] == [facets[rank]]


class TestGroupRuns:
    """``_certified`` streams the groups in two runs, cut anywhere, and
    looks up only the ridges that another facet can hold; the first run
    goes to a forked child on large specs."""

    @pytest.mark.parametrize("mutation", [None, "c2", "b2", "swap-groups", "shuffled"])
    @pytest.mark.parametrize(
        "spec",
        [s for s in desk_specs_with_complex() if s.n != (2, 2, 4, 4)],
        ids=lambda spec: str(spec.n),
    )
    def test_every_cut_gives_the_all_ridges_entries(self, spec, mutation, monkeypatch):
        # The first k groups of the certified order in the first run, for
        # every k; k = 0 and k = all are one run.  (2,2,4,4) runs its own
        # cuts forked below.
        if mutation == "shuffled":
            order = _shuffled(spec, len(spec.n))
            monkeypatch.setattr(dual_quotients, "_facet_order", lambda spec, mutation: order)
            mutation = None
        expected = list(_all_ridges_certified(spec, mutation))
        for cut in range(len(spec.alphas) + 1):
            assert _certified(spec, mutation, cut, every=True)[1] == expected, cut

    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=lambda spec: str(spec.n))
    def test_the_cut_balances_the_facet_counts_of_the_runs(self, spec):
        sizes = [len(ranks) for ranks in checked_groups(spec)[1].values()]
        cut = _cut(sizes)
        assert 0 < cut < len(sizes)
        imbalance = [abs(sum(sizes[:k]) - sum(sizes[k:])) for k in range(1, len(sizes))]
        assert abs(sum(sizes[:cut]) - sum(sizes[cut:])) == min(imbalance)

    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=lambda spec: str(spec.n))
    def test_a_skipped_ridge_lies_in_one_facet_and_a_shared_one_in_its_pass(self, spec):
        # Brute force over every ridge of every enumerated facet: a ridge
        # F - v of the group at alpha lies in F alone unless v is in the
        # group's within-group scope, where it lies in the group only, or
        # is the unit of a partner, where it lies in the pair only.
        masks, groups = checked_groups(spec)
        partners = dual_quotients._partners(spec)
        owners = {}
        for alpha, ranks in groups.items():
            for f in masks[ranks.start : ranks.stop]:
                for v in _bits(f):
                    owners.setdefault(f ^ v, []).append(alpha)
        skipped = shared = 0
        for alpha, ranks in groups.items():
            group = dual_quotients._group(spec, None, alpha, range(len(ranks)), True, True)
            assert group.within & group.cross == 0
            assert group.cross == sum(partners[alpha].values())
            for f in group.masks:
                for v in _bits(f):
                    held = owners[f ^ v]
                    if v & group.within:
                        assert set(held) == {alpha}
                    elif v & group.cross:
                        (beta,) = [beta for beta, u in partners[alpha].items() if u == v]
                        assert set(held) <= {alpha, beta} and abs(alpha - beta) == 1
                    else:
                        assert held == [alpha]
                        skipped += 1
                    shared += len(held) > 1
        assert skipped and shared

    def test_a_shared_leaf_set_is_an_internal_error(self, monkeypatch):
        # Checked before any group is folded.
        real = dual_quotients.leaves_profile

        def shared(spec, alpha):
            return dataclasses.replace(real(spec, alpha), leaves=real(spec, 1).leaves)

        def no_fold(spec, alpha, mutation):
            raise AssertionError("a group was folded")

        monkeypatch.setattr(dual_quotients, "leaves_profile", shared)
        monkeypatch.setattr(dual_quotients, "_fold", no_fold)
        with pytest.raises(InternalError, match=r"two groups of \(6\) share a leaf set"):
            verify_linear_quotients(ScrollSpec((6,)))

    def test_a_partner_not_adjacent_is_an_internal_error(self, monkeypatch):
        # The group at 3 of (7,) given the leaf set of the group at 1 with
        # one unit moved: the two are partners, two apart, so a ridge could
        # lie in three groups and the pair passes would miss it.
        spec = ScrollSpec((7,))
        real = dual_quotients.leaves_profile
        first = real(spec, 1).leaves
        others = {real(spec, alpha).leaves for alpha in spec.alphas}
        moved = next(
            first - {u} | {(a, a + 1)}
            for u in sorted(first)
            for a in range(1, spec.c)
            if (a, a + 1) not in first and first - {u} | {(a, a + 1)} not in others
        )

        def doctored(spec, alpha):
            profile = real(spec, alpha)
            return dataclasses.replace(profile, leaves=moved) if alpha == 3 else profile

        def no_fold(spec, alpha, mutation):
            raise AssertionError("a group was folded")

        monkeypatch.setattr(dual_quotients, "leaves_profile", doctored)
        monkeypatch.setattr(dual_quotients, "_fold", no_fold)
        with pytest.raises(InternalError, match=r"alpha=3 and alpha=1 of \(7\) are partners"):
            verify_linear_quotients(spec)

    def test_a_scope_that_skips_a_shared_ridge_fails(self, monkeypatch):
        # Each vertex whose ridge another facet of (7,) holds, cleared from
        # its group's scopes: the generators it stops counting break the
        # face identity, which over the scan budget is an error.
        masks, groups = checked_groups(DESK_BY_N[(7,)])
        holders = Counter(f ^ v for f in masks for v in _bits(f))
        shared = {
            (alpha, v)
            for alpha, ranks in groups.items()
            for f in masks[ranks.start : ranks.stop]
            for v in _bits(f)
            if holders[f ^ v] > 1
        }
        units = _mask(DESK_BY_N[(7,)], [(a, a + 1) for a in range(1, 7)])
        assert any(v & units for _, v in shared) and any(v & ~units for _, v in shared)
        monkeypatch.setattr(dual_quotients, "MAX_SCANNED_FACETS", 0)
        assert verify_linear_quotients(ScrollSpec((7,))).passed
        real = dual_quotients._group
        for alpha, v in sorted(shared):

            def narrowed(*args, alpha=alpha, v=v):
                group = real(*args)
                if group.alpha == alpha:
                    group.within &= ~v
                    group.cross &= ~v
                return group

            monkeypatch.setattr(dual_quotients, "_group", narrowed)
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

    def _runs(self, monkeypatch, fail=None):
        """The runs this process certifies, by their range of indexes into
        the order; ``fail(parent)`` says whether a run raises, in this
        process or in a child."""
        parent, calls = os.getpid(), []
        real = dual_quotients._run

        def run(spec, mutation, order, part, every):
            if os.getpid() == parent:
                calls.append(part)
            if fail is not None and fail(os.getpid() == parent):
                raise RuntimeError("a run failed")
            return real(spec, mutation, order, part, every)

        monkeypatch.setattr(dual_quotients, "_run", run)
        return calls

    @staticmethod
    def _in_process(spec, mutation):
        """``_certified``'s result, from the replay in this process."""
        counts, entries = _certified(spec, mutation, every=True)
        return counts, [entry for entry in entries if entry[2] != entry[3]]

    @pytest.mark.parametrize("mutation", [None, "c2", "swap-groups"])
    def test_the_forked_runs_give_the_in_process_result_at_every_cut(self, mutation, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = self._in_process(spec, mutation)
        forks = self._forks(monkeypatch)
        calls = self._runs(monkeypatch)
        for cut in range(1, len(spec.alphas)):
            assert _certified(spec, mutation, cut) == expected, cut
        groups = len(spec.alphas)
        assert calls == [range(cut, groups) for cut in range(1, groups)]
        assert len(forks) == groups - 1
        assert_no_child()

    def test_large_specs_fork_at_the_balanced_cut(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = self._in_process(spec, None)
        forks = self._forks(monkeypatch, cutoff=dual_quotients.MIN_FORKED_FACETS)
        calls = self._runs(monkeypatch)
        assert _certified(spec, None) == expected
        sizes = [len(ranks) for ranks in checked_groups(spec)[1].values()]
        assert calls == [range(_cut(sizes), len(sizes))] and len(forks) == 1
        assert_no_child()

    def test_below_the_cutoff_one_run_takes_every_group(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = self._in_process(spec, None)
        forks = self._forks(monkeypatch, cutoff=len(checked_groups(spec)[0]) + 1)
        calls = self._runs(monkeypatch)
        assert _certified(spec, None) == expected
        assert forks == [] and calls == [range(6), range(0)]

    def test_a_process_running_threads_does_not_fork(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = self._in_process(spec, None)
        forks = self._forks(monkeypatch)
        results = []
        worker = threading.Thread(target=lambda: results.append(_certified(spec, None, 3)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and results == [expected] and forks == []

    def test_without_os_fork_both_runs_run_in_process(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = self._in_process(spec, "swap-groups")
        monkeypatch.delattr(os, "fork")
        calls = self._runs(monkeypatch)
        assert _certified(spec, "swap-groups", 3) == expected
        assert calls == [range(3, 6), range(3)]

    def test_a_failing_fork_runs_both_runs_in_process(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = self._in_process(spec, "swap-groups")

        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(os, "fork", fork)
        calls = self._runs(monkeypatch)
        assert _certified(spec, "swap-groups", 3) == expected
        assert calls == [range(3, 6), range(3)]

    def test_a_child_that_fails_is_reaped_and_its_run_made_here(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = self._in_process(spec, "swap-groups")
        forks = self._forks(monkeypatch)
        calls = self._runs(monkeypatch, fail=lambda parent: not parent)
        with pytest.warns(RuntimeWarning, match="status 1;"):
            assert _certified(spec, "swap-groups", 3) == expected
        assert len(forks) == 1 and calls == [range(3, 6), range(3)]
        assert_no_child()

    def test_a_short_payload_runs_the_child_run_here(self, monkeypatch):
        spec = DESK_BY_N[(2, 2, 4, 4)]
        expected = self._in_process(spec, "swap-groups")
        self._forks(monkeypatch)
        calls = self._runs(monkeypatch)
        cut = types.SimpleNamespace(dumps=lambda m: marshal.dumps(m)[:-1], loads=marshal.loads)
        monkeypatch.setattr(scroll_model, "marshal", cut)
        with pytest.warns(RuntimeWarning, match="status 0 after a short payload"):
            assert _certified(spec, "swap-groups", 3) == expected
        assert calls == [range(3, 6), range(3)]
        assert_no_child()

    def test_a_raising_run_here_kills_the_child(self, monkeypatch):
        # The child's run would take a minute; the kill ends it at once.
        spec = DESK_BY_N[(2, 2, 4, 4)]
        forks = self._forks(monkeypatch)

        def fail(parent):
            if not parent:
                time.sleep(60)
            return parent

        self._runs(monkeypatch, fail=fail)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="a run failed"):
            _certified(spec, None, 3)
        assert time.monotonic() - began < 30 and len(forks) == 1
        assert_no_child()


class TestCompactCertification:
    # Measured 92 bytes per facet at the peak (Python 3.12): certification
    # folds its own groups, so this is the fold of one group next to the
    # masks and predictions of the group before it and the few ridges
    # still pending.  A set of every ridge certified so far took 844.
    BYTES_PER_FACET = 200

    def test_certification_stays_under_the_per_facet_byte_bound(self):
        spec = ScrollSpec((12,))
        masks, _ = checked_groups(spec)
        tracemalloc.start()
        try:
            result = _certify(spec, None)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.passed and result.facet_count == len(masks) == 3962
        assert peak < self.BYTES_PER_FACET * len(masks)
