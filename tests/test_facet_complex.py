"""Facet recognition, trees, and enumeration against the exhaustive filter."""

from __future__ import annotations

import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import (
    brute_force_facets,
    checked_groups,
    crossing,
    desk_specs_with_complex,
    reference_is_facet,
    tightest_covers,
)

from scrollfiber import (
    CapacityError,
    Facet,
    InternalError,
    InvalidVertexError,
    PreconditionError,
    ScrollSpec,
    StructuralError,
    UnsupportedRegimeError,
    enumerate_facets,
    facet_tree,
    first_facet,
    is_facet,
    leaves_profile,
    precedes,
    predict_LG,
    vertex_set,
)
from scrollfiber import facet_complex
from scrollfiber.dual_quotients import MAX_ENUMERATED_FACETS, _facets
from scrollfiber.facet_complex import (
    _bitset_index,
    _face_vector,
    _good_groups,
    _grid,
    _group_counts,
    count_facets,
)
from scrollfiber.invariants import (
    _certify_flag,
    closed_form,
    face_counts,
    full_report,
    numerator_from_face_counts,
)

SPEC_2244 = ScrollSpec((2, 2, 4, 4))
LEAVES_2244_A2 = frozenset({(2, 3), (3, 4), (4, 5), (5, 6), (10, 11), (11, 12)})
FIRST_2244_A2 = frozenset((k, 12) for k in range(1, 11)) | LEAVES_2244_A2

SPEC_245 = ScrollSpec((2, 4, 5))
EXAMPLE_245 = frozenset(
    {
        (1, 2), (1, 3), (1, 4), (1, 6), (1, 7), (1, 8), (1, 9), (1, 11),
        (2, 3), (3, 4), (4, 5), (4, 6), (9, 11), (10, 11),
    }
)


class TestIsFacet:
    def test_first_facet_2244_recognized(self):
        assert is_facet(SPEC_2244, FIRST_2244_A2)

    def test_dropping_a_vertex_breaks_it(self):
        assert not is_facet(SPEC_2244, FIRST_2244_A2 - {(10, 12)})

    def test_worked_245_example(self):
        assert is_facet(SPEC_245, EXAMPLE_245)

    def test_small_scroll_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            is_facet(ScrollSpec((1, 1, 1)), {(1, 3)})

    @pytest.mark.parametrize("vertex", ["x", (1,), (1.0, 2), (True, 2), (1, 2, 3), [1, 2]])
    def test_a_vertex_that_is_not_a_pair_of_ints_is_refused(self, vertex):
        with pytest.raises(InvalidVertexError, match=r"is not a pair of ints"):
            is_facet(SPEC_2244, [(1, 2), vertex])

    def test_a_vertex_outside_the_range_is_refused(self):
        with pytest.raises(InvalidVertexError, match=r"vertex \(0, 2\) outside 1 <= a < b <= 12"):
            is_facet(SPEC_2244, [(1, 2), (0, 2)])

    def test_removing_any_vertex_never_gives_a_facet(self):
        for facet in enumerate_facets(ScrollSpec((6,)))[:8]:
            for v in sorted(facet.vertices)[:3]:
                assert not is_facet(facet.spec, facet.vertices - {v})


class TestOneGrammar:
    # ``is_facet`` parses with the ``_rules`` tables; ``reference_is_facet``
    # states the grammar a second time, by hand, as three node patterns.
    @pytest.mark.parametrize("n", [(5,), (6,), (2, 4), (1, 5), (3, 3)])
    def test_parse_equals_the_reference_on_near_facet_sizes(self, n):
        spec = ScrollSpec(n)
        size = spec.c + spec.d
        for k in (size - 1, size, size + 1):
            for candidate in itertools.combinations(vertex_set(spec), k):
                assert is_facet(spec, candidate) == reference_is_facet(spec, candidate)

    def test_one_report_builds_each_table_once(self, monkeypatch):
        spec = ScrollSpec((2, 2, 4))
        built = []
        rules = facet_complex._rules

        def counted(spec, alpha):
            built.append(alpha)
            return rules(spec, alpha)

        monkeypatch.setattr(facet_complex, "_rules", counted)
        full_report(spec)
        assert sorted(built) == list(spec.alphas)

    def test_kept_tables_stay_small(self):
        # Measured 1.7 MB for the 28 tables of (30,) (Python 3.11): a way is
        # its tuple of children, and every way names one tuple per vertex.
        spec = ScrollSpec((30,))
        facet_complex._grid(spec)
        tracemalloc.start()
        try:
            for alpha in spec.alphas:
                facet_complex._table(spec, alpha)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 3_000_000

    def test_facet_level_api_is_refused_over_budget(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("a grammar table was built")

        monkeypatch.setattr(facet_complex, "_rules", no_table)
        spec = ScrollSpec((52,))
        facet = Facet(frozenset({(1, 52), (1, 2)}), alpha=1, spec=spec)
        budget = "counting budget of 1,000,000 steps"
        with pytest.raises(CapacityError, match=budget):
            is_facet(spec, facet.vertices)
        with pytest.raises(CapacityError, match=budget):
            facet_tree(facet)
        with pytest.raises(CapacityError, match=budget):
            predict_LG(facet)


# The enumeration (a fold of the grammar tables) is the oracle of the parse.
ORACLE_SPECS = [(5,), (6,), (2, 4), (1, 5), (7,), (2, 2, 2, 2)]


class TestWalkAgainstEnumeration:
    @pytest.mark.parametrize("n", ORACLE_SPECS)
    def test_one_vertex_changes(self, n):
        spec = ScrollSpec(n)
        facets = {f.vertices for f in enumerate_facets(spec)}
        vertices = vertex_set(spec)
        for f in facets:
            outside = [w for w in vertices if w not in f]
            for w in outside:
                assert not is_facet(spec, f | {w})
            for u in f:
                rest = f - {u}
                assert not is_facet(spec, rest)
                for w in outside:
                    swapped = rest | {w}
                    assert is_facet(spec, swapped) == (swapped in facets)

    @pytest.mark.parametrize("n", ORACLE_SPECS)
    def test_relabelled_facets_raise(self, n):
        spec = ScrollSpec(n)
        top = spec.c - spec.d - 2
        for f in enumerate_facets(spec):
            for alpha in range(top + 2):
                if alpha == f.alpha:
                    continue
                relabelled = Facet(f.vertices, alpha=alpha, spec=spec)
                with pytest.raises(StructuralError):
                    predict_LG(relabelled)
                with pytest.raises(StructuralError):
                    facet_tree(relabelled)


class TestFacetTree:
    def test_tree_of_first_facet_2244(self):
        tree = facet_tree(Facet(FIRST_2244_A2, alpha=2, spec=SPEC_2244))
        assert tree.root == (1, 12)
        assert tree.children[(1, 12)] == ((2, 12),)
        assert tree.children[(2, 12)] == ((2, 3), (3, 12))
        assert tree.children[(5, 12)] == ((5, 6), (6, 12))
        assert tree.children[(6, 12)] == ((7, 12),)
        assert tree.children[(10, 12)] == ((10, 11), (11, 12))
        assert tree.parent[(10, 11)] == (10, 12)

    def test_roots_and_leaf_counts(self):
        for n in [(5,), (2, 4), (2, 2, 2, 2)]:
            spec = ScrollSpec(n)
            for facet in enumerate_facets(spec):
                tree = facet_tree(facet)
                assert tree.root == (1, spec.c)
                leaves = [v for v, kids in tree.children.items() if not kids]
                assert len(leaves) == spec.d + 2

    def test_non_facet_raises(self):
        broken = Facet(FIRST_2244_A2 - {(10, 12)}, alpha=2, spec=SPEC_2244)
        with pytest.raises(StructuralError):
            facet_tree(broken)

    def test_mislabelled_alpha_raises(self):
        # An alpha-5 facet labelled with the greatest group, alpha = 6.
        facet = first_facet(SPEC_2244, 5)
        with pytest.raises(StructuralError):
            facet_tree(Facet(facet.vertices, alpha=6, spec=SPEC_2244))

    @pytest.mark.parametrize("alpha", [1.0, True])
    def test_alpha_that_is_not_an_int_raises(self, alpha):
        # The enumeration builds the table of 1, which alpha == 1 would find.
        spec = ScrollSpec((5,))
        with pytest.raises(PreconditionError, match=r"alpha must lie in \[1, 2\], got"):
            first_facet(spec, alpha)
        facet = first_facet(spec, 1)
        with pytest.raises(PreconditionError, match=r"alpha must lie in \[1, 2\], got"):
            facet_tree(Facet(facet.vertices, alpha=alpha, spec=spec))

    def test_matches_tightest_enclosing_intervals(self):
        for spec in desk_specs_with_complex():
            for facet in enumerate_facets(spec):
                tree = facet_tree(facet)
                parents = tightest_covers(facet.vertices)
                assert tree.parent == parents
                covers = {u: [] for u in facet.vertices}
                for v, p in sorted(parents.items()):
                    covers[p].append(v)
                assert tree.children == {u: tuple(kids) for u, kids in covers.items()}


class TestEnumeration:
    def test_matches_exhaustive_filter_smallest(self):
        spec = ScrollSpec((5,))
        assert {f.vertices for f in enumerate_facets(spec)} == brute_force_facets(spec)

    def test_first_facet_is_enumerated(self):
        vertex_sets = {f.vertices for f in enumerate_facets(SPEC_2244)}
        assert FIRST_2244_A2 in vertex_sets

    def test_facet_sizes(self):
        for n in [(6,), (1, 5), (2, 2, 2, 2)]:
            spec = ScrollSpec(n)
            assert all(len(f.vertices) == spec.c + spec.d for f in enumerate_facets(spec))

    def test_deterministic_output(self):
        spec = ScrollSpec((7,))
        once = [(f.alpha, f.vertices) for f in enumerate_facets(spec)]
        again = [(f.alpha, f.vertices) for f in enumerate_facets(spec)]
        assert once == again

    def test_groups_are_disjoint(self):
        # A facet's leaf set pins down its group: unit intervals identify alpha.
        for facet in enumerate_facets(ScrollSpec((2, 2, 2, 2))):
            units = {v for v in facet.vertices if v[1] - v[0] == 1}
            assert units == leaves_profile(facet.spec, facet.alpha).leaves

    def test_count_depends_only_on_c_and_d(self):
        counts = {n: len(enumerate_facets(ScrollSpec(n))) for n in [(1, 5), (2, 4), (3, 3)]}
        assert len(set(counts.values())) == 1
        big = {n: len(enumerate_facets(ScrollSpec(n))) for n in [(1, 2, 2, 4), (2, 2, 2, 3)]}
        assert len(set(big.values())) == 1
        wide = {n: len(enumerate_facets(ScrollSpec(n))) for n in [(1, 1, 1, 5), (2, 2, 2, 2)]}
        assert len(set(wide.values())) == 1

    def test_structural_conditions_hold(self):
        for facet in enumerate_facets(ScrollSpec((1, 2, 2, 4))):
            vertices = sorted(facet.vertices)
            assert not any(
                crossing(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]
            )

    def test_small_scroll_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            enumerate_facets(ScrollSpec((2, 2, 2)))


def _reference_key(facet):
    """Facet order by frozensets: larger alpha first, then the dual support
    listed in ascending (a, b) order, lexicographically smaller first."""
    return (-facet.alpha, sorted(set(vertex_set(facet.spec)) - facet.vertices))


class TestFacetOrder:
    @pytest.mark.parametrize("n", [(5,), (6,), (1, 5), (2, 4), (3, 3), (7,)])
    def test_enumeration_is_the_reference_sort_of_all_facets(self, n):
        spec = ScrollSpec(n)
        facets = enumerate_facets(spec)
        reference = sorted(
            (Facet(vs, alpha=min(a for a, b in vs if b - a == 1), spec=spec)
             for vs in brute_force_facets(spec)),
            key=_reference_key,
        )
        assert facets == reference
        assert len({f.alpha for f in facets}) == spec.c - spec.d - 2
        assert all(precedes(f, g) for f, g in zip(facets, facets[1:]))

    def test_each_call_builds_its_own_views(self):
        spec = ScrollSpec((6,))
        assert enumerate_facets(spec)[0] == enumerate_facets(spec)[0]
        assert enumerate_facets(spec)[0] is not enumerate_facets(spec)[0]
        assert enumerate_facets(spec) is not enumerate_facets(spec)
        assert first_facet(spec, 3) == enumerate_facets(spec)[0]


class TestCompactViews:
    # Measured 189 bytes per facet of the largest group at the peak on a
    # fresh spec (Python 3.11): the fold and checks of one group, its masks
    # and predictions, the spec's tables and one view.  Keeping every mask
    # of the spec while yielding the views took 275.
    BYTES_PER_FACET = 240

    def test_every_view_stays_under_the_byte_bound_of_one_group(self):
        spec = ScrollSpec((2, 2, 4, 4))
        tracemalloc.start()
        try:
            count = sum(1 for _ in _facets(spec))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        largest = max(_group_counts(spec).values())
        assert (count, largest) == (20696, 5070)
        assert peak < self.BYTES_PER_FACET * largest


class TestFacetCount:
    @pytest.mark.parametrize(
        "n, count",
        [
            ((5,), 10),
            ((2, 4), 28),
            ((12,), 3962),
            ((2, 2, 4, 4), 20696),
            ((2, 2, 2, 2, 2, 2), 38012),
            ((4, 4, 4, 4), 475456),
            ((5, 5, 5, 5), 8_242_832),
            ((10, 10, 10), 4_294_832_318),
            ((30,), 1_073_740_952),
            ((40,), 1_099_511_626_214),
        ],
    )
    def test_known_counts(self, n, count):
        assert count_facets(ScrollSpec(n)) == count

    def test_matches_enumeration(self):
        for spec in desk_specs_with_complex():
            assert count_facets(spec) == len(enumerate_facets(spec))

    def test_over_budget_enumeration_is_refused(self):
        with pytest.raises(CapacityError, match="1,048,194 facets.*1,000,000"):
            enumerate_facets(ScrollSpec((20,)))
        assert count_facets(ScrollSpec((4, 4, 4, 5))) <= MAX_ENUMERATED_FACETS

    @pytest.mark.parametrize(
        "n", [(52,), (120,), (1100,), (20, 20, 20), (99999999999999999999,)]
    )
    def test_over_budget_count_is_refused_before_counting(self, n, monkeypatch):
        def no_table(*args):
            raise AssertionError("a grammar table was built")

        monkeypatch.setattr("scrollfiber.facet_complex._rules", no_table)
        with pytest.raises(CapacityError, match="counting budget of 1,000,000 steps"):
            count_facets(ScrollSpec(n))

    def test_count_mismatch_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr("scrollfiber.dual_quotients.count_facets", lambda spec: 11)
        with pytest.raises(InternalError, match="enumerated 10 facets"):
            enumerate_facets(ScrollSpec((5,)))

    def test_small_scroll_rejected(self):
        with pytest.raises(UnsupportedRegimeError):
            count_facets(ScrollSpec((2, 2, 2)))


def _partitions(c, largest=None):
    """Every scroll type with c columns: the non-decreasing tuples of
    positive integers summing to c."""
    largest = c if largest is None else largest
    if c == 0:
        return [()]
    return [
        (*rest, part)
        for part in range(min(c, largest), 0, -1)
        for rest in _partitions(c - part, part)
    ]


class TestFaceVector:
    """The interval DP against independent face counts: the clique walk of
    ``face_counts`` on the enumerated facets, the facet count and the rank
    oracle."""

    @pytest.mark.parametrize(
        "spec", [s for s in desk_specs_with_complex() if s.c <= 9], ids=str
    )
    def test_equals_the_walk_at_every_size(self, spec):
        assert _face_vector(spec) == face_counts(enumerate_facets(spec), spec.c + spec.d)

    @pytest.mark.parametrize("n, sizes", [((12,), 13), ((2, 2, 4, 4), 7)])
    def test_equals_the_walk_on_larger_specs(self, n, sizes):
        # (12,) at every size.  The walk to size 16 of (2,2,4,4) visits 91M
        # faces (47 s on a 2-core host); sizes 8..16 are compared with the
        # certified h-vector by every invariants run instead.
        spec = ScrollSpec(n)
        f = _face_vector(spec)
        assert len(f) == spec.c + spec.d
        assert f[:sizes] == face_counts(enumerate_facets(spec), sizes)

    @pytest.mark.parametrize("n, facets", [((6, 6, 6), 1_031_054), ((20,), 1_048_194)])
    def test_top_size_counts_the_facets_past_the_enumeration_budget(self, n, facets):
        spec = ScrollSpec(n)
        assert count_facets(spec) == facets > MAX_ENUMERATED_FACETS
        f = _face_vector(spec)
        assert (len(f), f[-1]) == (spec.c + spec.d, facets)

    def test_equal_cd_specs_give_one_f_vector(self):
        types = [(4, 4, 4, 4), (3, 3, 4, 6), (1, 1, 1, 13)]
        assert len({_face_vector(ScrollSpec(n)) for n in types}) == 1

    def test_every_type_up_to_c12_counts_by_c_and_d_alone(self):
        # The 205 scroll types with a complex and c <= 12: every interval's
        # groups form a range (no InternalError), the faces reach the facet
        # size c + d, and the h-vector has the closed-form regularity.
        by_cd = {}
        for c in range(5, 13):
            for n in _partitions(c):
                spec = ScrollSpec(n)
                if spec.has_complex:
                    by_cd.setdefault((c, spec.d), set()).add(_face_vector(spec))
        assert sum(1 for c in range(5, 13) for n in _partitions(c) if c >= len(n) + 4) == 205
        for (c, d), f_vectors in by_cd.items():
            (f,) = f_vectors
            h = numerator_from_face_counts(f, c + d)
            assert (len(f), len(h) - 1) == (c + d, closed_form(c, d).reg)

    def test_good_groups_off_a_range_are_an_internal_error(self, monkeypatch):
        # In (6,) the unit (3, 4) is a leaf of groups 1, 2 and 3; without it
        # in group 2, the groups of (3, 4) are 1 and 3.
        real = facet_complex.leaves_profile

        def hole_in_group_two(spec, alpha):
            profile = real(spec, alpha)
            if alpha != 2:
                return profile
            return dataclasses.replace(profile, leaves=profile.leaves - {(3, 4)})

        spec = ScrollSpec((6,))
        assert all((3, 4) in real(spec, alpha).leaves for alpha in spec.alphas)
        monkeypatch.setattr(facet_complex, "leaves_profile", hole_in_group_two)
        with pytest.raises(InternalError, match=r"groups of \(3, 4\) form no range"):
            _face_vector(spec)

    def test_over_budget_is_refused_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("the face DP started")

        monkeypatch.setattr(facet_complex, "leaves_profile", no_work)
        monkeypatch.setattr(facet_complex, "_laminar", no_work)
        with pytest.raises(CapacityError, match="counting budget of 1,000,000 steps"):
            _face_vector(ScrollSpec((52,)))


class TestCountedComplexIsPure:
    """The lemma behind the face identity of certification: the maximal
    laminar families of intervals good for a group are exactly that group's
    facets, so the complex that ``_face_vector`` counts is pure and its
    facets are the enumerated ones."""

    @pytest.mark.parametrize("spec", desk_specs_with_complex(), ids=str)
    def test_maximal_good_families_are_the_groups_facets(self, spec):
        masks, groups = checked_groups(spec)
        grid, good = _grid(spec), _good_groups(spec)
        for alpha, ranks in groups.items():
            # Two good intervals are adjacent unless they cross.
            vertices = [v for v in vertex_set(spec) if good[v] >> alpha & 1]
            adj = [0] * len(vertex_set(spec))
            for (a, b), (a2, b2) in itertools.combinations(vertices, 2):
                if not crossing((a, b), (a2, b2)):
                    adj[grid[a][b].bit_length() - 1] |= grid[a2][b2]
                    adj[grid[a2][b2].bit_length() - 1] |= grid[a][b]
            _certify_flag(adj, masks[ranks.start : ranks.stop])


class TestBitsetIndex:
    """The transposition against a per-bit reference, on both sides of the
    block edges and on masks of every bit length, zero among them."""

    @pytest.mark.parametrize("count", [0, 1, 511, 512, 513, 1500])
    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(width=st.integers(0, 80), seed=st.integers(0, 2**32 - 1))
    def test_equals_the_per_bit_reference(self, count, width, seed):
        rng = random.Random(seed)
        masks = [rng.getrandbits(rng.randint(0, width)) for _ in range(count)]
        rows = [0] * max(map(int.bit_length, masks), default=0)
        for rank, mask in enumerate(masks):
            for pos in range(mask.bit_length()):
                if mask >> pos & 1:
                    rows[pos] |= 1 << rank
        assert _bitset_index(masks) == rows

    @pytest.mark.parametrize("count", [0, 1, 511, 512, 1030])
    @pytest.mark.parametrize("width", [1, 7, 8, 9, 66])
    def test_equals_the_naive_transposition_at_byte_edges(self, count, width):
        # Widths on both sides of a byte edge and the width of c = 12, with
        # the top bit of the width set in the last mask.
        rng = random.Random(count * 100 + width)
        masks = [rng.getrandbits(width) for _ in range(count)]
        if masks:
            masks[-1] |= 1 << (width - 1)
        ranks = range(len(masks))
        rows = [sum(1 << r for r in ranks if masks[r] >> pos & 1) for pos in range(width)]
        assert _bitset_index(masks) == (rows if masks else [])


class TestFirstFacet:
    def test_explicit_form_2244(self):
        assert first_facet(SPEC_2244, 2).vertices == FIRST_2244_A2

    def test_always_a_facet(self):
        for n in [(5,), (6,), (1, 5), (2, 2, 2, 2), (1, 2, 2, 4)]:
            spec = ScrollSpec(n)
            for alpha in range(1, spec.c - spec.d - 1):
                facet = first_facet(spec, alpha)
                assert is_facet(spec, facet.vertices)
                assert facet.alpha == alpha

    def test_greatest_in_its_group(self):
        for n in [(6,), (2, 4), (2, 2, 2, 2)]:
            spec = ScrollSpec(n)
            for alpha in range(1, spec.c - spec.d - 1):
                first = first_facet(spec, alpha)
                group = [f for f in enumerate_facets(spec) if f.alpha == alpha]
                assert all(
                    precedes(first, other)
                    for other in group
                    if other.vertices != first.vertices
                )
