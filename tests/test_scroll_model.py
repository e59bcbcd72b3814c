"""Matrix arrangement, leaf profiles, and minor expansion."""

from __future__ import annotations

import os

import pytest
from conftest import assert_no_child
from hypothesis import given, strategies as st

from scrollfiber import (
    InvalidVertexError,
    PreconditionError,
    ScrollSpec,
    UnsupportedRegimeError,
    build_matrix,
    enumerate_facets,
    leaves_profile,
    minor,
    verify_linear_quotients,
)
from scrollfiber.scroll_model import two_halves

specs = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4).map(
    lambda values: ScrollSpec(tuple(sorted(values)))
)


def entry_names(columns):
    return [col[0] for col in columns], [col[1] for col in columns]


class TestScrollSpec:
    def test_derived_quantities(self):
        spec = ScrollSpec((2, 2, 4, 4))
        assert spec.c == 12
        assert spec.d == 4

    def test_list_input_is_coerced_hashable(self):
        spec = ScrollSpec([2, 4])
        assert spec == ScrollSpec((2, 4))
        assert hash(spec) == hash(ScrollSpec((2, 4)))

    @pytest.mark.parametrize("bad", [(), (0,), (-1, 2), (3, 2), (True, 4)])
    def test_rejects_bad_degrees(self, bad):
        with pytest.raises(PreconditionError):
            ScrollSpec(bad)

    def test_results_live_on_the_spec_object(self):
        spec, twin = ScrollSpec((5,)), ScrollSpec((5,))
        assert verify_linear_quotients(spec) is verify_linear_quotients(spec)
        assert enumerate_facets(spec)[0] == enumerate_facets(spec)[0]
        assert enumerate_facets(spec)[0] is not enumerate_facets(spec)[0]
        assert enumerate_facets(twin)[0] is not enumerate_facets(spec)[0]
        assert spec == twin and hash(spec) == hash(twin)
        assert repr(spec) == "ScrollSpec(n=(5,))"

    @pytest.mark.parametrize(
        "n, expected",
        [((5,), True), ((1, 1, 4), False), ((1, 1, 5), True), ((2, 2, 2), False)],
    )
    def test_complex_regime(self, n, expected):
        spec = ScrollSpec(n)
        assert spec.has_complex is expected
        assert list(spec.alphas) == (list(range(1, spec.c - spec.d - 1)) if expected else [])
        if not expected:
            with pytest.raises(UnsupportedRegimeError, match="d\\+4"):
                leaves_profile(spec, 1)


class TestBuildMatrix:
    def test_printed_arrangement_2244(self):
        top, bottom = entry_names(build_matrix(ScrollSpec((2, 2, 4, 4))).columns)
        assert top == [
            (1, 0), (2, 0), (3, 0), (4, 0), (3, 1), (4, 1),
            (3, 2), (4, 2), (4, 3), (3, 3), (2, 1), (1, 1),
        ]
        assert bottom == [
            (1, 1), (2, 1), (3, 1), (4, 1), (3, 2), (4, 2),
            (3, 3), (4, 3), (4, 4), (3, 4), (2, 2), (1, 2),
        ]

    def test_single_block_is_identity_arrangement(self):
        top, _ = entry_names(build_matrix(ScrollSpec((5,))).columns)
        assert top == [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]

    def test_degree_one_blocks_only_contribute_last_columns(self):
        columns = build_matrix(ScrollSpec((1, 1))).columns
        assert columns == (((2, 0), (2, 1)), ((1, 0), (1, 1)))

    @given(spec=specs)
    def test_column_invariants(self, spec):
        columns = build_matrix(spec).columns
        assert len(columns) == spec.c
        tops = {col[0] for col in columns}
        bottoms = {col[1] for col in columns}
        assert tops == {(i, j) for i in range(1, spec.d + 1) for j in range(spec.n[i - 1])}
        assert bottoms == {(i, j) for i in range(1, spec.d + 1) for j in range(1, spec.n[i - 1] + 1)}
        for (bi, ji), (bj, jj) in columns:
            assert bi == bj and jj == ji + 1


class TestLeavesProfile:
    def test_printed_leaves_2244(self):
        profile = leaves_profile(ScrollSpec((2, 2, 4, 4)), 2)
        assert profile.leaves == {(2, 3), (3, 4), (4, 5), (5, 6), (10, 11), (11, 12)}

    def test_gamma_and_ell_2244(self):
        # Scanned off the arranged matrix: least column >= alpha + 2 per block.
        profile = leaves_profile(ScrollSpec((2, 2, 4, 4)), 2)
        assert profile.gamma == {1: 12, 2: 11, 3: 5, 4: 4}
        assert profile.ell == 3

    @pytest.mark.parametrize("alpha", [1, 2])
    def test_single_block_forces_ell_two(self, alpha):
        profile = leaves_profile(ScrollSpec((5,)), alpha)
        assert profile.ell == 2
        assert profile.leaves == {(alpha, alpha + 1), (alpha + 1, alpha + 2), (alpha + 2, alpha + 3)}

    @given(spec=specs)
    def test_profile_invariants(self, spec):
        c, d = spec.c, spec.d
        if c < d + 4:
            with pytest.raises(PreconditionError):
                leaves_profile(spec, 1)
            return
        for alpha in range(1, c - d - 1):
            profile = leaves_profile(spec, alpha)
            assert 2 <= profile.ell <= d + 1
            low = set(range(alpha + 2, alpha + profile.ell + 1))
            high = set(range(c - d + profile.ell, c + 1))
            assert set(profile.gamma.values()) == low | high
            assert not low & high
            assert len(low) == profile.ell - 1
            assert len(profile.leaves) == d + 2
            assert min(a for a, _ in profile.leaves) == alpha

    @given(spec=specs)
    def test_consecutive_leaf_sets_differ_by_one(self, spec):
        c, d = spec.c, spec.d
        if c < d + 4:
            return
        for alpha in range(1, c - d - 2):
            current = leaves_profile(spec, alpha).leaves
            following = leaves_profile(spec, alpha + 1).leaves
            assert current - following == {(alpha, alpha + 1)}
            assert len(following - current) == 1

    def test_alpha_out_of_range(self):
        spec = ScrollSpec((2, 2, 4, 4))
        for alpha in (0, 7):
            with pytest.raises(PreconditionError):
                leaves_profile(spec, alpha)

    @pytest.mark.parametrize("alpha", [True, 1.0])
    def test_alpha_that_is_not_an_int(self, alpha):
        # bool counts as not an int, as for the block degrees.
        with pytest.raises(PreconditionError, match=r"alpha must lie in \[1, 6\], got"):
            leaves_profile(ScrollSpec((2, 2, 4, 4)), alpha)

    def test_small_scroll_rejected(self):
        with pytest.raises(PreconditionError):
            leaves_profile(ScrollSpec((1, 1, 1)), 1)


class TestMinor:
    def test_cross_block_minor(self):
        poly = minor(ScrollSpec((2, 2, 4, 4)), 1, 2)
        assert poly.as_dict() == {
            (((1, 0), 1), ((2, 1), 1)): 1,
            (((1, 1), 1), ((2, 0), 1)): -1,
        }

    def test_same_block_minor_with_square_term(self):
        poly = minor(ScrollSpec((2, 2, 4, 4)), 3, 5)
        assert poly.as_dict() == {
            (((3, 0), 1), ((3, 2), 1)): 1,
            (((3, 1), 2),): -1,
        }

    @given(spec=specs, data=st.data())
    def test_every_term_is_quadratic_and_nonzero(self, spec, data):
        c = spec.c
        if c < 2:
            return
        a = data.draw(st.integers(1, c - 1))
        b = data.draw(st.integers(a + 1, c))
        poly = minor(spec, a, b)
        assert poly.terms
        assert poly.total_degrees() == {2}
        assert all(coeff in (1, -1) for coeff, _ in poly.terms)

    def test_invalid_column_pair(self):
        spec = ScrollSpec((5,))
        with pytest.raises(InvalidVertexError):
            minor(spec, 3, 3)
        with pytest.raises(InvalidVertexError):
            minor(spec, 4, 2)

    def test_minors_pairwise_distinct(self):
        # Degenerate specs could in principle repeat a minor; assert they don't.
        for n in [(5,), (1, 1), (1, 2), (2, 2, 2)]:
            spec = ScrollSpec(n)
            seen = set()
            for a in range(1, spec.c + 1):
                for b in range(a + 1, spec.c + 1):
                    key = frozenset(minor(spec, a, b).as_dict().items())
                    assert key not in seen
                    seen.add(key)


def _allowed_cpus():
    """This process's CPU affinity mask, or None where it cannot be read."""
    return os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None


pinnable = pytest.mark.skipif(
    not _allowed_cpus() or len(_allowed_cpus()) < 2,
    reason="needs os.sched_getaffinity and at least two allowed CPUs",
)


class TestTwoHalves:
    """``two_halves`` gives ``(first(), second())`` whether or not it forks,
    with the forked half and this process's half pinned to two distinct
    CPUs of the affinity mask; certification and the rank oracle test its
    fallbacks."""

    @pytest.mark.parametrize("fork", [True, False])
    def test_the_halves_come_back_in_order(self, fork):
        parent = os.getpid()
        first, second = two_halves(lambda: {1: os.getpid()}, lambda: os.getpid(), fork)
        assert second == parent and (first[1] != parent) == fork
        assert_no_child()

    def test_a_failed_child_is_named_by_its_exit_status(self):
        parent = os.getpid()

        def first():
            if os.getpid() != parent:
                os._exit(7)
            return 1

        with pytest.warns(RuntimeWarning, match="exited with status 7; running it") as caught:
            assert two_halves(first, lambda: 2, True) == (1, 2)
        assert len(caught) == 1
        assert_no_child()

    @pinnable
    def test_each_half_runs_on_its_own_cpu(self):
        mask = os.sched_getaffinity(0)
        theirs, own = two_halves(
            lambda: os.sched_getaffinity(0), lambda: os.sched_getaffinity(0), True
        )
        assert len(theirs) == 1 and theirs <= mask
        assert own and own <= mask and not theirs & own
        assert os.sched_getaffinity(0) == mask
        assert_no_child()

    @pinnable
    def test_the_mask_is_restored_when_this_half_raises(self):
        mask = os.sched_getaffinity(0)

        def second():
            assert os.sched_getaffinity(0) != mask
            raise RuntimeError("this half failed")

        with pytest.raises(RuntimeError, match="this half failed"):
            two_halves(lambda: 1, second, True)
        assert os.sched_getaffinity(0) == mask
        assert_no_child()

    @pinnable
    def test_a_refused_pin_runs_both_halves_unpinned(self, monkeypatch, recwarn):
        mask = os.sched_getaffinity(0)

        def refused(pid, cpus):
            raise OSError("not permitted")

        monkeypatch.setattr(os, "sched_setaffinity", refused)
        halves = two_halves(lambda: os.sched_getaffinity(0), lambda: os.sched_getaffinity(0), True)
        assert halves == (mask, mask)
        assert len(recwarn) == 0
        assert_no_child()

    def test_no_fork_pins_nothing(self, monkeypatch):
        def refused(pid, cpus):
            raise AssertionError("a process was pinned")

        monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
        assert two_halves(lambda: 1, lambda: 2, False) == (1, 2)
