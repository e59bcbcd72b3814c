"""Rank oracle: expansion, exact elimination, and the cross-check tables."""

from __future__ import annotations

import gc
import itertools
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest

from scrollfiber import (
    DEFAULT_MODULUS,
    CapacityError,
    CrossCheckRow,
    InternalError,
    MinorPolynomial,
    PreconditionError,
    ScrollSpec,
    UnsupportedRegimeError,
    build_rank_problem,
    closed_form,
    cross_check,
    fiber_hilbert_function,
    hilbert_function_from_h,
    minor,
    rank_blocks,
    rank_mod_prime,
    rank_rational,
)
from scrollfiber import oracle
from scrollfiber.dual_quotients import MAX_ENUMERATED_FACETS
from scrollfiber.facet_complex import _face_vector, count_facets
from scrollfiber.invariants import _hf_from_counts
from scrollfiber.oracle import (
    ExpandedPolynomial,
    RankProblem,
    _degree_rank,
    _generators,
    _is_prime,
    _product,
)


def _exponents(mono, t, n_vars):
    """The bit fields of a packed degree-2t monomial, least variable first."""
    width = (2 * t).bit_length()
    assert mono >> (width * n_vars) == 0
    return [(mono >> (width * k)) & ((1 << width) - 1) for k in range(n_vars)]


def _reference_rank(dense, p=None):
    """Dense Gaussian elimination over Q (``Fraction``) or over GF(p)."""
    rows = [[Fraction(v) if p is None else v % p for v in row] for row in dense]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col] if p is None else pow(rows[rank][col], -1, p)
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] * inverse
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
            if p is not None:
                rows[r] = [a % p for a in rows[r]]
        rank += 1
    return rank


def _dense_problem(dense):
    """A ``RankProblem`` whose monomial k is column k of ``dense``."""
    rows = tuple(
        ExpandedPolynomial(terms={col: v for col, v in enumerate(row) if v}) for row in dense
    )
    index = {col: col for col in range(len(dense[0]))}
    return RankProblem(spec=ScrollSpec((5,)), degree=1, rows=rows, monomial_index=index)


def _random_dense(rng):
    """Sparse integer matrices up to 12 x 10 with entries up to +-30; every
    other one is built from a few base rows, so that its rank falls short."""
    n_rows, n_cols = rng.randint(1, 12), rng.randint(1, 10)
    if rng.random() < 0.5:
        return [
            [rng.randint(-30, 30) if rng.random() < 0.3 else 0 for _ in range(n_cols)]
            for _ in range(n_rows)
        ]
    base = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(rng.randint(1, 4))]
    dense = []
    for _ in range(n_rows):
        a, b = rng.sample(range(-2, 3), 2)
        x, y = rng.choice(base), rng.choice(base)
        dense.append([a * u + b * v for u, v in zip(x, y)])
    return dense


class TestEliminationKernel:
    PRIMES = (2, 3, 5, (1 << 31) - 1)

    def test_diagonal_two_three(self):
        problem = _dense_problem([[2, 0], [0, 3]])
        assert rank_rational(problem) == 2
        assert rank_mod_prime(problem, 2) == 1
        assert rank_mod_prime(problem, 3) == 1
        assert rank_mod_prime(problem, 5) == 2

    @pytest.mark.parametrize("seed", range(6))
    def test_random_sparse_matrices_match_the_dense_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            dense = _random_dense(rng)
            problem = _dense_problem(dense)
            assert rank_rational(problem) == _reference_rank(dense), dense
            for p in self.PRIMES:
                assert rank_mod_prime(problem, p) == _reference_rank(dense, p), (dense, p)


class TestRankProblem:
    def test_row_count_and_degrees(self):
        spec = ScrollSpec((5,))
        n_minors = math.comb(5, 2)
        for t in (1, 2, 3):
            problem = build_rank_problem(spec, t)
            assert len(problem.rows) == math.comb(n_minors + t - 1, t)
            for row in problem.rows:
                assert row.terms
                assert {sum(_exponents(mono, t, spec.c + spec.d)) for mono in row.terms} == {2 * t}
                assert all(coeff != 0 for coeff in row.terms.values())

    def test_expansion_of_1_2_at_degree_two(self):
        spec = ScrollSpec((1, 2))
        problem = build_rank_problem(spec, 2)
        # x[i,j] > x[i',j'] when j > j', or j = j' and i < i'; least first.
        entries = [(2, 0), (1, 0), (2, 1), (1, 1), (2, 2)]

        def decode(mono):
            powers = _exponents(mono, 2, len(entries))
            return tuple((entry, power) for entry, power in zip(entries, powers) if power)

        def multiply(left, right):
            out = {}
            for e1, c1 in left.items():
                for e2, c2 in right.items():
                    expo = dict(e1)
                    for entry, power in e2:
                        expo[entry] = expo.get(entry, 0) + power
                    key = tuple(sorted(expo.items(), key=lambda item: entries.index(item[0])))
                    out[key] = out.get(key, 0) + c1 * c2
            return {key: coeff for key, coeff in out.items() if coeff}

        minors = [minor(spec, a, b).as_dict() for a, b in itertools.combinations(range(1, 4), 2)]
        expected = [
            multiply(minors[i], minors[j])
            for i, j in itertools.combinations_with_replacement(range(3), 2)
        ]
        assert [{decode(m): coeff for m, coeff in row.terms.items()} for row in problem.rows] == expected
        # Column 0 is the lex-greatest monomial.
        monomials = sorted(problem.monomial_index, reverse=True)
        assert [problem.monomial_index[m] for m in monomials] == list(range(len(monomials)))

    @pytest.mark.parametrize(
        "n, t, shape, nnz",
        [((5,), 5, (2002, 2499), 39120), ((2, 3, 4), 3, (8436, 10122), 64656)],
        ids=str,
    )
    def test_pinned_shapes(self, n, t, shape, nnz):
        problem = build_rank_problem(ScrollSpec(n), t)
        assert problem.shape == shape
        assert sum(len(row.terms) for row in problem.rows) == nnz

    def test_capacity_guard(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_PRODUCT_ROWS", 1000)
        with pytest.raises(CapacityError):
            build_rank_problem(ScrollSpec((2, 2, 4, 4)), 3)

    def test_rejects_degree_zero(self):
        with pytest.raises(PreconditionError):
            build_rank_problem(ScrollSpec((5,)), 0)

    def test_leaves_no_garbage_behind(self):
        # The prefix memo must be freed by reference counting alone, not
        # wait for the cycle collector.
        gc.collect()
        gc.disable()
        try:
            build_rank_problem(ScrollSpec((8,)), 3)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestRankBlocks:
    # d = 1, 2 and 3; (1, 2, 3) lies below c = d + 4, where the oracle still applies.
    PAIRS = [((5,), 3), ((7,), 2), ((2, 4), 3), ((1, 6), 2), ((2, 3, 4), 2), ((1, 2, 3), 3)]

    @pytest.mark.parametrize("n, t", PAIRS, ids=str)
    def test_block_ranks_sum_to_the_whole_rank(self, n, t):
        spec = ScrollSpec(n)
        whole = build_rank_problem(spec, t)
        blocks = list(rank_blocks(spec, t))
        for p in (DEFAULT_MODULUS, 3):
            assert sum(rank_mod_prime(block, p) for block in blocks) == rank_mod_prime(whole, p)
        assert sum(rank_rational(block) for block in blocks) == rank_rational(whole)

    @pytest.mark.parametrize("n, t", PAIRS, ids=str)
    def test_blocks_partition_the_rows_and_the_columns(self, n, t):
        spec = ScrollSpec(n)
        gens, _ = _generators(spec, t)
        # Distinct multisets of the irreducible minors give distinct products.
        reference = {
            tuple(sorted(reduce(_product, (gens[i] for i in combo), {0: 1}).items())): k
            for k, combo in enumerate(itertools.combinations_with_replacement(range(len(gens)), t))
        }
        assert len(reference) == math.comb(math.comb(spec.c, 2) + t - 1, t)
        seen, columns = [], set()
        for block in rank_blocks(spec, t):
            order = [reference[tuple(sorted(row.terms.items()))] for row in block.rows]
            assert order == sorted(order)
            seen += order
            monomials = sorted(block.monomial_index, reverse=True)
            assert [block.monomial_index[m] for m in monomials] == list(range(len(monomials)))
            assert set(monomials) == {m for row in block.rows for m in row.terms}
            assert columns.isdisjoint(monomials)
            columns.update(monomials)
        assert sorted(seen) == list(range(len(reference)))
        assert len(columns) == build_rank_problem(spec, t).shape[1]

    @pytest.mark.parametrize(
        "n, t, count, largest", [((2, 3, 4), 3, 304, 208), ((5,), 5, 31, 174)], ids=str
    )
    def test_pinned_block_counts(self, n, t, count, largest):
        sizes = [len(block.rows) for block in rank_blocks(ScrollSpec(n), t)]
        assert (len(sizes), max(sizes)) == (count, largest)

    def test_a_minor_that_is_not_multihomogeneous_is_an_internal_error(self, monkeypatch):
        def skewed(spec, a, b):
            if (a, b) != (1, 2):
                return minor(spec, a, b)
            # x[1,0]^2 - x[1,1]^2: index degrees 0 and 2.
            return MinorPolynomial(terms=((-1, (((1, 1), 2),)), (1, (((1, 0), 2),))))

        monkeypatch.setattr(oracle, "minor", skewed)
        with pytest.raises(InternalError, match="not multihomogeneous"):
            rank_blocks(ScrollSpec((5,)), 2)
        with pytest.raises(InternalError, match="not multihomogeneous"):
            fiber_hilbert_function(ScrollSpec((5,)), 2)

    def test_checks_come_before_any_work(self, monkeypatch):
        def no_work(*args):
            raise AssertionError("work started before the checks")

        monkeypatch.setattr(oracle, "_generators", no_work)
        with pytest.raises(PreconditionError):
            rank_blocks(ScrollSpec((5,)), 0)
        with pytest.raises(CapacityError):
            rank_blocks(ScrollSpec((13,)), 4)

    def test_block_by_block_peaks_under_a_quarter_of_the_whole_matrix(self):
        spec = ScrollSpec((2, 3, 4))

        def peak(work):
            tracemalloc.start()
            try:
                value = work()
                return value, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        blocks, block_peak = peak(lambda: _degree_rank(spec, 3, DEFAULT_MODULUS)[0])
        whole, whole_peak = peak(
            lambda: rank_mod_prime(build_rank_problem(spec, 3), DEFAULT_MODULUS)
        )
        assert blocks == whole == 4517
        assert block_peak < whole_peak / 4

    def test_leaves_no_garbage_behind(self):
        gc.collect()
        gc.disable()
        try:
            for _ in rank_blocks(ScrollSpec((8,)), 3):
                pass
            abandoned = rank_blocks(ScrollSpec((8,)), 3)
            next(abandoned)
            del abandoned
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestFiberHilbertFunction:
    def test_degree_zero_is_one(self):
        for n in [(5,), (1, 1), (2, 2, 2)]:
            assert fiber_hilbert_function(ScrollSpec(n), 0) == 1

    def test_minors_are_linearly_independent(self):
        for n in [(5,), (3, 3), (2, 2, 2, 2)]:
            spec = ScrollSpec(n)
            assert fiber_hilbert_function(spec, 1) == math.comb(spec.c, 2)

    @pytest.mark.parametrize("n", [(5,), (6,), (2, 4)])
    def test_rational_confirms_modular(self, n):
        spec = ScrollSpec(n)
        for t in (1, 2, 3):
            problem = build_rank_problem(spec, t)
            assert rank_rational(problem) == rank_mod_prime(problem, (1 << 31) - 1)

    def test_modulus_validation(self):
        spec = ScrollSpec((5,))
        with pytest.raises(PreconditionError):
            fiber_hilbert_function(spec, 1, modulus=2**31)
        with pytest.raises(PreconditionError):
            fiber_hilbert_function(spec, -1)

    @pytest.mark.parametrize("modulus", [0, 1, 4, 49, 3277, 2147483646])
    def test_composite_modulus_rejected(self, modulus):
        with pytest.raises(PreconditionError):
            fiber_hilbert_function(ScrollSpec((5,)), 1, modulus=modulus)
        with pytest.raises(PreconditionError):
            rank_mod_prime(build_rank_problem(ScrollSpec((5,)), 1), modulus)

    @pytest.mark.parametrize(
        "modulus, shown",
        [(2.5, "2.5"), (3.0, "3.0"), ("3", "'3'"), (True, "True"), (None, "None")],
        ids=["float", "integral-float", "digit-string", "bool", "none"],
    )
    def test_only_rational_or_an_int_prime_is_a_modulus(self, modulus, shown):
        # A float is not truncated to a prime, a digit string is not parsed,
        # and a bool is no int here; every entry point refuses them alike.
        spec = ScrollSpec((5,))
        message = f"modulus must be 'rational' or a prime <= 2\\^31 - 1, got {re.escape(shown)}$"
        with pytest.raises(PreconditionError, match=message):
            fiber_hilbert_function(spec, 2, modulus=modulus)
        with pytest.raises(PreconditionError, match=message):
            cross_check(spec, 1, modulus=modulus)
        with pytest.raises(PreconditionError, match=message):
            rank_mod_prime(build_rank_problem(spec, 1), modulus)

    def test_rational_and_an_int_prime_are_taken_as_given(self):
        problem = build_rank_problem(ScrollSpec((5,)), 2)
        assert rank_mod_prime(problem, "rational") == rank_rational(problem) == 49
        assert cross_check(ScrollSpec((5,)), 1, modulus=3).modulus == 3

    def test_primality_matches_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

        for n in list(range(3000)) + list(range(2147483547, 2147483648)):
            assert _is_prime(n) == trial(n), n

    def test_observed_monotone_window(self):
        # Observed property of the fixture tables; not asserted in general.
        spec = ScrollSpec((1, 5))
        values = [fiber_hilbert_function(spec, t) for t in range(4)]
        assert values == sorted(values)


class TestGrassmannianRegime:
    """For c < d + 4 the fiber cone is the coordinate ring of G(2, c), of
    dimension 2c - 3.  The exact rational ranks at t <= 3 are pinned against
    the Plücker Hilbert function and against the h-vectors below."""

    H_VECTORS = {
        (1, 1, 1, 1): (1, 1),
        (1, 1, 1, 2): (1, 3, 1),
        (1, 1, 1, 1, 1): (1, 3, 1),
        (1, 1, 1, 1, 2): (1, 6, 6, 1),
        (1, 1, 1, 1, 1, 1): (1, 6, 6, 1),
    }

    @pytest.mark.parametrize("n", sorted(H_VECTORS), ids=str)
    def test_rational_ranks_are_the_pluecker_hilbert_function(self, n):
        spec = ScrollSpec(n)
        c, h = spec.c, self.H_VECTORS[n]
        for t in range(4):
            rank = fiber_hilbert_function(spec, t, modulus="rational")
            assert rank == math.comb(c + t - 1, t) * math.comb(c + t - 2, t) // (t + 1)
            assert rank == hilbert_function_from_h(h, 2 * c - 3, t)
        predicted = closed_form(c, spec.d)
        assert predicted.reg == len(h) - 1
        assert predicted.dim == 2 * c - 3


class TestCrossCheck:
    def test_small_block_passes(self):
        result = cross_check(ScrollSpec((5,)), 4)
        assert result.passed
        assert [row.t for row in result.rows] == [0, 1, 2, 3, 4]
        assert not result.notes

    def test_rational_mode(self):
        result = cross_check(ScrollSpec((5,)), 2, modulus="rational")
        assert result.passed

    def test_identical_tables_for_equal_cd(self):
        tables = {}
        for n in [(1, 5), (2, 4), (3, 3)]:
            result = cross_check(ScrollSpec(n), 3)
            assert result.passed
            tables[n] = tuple((row.t, row.fiber_rank) for row in result.rows)
        assert len(set(tables.values())) == 1

    def test_large_pair_agrees_within_budget(self):
        # Degree 2 already separates scroll types if anything could; c = 12
        # at degree 3 is checked against the face counts below.
        for t in (1, 2):
            left = fiber_hilbert_function(ScrollSpec((2, 2, 4, 4)), t)
            right = fiber_hilbert_function(ScrollSpec((1, 3, 4, 4)), t)
            assert left == right

    def test_c12_degree_three_frontier(self):
        result = cross_check(ScrollSpec((2, 2, 4, 4)), 3)
        assert result.passed
        assert result.rows[3] == CrossCheckRow(t=3, fiber_rank=22722, face_count=22722, equal=True)

    def test_modulus_collision_falls_back_to_the_rational_rank(self, monkeypatch):
        # A fake collision in the first block of each degree only.
        collided = set()
        real = oracle._echelon_rank

        def first_block_collides(problem, p):
            if p is None:
                return real(problem, None)
            first = problem.degree not in collided
            collided.add(problem.degree)
            return real(problem, None) - first

        monkeypatch.setattr(oracle, "_echelon_rank", first_block_collides)
        result = cross_check(ScrollSpec((5,)), 2)
        assert result.passed
        assert [(row.t, row.fiber_rank) for row in result.rows] == [(0, 1), (1, 10), (2, 49)]
        assert len(result.notes) == 2
        assert all("suspected modulus collision" in note for note in result.notes)
        assert "modular rank 48 != rational rank 49" in result.notes[1]

    def test_every_modular_mismatch_is_rechecked_rationally(self, monkeypatch):
        # Degree 3 of (8,) has 4,060 product rows.
        real = oracle._echelon_rank
        monkeypatch.setattr(
            oracle, "_echelon_rank", lambda problem, p: real(problem, None) - (p is not None)
        )
        result = cross_check(ScrollSpec((8,)), 3)
        assert result.passed
        assert len(result.notes) == 3
        assert all("suspected modulus collision" in note for note in result.notes)

    def test_small_regime_pair_agrees_without_a_complex(self):
        # c < d + 4: no facets, but the rank oracle itself still applies.
        left = [fiber_hilbert_function(ScrollSpec((1, 1, 4)), t) for t in range(4)]
        right = [fiber_hilbert_function(ScrollSpec((2, 2, 2)), t) for t in range(4)]
        assert left == right
        with pytest.raises(UnsupportedRegimeError):
            cross_check(ScrollSpec((2, 2, 2)), 2)

    @pytest.mark.parametrize("n, hf2", [((4, 4, 4, 4), 4945), ((20,), 9424)])
    def test_degree_two_from_the_fold_past_the_enumeration_budget(self, n, hf2):
        # HF(2) = f1 + f2 from the face DP, which enumerates no facet.
        spec = ScrollSpec(n)
        assert count_facets(spec) > MAX_ENUMERATED_FACETS
        f = _face_vector(spec)
        assert _hf_from_counts(f, 2) == hf2 == fiber_hilbert_function(spec, 2)

    def test_row_budget_is_checked_before_any_work(self, monkeypatch):
        # C(78 + 3, 4) = 1,663,740 rows at t_max = 4 for c = 13: refused
        # before the face count and before degrees 1..3 are built.
        def no_work(*args):
            raise AssertionError("work started before the row check")

        monkeypatch.setattr(oracle, "_certified_faces", no_work)
        monkeypatch.setattr(oracle, "build_rank_problem", no_work)
        monkeypatch.setattr(oracle, "rank_blocks", no_work)
        with pytest.raises(CapacityError, match="degree 4 needs 1,663,740 product rows"):
            cross_check(ScrollSpec((13,)), 4)

    def test_capacity_surcharge_guidance(self, monkeypatch):
        monkeypatch.setattr(oracle, "MAX_PRODUCT_ROWS", 10)
        with pytest.raises(CapacityError):
            cross_check(ScrollSpec((5,)), 3)


def test_import_does_not_load_numpy():
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run(
        [sys.executable, "-c", "import scrollfiber, sys; print('numpy' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert probe.stdout == "False\n"
