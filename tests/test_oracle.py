"""Rank oracle: expansion, exact elimination, and the cross-check tables."""

from __future__ import annotations

import gc
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from scrollfiber import (
    CapacityError,
    CrossCheckRow,
    PreconditionError,
    ScrollSpec,
    UnsupportedRegimeError,
    build_rank_problem,
    closed_form,
    cross_check,
    fiber_hilbert_function,
    hilbert_function_from_h,
    minor,
    rank_mod_prime,
    rank_rational,
)
from scrollfiber import oracle
from scrollfiber.dual_quotients import MAX_ENUMERATED_FACETS
from scrollfiber.facet_complex import _face_vector, count_facets
from scrollfiber.invariants import _hf_from_counts
from scrollfiber.oracle import ExpandedPolynomial, RankProblem, _is_prime


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
        monkeypatch.setattr(oracle, "rank_mod_prime", lambda problem, p: rank_rational(problem) - 1)
        result = cross_check(ScrollSpec((5,)), 2)
        assert result.passed
        assert [(row.t, row.fiber_rank) for row in result.rows] == [(0, 1), (1, 10), (2, 49)]
        assert len(result.notes) == 2
        assert all("suspected modulus collision" in note for note in result.notes)
        assert "modular rank 48 != rational rank 49" in result.notes[1]

    def test_every_modular_mismatch_is_rechecked_rationally(self, monkeypatch):
        # Degree 3 of (8,) has 4,060 product rows.
        monkeypatch.setattr(oracle, "rank_mod_prime", lambda problem, p: rank_rational(problem) - 1)
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
