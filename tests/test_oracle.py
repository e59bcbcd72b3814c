"""Rank oracle: expansion, exact elimination, and the cross-check tables."""

from __future__ import annotations

import gc
import itertools
import marshal
import math
import os
import random
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types
from fractions import Fraction
from functools import reduce
from pathlib import Path

import pytest
from conftest import assert_no_child

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
from scrollfiber import dual_quotients, oracle, scroll_model
from scrollfiber.dual_quotients import MAX_ENUMERATED_FACETS
from scrollfiber.facet_complex import _face_vector, _hf_from_counts, count_facets
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

    def test_block_by_block_peaks_under_a_quarter_of_the_whole_matrix(self, monkeypatch):
        # In one process, so that the traced peak covers every block.
        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", math.inf)
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


def _brute_orbit(spec, counts, s):
    """The multidegrees (m, s) that reversing blocks and permuting blocks of
    equal degree reach from (``counts``, ``s``), by listing the group."""
    total = sum(m * n for m, n in zip(counts, spec.n))
    reached = set()
    for perm in itertools.permutations(range(spec.d)):
        if all(spec.n[i] == spec.n[j] for i, j in enumerate(perm)):
            moved = tuple(counts[j] for j in perm)
            reached |= {(moved, s), (moved, total - s)}
    return frozenset(reached)


def _multidegree(spec, t, key):
    """The block counts and the index sum of a packed multidegree."""
    bits = (2 * t * max(spec.n)).bit_length()
    return tuple(key >> bits * i & ((1 << bits) - 1) for i in range(spec.d)), key >> bits * spec.d


def _is_standard(spec, combo):
    """Whether the multiset ``combo`` of minor indices, in ``_generators``
    order, is a standard product: both its left and its right columns
    weakly increasing."""
    pairs = [(a, b) for a in range(1, spec.c + 1) for b in range(a + 1, spec.c + 1)]
    lefts, rights = zip(*(pairs[i] for i in combo))
    return list(lefts) == sorted(lefts) and list(rights) == sorted(rights)


def _pluecker(c, t):
    """The dimension of degree t of the coordinate ring of G(2, c)."""
    return math.comb(c + t - 1, t) * math.comb(c + t - 2, t) // (t + 1)


class TestOrbits:
    """The oracle ranks one block per symmetry orbit (``_degree_rank``)."""

    PAIRS = [
        (n, t) for n in [(6,), (2, 4), (3, 3), (2, 2, 2), (2, 3, 4), (2, 2, 2, 2)] for t in (1, 2, 3)
    ] + [((5,), t) for t in range(1, 6)]

    @pytest.mark.parametrize("n, t", PAIRS, ids=str)
    def test_orbit_keys_are_the_orbits_of_the_group(self, n, t):
        spec = ScrollSpec(n)
        _, by_key = oracle._buckets(spec, t)
        by_orbit, by_group = {}, {}
        for key in by_key:
            by_orbit.setdefault(oracle._orbit(spec, t, key), set()).add(key)
            by_group.setdefault(_brute_orbit(spec, *_multidegree(spec, t, key)), set()).add(key)
        assert sorted(map(sorted, by_orbit.values())) == sorted(map(sorted, by_group.values()))

    @pytest.mark.parametrize("n, t", PAIRS, ids=str)
    def test_every_block_of_an_orbit_has_its_representatives_rank(self, n, t):
        spec = ScrollSpec(n)
        _, by_key = oracle._buckets(spec, t)
        blocks = list(rank_blocks(spec, t))
        for p in (DEFAULT_MODULUS, None):
            ranks = {}
            for key, block in zip(by_key, blocks):
                rank = oracle._echelon_rank(block, p)
                ranks.setdefault(oracle._orbit(spec, t, key), []).append((rank, len(block.rows)))
            assert all(len(set(members)) == 1 for members in ranks.values()), p
            whole = sum(rank for members in ranks.values() for rank, _ in members)
            assert _degree_rank(spec, t, p) == (whole, len(blocks), max(map(len, by_key.values())))

    @pytest.mark.parametrize(
        "n, blocks, orbits, rows",
        [((2, 2, 2, 2, 2, 2), 2898, 37, 529), ((13,), 67, 34, 21557)],
        ids=str,
    )
    def test_pinned_expanded_blocks_at_degree_three(self, monkeypatch, n, blocks, orbits, rows):
        # Count the blocks that are expanded, and their standard rows, without
        # expanding them (all rows: 1,271 and 42,879).
        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", math.inf)
        expanded = []

        def record(spec, t, gens, prefixes, combos):
            expanded.append(len(combos))

        monkeypatch.setattr(oracle, "_expand", record)
        monkeypatch.setattr(oracle, "_echelon_rank", lambda problem, p: 1)
        rank, count, _ = _degree_rank(ScrollSpec(n), 3, DEFAULT_MODULUS)
        assert (count, len(expanded), sum(expanded)) == (blocks, orbits, rows)
        # Each representative's rank counts once per block of its orbit.
        assert rank == blocks

    def test_the_first_block_of_each_orbit_is_expanded(self, monkeypatch):
        # Its standard rows, in the order of the block; the two halves
        # take the blocks in their own order.
        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", math.inf)
        spec = ScrollSpec((2, 3, 4))
        _, by_key = oracle._buckets(spec, 3)
        firsts = {}
        for key, combos in by_key.items():
            standard = [combo for combo in combos if _is_standard(spec, combo)]
            firsts.setdefault(oracle._orbit(spec, 3, key), standard)
        expanded = []
        real = oracle._expand
        monkeypatch.setattr(
            oracle, "_expand", lambda *args: expanded.append(args[-1]) or real(*args)
        )
        _degree_rank(spec, 3, DEFAULT_MODULUS)
        assert sorted(expanded) == sorted(firsts.values())


class TestStandardRows:
    """``_degree_rank`` expands only the standard rows of each block, which
    span its row space over every field by the straightening law."""

    PAIRS = TestOrbits.PAIRS + [((2, 2, 4, 4), t) for t in (1, 2)] + [
        (n, t) for n in [(1, 1, 1, 1), (1, 1, 1, 2), (1,) * 5, (1,) * 6] for t in (1, 2, 3)
    ]

    @pytest.mark.parametrize("n, t", PAIRS, ids=str)
    def test_standard_rows_have_the_rank_of_every_row(self, n, t):
        spec = ScrollSpec(n)
        gens, by_key = oracle._buckets(spec, t)
        prefixes = {(): {0: 1}}
        for combos, block in zip(by_key.values(), rank_blocks(spec, t)):
            standard = [combo for combo in combos if _is_standard(spec, combo)]
            rows = oracle._expand(spec, t, gens, prefixes, standard)
            for p in (DEFAULT_MODULUS, None, 2):
                assert oracle._echelon_rank(rows, p) == oracle._echelon_rank(block, p), p

    @pytest.mark.parametrize(
        "n, t_max",
        [((5,), 5), ((2, 4), 3), ((2, 2, 2, 2), 3), ((1, 1, 1, 1), 4), ((1,) * 6, 3), ((13,), 2)],
        ids=str,
    )
    def test_each_degree_has_the_pluecker_count_of_standard_multisets(self, n, t_max):
        spec = ScrollSpec(n)
        for t in range(1, t_max + 1):
            by_key = oracle._buckets(spec, t)[1]
            standard = [oracle._standard(spec, combos) for combos in by_key.values()]
            assert standard == [
                [combo for combo in combos if _is_standard(spec, combo)]
                for combos in by_key.values()
            ]
            assert sum(map(len, standard)) == _pluecker(spec.c, t), t

    @pytest.mark.parametrize("c, t_max", [(4, 5), (5, 4), (6, 3)], ids=str)
    def test_the_generic_matrix_has_one_rank_per_standard_multiset(self, c, t_max):
        # (1^c) is the generic 2 x c matrix, where the standard products
        # are linearly independent.
        spec = ScrollSpec((1,) * c)
        for t in range(1, t_max + 1):
            for p in (DEFAULT_MODULUS, None, 2):
                assert _degree_rank(spec, t, p)[0] == _pluecker(c, t), (t, p)


class TestTwoProcessOracle:
    """A degree with at least ``MIN_FORKED_ROWS`` standard rows is ranked in
    two halves, one in a forked child (``scroll_model.two_halves``)."""

    SPEC, T = ScrollSpec((4, 5)), 3  # 2,622 standard rows in 67 representatives

    def _forks(self, monkeypatch, cutoff=0):
        """Fork at ``cutoff`` rows and count this process's forks."""
        forks = []
        real = os.fork

        def fork():
            forks.append(os.getpid())
            return real()

        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", cutoff)
        monkeypatch.setattr(os, "fork", fork)
        return forks

    def _halves(self, monkeypatch, fail=None):
        """Count the halves this process ranks; ``fail(parent)`` says whether
        a half raises, in this process or in a child."""
        parent, calls = os.getpid(), []
        real = oracle._ranked

        def ranked(*args):
            if os.getpid() == parent:
                calls.append(len(args[3]))
            if fail is not None and fail(os.getpid() == parent):
                raise RuntimeError("a half failed")
            return real(*args)

        monkeypatch.setattr(oracle, "_ranked", ranked)
        return calls

    def _expected(self, monkeypatch, p=DEFAULT_MODULUS):
        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", math.inf)
        return _degree_rank(self.SPEC, self.T, p)

    def test_the_halves_split_the_representatives_by_cost(self):
        by_key = oracle._buckets(self.SPEC, self.T)[1]
        reps = [(1, combos) for combos in by_key.values()]
        first, second = oracle._halves(reps)
        assert sorted(first + second) == sorted(reps)
        costs = [sum(len(combos) ** 2 for _, combos in half) for half in (first, second)]
        assert abs(costs[0] - costs[1]) <= max(len(combos) ** 2 for _, combos in reps)

    @pytest.mark.parametrize("p", [DEFAULT_MODULUS, None, 2], ids=str)
    def test_the_forked_ranks_are_the_in_process_ones(self, p, monkeypatch):
        expected = self._expected(monkeypatch, p)
        forks = self._forks(monkeypatch)
        calls = self._halves(monkeypatch)
        assert _degree_rank(self.SPEC, self.T, p) == expected
        assert len(forks) == len(calls) == 1
        assert_no_child()

    def test_cross_check_forks_at_its_large_degrees_only(self, monkeypatch):
        expected = cross_check(ScrollSpec((8,)), 3)
        forks = self._forks(monkeypatch, cutoff=1000)  # degree 3: 1,346 rows
        assert cross_check(ScrollSpec((8,)), 3) == expected and expected.passed
        assert len(forks) == 1
        assert_no_child()

    def test_below_the_cutoff_nothing_forks(self, monkeypatch):
        expected = self._expected(monkeypatch)
        forks = self._forks(monkeypatch, cutoff=2623)
        calls = self._halves(monkeypatch)
        assert _degree_rank(self.SPEC, self.T, DEFAULT_MODULUS) == expected
        assert forks == [] and len(calls) == 2 and sum(calls) == 67

    def test_a_process_running_threads_does_not_fork(self, monkeypatch):
        expected = self._expected(monkeypatch)
        forks = self._forks(monkeypatch)
        ranks = []
        worker = threading.Thread(
            target=lambda: ranks.append(_degree_rank(self.SPEC, self.T, DEFAULT_MODULUS))
        )
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and ranks == [expected] and forks == []

    def test_without_os_fork_both_halves_run_in_process(self, monkeypatch):
        expected = self._expected(monkeypatch)
        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", 0)
        monkeypatch.delattr(os, "fork")
        calls = self._halves(monkeypatch)
        assert _degree_rank(self.SPEC, self.T, DEFAULT_MODULUS) == expected
        assert len(calls) == 2 and sum(calls) == 67

    def test_a_failing_fork_runs_both_halves_in_process(self, monkeypatch):
        expected = self._expected(monkeypatch)

        def fork():
            raise OSError("no more processes")

        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", 0)
        monkeypatch.setattr(os, "fork", fork)
        calls = self._halves(monkeypatch)
        assert _degree_rank(self.SPEC, self.T, DEFAULT_MODULUS) == expected
        assert len(calls) == 2 and sum(calls) == 67

    def test_a_child_that_fails_is_reaped_and_its_half_ranked_here(self, monkeypatch):
        expected = self._expected(monkeypatch)
        forks = self._forks(monkeypatch)
        calls = self._halves(monkeypatch, fail=lambda parent: not parent)
        with pytest.warns(RuntimeWarning, match="status 1;"):
            assert _degree_rank(self.SPEC, self.T, DEFAULT_MODULUS) == expected
        assert len(forks) == 1 and len(calls) == 2 and sum(calls) == 67
        assert_no_child()

    def test_a_short_payload_ranks_the_child_half_here(self, monkeypatch):
        expected = self._expected(monkeypatch)
        self._forks(monkeypatch)
        calls = self._halves(monkeypatch)
        cut = types.SimpleNamespace(dumps=lambda m: marshal.dumps(m)[:-1], loads=marshal.loads)
        monkeypatch.setattr(scroll_model, "marshal", cut)
        with pytest.warns(RuntimeWarning, match="status 0 after a short payload"):
            assert _degree_rank(self.SPEC, self.T, DEFAULT_MODULUS) == expected
        assert len(calls) == 2 and sum(calls) == 67
        assert_no_child()

    def test_a_raising_half_here_kills_the_child(self, monkeypatch):
        # The child's half would take a minute; the kill ends it at once.
        forks = self._forks(monkeypatch)

        def fail(parent):
            if not parent:
                time.sleep(60)
            return parent

        self._halves(monkeypatch, fail=fail)
        began = time.monotonic()
        with pytest.raises(RuntimeError, match="a half failed"):
            _degree_rank(self.SPEC, self.T, DEFAULT_MODULUS)
        assert time.monotonic() - began < 30 and len(forks) == 1
        assert_no_child()


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
        # A fake collision in the first block of each degree only.  At degree
        # 2 that block stands for its orbit of 2 blocks, so the modular rank
        # falls short by 2.
        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", math.inf)
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
        assert "modular rank 47 != rational rank 49" in result.notes[1]

    def test_every_modular_mismatch_is_rechecked_rationally(self, monkeypatch):
        # Degree 3 of (8,) has 4,060 product rows.
        monkeypatch.setattr(oracle, "MIN_FORKED_ROWS", math.inf)
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

    @pytest.mark.parametrize("n, hf2", [((6, 6, 6), 7356), ((20,), 9424)])
    def test_degree_two_from_the_fold_past_the_enumeration_budget(self, monkeypatch, n, hf2):
        # HF(2) = f1 + f2 from the face DP, which folds no group, and
        # cross_check compares with that DP alone.
        def no_fold(spec, alpha, mutation):
            raise AssertionError("a group was folded")

        monkeypatch.setattr(dual_quotients, "_fold", no_fold)
        spec = ScrollSpec(n)
        assert count_facets(spec) > MAX_ENUMERATED_FACETS
        f = _face_vector(spec)
        assert _hf_from_counts(f, 2) == hf2 == fiber_hilbert_function(spec, 2)
        result = cross_check(spec, 2)
        assert result.passed
        assert result.rows[2] == CrossCheckRow(t=2, fiber_rank=hf2, face_count=hf2, equal=True)

    def test_row_budget_is_checked_before_any_work(self, monkeypatch):
        # C(78 + 3, 4) = 1,663,740 rows at t_max = 4 for c = 13: refused
        # before the face count and before degrees 1..3 are built.
        def no_work(*args):
            raise AssertionError("work started before the row check")

        monkeypatch.setattr(oracle, "_face_vector", no_work)
        monkeypatch.setattr(oracle, "build_rank_problem", no_work)
        monkeypatch.setattr(oracle, "rank_blocks", no_work)
        monkeypatch.setattr(oracle, "_buckets", no_work)
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
