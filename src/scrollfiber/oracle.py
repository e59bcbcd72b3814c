"""Independent rank oracle for the fiber cone's Hilbert function.

The degree-t graded piece of the subalgebra generated by the 2x2 minors is
spanned by the products of t minors; its dimension is the rank of the
coefficient matrix of those products, computed exactly by sparse row
reduction over a prime field (default) or over the rationals, the latter in
integer arithmetic alone.  The rank side looks at no facet, colon ideal or
graph.  The face count it is compared with is the interval DP
``facet_complex._face_vector``, which reads no facet either and which
certification compares with the certified h-vector, so agreement is a
genuine cross-check of the combinatorial pipeline.

A monomial is packed into one integer, one bit field per matrix entry, so a
product adds monomials with one integer addition and integer order is lex
order; the columns run from the lex-greatest monomial down, so a row's
smallest column is its leading term.

The minors are homogeneous in a Z^d x Z grading: the minor on columns (i, j)
and (k, l) of the blocks has degree e_i + e_k in the blocks and j + l + 1 in
the index.  So the coefficient matrix of a degree is block diagonal, one
block per multidegree, and its rank is the sum of the block ranks.  Each
degree is built and eliminated one block at a time, so the rows of only one
block are in memory at once.  Reversing the blocks and permuting blocks of
equal degree map blocks to blocks of the same rank (``_degree_rank``), so
the oracle expands and eliminates one block per symmetry orbit and counts
its rank once per block of the orbit; ``rank_blocks`` still yields every
block.

Of each such block only the standard products are expanded, those of
minors on columns (a1, b1), ..., (at, bt) with a1 <= ... <= at and
b1 <= ... <= bt.  By the straightening law for 2x2 minors every product is
a Z-linear combination of standard products with the same columns counted
with multiplicity, so in the same block; this holds over Z, and so over
every field, GF(2) included (``_degree_rank``).  The row budget and
``oracle.blocks`` still count every product.  The representatives of a
degree are ranked in two halves of about equal cost; when they have at
least ``MIN_FORKED_ROWS`` standard rows, a forked child ranks one half while
this process ranks the other (``scroll_model.two_halves``).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Iterator
from dataclasses import dataclass

from .errors import CapacityError, InternalError, PreconditionError
from .facet_complex import _face_vector, _hf_from_counts
from .scroll_model import ScrollSpec, minor, require_complex, two_halves

DEFAULT_MODULUS = (1 << 31) - 1

#: The rank oracle refuses a degree with more product rows than this
#: (``CapacityError``), before building anything.
MAX_PRODUCT_ROWS = 100_000

#: ``_degree_rank`` ranks a degree's representatives in two processes, one
#: forked, each pinned to its own CPU, when their standard rows reach this
#: many; below it, and where a fork is unavailable, in one
#: (``scroll_model.two_halves``).  A fork costs a few milliseconds: (5,) at
#: t = 4, 268 rows, took 5.5 ms forked against 5.0 ms in one process, while
#: at t = 5, 633 rows, it took 15.4 ms against 21.0 ms, (6,) at t = 4, 949
#: rows, 20.9 against 27.2 ms, and (7,) at t = 4 96 against 168 ms, for up
#: to 22 % more CPU (in process, medians of 7 alternating runs, 2-core
#: host).
MIN_FORKED_ROWS = 600

# A degree-2t monomial in the matrix entries, packed by ``_generators``: the
# exponent of each entry in its own bit field, the greatest entry highest.
Monomial = int


@dataclass(frozen=True, slots=True, eq=False)
class ExpandedPolynomial:
    """A fully expanded product of minors: monomial -> nonzero coefficient."""

    terms: dict[Monomial, int]


@dataclass(frozen=True, slots=True, eq=False)
class RankProblem:
    """Coefficient matrix of all degree-t products of the minors."""

    spec: ScrollSpec
    degree: int
    rows: tuple[ExpandedPolynomial, ...]
    monomial_index: dict[Monomial, int]

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.rows), len(self.monomial_index))


def _degree_bits(spec: ScrollSpec, t: int) -> int:
    """The width of each field of a packed multidegree at degree t: the
    bits of 2t * max(n), which bounds both an entry count and the index sum
    of one block."""
    return (2 * t * max(spec.n)).bit_length()


def _generators(
    spec: ScrollSpec, t: int
) -> tuple[tuple[dict[Monomial, int], ...], tuple[int, ...]]:
    """The C(c,2) expanded minors, packed for products of t of them, and
    their packed multidegrees.

    The entries are ordered x[i,j] > x[i',j'] when j > j', or j = j' and
    i < i', and the k-th least owns bits k*w .. k*w + w - 1 with
    w = (2t).bit_length().  A degree-2t monomial has no exponent above 2t,
    so no field carries into the next when monomials are added.

    The multidegree of a monomial counts its entries in each block i and sums
    their indices j; block i owns bits (i-1)*v .. i*v - 1 and the index sum
    the field above the blocks, with v = ``_degree_bits(spec, t)``, so the
    multidegree of a product of t minors is the sum of theirs.  A minor whose
    terms disagree in multidegree raises ``InternalError``.
    """
    width = (2 * t).bit_length()
    entries = sorted(
        ((i, j) for i in range(1, spec.d + 1) for j in range(spec.n[i - 1] + 1)),
        key=lambda entry: (entry[1], -entry[0]),
    )
    unit = {entry: 1 << (width * k) for k, entry in enumerate(entries)}
    field = _degree_bits(spec, t)
    gens, weights = [], []
    for a in range(1, spec.c + 1):
        for b in range(a + 1, spec.c + 1):
            terms = minor(spec, a, b).terms
            degrees = {
                sum((power << field * (i - 1)) + (power * j << field * spec.d)
                    for (i, j), power in expo)
                for _, expo in terms
            }
            if len(degrees) != 1:
                raise InternalError(f"the minor on columns {a} and {b} is not multihomogeneous")
            gens.append(
                {sum(unit[entry] * power for entry, power in expo): coeff for coeff, expo in terms}
            )
            weights.append(degrees.pop())
    return tuple(gens), tuple(weights)


def _product(t1: dict[Monomial, int], t2: dict[Monomial, int]) -> dict[Monomial, int]:
    out: dict[Monomial, int] = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            mono = m1 + m2
            value = out.get(mono, 0) + c1 * c2
            if value:
                out[mono] = value
            elif mono in out:
                del out[mono]
    return out


def _check_rows(spec: ScrollSpec, t: int) -> None:
    """Refuse degree t when its C(C(c,2) + t - 1, t) product rows, one per
    multiset of t minors, exceed ``MAX_PRODUCT_ROWS``."""
    rows = math.comb(math.comb(spec.c, 2) + t - 1, t)
    if rows > MAX_PRODUCT_ROWS:
        raise CapacityError(
            f"degree {t} needs {rows:,} product rows, over the row capacity of "
            f"{MAX_PRODUCT_ROWS:,} rows; lower the degree"
        )


def _buckets(
    spec: ScrollSpec, t: int
) -> tuple[tuple[dict[Monomial, int], ...], dict[int, list[tuple[int, ...]]]]:
    """The expanded minors and the multisets of t of them, as tuples of
    minor indices, grouped by packed multidegree, the sum of their minors'.

    The groups come in the order of their first multiset in lexicographic
    order, each group's multisets in lexicographic order.  The degree and
    the row budget are checked first, before any work.
    """
    if type(t) is not int:  # bool is an int subclass
        raise PreconditionError(f"degree must be an int, got {t!r}")
    if t < 1:
        raise PreconditionError(f"rank problems need degree >= 1, got {t}")
    _check_rows(spec, t)
    gens, weights = _generators(spec, t)
    by_key: dict[int, list[tuple[int, ...]]] = {}
    for combo in itertools.combinations_with_replacement(range(len(gens)), t):
        by_key.setdefault(sum(map(weights.__getitem__, combo)), []).append(combo)
    return gens, by_key


def rank_blocks(spec: ScrollSpec, t: int) -> Iterator[RankProblem]:
    """The degree-t coefficient matrix, one multidegree block at a time.

    The blocks are the groups of ``_buckets``, in its order.  Each block is
    expanded when the iterator reaches it: its rows in the lexicographic
    order of their multisets, its columns its own monomials from the
    lex-greatest down.  The memo of prefix products, each a product of fewer
    than t minors, is shared by the blocks of the degree, so each prefix is
    multiplied out once.  The degree and the row budget are checked on the
    call, before any work.
    """
    gens, by_key = _buckets(spec, t)
    prefixes: dict[tuple[int, ...], dict[Monomial, int]] = {(): {0: 1}}
    return (_expand(spec, t, gens, prefixes, combos) for combos in by_key.values())


def _expand(
    spec: ScrollSpec,
    t: int,
    gens: tuple[dict[Monomial, int], ...],
    prefixes: dict[tuple[int, ...], dict[Monomial, int]],
    combos: list[tuple[int, ...]],
) -> RankProblem:
    rows = []
    for combo in combos:
        for k in range(1, t):
            if combo[:k] not in prefixes:
                prefixes[combo[:k]] = _product(prefixes[combo[: k - 1]], gens[combo[k - 1]])
        rows.append(ExpandedPolynomial(terms=_product(prefixes[combo[:-1]], gens[combo[-1]])))
    return _problem(spec, t, rows)


def _problem(spec: ScrollSpec, t: int, rows: list[ExpandedPolynomial]) -> RankProblem:
    monomials = sorted({mono for row in rows for mono in row.terms}, reverse=True)
    return RankProblem(
        spec=spec,
        degree=t,
        rows=tuple(rows),
        monomial_index={mono: i for i, mono in enumerate(monomials)},
    )


def build_rank_problem(spec: ScrollSpec, t: int) -> RankProblem:
    """Every multiset of t minors expanded into a coefficient-matrix row.

    The blocks of ``rank_blocks`` one after the other: the rows run block by
    block, and the columns are all occurring monomials from the lex-greatest
    down, so the matrix is fully deterministic.
    """
    return _problem(spec, t, [row for block in rank_blocks(spec, t) for row in block.rows])


def _echelon_rank(problem: RankProblem, p: int | None) -> int:
    """Sparse row reduction over GF(p), or over the rationals when p is None.

    Each row, as a dict column -> nonzero entry, is reduced against the stored
    pivot rows from its smallest column, its leading term, up; what is left,
    if anything, becomes the pivot of its leading column.  The oracle runs it
    on one multidegree block at a time.  On several blocks together, as in
    ``build_rank_problem``, a row only meets pivots of its own block and
    fill-in stays inside it, so the work is the same as block by block.

    Over GF(p) a pivot is scaled to leading entry 1.  Over the rationals the
    entries stay integers: with leading entries p_l of the pivot and w_l of
    the row and g = gcd(p_l, w_l), the row becomes (p_l/g)*row - (w_l/g)*pivot
    and is then divided by the gcd of its entries, which keeps them small.
    """
    index = problem.monomial_index
    echelon: dict[int, dict[int, int]] = {}
    for row in problem.rows:
        if p is None:
            work = {index[mono]: coeff for mono, coeff in row.terms.items()}
        else:
            work = {index[mono]: coeff % p for mono, coeff in row.terms.items() if coeff % p}
        while work:
            lead = min(work)
            pivot = echelon.get(lead)
            if pivot is None:
                if p is not None:
                    scale = pow(work[lead], -1, p)
                    work = {col: value * scale % p for col, value in work.items()}
                echelon[lead] = work
                break
            factor = work[lead]
            if p is None:
                g = math.gcd(pivot[lead], factor)
                scale, factor = pivot[lead] // g, factor // g
                if scale != 1:
                    work = {col: scale * value for col, value in work.items()}
            for col, value in pivot.items():
                updated = work.get(col, 0) - factor * value
                if p is not None:
                    updated %= p
                if updated:
                    work[col] = updated
                else:
                    work.pop(col, None)
            if p is None and work:
                content = math.gcd(*work.values())
                if content != 1:
                    work = {col: value // content for col, value in work.items()}
    return len(echelon)


def rank_mod_prime(problem: RankProblem, p: int | str) -> int:
    """Exact rank over GF(p), p a prime <= 2**31 - 1, or over Q for ``"rational"``."""
    return _echelon_rank(problem, _field(p))


def rank_rational(problem: RankProblem) -> int:
    """Exact rank over the rationals."""
    return _echelon_rank(problem, None)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with bases 2, 7, 61; exact for every
    n < 4,759,123,141, which covers all admissible moduli."""
    if n < 2 or n % 2 == 0:
        return n == 2
    odd = n - 1
    while odd % 2 == 0:
        odd //= 2
    for a in (2, 7, 61):
        if a % n == 0:
            continue
        k, x = odd, pow(a, odd, n)
        while k != n - 1 and x not in (1, n - 1):
            x, k = x * x % n, 2 * k
        if x != n - 1 and k % 2 == 0:
            return False
    return True


def _field(modulus: int | str) -> int | None:
    """The prime of ``modulus``, None for ``"rational"``; anything but an
    ``int`` prime <= 2^31 - 1 (a float, a string, a bool) is refused."""
    if modulus == "rational":
        return None
    if type(modulus) is not int or not (2 <= modulus <= DEFAULT_MODULUS and _is_prime(modulus)):
        raise PreconditionError(f"modulus must be 'rational' or a prime <= 2^31 - 1, got {modulus!r}")
    return modulus


def fiber_hilbert_function(
    spec: ScrollSpec,
    t: int,
    *,
    modulus: int | str = DEFAULT_MODULUS,
) -> int:
    """Dimension of the degree-t graded piece of the minor subalgebra;
    ``PreconditionError`` for a degree that is not a non-negative ``int``."""
    if type(t) is not int:  # bool is an int subclass
        raise PreconditionError(f"degree must be an int, got {t!r}")
    if t < 0:
        raise PreconditionError(f"degree must be non-negative, got {t}")
    p = _field(modulus)
    if t == 0:
        return 1
    return _degree_rank(spec, t, p)[0]


def _orbit(spec: ScrollSpec, t: int, key: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The canonical key of the symmetry orbit of the block at the packed
    multidegree ``key`` (``_generators``), (m, s): the pairs (n_i, m_i)
    sorted, which sorts the counts within each run of equal n_i, and
    min(s, sum m_i n_i - s)."""
    bits = _degree_bits(spec, t)
    counts = [key >> bits * i & ((1 << bits) - 1) for i in range(spec.d)]
    s = key >> bits * spec.d
    mirror = sum(m * n for m, n in zip(counts, spec.n)) - s
    return tuple(sorted(zip(spec.n, counts))), min(s, mirror)


def _standard(spec: ScrollSpec, combos: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The standard multisets among ``combos``: those whose minors, in
    ``_generators`` order (a, b) and so with weakly increasing left columns
    a, have weakly increasing right columns b."""
    right = [b for a in range(1, spec.c + 1) for b in range(a + 1, spec.c + 1)]
    standard = []
    for combo in combos:
        ends = [right[i] for i in combo]
        if all(map(operator.le, ends, ends[1:])):
            standard.append(combo)
    return standard


# The representatives of some orbits of a degree's blocks, each as the pair
# (blocks in its orbit, its standard multisets).
Representatives = list[tuple[int, list[tuple[int, ...]]]]


def _halves(reps: Representatives) -> tuple[Representatives, Representatives]:
    """``reps`` in two halves of about equal cost, rows squared each, the
    costliest first into the cheaper half."""
    halves: tuple[Representatives, Representatives] = ([], [])
    costs = [0, 0]
    for rep in sorted(reps, key=lambda rep: len(rep[1]), reverse=True):
        cheaper = costs[1] < costs[0]
        halves[cheaper].append(rep)
        costs[cheaper] += len(rep[1]) ** 2
    return halves


def _ranked(
    spec: ScrollSpec,
    t: int,
    gens: tuple[dict[Monomial, int], ...],
    reps: Representatives,
    p: int | None,
) -> int:
    """The rank of the blocks that ``reps`` stand for: each representative's
    standard rows expanded and eliminated, their rank counted once per block
    of its orbit.  The memo of prefix products is shared by ``reps``."""
    prefixes: dict[tuple[int, ...], dict[Monomial, int]] = {(): {0: 1}}
    rank = 0
    for size, combos in reps:
        block = _expand(spec, t, gens, prefixes, combos)
        rank += size * _echelon_rank(block, p)
        del block  # freed before the next block is built
    return rank


def _degree_rank(spec: ScrollSpec, t: int, p: int | None) -> tuple[int, int, int]:
    """The rank of degree t over GF(p), or over Q when p is None, summed
    over its blocks, with the number of blocks and the rows of the largest,
    every multiset counted.

    Two maps of the matrix entries are ring automorphisms over Z that send
    each minor to plus or minus a minor, and each monomial to a monomial.
    Reversing every block, x[i,j] -> x[i,n_i-j], sends column j of block i
    to column n_i-1-j with its two rows swapped; permuting blocks of equal
    degree n_i permutes the columns.  Both permute the minors up to sign,
    so they send the multisets of t minors at multidegree (m, s) one to one
    onto those at (σm, s) and at (m, sum m_i n_i - s), with σ a
    permutation of equal-degree blocks, and each product to plus or minus
    a product.  The entries only move, so the two blocks have coefficient
    matrices equal up to the order and sign of rows and columns, and equal
    ranks over every field.  The orbit of a block under these maps is the
    set of blocks with its ``_orbit`` key, and its blocks have equal row
    counts too.  So the first block of each orbit, in the order of
    ``_buckets``, is expanded and eliminated, and its rank counts once per
    block of the orbit; the group itself is never enumerated.

    Only the standard rows of a block are expanded.  By the straightening
    law for the 2x2 minors of a generic 2 x c matrix (De Concini, Eisenbud
    and Procesi, *Hodge algebras*, 1982; Sturmfels, *Algorithms in
    Invariant Theory*, 1993, 3.1), every product p_{a1 b1} ... p_{at bt} is
    a Z-linear combination of standard products, those with a1 <= ... <= at
    and b1 <= ... <= bt, with the same content, the multiset of columns
    {a1, b1, ..., at, bt}.  The scroll's minors are the images of the
    generic ones under a ring map over Z, so the relations hold among them
    too, and a minor's multidegree is the sum of its two columns' parts, so
    equal content means the same block.  Hence each block's standard rows
    span its row space over Z, and so over every field, GF(2) included:
    the rank of the standard rows is the block's rank.  On (13,) at t = 3
    the representatives have 21,557 standard rows of 42,879.

    The representatives are split into two halves of about equal cost,
    rows squared each (``_halves``), each with its own prefix products.
    When their standard rows reach ``MIN_FORKED_ROWS``, a forked child
    ranks one half while this process ranks the other (``two_halves``);
    below it this process ranks both.
    """
    gens, by_key = _buckets(spec, t)
    orbits: dict[tuple, list[list[tuple[int, ...]]]] = {}
    for key, combos in by_key.items():
        orbits.setdefault(_orbit(spec, t, key), []).append(combos)
    reps = [(len(blocks), _standard(spec, blocks[0])) for blocks in orbits.values()]
    rows = sum(len(combos) for _, combos in reps)
    first, second = (functools.partial(_ranked, spec, t, gens, half, p) for half in _halves(reps))
    rank = sum(two_halves(first, second, rows >= MIN_FORKED_ROWS))
    return rank, len(by_key), max(map(len, by_key.values()))


@dataclass(frozen=True, slots=True)
class CrossCheckRow:
    t: int
    fiber_rank: int
    face_count: int
    equal: bool


@dataclass(frozen=True, slots=True)
class CrossCheckResult:
    spec: ScrollSpec
    t_max: int
    modulus: int | str
    rows: tuple[CrossCheckRow, ...]
    passed: bool
    notes: tuple[str, ...]
    #: (t, number of blocks, rows of the largest block) for t = 1 .. t_max.
    blocks: tuple[tuple[int, int, int], ...]


def _preflight(spec: ScrollSpec, t_max: int, modulus: int | str) -> int | None:
    """The checks ``cross_check`` makes before any work, which cost no work
    themselves: the regime, t_max an ``int`` >= 0, the modulus (``_field``,
    whose result it returns) and, as the row count grows with the degree,
    the row budget at ``t_max``."""
    require_complex(spec)
    if type(t_max) is not int:  # bool is an int subclass
        raise PreconditionError(f"t_max must be an int, got {t_max!r}")
    if t_max < 0:
        raise PreconditionError(f"t_max must be non-negative, got {t_max}")
    p = _field(modulus)
    _check_rows(spec, t_max)
    return p


def cross_check(
    spec: ScrollSpec,
    t_max: int,
    *,
    modulus: int | str = DEFAULT_MODULUS,
) -> CrossCheckResult:
    """Compare the rank oracle against the face-count Hilbert function.

    ``_preflight`` checks the arguments and the row budget before the face
    count and any degree is built.  The face count is the interval DP
    ``_face_vector``, which reads no facet, so the check runs past the
    enumeration budget and certifies nothing itself.

    Each degree is ranked one block per symmetry orbit (``_degree_rank``).
    A mismatch under a prime modulus is re-checked over the rationals, every
    orbit of that degree again: a genuinely modular discrepancy is flagged
    as a suspected modulus collision instead of a mathematical failure.
    """
    p = _preflight(spec, t_max, modulus)
    faces = _face_vector(spec)
    # Degree 0 is the ground field on both sides.
    rows: list[CrossCheckRow] = [CrossCheckRow(t=0, fiber_rank=1, face_count=1, equal=True)]
    notes: list[str] = []
    blocks: list[tuple[int, int, int]] = []
    for t in range(1, t_max + 1):
        fiber, count, largest = _degree_rank(spec, t, p)
        blocks.append((t, count, largest))
        expected = _hf_from_counts(faces, t)
        if fiber != expected and p is not None:
            exact = _degree_rank(spec, t, None)[0]
            if exact != fiber:
                notes.append(
                    f"degree {t}: modular rank {fiber} != rational rank {exact}; "
                    "suspected modulus collision, using the rational value"
                )
                fiber = exact
        rows.append(CrossCheckRow(t=t, fiber_rank=fiber, face_count=expected, equal=fiber == expected))
    return CrossCheckResult(
        spec=spec,
        t_max=t_max,
        modulus=modulus,
        rows=tuple(rows),
        passed=all(r.equal for r in rows),
        notes=tuple(notes),
        blocks=tuple(blocks),
    )
