"""Scroll matrix arrangement, leaf profiles, and 2x2 minor generators.

A scroll of type ``n = (n_1 <= ... <= n_d)`` is presented by a 2 x c matrix
(``c = sum(n)``) whose columns are consecutive-entry pairs ``x[i,j], x[i,j+1]``
drawn from d catalecticant blocks.  The engine works with a fixed
rearrangement of those columns: first all non-last block columns taken
round-robin (first columns of every block in increasing block order, then
second columns, and so on, skipping blocks that have run out), then the last
column of every block in decreasing block order.

Everything is immutable except a ``ScrollSpec``'s private memo, where
``per_spec`` keeps reused results until the spec object is freed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import InternalError, InvalidVertexError, PreconditionError, UnsupportedRegimeError

# The variable x[block, index]; blocks are 1-based, indices run 0..n_block.
EntryName = tuple[int, int]

# A matrix column: (top entry, bottom entry) with bottom index = top index + 1.
Column = tuple[EntryName, EntryName]


def complex_regime(c: int, d: int) -> bool:
    """Whether a scroll with c columns and d blocks carries the facet
    complex; smaller scrolls get closed-form predictions only."""
    return c >= d + 4


@dataclass(frozen=True, slots=True)
class ScrollSpec:
    """A scroll type: the block degrees ``n``, sorted non-decreasingly."""

    n: tuple[int, ...]
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.n, tuple):
            object.__setattr__(self, "n", tuple(self.n))
        if not self.n:
            raise PreconditionError("scroll type must have at least one block")
        if any(type(v) is not int or v < 1 for v in self.n):  # bool is an int subclass
            raise PreconditionError(f"block degrees must be positive integers: {self.n}")
        if any(a > b for a, b in zip(self.n, self.n[1:])):
            raise PreconditionError(f"block degrees must be sorted non-decreasingly: {self.n}")

    @property
    def c(self) -> int:
        return sum(self.n)

    @property
    def d(self) -> int:
        return len(self.n)

    @property
    def has_complex(self) -> bool:
        return complex_regime(self.c, self.d)

    @property
    def alphas(self) -> range:
        """The window positions 1..c-d-2 of the facet groups, greatest last;
        empty when the spec has no complex."""
        return range(1, self.c - self.d - 1) if self.has_complex else range(0)

    def __str__(self) -> str:
        return "(" + ",".join(str(v) for v in self.n) + ")"


def per_spec(spec: ScrollSpec, key: Any, compute: Callable[[], Any]) -> Any:
    """The result kept on ``spec`` under ``key``, computed on first use; an
    equal but distinct spec object computes its own."""
    if key not in spec._memo:
        spec._memo[key] = compute()
    return spec._memo[key]


def require_complex(spec: ScrollSpec) -> None:
    """Raise ``UnsupportedRegimeError`` unless ``spec`` carries the complex."""
    if not spec.has_complex:
        raise UnsupportedRegimeError(f"no facet complex for c={spec.c}, d={spec.d}: needs c >= d+4")


def require_alpha(spec: ScrollSpec, alpha: int) -> None:
    """``require_complex``, then ``PreconditionError`` unless ``alpha`` is an int in [1, c-d-2]."""
    require_complex(spec)
    if type(alpha) is not int or alpha not in spec.alphas:  # bool is an int subclass
        raise PreconditionError(f"alpha must lie in [1, {spec.alphas[-1]}], got {alpha!r}")


@dataclass(frozen=True, slots=True)
class ScrollMatrix:
    """The rearranged 2 x c column matrix of a scroll."""

    spec: ScrollSpec
    columns: tuple[Column, ...]

    def block_of_column(self, index: int) -> int:
        """Block containing the entries of the 1-based column ``index``."""
        return self.columns[index - 1][0][0]


@dataclass(frozen=True, slots=True)
class LeavesProfile:
    """Leaf data attached to a window position ``alpha``.

    ``gamma[i]`` is the least 1-based column index >= alpha + 2 whose entries
    come from block i.  Those d indices always split into a run starting at
    alpha + 2 and a run ending at c; ``ell`` is the split parameter, and
    ``leaves`` is the induced set of d + 2 unit intervals.
    """

    alpha: int
    gamma: dict[int, int]
    ell: int
    leaves: frozenset[tuple[int, int]]


@dataclass(frozen=True, slots=True)
class MinorPolynomial:
    """A 2x2 minor, expanded: terms are (coefficient, exponent map) pairs.

    The exponent map is a sorted tuple of (entry, power) with total degree 2.
    """

    terms: tuple[tuple[int, tuple[tuple[EntryName, int], ...]], ...]

    def as_dict(self) -> dict[tuple[tuple[EntryName, int], ...], int]:
        return {expo: coeff for coeff, expo in self.terms}

    def total_degrees(self) -> set[int]:
        return {sum(p for _, p in expo) for _, expo in self.terms}


def build_matrix(spec: ScrollSpec) -> ScrollMatrix:
    """Arrange the block columns of ``spec`` into the rearranged matrix.

    Columns 1..c-d are the non-last block columns, round-robin by column
    position then block; columns c-d+1..c are the last block columns in
    decreasing block order.  Blocks of degree 1 have no non-last columns and
    only appear in the final segment.
    """
    n = spec.n
    d = spec.d
    columns: list[Column] = []
    for j in range(max(n) - 1):
        for i in range(1, d + 1):
            if n[i - 1] >= j + 2:
                columns.append(((i, j), (i, j + 1)))
    for i in range(d, 0, -1):
        last = n[i - 1] - 1
        columns.append(((i, last), (i, last + 1)))
    if len(columns) != spec.c:
        raise InternalError(f"arranged {len(columns)} columns for c={spec.c}")
    return ScrollMatrix(spec=spec, columns=tuple(columns))


def leaves_profile(spec: ScrollSpec, alpha: int) -> LeavesProfile:
    """Compute gamma, ell, and the leaf set for a window position alpha.

    Requires c >= d + 4 and 1 <= alpha <= c - d - 2.  The split parameter is
    found by solving the defining set equation exactly; failure to find one
    would mean the column arrangement is broken and raises ``InternalError``.
    """
    require_alpha(spec, alpha)
    c, d = spec.c, spec.d
    matrix = build_matrix(spec)
    gamma: dict[int, int] = {}
    for col in range(alpha + 2, c + 1):
        block = matrix.block_of_column(col)
        if block not in gamma:
            gamma[block] = col
        if len(gamma) == d:
            break
    if len(gamma) != d:
        raise InternalError(f"no column >= alpha+2 for some block: {gamma}")

    gamma_set = set(gamma.values())
    ell = None
    for candidate in range(2, d + 2):
        low = set(range(alpha + 2, alpha + candidate + 1))
        high = set(range(c - d + candidate, c + 1))
        if gamma_set == low | high and not low & high:
            ell = candidate
            break
    if ell is None:
        raise InternalError(f"gamma set {sorted(gamma_set)} admits no split parameter")

    betas = set(range(alpha, alpha + ell + 1)) | set(range(c - d + ell - 1, c))
    leaves = frozenset((b, b + 1) for b in betas)
    if len(leaves) != d + 2:
        raise InternalError(f"leaf set has {len(leaves)} elements, expected {d + 2}")
    return LeavesProfile(alpha=alpha, gamma=dict(sorted(gamma.items())), ell=ell, leaves=leaves)


def minor(spec: ScrollSpec, a: int, b: int) -> MinorPolynomial:
    """Determinant of the 2x2 submatrix on columns ``a < b``.

    Expanded as top(a)*bottom(b) - top(b)*bottom(a) with like monomials
    combined.  The result is never zero for distinct columns.
    """
    c = spec.c
    if not (1 <= a < b <= c):
        raise InvalidVertexError(f"need 1 <= a < b <= {c}, got ({a}, {b})")
    columns = build_matrix(spec).columns
    top_a, bot_a = columns[a - 1]
    top_b, bot_b = columns[b - 1]

    acc: dict[tuple[tuple[EntryName, int], ...], int] = {}
    for coeff, pair in ((1, (top_a, bot_b)), (-1, (top_b, bot_a))):
        expo: dict[EntryName, int] = {}
        for entry in pair:
            expo[entry] = expo.get(entry, 0) + 1
        key = tuple(sorted(expo.items()))
        acc[key] = acc.get(key, 0) + coeff
    terms = tuple(sorted((coeff, expo) for expo, coeff in acc.items() if coeff))
    if not terms:
        raise InternalError(f"columns {a} and {b} produced a zero minor")
    return MinorPolynomial(terms=terms)
