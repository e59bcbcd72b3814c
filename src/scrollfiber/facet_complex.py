"""Facets of the initial complex and their binary interval trees.

Vertices of the complex are open intervals (a, b) with integer endpoints
1 <= a < b <= c.  A facet is a binary tree on the root (1, c): a unit node
is a leaf and lies in one of the leaf sets of
``scroll_model.leaves_profile``; a longer node (a, b) splits at some k
((a, k) and (k, b) present), drops its left unit ((a+1, b) present,
(a, a+1) absent) or drops its right unit ((a, b-1) present, (b-1, b)
absent).  Every facet has c + d vertices.

One grammar table per group, ``_rules``, states these rules once; each
is built on first use and kept on the spec (``_table``).  Two folds read
it: ``_group_counts`` into each group's facet count here, which
``count_facets`` sums, and ``dual_quotients._fold`` into every facet of a
group with its predicted colon generators, which certification and the
facet readers of ``dual_quotients`` fold one group at a time.
One parser reads it too: ``_walk`` rebuilds the tree of a vertex set
top-down by the table's ways, so ``is_facet``, ``facet_tree`` and
``predict_LG`` follow the same rules.  ``_face_vector`` counts the faces
without the table, by an interval DP over the leaf sets, and
``numerator_from_face_counts`` turns that count into the h-vector that
certification compares with its degree counts; ``_hf_from_counts`` turns
it into the Hilbert function that the rank oracle compares with.

Internally a vertex set is one ``int`` mask.  Vertex id i, the position of
the vertex in ascending (a, b) order, is bit ``top - i`` with ``top`` the
largest id, so the greatest variable holds the highest bit and
``(-alpha, mask)`` sorts facets greatest first (see ``dual_quotients``).
The frozenset ``Facet`` is a view built only where the API hands one out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    InternalError,
    InvalidVertexError,
    PreconditionError,
    StructuralError,
)
from .scroll_model import ScrollSpec, leaves_profile, per_spec, require_complex

# An open interval (a, b) on the line, equivalently the variable T[a, b].
Vertex = tuple[int, int]

# A grammar table (``_rules``): each buildable node, shorter first, to its
# ways, each way the tuple of its children.
Rules = dict[Vertex, list[tuple[Vertex, ...]]]

#: ``_table`` refuses specs whose grammar tables would take more split steps
#: than this (``CapacityError``): at most C(c, 3) per group, c - d - 2
#: groups.  The refusal reaches every reader of the tables: counting, the
#: folds and the facet-level API; the face DP checks it too.  Every spec
#: with c <= 40 is counted: (40,) takes 365,560 steps; (51,), at 999,600,
#: counts in about 0.4 s on a 2-core host.
MAX_COUNTING_STEPS = 1_000_000

#: ``_bitset_index`` transposes this many masks at a time.  Bytes over all
#: of a group's masks at once would add their size, and their translated
#: columns C(c, 2) bytes a mask, to the certification peak.
INDEX_BLOCK = 512


@dataclass(frozen=True, slots=True)
class Facet:
    """A facet: its vertex set plus the window position of its leaf set.

    The folds list facets as int masks; the facet readers of
    ``dual_quotients`` build one view a facet as they yield it and keep
    none.
    """

    vertices: frozenset[Vertex]
    alpha: int
    spec: ScrollSpec


@dataclass(frozen=True, slots=True, eq=False)
class FacetTree:
    """The containment tree of a facet.

    ``children`` lists each node's children ordered by left endpoint;
    ``parent`` maps every non-root vertex to its unique cover.
    """

    root: Vertex
    children: dict[Vertex, tuple[Vertex, ...]]
    parent: dict[Vertex, Vertex]


def vertex_set(spec: ScrollSpec) -> tuple[Vertex, ...]:
    """All vertices of the complex for ``spec``, in ascending (a, b) order."""
    c = spec.c
    return tuple((a, b) for a in range(1, c + 1) for b in range(a + 1, c + 1))


def _grid(spec: ScrollSpec) -> list[list[int]]:
    """The one-bit mask of every vertex, kept on the spec: ``grid[a][b]`` is
    the bit of (a, b), vertex id i at bit top - i; 0 off the vertex set."""

    def compute() -> list[list[int]]:
        vertices = vertex_set(spec)
        top = len(vertices) - 1
        grid = [[0] * (spec.c + 1) for _ in range(spec.c + 1)]
        for i, (a, b) in enumerate(vertices):
            grid[a][b] = 1 << (top - i)
        return grid

    return per_spec(spec, "grid", compute)


def _mask(spec: ScrollSpec, vertices: Iterable[Vertex]) -> int:
    """The mask of a vertex collection; ``InvalidVertexError`` for a vertex
    that is not a pair of ``int``s or lies outside 1 <= a < b <= c."""
    c, grid = spec.c, _grid(spec)
    mask = 0
    for v in vertices:
        if not isinstance(v, tuple) or len(v) != 2:
            raise InvalidVertexError(f"vertex {v!r} is not a pair of ints")
        a, b = v
        if type(a) is not int or type(b) is not int:  # bool is an int subclass
            raise InvalidVertexError(f"vertex {v!r} is not a pair of ints")
        if not (1 <= a < b <= c):
            raise InvalidVertexError(f"vertex {v} outside 1 <= a < b <= {c}")
        mask |= grid[a][b]
    return mask


def _vertices(spec: ScrollSpec, mask: int) -> frozenset[Vertex]:
    """The vertex set of a mask."""
    by_bit = per_spec(spec, "by_bit", lambda: vertex_set(spec)[::-1])
    out = []
    while mask:
        low = mask & -mask
        out.append(by_bit[low.bit_length() - 1])
        mask ^= low
    return frozenset(out)


# ``_BIT_DIGITS[k]`` maps a byte to the ASCII digit of its bit k.
_BIT_DIGITS = [bytes(b"01"[byte >> k & 1] for byte in range(256)) for k in range(8)]


def _bitset_index(masks: Sequence[int]) -> list[int]:
    """Incidence index over bit positions: entry ``pos`` has bit ``rank``
    set exactly when ``masks[rank]`` has bit ``pos``.

    A transposition by bytes, not a loop over set bits: a block of masks
    written out big-endian, last mask first, as rows of ``size`` bytes holds
    in ``data[j::size]`` byte j of every mask, and translating that column
    through ``_BIT_DIGITS[k]`` spells bit k of each in ASCII digits, the
    last mask first, so that string read in base 2 is the block's share of
    entry ``8 * (size - 1 - j) + k``.  Blocks of ``INDEX_BLOCK`` masks keep
    the bytes small next to the masks."""
    width = max(map(int.bit_length, masks), default=0)
    size = (width + 7) // 8
    rows = [0] * (8 * size)
    for base in range(0, len(masks), INDEX_BLOCK):
        block = masks[base : base + INDEX_BLOCK]
        data = b"".join(map(int.to_bytes, reversed(block), repeat(size), repeat("big")))
        for j in range(size):
            column, low = data[j::size], 8 * (size - 1 - j)
            for k, digits in enumerate(_BIT_DIGITS):
                rows[low + k] |= int(column.translate(digits), 2) << base
    del rows[width:]
    return rows


def _walk(spec: ScrollSpec, mask: int, alpha: int) -> Iterator[tuple[Vertex, tuple[Vertex, ...]]]:
    """Parse the vertex set ``mask`` top-down with the grammar table of the
    group at ``alpha``.

    From the root (1, c), the table's last key, each node takes the first of
    its ways whose vertices, the node and its children, lie in ``mask``;
    ``StructuralError`` when none does, and at the end unless the nodes met
    are exactly ``mask``.  So the walk accepts exactly the sets the table
    derives, the facets of its group: no way drops a leaf, siblings are
    disjoint so no node is met twice, and on a facet at most one way fits,
    so the first that fits is the facet's own.  ``_table`` raises for the
    spec and alpha when the walk starts.

    Yields ``(node, children)`` per node, parents before their children and
    children by left endpoint.  The last check follows the last node:
    consume the whole walk.
    """
    grid, table = _grid(spec), _table(spec, alpha)
    stack = [next(reversed(table))]
    visited = 0
    while stack:
        node = stack.pop()
        for kids in table[node]:
            need = grid[node[0]][node[1]]
            for a, b in kids:
                need |= grid[a][b]
            if need & mask == need:
                break
        else:
            raise StructuralError(f"no way to build {node} lies in the vertex set")
        visited |= need
        stack += reversed(kids)
        yield node, kids
    if visited != mask:
        raise StructuralError(f"{(mask & ~visited).bit_count()} vertices lie off the tree")


def is_facet(spec: ScrollSpec, candidate: Iterable[Vertex]) -> bool:
    """Whether ``candidate`` is a facet of the initial complex of ``spec``.

    Raises ``CapacityError`` as ``count_facets`` does: the parse reads the
    grammar tables.
    """
    require_complex(spec)
    vs = list(candidate)
    mask = _mask(spec, vs)
    alpha = min((a for a, b in vs if b - a == 1), default=0)
    try:
        for _ in _walk(spec, mask, alpha):
            pass
    except StructuralError:
        return False
    return True


def facet_tree(facet: Facet) -> FacetTree:
    """Containment tree of a facet; ``StructuralError`` on non-facets and
    when ``facet.alpha`` is not the leftmost unit start, and
    ``PreconditionError`` when it is not an ``int``."""
    spec = facet.spec
    children = dict(_walk(spec, _mask(spec, facet.vertices), facet.alpha))
    parent = {kid: node for node, kids in children.items() for kid in kids}
    return FacetTree(root=(1, spec.c), children=children, parent=parent)


def _rules(spec: ScrollSpec, alpha: int) -> Rules:
    """The facet grammar of the group at ``alpha``.

    Maps every interval that roots a valid subtree, shorter intervals first,
    to each way to build that subtree, the tuple of its children.  A unit in
    the leaf set has the one way ``()``; a longer interval drops a non-leaf
    unit off either end (one child) or splits (two children).  (A unit has
    neither: its drops and splits name no interval.)  The root (1, c) comes
    last: every group has a facet, the chain of the (k, c) with each unit
    dropped or split off.  Every way names the one tuple ``vx[a][b]`` of a
    vertex, so the kept table holds one tuple per vertex and per way.
    """
    c = spec.c
    vx = [[(a, b) for b in range(c + 1)] for a in range(c + 1)]
    leaves = leaves_profile(spec, alpha).leaves
    rules: Rules = {}
    for length in range(1, c):
        for a in range(1, c - length + 1):
            b = a + length
            ways: list[tuple[Vertex, ...]] = [()] if length == 1 and (a, b) in leaves else []
            for unit, rest in ((vx[a][a + 1], vx[a + 1][b]), (vx[b - 1][b], vx[a][b - 1])):
                if unit not in leaves and rest in rules:
                    ways.append((rest,))
            for k in range(a + 1, b):
                if vx[a][k] in rules and vx[k][b] in rules:
                    ways.append((vx[a][k], vx[k][b]))
            if ways:
                rules[vx[a][b]] = ways
    if (1, c) not in rules:
        raise InternalError(f"no facet in the group at alpha={alpha} of {spec}")
    return rules


def _check_steps(spec: ScrollSpec) -> None:
    """``CapacityError`` when the grammar tables would take more than
    ``MAX_COUNTING_STEPS`` split steps, at most C(c, 3) per group."""
    steps = (spec.c - spec.d - 2) * math.comb(spec.c, 3)
    if steps > MAX_COUNTING_STEPS:
        raise CapacityError(
            f"{spec} needs {steps:,} steps to count its facets, over the counting "
            f"budget of {MAX_COUNTING_STEPS:,} steps; choose a smaller scroll type"
        )


def _table(spec: ScrollSpec, alpha: int) -> Rules:
    """The grammar table (``_rules``) of the group at ``alpha``, built on
    first use and kept on the spec.

    Raises ``PreconditionError`` for an alpha that is not an ``int`` (1.0
    and True would find the table of 1), ``CapacityError`` from
    ``_check_steps`` before the first table, and ``StructuralError`` for
    alpha outside [1, c-d-2].
    """
    if type(alpha) is not int:
        raise PreconditionError(f"alpha must lie in [1, {len(spec.alphas)}], got {alpha!r}")

    def budget() -> dict[int, Rules]:
        _check_steps(spec)
        return {}

    tables = per_spec(spec, "rules", budget)
    if alpha not in tables:
        if alpha not in spec.alphas:
            raise StructuralError(f"leftmost unit start {alpha} outside [1, {len(spec.alphas)}]")
        tables[alpha] = _rules(spec, alpha)
    return tables[alpha]


def _group_counts(spec: ScrollSpec) -> dict[int, int]:
    """The number of facets of each group, larger alpha first (the facet
    order), kept on the spec, without enumerating them: a fold of
    each group's grammar table into subtree counts, in time polynomial in c.
    Raises ``CapacityError`` as ``_table`` does."""

    def compute() -> dict[int, int]:
        out = {}
        for alpha in reversed(spec.alphas):
            counts: dict[Vertex, int] = {}
            for node, ways in _table(spec, alpha).items():
                counts[node] = sum(math.prod(counts[kid] for kid in kids) for kids in ways)
            out[alpha] = counts[(1, spec.c)]
        return out

    return per_spec(spec, "group_counts", compute)


def count_facets(spec: ScrollSpec) -> int:
    """Number of facets of the initial complex, without enumerating them:
    the sum of ``_group_counts``.  Every checked fold of a group lists
    exactly its group's count (``dual_quotients._checked_fold``).
    Raises ``CapacityError`` as ``_table`` does.
    """
    require_complex(spec)
    return sum(_group_counts(spec).values())


def _good_groups(spec: ScrollSpec) -> dict[Vertex, int]:
    """Per interval, kept on the spec, bit alpha set when it is good for the
    group at alpha: it contains a unit of the group's leaf set.
    ``InternalError`` unless each interval's groups form a range."""

    def compute() -> dict[Vertex, int]:
        leaves = {alpha: leaves_profile(spec, alpha).leaves for alpha in spec.alphas}
        groups = {
            (a, b): sum(any(a <= u < b for u, _ in leaves[alpha]) << alpha for alpha in leaves)
            for a, b in vertex_set(spec)
        }
        for v, bits in groups.items():
            run = bits // (bits & -bits or 1)
            if run & (run + 1):
                raise InternalError(f"the groups of {v} form no range in {spec}")
        return groups

    return per_spec(spec, "groups", compute)


def _laminar(c: int, groups: dict[Vertex, int], need: int, width: int) -> int:
    """The laminar families of the intervals v with ``groups[v] & need ==
    need`` by size, packed: coefficient k in bits k * width and up.

    G(a, b) counts the families inside [a, b], M(a, b) those that hold
    (a, b).  A family without (a, b) has no interval starting at a,
    G(a+1, b), or a longest one (a, e), e < b, which nothing crosses:
    M(a, e) G(e, b).  M(a, b) is x times their sum if (a, b) is good.
    """
    G = [[1] * (c + 1) for _ in range(c + 1)]  # G(b, b) = 1
    M = [[0] * (c + 1) for _ in range(c + 1)]
    for length in range(1, c):
        for a in range(1, c - length + 1):
            b = a + length
            without = G[a + 1][b] + sum(M[a][e] * G[e][b] for e in range(a + 1, b))
            if groups[(a, b)] & need == need:
                M[a][b] = without << width
            G[a][b] = without + M[a][b]
    return G[1][c]


def _face_vector(spec: ScrollSpec) -> tuple[int, ...]:
    """The f-vector, kept on the spec, of the complex Γ whose faces are the
    laminar families of intervals good for one group (``_good_groups``): any
    two nested or disjoint, a shared endpoint counting as disjoint.  Entry
    k - 1 counts the faces of k vertices; no facet or grammar table is read.

    A face's groups form a range, so f = sum f_alpha - sum f_{alpha, alpha+1}
    counts it once (``_laminar``).  A coefficient counts vertex sets of one
    size, below 2^C(c, 2) per group, so fields of C(c, 2) + c.bit_length()
    bits never carry.  ``CapacityError`` from ``_check_steps`` first.
    """

    def compute() -> tuple[int, ...]:
        _check_steps(spec)
        c, groups = spec.c, _good_groups(spec)
        width = math.comb(c, 2) + c.bit_length()
        packed = sum(_laminar(c, groups, 1 << alpha, width) for alpha in spec.alphas)
        packed -= sum(_laminar(c, groups, 3 << alpha, width) for alpha in spec.alphas[:-1])
        field, sizes = (1 << width) - 1, -(-packed.bit_length() // width)
        return tuple(packed >> (k * width) & field for k in range(1, sizes))

    return per_spec(spec, "face_vector", compute)


def _hf_from_counts(f: Sequence[int], t: int) -> int:
    """Degree-t monomials supported on faces, from f[k-1] faces of size k;
    f lists every size up to t, or every size that occurs."""
    if t == 0:
        return 1
    return sum(count * math.comb(t - 1, k) for k, count in enumerate(f[:t]))


def numerator_from_face_counts(f: Sequence[int], dim: int) -> tuple[int, ...]:
    """Clear (1-t)^dim from the face-count Hilbert series; needs the full
    f-vector (all sizes up to dim) and refuses a longer one.
    ``PreconditionError`` too for a dim or a count that is not an ``int``."""
    for name, value in (("dimension", dim), *(("face count", count) for count in f)):
        if type(value) is not int:  # bool is an int subclass
            raise PreconditionError(f"{name} must be an int, got {value!r}")
    if len(f) > dim:
        raise PreconditionError(f"f counts faces of {len(f)} vertices, above dim={dim}")
    full = (1,) + tuple(f)
    coeffs = [
        sum(
            full[j] * (-1) ** (k - j) * math.comb(dim - j, k - j)
            for j in range(0, min(k, len(full) - 1) + 1)
        )
        for k in range(dim + 1)
    ]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)
