"""Facets of the initial complex and their binary interval trees.

Vertices of the complex are open intervals (a, b) with integer endpoints
1 <= a < b <= c.  A facet is a binary tree on the root (1, c): a unit node
is a leaf and lies in one of the leaf sets of
``scroll_model.leaves_profile``; a longer node (a, b) splits at some k
((a, k) and (k, b) present), drops its left unit ((a+1, b) present,
(a, a+1) absent) or drops its right unit ((a, b-1) present, (b-1, b)
absent).  Every facet has c + d vertices.

One grammar table per leaf set, ``_rules``, states these rules once; it
generates the facets: ``count_facets`` folds it into counts, ``_enumerate``
into masks and ``_edges`` into the 1-skeleton.  ``_walk`` parses one vertex
set top-down against the same rules: on a facet the split point is unique
and the patterns exclude each other, so the walk meets every vertex; on any
other set it fails a check.

Internally a vertex set is one ``int`` mask.  Vertex id i, the position of
the vertex in ascending (a, b) order, is bit ``top - i`` with ``top`` the
largest id, so the greatest variable holds the highest bit and
``(-alpha, mask)`` sorts facets greatest first (see ``_enumerate``).  The
frozenset ``Facet`` is a view built only where the API hands one out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, InternalError, InvalidVertexError, StructuralError
from .scroll_model import ScrollSpec, leaves_profile, per_spec, require_complex

# An open interval (a, b) on the line, equivalently the variable T[a, b].
Vertex = tuple[int, int]

#: Enumeration refuses specs with more facets than this (``CapacityError``):
#: each facet is kept as one int mask, about 50 bytes, and certification
#: makes a pass over all of them with c + d swap keys per facet.
MAX_ENUMERATED_FACETS = 200_000

#: ``count_facets`` refuses specs whose grammar tables (``_rules``) would
#: take more split steps than this (``CapacityError``): at most C(c, 3) per
#: group, c - d - 2 groups.  Every spec with c <= 40 is counted: (40,) takes
#: 365,560 steps; (51,), at 999,600, counts in about 0.4 s on a 2-core host.
MAX_COUNTING_STEPS = 1_000_000


@dataclass(frozen=True, slots=True)
class Facet:
    """A facet: its vertex set plus the window position of its leaf set.

    The enumeration keeps facets as int masks; ``enumerate_facets`` and
    ``first_facet`` build these views from them on request.
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

    def leaves(self) -> frozenset[Vertex]:
        return frozenset(v for v, kids in self.children.items() if not kids)


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
    outside 1 <= a < b <= c."""
    c, grid = spec.c, _grid(spec)
    mask = 0
    for v in vertices:
        a, b = v
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


def _bitset_index(masks: Sequence[int]) -> list[int]:
    """Incidence index over bit positions: entry ``pos`` has bit ``rank``
    set exactly when ``masks[rank]`` has bit ``pos``."""
    width = max(map(int.bit_length, masks), default=0)
    rows = [bytearray((len(masks) + 7) // 8) for _ in range(width)]
    for rank, mask in enumerate(masks):
        byte, bit = rank >> 3, 1 << (rank & 7)
        while mask:
            low = mask & -mask
            rows[low.bit_length() - 1][byte] |= bit
            mask ^= low
    return [int.from_bytes(row, "little") for row in rows]


def _leaf_mask(spec: ScrollSpec, alpha: int) -> int:
    """The mask of the leaf set at ``alpha``, from a table kept on the spec;
    raises ``StructuralError`` for alpha outside [1, c-d-2]."""
    table = per_spec(
        spec,
        "leaf_masks",
        lambda: {a: _mask(spec, leaves_profile(spec, a).leaves) for a in spec.alphas},
    )
    if alpha not in table:
        raise StructuralError(f"leftmost unit start {alpha} outside [1, {len(table)}]")
    return table[alpha]


def _walk(
    mask: int, c: int, leaves: int, grid: list[list[int]]
) -> Iterator[tuple[Vertex, tuple[Vertex, ...], bool, bool]]:
    """Rebuild the tree of the vertex set ``mask`` top-down from (1, c).

    Yields ``(node, children, top, right_sibling)`` per node, children by
    left endpoint: ``top`` when the parent has another left endpoint (the
    node heads its column), ``right_sibling`` for a split's left child.
    ``StructuralError`` unless ``mask`` is a facet with units ``leaves``,
    possibly after the last node: consume the whole walk.
    """
    root = (1, c)
    if not mask & grid[1][c] or leaves & ~mask:
        raise StructuralError(f"root {root} or a leaf of the group is missing")
    stack = [(root, True, False)]
    visited = 0
    while stack:
        node, top, sibling = stack.pop()
        visited += 1
        a, b = node
        row = grid[a]
        if b - a == 1:
            if not leaves & row[b]:
                raise StructuralError(f"unit {node} is not in the leaf set")
            kids: tuple[Vertex, ...] = ()
        else:
            # The three node patterns; on a facet exactly one holds.
            if mask & grid[a + 1][b]:  # drop the left unit, or split at a+1
                right = (a + 1, b)
                kids = ((a, a + 1), right) if mask & row[a + 1] else (right,)
            elif mask & row[b - 1]:  # drop the right unit, or split at b-1
                left = (a, b - 1)
                kids = (left, (b - 1, b)) if mask & grid[b - 1][b] else (left,)
            else:
                for k in range(a + 2, b - 1):
                    if mask & row[k] and mask & grid[k][b]:
                        kids = ((a, k), (k, b))
                        break
                else:
                    raise StructuralError(f"node {node} neither splits nor drops an absent unit")
            if len(kids) == 2:
                stack.append((kids[1], True, False))
                stack.append((kids[0], False, True))
            else:
                stack.append((kids[0], kids[0][0] != a, False))
        yield node, kids, top, sibling
    size = mask.bit_count()
    if visited != size:
        raise StructuralError(f"{size - visited} vertices lie off the tree from {root}")


def _walk_facet(facet: Facet) -> Iterator[tuple[Vertex, tuple[Vertex, ...], bool, bool]]:
    """``_walk`` of a ``Facet`` view against the leaf set at its alpha."""
    spec = facet.spec
    mask = _mask(spec, facet.vertices)
    return _walk(mask, spec.c, _leaf_mask(spec, facet.alpha), _grid(spec))


def is_facet(spec: ScrollSpec, candidate: Iterable[Vertex]) -> bool:
    """Whether ``candidate`` is a facet of the initial complex of ``spec``."""
    require_complex(spec)
    vs = list(candidate)
    mask = _mask(spec, vs)
    alpha = min((a for a, b in vs if b - a == 1), default=0)
    try:
        for _ in _walk(mask, spec.c, _leaf_mask(spec, alpha), _grid(spec)):
            pass
    except StructuralError:
        return False
    return True


def facet_tree(facet: Facet) -> FacetTree:
    """Containment tree of a facet; ``StructuralError`` on non-facets and
    when ``facet.alpha`` is not the leftmost unit start."""
    children = {node: kids for node, kids, _, _ in _walk_facet(facet)}
    parent = {kid: node for node, kids in children.items() for kid in kids}
    return FacetTree(root=(1, facet.spec.c), children=children, parent=parent)


def _rules(spec: ScrollSpec, alpha: int) -> dict[Vertex, list[tuple[Vertex, ...]]]:
    """The facet grammar of the group at ``alpha``.

    Maps every interval that roots a valid subtree, shorter intervals first,
    to the children of each way to build that subtree: ``()`` for a unit in
    the leaf set, one child when a longer interval drops a non-leaf unit off
    either end, two children for a split.  (A unit has neither: its drops
    and splits name no interval.)
    """
    c, leaves, grid = spec.c, _leaf_mask(spec, alpha), _grid(spec)
    rules: dict[Vertex, list[tuple[Vertex, ...]]] = {}
    for length in range(1, c):
        for a in range(1, c - length + 1):
            b = a + length
            ways: list[tuple[Vertex, ...]] = [()] if length == 1 and leaves & grid[a][b] else []
            for (p, q), kid in (((a, a + 1), (a + 1, b)), ((b - 1, b), (a, b - 1))):
                if not leaves & grid[p][q] and kid in rules:
                    ways.append((kid,))
            for k in range(a + 1, b):
                if (a, k) in rules and (k, b) in rules:
                    ways.append(((a, k), (k, b)))
            if ways:
                rules[(a, b)] = ways
    return rules


def _check_tables(spec: ScrollSpec) -> None:
    """Refuse ``spec`` (``CapacityError``) when its grammar tables would take
    more than ``MAX_COUNTING_STEPS`` split steps, before any is built."""
    require_complex(spec)
    steps = (spec.c - spec.d - 2) * math.comb(spec.c, 3)
    if steps > MAX_COUNTING_STEPS:
        raise CapacityError(
            f"{spec} needs {steps:,} steps to count its facets, over the counting "
            f"budget of {MAX_COUNTING_STEPS:,} steps; choose a smaller scroll type"
        )


def count_facets(spec: ScrollSpec) -> int:
    """Number of facets of the initial complex, without enumerating them.

    Folds each group's grammar table into subtree counts, in time
    polynomial in c; ``enumerate_facets`` lists exactly this many facets.
    Raises ``CapacityError`` before any table is built when the tables would
    take more than ``MAX_COUNTING_STEPS`` split steps.
    """
    _check_tables(spec)
    total = 0
    for alpha in spec.alphas:
        counts: dict[Vertex, int] = {}
        for node, ways in _rules(spec, alpha).items():
            counts[node] = sum(math.prod(counts[kid] for kid in kids) for kids in ways)
        total += counts.get((1, spec.c), 0)
    return total


def _edges(spec: ScrollSpec) -> list[int]:
    """The 1-skeleton of the complex, without enumerating facets, kept on the
    spec: entry ``pos`` is the mask of the neighbours of the vertex at bit
    ``pos`` (0 for a vertex in no facet).

    An inside-outside fold of each group's grammar table.  In(node) is every
    vertex of some subtree rooted at the node: its bit ORed with In of its
    children, over every way to build it.  Out(node) is every vertex of some
    facet around such a subtree: from the root down, each way to build a
    node passes Out(node), the node's bit and In of the other children to
    each child.  The grammar is context-free, so any subtree fits any
    context of its root, and u, v share a facet exactly when v lies in
    In(u) | Out(u) for some group.  Raises ``CapacityError`` as
    ``count_facets`` does.
    """

    def compute() -> list[int]:
        _check_tables(spec)
        grid = _grid(spec)
        adj = [0] * math.comb(spec.c, 2)
        for alpha in spec.alphas:
            rules = _rules(spec, alpha)
            inside: dict[Vertex, int] = {}
            for (a, b), ways in rules.items():
                inside[(a, b)] = grid[a][b]
                for kids in ways:
                    for kid in kids:
                        inside[(a, b)] |= inside[kid]
            outside = {(1, spec.c): 0} if (1, spec.c) in rules else {}
            for (a, b), ways in reversed(rules.items()):
                if (a, b) not in outside:
                    continue  # in no facet of this group
                bit = grid[a][b]
                around = outside[(a, b)] | bit
                adj[bit.bit_length() - 1] |= (inside[(a, b)] | around) & ~bit
                for kids in ways:
                    for i, kid in enumerate(kids):
                        sibling = inside[kids[1 - i]] if len(kids) == 2 else 0
                        outside[kid] = outside.get(kid, 0) | around | sibling
        return adj

    return per_spec(spec, "edges", compute)


def _enumerated(spec: ScrollSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The facet masks of ``spec`` in the facet order and the alpha of each,
    kept on the spec.

    Raises ``CapacityError`` when the spec has more than
    ``MAX_ENUMERATED_FACETS`` facets.
    """
    require_complex(spec)
    return per_spec(spec, "facets", lambda: _enumerate(spec))


def _facet_index(spec: ScrollSpec) -> list[int]:
    """``_bitset_index`` of the ordered facets, kept on the spec."""
    return per_spec(spec, "index", lambda: _bitset_index(_enumerated(spec)[0]))


def _enumerate(spec: ScrollSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Facets greatest first: larger alpha first, then ascending mask.

    Each group's grammar table is folded into the masks of its subtrees,
    every way of building a node ORing its children's masks into its bit.
    Within a group the dual supports, read from the greatest variable down,
    are compared position by position with the greater variable winning.
    The smallest vertex id in the symmetric difference decides that; it is
    the highest differing bit of the two masks, and the facet holding it
    comes later.
    """
    expected = count_facets(spec)
    if expected > MAX_ENUMERATED_FACETS:
        raise CapacityError(
            f"{spec} has {expected:,} facets, over the enumeration budget of "
            f"{MAX_ENUMERATED_FACETS:,} facets; choose a smaller scroll type"
        )
    grid = _grid(spec)
    masks: list[int] = []
    alphas: list[int] = []
    for alpha in reversed(spec.alphas):
        subtrees: dict[Vertex, list[int]] = {}
        for (a, b), ways in _rules(spec, alpha).items():
            subtrees[(a, b)] = built = []
            for kids in ways:
                partial = [grid[a][b]]
                for kid in kids:
                    partial = [p | s for p in partial for s in subtrees[kid]]
                built += partial
        group = sorted(subtrees.get((1, spec.c), ()))
        masks += group
        alphas += [alpha] * len(group)
    if len(masks) != expected:
        raise InternalError(f"enumerated {len(masks)} facets for {spec}, counted {expected}")
    return tuple(masks), tuple(alphas)


def enumerate_facets(spec: ScrollSpec) -> list[Facet]:
    """All facets of the initial complex, greatest first in the facet order.

    The list is grouped by window position (larger alpha first) and ordered
    within a group by the dual-monomial comparison of ``dual_quotients``.
    The result is deterministic; its ``Facet`` views are built on the first
    call and kept on the spec object.
    """

    def views() -> tuple[Facet, ...]:
        masks, alphas = _enumerated(spec)
        return tuple(
            Facet(vertices=_vertices(spec, m), alpha=a, spec=spec) for m, a in zip(masks, alphas)
        )

    return list(per_spec(spec, "facet_views", views))


def first_facet(spec: ScrollSpec, alpha: int) -> Facet:
    """The greatest facet of the group at ``alpha``.

    The enumeration lists facets greatest first; the view of the first facet
    of the group is built.  Raises for a spec without a complex and for
    alpha outside [1, c-d-2], after the guarded enumeration.
    """
    masks, alphas = _enumerated(spec)
    leaves_profile(spec, alpha)
    if alpha not in alphas:
        raise InternalError(f"empty facet group for {spec} at alpha={alpha}")
    return Facet(vertices=_vertices(spec, masks[alphas.index(alpha)]), alpha=alpha, spec=spec)
