"""Facets of the initial complex and their binary interval trees.

Vertices of the complex are open intervals (a, b) with integer endpoints
1 <= a < b <= c.  A facet is a binary tree on the root (1, c): a unit node
is a leaf and lies in one of the leaf sets of
``scroll_model.leaves_profile``; a longer node (a, b) splits at some k
((a, k) and (k, b) present), drops its left unit ((a+1, b) present,
(a, a+1) absent) or drops its right unit ((a, b-1) present, (b-1, b)
absent).  Every facet has c + d vertices.

One grammar table per group, ``_rules``, states these rules once; each
is built on first use and kept on the spec (``_table``).  Three folds read
it here, ``count_facets`` into counts, ``_enumerate`` into masks and
``_edges`` into the 1-skeleton, and a fourth in ``dual_quotients`` folds it
into the predicted colon generators.  One parser reads it too: ``_walk``
rebuilds the tree of a vertex set top-down by the table's ways, so
``is_facet``, ``facet_tree`` and ``predict_LG`` follow the same rules.

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

# A grammar table (``_rules``): each buildable node, shorter first, to its
# ways, each way its children and the mask of the node and its children.
Rules = dict[Vertex, list[tuple[tuple[Vertex, ...], int]]]

#: Enumeration refuses specs with more facets than this (``CapacityError``):
#: each facet is kept as one int mask, about 50 bytes, and certification
#: makes a pass over all of them with c + d swap keys per facet.
MAX_ENUMERATED_FACETS = 200_000

#: ``_table`` refuses specs whose grammar tables would take more split steps
#: than this (``CapacityError``): at most C(c, 3) per group, c - d - 2
#: groups.  The refusal reaches every reader of the tables: counting,
#: enumeration, the 1-skeleton and the facet-level API.  Every spec with
#: c <= 40 is counted: (40,) takes 365,560 steps; (51,), at 999,600, counts
#: in about 0.4 s on a 2-core host.
MAX_COUNTING_STEPS = 1_000_000

#: ``_bitset_index`` transposes this many masks at a time.  One string over
#: all facets would add its size (C(c, 2) characters a facet) to the
#: certification peak.
INDEX_BLOCK = 512


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
    set exactly when ``masks[rank]`` has bit ``pos``.

    A transposition by strings, not a loop over set bits: a block of masks
    written out as one binary string of fixed-width rows and reversed holds
    in ``text[pos::width]`` the block's bit ``pos`` of every mask, the last
    mask first, so that string read in base 2 is the block's share of entry
    ``pos``.  Blocks of ``INDEX_BLOCK`` masks keep the string small next to
    the masks."""
    width = max(map(int.bit_length, masks), default=0)
    rows = [0] * width
    row = f"{{:0{width}b}}".format
    for base in range(0, len(masks), INDEX_BLOCK):
        text = "".join(map(row, masks[base : base + INDEX_BLOCK]))[::-1]
        for pos in range(width):
            rows[pos] |= int(text[pos::width], 2) << base
    return rows


def _walk(mask: int, table: Rules) -> Iterator[tuple[Vertex, tuple[Vertex, ...]]]:
    """Parse the vertex set ``mask`` top-down with a grammar table.

    From the root (1, c), the table's last key, each node takes the first of
    its ways whose mask lies in ``mask``; ``StructuralError`` when none
    does, and at the end unless the nodes met are exactly ``mask``.  So the
    walk accepts exactly the sets the table derives, the facets of its
    group: no way drops a leaf, siblings are disjoint so no node is met
    twice, and on a facet at most one way fits, so the first that fits is
    the facet's own.

    Yields ``(node, children)`` per node, parents before their children and
    children by left endpoint.  The last check follows the last node:
    consume the whole walk.
    """
    stack = [next(reversed(table))]
    visited = 0
    while stack:
        node = stack.pop()
        for kids, need in table[node]:
            if need & mask == need:
                break
        else:
            raise StructuralError(f"no way to build {node} lies in the vertex set")
        visited |= need
        stack += reversed(kids)
        yield node, kids
    if visited != mask:
        raise StructuralError(f"{(mask & ~visited).bit_count()} vertices lie off the tree")


def _walk_facet(facet: Facet) -> Iterator[tuple[Vertex, tuple[Vertex, ...]]]:
    """``_walk`` of a ``Facet`` view against the table of its alpha."""
    spec = facet.spec
    return _walk(_mask(spec, facet.vertices), _table(spec, facet.alpha))


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
        for _ in _walk(mask, _table(spec, alpha)):
            pass
    except StructuralError:
        return False
    return True


def facet_tree(facet: Facet) -> FacetTree:
    """Containment tree of a facet; ``StructuralError`` on non-facets and
    when ``facet.alpha`` is not the leftmost unit start."""
    children = dict(_walk_facet(facet))
    parent = {kid: node for node, kids in children.items() for kid in kids}
    return FacetTree(root=(1, facet.spec.c), children=children, parent=parent)


def _rules(spec: ScrollSpec, alpha: int) -> Rules:
    """The facet grammar of the group at ``alpha``.

    Maps every interval that roots a valid subtree, shorter intervals first,
    to each way to build that subtree: its children and the mask of the node
    and its children.  A unit in the leaf set has the one way ``()``; a
    longer interval drops a non-leaf unit off either end (one child) or
    splits (two children).  (A unit has neither: its drops and splits name
    no interval.)  The root (1, c) comes last: every group has a facet, the
    chain of the (k, c) with each unit dropped or split off.
    """
    c, grid = spec.c, _grid(spec)
    leaves = _mask(spec, leaves_profile(spec, alpha).leaves)
    rules: Rules = {}
    for length in range(1, c):
        for a in range(1, c - length + 1):
            b = a + length
            bit = grid[a][b]
            ways = [((), bit)] if length == 1 and leaves & bit else []
            for (p, q), (r, s) in (((a, a + 1), (a + 1, b)), ((b - 1, b), (a, b - 1))):
                if not leaves & grid[p][q] and (r, s) in rules:
                    ways.append((((r, s),), bit | grid[r][s]))
            for k in range(a + 1, b):
                if (a, k) in rules and (k, b) in rules:
                    ways.append((((a, k), (k, b)), bit | grid[a][k] | grid[k][b]))
            if ways:
                rules[(a, b)] = ways
    if (1, c) not in rules:
        raise InternalError(f"no facet in the group at alpha={alpha} of {spec}")
    return rules


def _table(spec: ScrollSpec, alpha: int) -> Rules:
    """The grammar table (``_rules``) of the group at ``alpha``, built on
    first use and kept on the spec.

    Raises ``CapacityError`` before the first table when the tables would
    take more than ``MAX_COUNTING_STEPS`` split steps (at most C(c, 3) per
    group), and ``StructuralError`` for alpha outside [1, c-d-2].
    """

    def budget() -> dict[int, Rules]:
        steps = (spec.c - spec.d - 2) * math.comb(spec.c, 3)
        if steps > MAX_COUNTING_STEPS:
            raise CapacityError(
                f"{spec} needs {steps:,} steps to count its facets, over the counting "
                f"budget of {MAX_COUNTING_STEPS:,} steps; choose a smaller scroll type"
            )
        return {}

    tables = per_spec(spec, "rules", budget)
    if alpha not in tables:
        if alpha not in spec.alphas:
            raise StructuralError(f"leftmost unit start {alpha} outside [1, {len(spec.alphas)}]")
        tables[alpha] = _rules(spec, alpha)
    return tables[alpha]


def count_facets(spec: ScrollSpec) -> int:
    """Number of facets of the initial complex, without enumerating them.

    Folds each group's grammar table into subtree counts, in time
    polynomial in c; ``enumerate_facets`` lists exactly this many facets.
    Raises ``CapacityError`` as ``_table`` does.
    """
    require_complex(spec)
    total = 0
    for alpha in spec.alphas:
        counts: dict[Vertex, int] = {}
        for node, ways in _table(spec, alpha).items():
            counts[node] = sum(math.prod(counts[kid] for kid in kids) for kids, _ in ways)
        total += counts[(1, spec.c)]
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
    In(u) | Out(u) for some group.  Raises ``CapacityError`` as ``_table``
    does.
    """

    def compute() -> list[int]:
        require_complex(spec)
        grid = _grid(spec)
        adj = [0] * math.comb(spec.c, 2)
        for alpha in spec.alphas:
            rules = _table(spec, alpha)
            inside: dict[Vertex, int] = {}
            for (a, b), ways in rules.items():
                inside[(a, b)] = grid[a][b]
                for kids, _ in ways:
                    for kid in kids:
                        inside[(a, b)] |= inside[kid]
            outside = {(1, spec.c): 0}
            for (a, b), ways in reversed(rules.items()):
                if (a, b) not in outside:
                    continue  # in no facet of this group
                bit = grid[a][b]
                around = outside[(a, b)] | bit
                adj[bit.bit_length() - 1] |= (inside[(a, b)] | around) & ~bit
                for kids, _ in ways:
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
        for (a, b), ways in _table(spec, alpha).items():
            subtrees[(a, b)] = built = []
            for kids, _ in ways:
                partial = [grid[a][b]]
                for kid in kids:
                    partial = [p | s for p in partial for s in subtrees[kid]]
                built += partial
        group = sorted(subtrees[(1, spec.c)])
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
    return Facet(vertices=_vertices(spec, masks[alphas.index(alpha)]), alpha=alpha, spec=spec)
