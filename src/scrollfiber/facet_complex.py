"""Facets of the initial complex and their binary interval trees.

Vertices of the complex are open intervals (a, b) with integer endpoints
1 <= a < b <= c.  A facet is a binary tree on the root (1, c), which
``_walk`` rebuilds top-down: a unit node is a leaf and lies in one of the
leaf sets of ``scroll_model.leaves_profile``; a longer node (a, b) splits
at some k ((a, k) and (k, b) present), drops its left unit ((a+1, b)
present, (a, a+1) absent) or drops its right unit ((a, b-1) present,
(b-1, b) absent).  On a facet the split point is unique and the patterns
exclude each other, so the walk meets every vertex; on any other set it
fails a check.  Every facet has c + d vertices.
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
#: each facet costs a few KB, and certification a pass over all of them.
MAX_ENUMERATED_FACETS = 200_000

#: ``count_facets`` refuses specs whose counting DP would take more split
#: steps than this (``CapacityError``): at most C(c, 3) per group, c - d - 2
#: groups.  Every spec with c <= 40 is counted: (40,) takes 365,560 steps;
#: (51,), at 999,600, counts in about 0.4 s on a 2-core host.
MAX_COUNTING_STEPS = 1_000_000


@dataclass(frozen=True, slots=True)
class Facet:
    """A facet: its vertex set plus the window position of its leaf set."""

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


def _vertex_ids(spec: ScrollSpec) -> dict[Vertex, int]:
    # Ascending (a, b) order is exactly descending variable order.
    return per_spec(spec, "vertex_ids", lambda: {v: i for i, v in enumerate(vertex_set(spec))})


def _bitset_index(facets: Sequence[Facet]) -> list[int]:
    """Incidence index over vertex ids: entry ``vid`` has bit ``rank`` set
    exactly when ``facets[rank]`` contains that vertex."""
    vid = _vertex_ids(facets[0].spec) if facets else {}
    rows = [bytearray((len(facets) + 7) // 8) for _ in vid]
    for rank, f in enumerate(facets):
        byte, bit = rank >> 3, 1 << (rank & 7)
        for v in f.vertices:
            rows[vid[v]][byte] |= bit
    return [int.from_bytes(row, "little") for row in rows]


def _validate_vertices(spec: ScrollSpec, vertices: Iterable[Vertex]) -> frozenset[Vertex]:
    c = spec.c
    vs = frozenset(vertices)
    for v in vs:
        a, b = v
        if not (1 <= a < b <= c):
            raise InvalidVertexError(f"vertex {v} outside 1 <= a < b <= {c}")
    return vs


def _leaf_set(spec: ScrollSpec, alpha: int) -> frozenset[Vertex]:
    """The leaf set at ``alpha``, from a table kept on the spec; raises
    ``StructuralError`` for alpha outside [1, c-d-2]."""
    table = per_spec(
        spec, "leaf_sets", lambda: {a: leaves_profile(spec, a).leaves for a in spec.alphas}
    )
    if alpha not in table:
        raise StructuralError(f"leftmost unit start {alpha} outside [1, {len(table)}]")
    return table[alpha]


def _walk(
    vs: frozenset[Vertex], c: int, leaves: frozenset[Vertex]
) -> Iterator[tuple[Vertex, tuple[Vertex, ...], bool, bool]]:
    """Rebuild the tree of ``vs`` top-down from the root (1, c).

    Yields ``(node, children, top, right_sibling)`` per node, children by
    left endpoint: ``top`` when the parent has another left endpoint (the
    node heads its column), ``right_sibling`` for a split's left child.
    ``StructuralError`` unless ``vs`` is a facet with units ``leaves``,
    possibly after the last node: consume the whole walk.
    """
    root = (1, c)
    if root not in vs or not leaves <= vs:
        raise StructuralError(f"root {root} or a leaf of the group is missing")
    stack = [(root, True, False)]
    visited = 0
    while stack:
        node, top, sibling = stack.pop()
        visited += 1
        a, b = node
        if b - a == 1:
            if node not in leaves:
                raise StructuralError(f"unit {node} is not in the leaf set")
            kids: tuple[Vertex, ...] = ()
        else:
            # The three node patterns; on a facet exactly one holds.
            right, left = (a + 1, b), (a, b - 1)
            if right in vs:  # drop the left unit, or split at a+1
                unit = (a, a + 1)
                kids = (unit, right) if unit in vs else (right,)
            elif left in vs:  # drop the right unit, or split at b-1
                unit = (b - 1, b)
                kids = (left, unit) if unit in vs else (left,)
            else:
                for k in range(a + 2, b - 1):
                    if (a, k) in vs and (k, b) in vs:
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
    if visited != len(vs):
        raise StructuralError(f"{len(vs) - visited} vertices lie off the tree from {root}")


def is_facet(spec: ScrollSpec, candidate: Iterable[Vertex]) -> bool:
    """Whether ``candidate`` is a facet of the initial complex of ``spec``."""
    require_complex(spec)
    vs = _validate_vertices(spec, candidate)
    alpha = min((a for a, b in vs if b - a == 1), default=0)
    try:
        for _ in _walk(vs, spec.c, _leaf_set(spec, alpha)):
            pass
    except StructuralError:
        return False
    return True


def facet_tree(facet: Facet) -> FacetTree:
    """Containment tree of a facet; ``StructuralError`` on non-facets and
    when ``facet.alpha`` is not the leftmost unit start."""
    spec = facet.spec
    walk = _walk(facet.vertices, spec.c, _leaf_set(spec, facet.alpha))
    children = {node: kids for node, kids, _, _ in walk}
    parent = {kid: node for node, kids in children.items() for kid in kids}
    return FacetTree(root=(1, spec.c), children=children, parent=parent)


def _subtrees(
    a: int,
    b: int,
    leaves: frozenset[Vertex],
    memo: dict[tuple[int, int], tuple[frozenset[Vertex], ...]],
) -> tuple[frozenset[Vertex], ...]:
    """All valid subtree vertex sets rooted at the interval (a, b).

    A unit interval is a subtree iff it is in the leaf set; a longer
    interval either drops a non-leaf unit off one end or splits in two.
    """
    key = (a, b)
    cached = memo.get(key)
    if cached is not None:
        return cached
    me = (a, b)
    if b - a == 1:
        result: tuple[frozenset[Vertex], ...] = (frozenset((me,)),) if me in leaves else ()
    else:
        acc: list[frozenset[Vertex]] = []
        if (a, a + 1) not in leaves:
            acc.extend(s | {me} for s in _subtrees(a + 1, b, leaves, memo))
        if (b - 1, b) not in leaves:
            acc.extend(s | {me} for s in _subtrees(a, b - 1, leaves, memo))
        for mid in range(a + 1, b):
            lefts = _subtrees(a, mid, leaves, memo)
            if not lefts:
                continue
            rights = _subtrees(mid, b, leaves, memo)
            for s1 in lefts:
                for s2 in rights:
                    acc.append(s1 | s2 | {me})
        result = tuple(acc)
    memo[key] = result
    return result


def _count_subtrees(
    a: int, b: int, leaves: frozenset[Vertex], memo: dict[tuple[int, int], int]
) -> int:
    """``len(_subtrees(a, b, leaves, ...))`` by the same recursion."""
    key = (a, b)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if b - a == 1:
        count = int((a, b) in leaves)
    else:
        count = 0
        if (a, a + 1) not in leaves:
            count += _count_subtrees(a + 1, b, leaves, memo)
        if (b - 1, b) not in leaves:
            count += _count_subtrees(a, b - 1, leaves, memo)
        for mid in range(a + 1, b):
            lefts = _count_subtrees(a, mid, leaves, memo)
            if lefts:
                count += lefts * _count_subtrees(mid, b, leaves, memo)
    memo[key] = count
    return count


def count_facets(spec: ScrollSpec) -> int:
    """Number of facets of the initial complex, without enumerating them.

    Runs in time polynomial in c; ``enumerate_facets`` lists exactly this
    many facets.  Raises ``CapacityError`` before counting when the DP would
    take more than ``MAX_COUNTING_STEPS`` split steps.
    """
    require_complex(spec)
    steps = (spec.c - spec.d - 2) * math.comb(spec.c, 3)
    if steps > MAX_COUNTING_STEPS:
        raise CapacityError(
            f"{spec} needs {steps:,} steps to count its facets, over the counting "
            f"budget of {MAX_COUNTING_STEPS:,} steps; choose a smaller scroll type"
        )
    return sum(_count_subtrees(1, spec.c, _leaf_set(spec, a), {}) for a in spec.alphas)


def _enumerated(spec: ScrollSpec) -> tuple[Facet, ...]:
    """The facets of ``spec`` in the facet order, kept on the spec.

    Raises ``CapacityError`` when the spec has more than
    ``MAX_ENUMERATED_FACETS`` facets.
    """
    require_complex(spec)
    return per_spec(spec, "facets", lambda: _enumerate(spec))


def _facet_index(spec: ScrollSpec) -> list[int]:
    """``_bitset_index`` of the ordered facets, kept on the spec."""
    return per_spec(spec, "index", lambda: _bitset_index(_enumerated(spec)))


def descending_order_key(facet: Facet):
    """Sort key that lists facets greatest-first.

    Within a group the dual supports, read from the greatest variable down,
    are compared position by position with the greater variable winning.
    The smallest vertex id in the symmetric difference decides that; it is
    the highest differing bit of the facets' masks with id i at bit top - i,
    and the facet holding it comes later.
    """
    vid = _vertex_ids(facet.spec)
    top = len(vid) - 1
    mask = 0
    for v in facet.vertices:
        mask |= 1 << (top - vid[v])
    return (-facet.alpha, mask)


def _enumerate(spec: ScrollSpec) -> tuple[Facet, ...]:
    expected = count_facets(spec)
    if expected > MAX_ENUMERATED_FACETS:
        raise CapacityError(
            f"{spec} has {expected:,} facets, over the enumeration budget of "
            f"{MAX_ENUMERATED_FACETS:,} facets; choose a smaller scroll type"
        )
    facets: list[Facet] = []
    for alpha in spec.alphas:
        memo: dict[tuple[int, int], tuple[frozenset[Vertex], ...]] = {}
        for vertices in _subtrees(1, spec.c, _leaf_set(spec, alpha), memo):
            facets.append(Facet(vertices=vertices, alpha=alpha, spec=spec))
    if len(facets) != expected:
        raise InternalError(f"enumerated {len(facets)} facets for {spec}, counted {expected}")
    facets.sort(key=descending_order_key)
    return tuple(facets)


def enumerate_facets(spec: ScrollSpec) -> list[Facet]:
    """All facets of the initial complex, greatest first in the facet order.

    The list is grouped by window position (larger alpha first) and ordered
    within a group by the dual-monomial comparison of ``dual_quotients``.
    The result is deterministic and kept on the spec object.
    """
    return list(_enumerated(spec))


def first_facet(spec: ScrollSpec, alpha: int) -> Facet:
    """The greatest facet of the group at ``alpha``.

    Scans the enumeration, which lists facets greatest first, and returns
    the first facet of the group.  Raises for a spec without a complex and
    for alpha outside [1, c-d-2], after the guarded enumeration.
    """
    facets = _enumerated(spec)
    leaves_profile(spec, alpha)
    for facet in facets:
        if facet.alpha == alpha:
            return facet
    raise InternalError(f"empty facet group for {spec} at alpha={alpha}")
