"""Facets of the initial complex and their binary interval trees.

Vertices of the complex are open intervals (a, b) with integer endpoints
1 <= a < b <= c.  A vertex set is a facet exactly when its containment order
is a rooted binary tree on (1, c) whose leaves form one of the unit-interval
leaf sets of ``scroll_model.leaves_profile``, one-child nodes shrink their
interval by a unit that is absent from the set, and two-child nodes split
their interval exactly.  Every facet has c + d vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import CapacityError, InternalError, InvalidVertexError, StructuralError
from .scroll_model import ScrollSpec, leaves_profile, per_spec, require_complex

# An open interval (a, b) on the line, equivalently the variable T[a, b].
Vertex = tuple[int, int]

#: Enumeration refuses specs with more facets than this (``CapacityError``):
#: each facet costs a few KB, and certification a pass over all of them.
MAX_ENUMERATED_FACETS = 200_000


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

    def has_right_sibling(self, v: Vertex) -> bool:
        p = self.parent.get(v)
        if p is None:
            return False
        kids = self.children[p]
        return len(kids) == 2 and kids[0] == v


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


def _tree_structure(
    spec: ScrollSpec, vs: frozenset[Vertex]
) -> tuple[dict[Vertex, Vertex], dict[Vertex, tuple[Vertex, ...]]]:
    """Build (parent, children) of the containment order, checking every
    facet condition; raises ``StructuralError`` on the first violation."""
    c, d = spec.c, spec.d
    root = (1, c)
    if root not in vs:
        raise StructuralError(f"root {root} missing")

    units = {v for v in vs if v[1] - v[0] == 1}
    if not units:
        raise StructuralError("no unit intervals present")
    alpha = min(a for a, _ in units)
    if not 1 <= alpha <= c - d - 2:
        raise StructuralError(f"leftmost unit start {alpha} outside [1, {c - d - 2}]")
    if units != leaves_profile(spec, alpha).leaves:
        raise StructuralError(f"unit intervals do not form the leaf set at {alpha}")

    # Laminar sweep: sorted by (a, -b) every vertex meets its tightest
    # enclosing interval at the stack top; anything else is a crossing.
    parent: dict[Vertex, Vertex] = {}
    kids: dict[Vertex, list[Vertex]] = {v: [] for v in vs}
    stack: list[Vertex] = []
    for v in sorted(vs, key=lambda v: (v[0], -v[1])):
        while stack and stack[-1][1] <= v[0]:
            stack.pop()
        if stack:
            top = stack[-1]
            if v[1] > top[1]:
                raise StructuralError(f"vertices {top} and {v} cross")
            parent[v] = top
            kids[top].append(v)
        elif v != root:
            raise StructuralError(f"vertex {v} not under the root")
        stack.append(v)

    for node, children in kids.items():
        if len(children) > 2:
            raise StructuralError(f"node {node} has {len(children)} children")
        if len(children) == 1:
            (child,) = children
            a, b = node
            if child == (a + 1, b):
                dropped = (a, a + 1)
            elif child == (a, b - 1):
                dropped = (b - 1, b)
            else:
                raise StructuralError(f"single child {child} of {node} is not a unit drop")
            if dropped in vs:
                raise StructuralError(f"dropped unit {dropped} of {node} is present")
        elif len(children) == 2:
            left, right = children
            if left[0] != node[0] or left[1] != right[0] or right[1] != node[1]:
                raise StructuralError(f"children {children} do not split {node}")
        elif node not in units:
            raise StructuralError(f"non-unit {node} is childless")

    return parent, {node: tuple(children) for node, children in kids.items()}


def is_facet(spec: ScrollSpec, candidate: Iterable[Vertex]) -> bool:
    """Whether ``candidate`` is a facet of the initial complex of ``spec``."""
    require_complex(spec)
    vs = _validate_vertices(spec, candidate)
    try:
        _tree_structure(spec, vs)
    except StructuralError:
        return False
    return True


def facet_tree(facet: Facet) -> FacetTree:
    """Containment tree of a facet; ``StructuralError`` on non-facets."""
    parent, children = _tree_structure(facet.spec, facet.vertices)
    return FacetTree(root=(1, facet.spec.c), children=children, parent=parent)


def _subtrees(
    a: int,
    b: int,
    leaf_starts: frozenset[int],
    memo: dict[tuple[int, int], tuple[frozenset[Vertex], ...]],
) -> tuple[frozenset[Vertex], ...]:
    """All valid subtree vertex sets rooted at the interval (a, b).

    A unit interval is a subtree iff it is a designated leaf; a longer
    interval either drops a non-leaf unit off one end or splits in two.
    """
    key = (a, b)
    cached = memo.get(key)
    if cached is not None:
        return cached
    me = (a, b)
    if b - a == 1:
        result: tuple[frozenset[Vertex], ...] = (
            (frozenset((me,)),) if a in leaf_starts else ()
        )
    else:
        acc: list[frozenset[Vertex]] = []
        if a not in leaf_starts:
            acc.extend(s | {me} for s in _subtrees(a + 1, b, leaf_starts, memo))
        if (b - 1) not in leaf_starts:
            acc.extend(s | {me} for s in _subtrees(a, b - 1, leaf_starts, memo))
        for mid in range(a + 1, b):
            lefts = _subtrees(a, mid, leaf_starts, memo)
            if not lefts:
                continue
            rights = _subtrees(mid, b, leaf_starts, memo)
            for s1 in lefts:
                for s2 in rights:
                    acc.append(s1 | s2 | {me})
        result = tuple(acc)
    memo[key] = result
    return result


def _count_subtrees(
    a: int, b: int, leaf_starts: frozenset[int], memo: dict[tuple[int, int], int]
) -> int:
    """``len(_subtrees(a, b, leaf_starts, ...))`` by the same recursion."""
    key = (a, b)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if b - a == 1:
        count = int(a in leaf_starts)
    else:
        count = 0
        if a not in leaf_starts:
            count += _count_subtrees(a + 1, b, leaf_starts, memo)
        if (b - 1) not in leaf_starts:
            count += _count_subtrees(a, b - 1, leaf_starts, memo)
        for mid in range(a + 1, b):
            lefts = _count_subtrees(a, mid, leaf_starts, memo)
            if lefts:
                count += lefts * _count_subtrees(mid, b, leaf_starts, memo)
    memo[key] = count
    return count


def count_facets(spec: ScrollSpec) -> int:
    """Number of facets of the initial complex, without enumerating them.

    Runs in time polynomial in c; ``enumerate_facets`` lists exactly this
    many facets.
    """
    require_complex(spec)
    return sum(
        _count_subtrees(1, spec.c, _leaf_starts(spec, alpha), {})
        for alpha in range(1, spec.c - spec.d - 1)
    )


def _leaf_starts(spec: ScrollSpec, alpha: int) -> frozenset[int]:
    return frozenset(a for a, _ in leaves_profile(spec, alpha).leaves)


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


def _enumerate(spec: ScrollSpec) -> tuple[Facet, ...]:
    # Imported late: the ordering module needs Facet from this module.
    from .dual_quotients import descending_order_key

    expected = count_facets(spec)
    if expected > MAX_ENUMERATED_FACETS:
        raise CapacityError(
            f"{spec} has {expected:,} facets, over the enumeration budget of "
            f"{MAX_ENUMERATED_FACETS:,} facets; choose a smaller scroll type"
        )
    c, d = spec.c, spec.d
    facets: list[Facet] = []
    for alpha in range(1, c - d - 1):
        memo: dict[tuple[int, int], tuple[frozenset[Vertex], ...]] = {}
        for vertices in _subtrees(1, c, _leaf_starts(spec, alpha), memo):
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
    for alpha outside [1, c-d-2].
    """
    leaves_profile(spec, alpha)
    for facet in _enumerated(spec):
        if facet.alpha == alpha:
            return facet
    raise InternalError(f"empty facet group for {spec} at alpha={alpha}")
