"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools

from scrollfiber import ScrollSpec, is_facet, vertex_set

# The desk suite: every spec exercised by the acceptance gate.
DESK_SUITE: tuple[tuple[int, ...], ...] = (
    (5,),
    (6,),
    (7,),
    (1, 5),
    (2, 4),
    (3, 3),
    (1, 1, 4),
    (2, 2, 2),
    (2, 2, 2, 2),
    (1, 2, 2, 4),
    (2, 2, 4, 4),
)


# One spec object per desk member: results are kept on the spec object, so
# tests that share these objects share the computed enumerations and checks.
DESK_SPECS: tuple[ScrollSpec, ...] = tuple(ScrollSpec(n) for n in DESK_SUITE)


def desk_specs_with_complex() -> list[ScrollSpec]:
    """Desk-suite members large enough to carry the facet complex."""
    return [s for s in DESK_SPECS if s.has_complex]


def brute_force_facets(spec: ScrollSpec) -> set[frozenset]:
    """Exhaustive facet filter: every (c+d)-subset of the vertex set."""
    size = spec.c + spec.d
    return {
        frozenset(candidate)
        for candidate in itertools.combinations(vertex_set(spec), size)
        if is_facet(spec, candidate)
    }


def crossing(u: tuple[int, int], v: tuple[int, int]) -> bool:
    """Whether two open intervals overlap without containment."""
    (a1, b1), (a2, b2) = sorted((u, v))
    return a1 < a2 < b1 < b2


def tightest_covers(vertices) -> dict:
    """Parent of every non-root vertex by brute force: the shortest other
    interval of the set that contains it."""
    covers = {}
    for v in vertices:
        enclosing = [u for u in vertices if u != v and u[0] <= v[0] and v[1] <= u[1]]
        if enclosing:
            covers[v] = min(enclosing, key=lambda u: u[1] - u[0])
    return covers
