"""Shared fixtures and brute-force oracles for the test suite."""

from __future__ import annotations

import itertools
import os
import random

import pytest

from scrollfiber import ScrollSpec, dual_quotients, leaves_profile, vertex_set

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
# tests that share these objects share the tables, counts and certifications.
DESK_SPECS: tuple[ScrollSpec, ...] = tuple(ScrollSpec(n) for n in DESK_SUITE)


def desk_specs_with_complex() -> list[ScrollSpec]:
    """Desk-suite members large enough to carry the facet complex."""
    return [s for s in DESK_SPECS if s.has_complex]


def shuffled_order(spec: ScrollSpec, seed: int) -> list[tuple[int, list[int]]]:
    """The enumeration's order of the groups, each group's facets shuffled
    within it."""
    rng, order = random.Random(seed), []
    for alpha, positions in dual_quotients._facet_order(spec, None):
        positions = list(positions)
        rng.shuffle(positions)
        order.append((alpha, positions))
    return order


def checked_groups(spec: ScrollSpec) -> tuple[list[int], dict[int, range]]:
    """Every facet mask of ``spec`` in the facet order, from the checked
    fold of each group (``dual_quotients._checked_fold``), and each group's
    range of their ranks, larger alpha first."""
    masks: list[int] = []
    groups: dict[int, range] = {}
    for alpha in dual_quotients._counted(spec)[1]:
        group = dual_quotients._checked_fold(spec, alpha)[0]
        groups[alpha] = range(len(masks), len(masks) + len(group))
        masks += group
    return masks, groups


def reference_is_facet(spec: ScrollSpec, candidate) -> bool:
    """A second, hand-written statement of the facet grammar: parse the set
    top-down from (1, c) by three node patterns.

    A unit must lie in the leaf set of the leftmost unit start alpha, and
    every leaf must be present.  A longer node (a, b) drops its left unit
    when (a+1, b) is present and (a, a+1) absent (split at a+1 when both
    are present), else drops its right unit when (a, b-1) is present (split
    at b-1 with (b-1, b)), else splits at the one k with (a, k) and (k, b)
    present.  The parse must meet every vertex of the set.
    """
    vs = set(candidate)
    alpha = min((a for a, b in vs if b - a == 1), default=0)
    if alpha not in spec.alphas:
        return False
    leaves = leaves_profile(spec, alpha).leaves
    root = (1, spec.c)
    if root not in vs or not leaves <= vs:
        return False
    stack, visited = [root], 0
    while stack:
        a, b = node = stack.pop()
        visited += 1
        if b - a == 1:
            if node not in leaves:
                return False
        elif (a + 1, b) in vs:
            stack += [(a, a + 1), (a + 1, b)] if (a, a + 1) in vs else [(a + 1, b)]
        elif (a, b - 1) in vs:
            stack += [(a, b - 1), (b - 1, b)] if (b - 1, b) in vs else [(a, b - 1)]
        else:
            split = [k for k in range(a + 2, b - 1) if (a, k) in vs and (k, b) in vs]
            if not split:
                return False
            stack += [(a, split[0]), (split[0], b)]
    return visited == len(vs)


def brute_force_facets(spec: ScrollSpec) -> set[frozenset]:
    """Exhaustive facet filter: every (c+d)-subset of the vertex set that
    ``reference_is_facet`` accepts."""
    size = spec.c + spec.d
    return {
        frozenset(candidate)
        for candidate in itertools.combinations(vertex_set(spec), size)
        if reference_is_facet(spec, candidate)
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


def assert_no_child() -> None:
    """Every child this process forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
