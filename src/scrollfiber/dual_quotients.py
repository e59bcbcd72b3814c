"""Facet ordering, colon ideals of the dual generators, and their certification.

Every facet F corresponds to the squarefree monomial on its complement
V \\ F.  Facets are ordered greatest-first: larger window position alpha
wins, and within a group the complements are compared lexicographically
under the variable order in which T[a,b] beats T[a',b'] when a < a', or
a = a' and b < b'.  Successive colon ideals of the ordered dual generators
are generated by the inclusion-minimal difference sets F \\ F' over earlier
facets F'; the certification checks that these are all singletons and match
the combinatorial prediction ``predict_LG``.

All facets have c + d vertices, so a singleton difference F \\ G = {u}
means G = F \\ {u} + {w}: F and G share the swap key F \\ {u}.  One pass
in the certified order with a set of swap keys finds every singleton
generator.  A generator of higher degree exists exactly when some earlier
facet holds all of F's; the AND of their rows in the kept incidence index
``_incidence`` finds one, and only then is the quadratic scan made.

The prediction is local to a facet's tree: each node adds its vertex by
its role in its column, which its parent's way fixes, and by its own way
(``_rule``).  So one fold of each group's grammar table with the role as
state, ``_fold``, lists every facet together with its prediction, next to
the fold of ``facet_complex`` that counts the facets.  Its
unmutated run is the enumeration (``_enumerated``, ``enumerate_facets``,
``first_facet``), kept on the spec; only the rule mutations fold again.
Certification parses no facet.  ``predict_LG`` applies the same rule over
one facet's ``_walk``, so a mutation moves both.

One generator, ``_certified``, walks the certified order once and yields
every facet's colon data.  ``verify_linear_quotients`` folds it into
per-degree counts and the failing reports, not one report per facet;
``VerificationResult.reports`` maps it through the same report builder
only when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import CapacityError, DomainError, InternalError, PreconditionError
from .facet_complex import (
    Facet,
    Vertex,
    _bitset_index,
    _grid,
    _mask,
    _table,
    _vertices,
    _walk,
    count_facets,
    vertex_set,
)
from .scroll_model import ScrollSpec, leaves_profile, per_spec, require_complex

#: Enumeration refuses specs with more facets than this (``CapacityError``):
#: each facet is kept as one int mask, about 50 bytes, with its packed
#: prediction, and certification makes a pass over all of them with c + d
#: swap keys per facet.
MAX_ENUMERATED_FACETS = 200_000

# The facets greatest first (``_fold``): their masks, the alpha of each, and
# their predictions packed ``width`` little-endian bytes a facet (9 bytes at
# c = 12, where an int takes 40).
Enumeration = tuple[tuple[int, ...], tuple[int, ...], bytearray]

#: Named rule mutations for mutation-testing the checker.  Only for
#: diagnostics; production verification uses ``mutation=None``.
MUTATIONS: dict[str, str] = {
    "c2": "predict the leftmost leaf as a generator even in the greatest group",
    "b2": "ignore the two-children clause for middle column entries",
    "swap-groups": "transpose the two greatest groups in the facet order",
}


@dataclass(frozen=True, slots=True)
class ColonReport:
    """Colon-ideal data for one facet.

    ``computed_generators`` holds the inclusion-minimal difference sets
    against all earlier facets; the quotient is linear when every one of
    them is a singleton, and matches the prediction when those singletons
    are exactly ``predicted_LG``.
    """

    facet: Facet
    computed_generators: frozenset[frozenset[Vertex]]
    predicted_LG: frozenset[Vertex]
    linear: bool
    matches_prediction: bool


@dataclass(frozen=True, slots=True)
class VerificationResult:
    """The outcome of one certification pass.

    ``degree_counts[k]`` counts the facets whose colon ideal is generated by
    exactly k variables (the h-vector when every quotient is linear);
    ``quadratic_fallbacks`` counts the facets whose bitset witness forced the
    quadratic scan.  Only the failing reports are kept, and ``passed`` means
    that there are none; ``reports`` rebuilds all of them, in the certified
    order, on first access.
    """

    spec: ScrollSpec
    facet_count: int
    degree_counts: tuple[int, ...]
    quadratic_fallbacks: int
    failing: tuple[ColonReport, ...]
    mutation: str | None = None
    _reports: tuple[ColonReport, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def passed(self) -> bool:
        return not self.failing

    @property
    def reports(self) -> tuple[ColonReport, ...]:
        if self._reports is None:
            views = enumerate_facets(self.spec)
            stream = _certified(self.spec, self.mutation)
            reports = tuple(_report(views[rank], *colon) for rank, *colon in stream)
            object.__setattr__(self, "_reports", reports)
        return self._reports

    def failures(self) -> tuple[ColonReport, ...]:
        return self.failing


def dual_support(facet: Facet) -> tuple[Vertex, ...]:
    """Complement V \\ F listed from the greatest variable downwards."""
    vs = facet.vertices
    return tuple(v for v in vertex_set(facet.spec) if v not in vs)


def _facet_order(spec: ScrollSpec, mutation: str | None) -> Sequence[int]:
    """Enumeration ranks in the order certified under ``mutation``:
    ``swap-groups`` moves the second alpha block ahead of the first."""
    alphas = _enumerated(spec)[1]
    if mutation != "swap-groups":
        return range(len(alphas))
    first = alphas.count(alphas[0])
    second = first + alphas.count(alphas[0] - 1)
    return [*range(first, second), *range(first), *range(second, len(alphas))]


def precedes(f: Facet, g: Facet) -> bool:
    """Whether f strictly precedes g (f is greater in the facet order)."""
    if f.spec != g.spec:
        raise DomainError(f"cannot compare facets of {f.spec} and {g.spec}")
    if f.alpha != g.alpha:
        return f.alpha > g.alpha
    sym = (f.vertices - g.vertices) | (g.vertices - f.vertices)
    if not sym:
        return False
    # The first variable on which the dual monomials differ is the one with
    # the smallest (a, b); the facet missing it has the greater dual.
    return min(sym) in g.vertices


def _check_mutation(mutation: str | None) -> None:
    if mutation is not None and mutation not in MUTATIONS:
        raise PreconditionError(
            f"unknown mutation {mutation!r}; available: {', '.join(sorted(MUTATIONS))}"
        )


# The role of a node, fixed by the way its parent is built: the root, a
# left drop's child and a split's right child head their column (TOP), a
# split's left child has a right sibling (SIBLING), and a right drop's child
# continues its parent's column (PLAIN).
TOP, SIBLING, PLAIN = range(3)


def _rule(
    node: Vertex, kids: tuple[Vertex, ...], alpha: int, greatest: int, mutation: str | None
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The prediction rule at ``node`` built from ``kids``: the roles of the
    children, and the roles in which the node predicts its own vertex.

    A node heading its column never generates.  Otherwise a leaf (the unit
    (a, a+1)) generates exactly for a = alpha in every group but the
    greatest (in every group under ``c2``); a left drop, the bottom of its
    column, always does; a right drop does only with a right sibling; a
    split does too without one, except under ``b2``.  Both ``predict_LG``
    and ``_fold`` apply this rule.
    """
    if len(kids) == 2:  # a split
        return (SIBLING, TOP), (SIBLING,) if mutation == "b2" else (SIBLING, PLAIN)
    if not kids:  # a leaf, the unit (a, a+1)
        generates = node[0] == alpha and (alpha != greatest or mutation == "c2")
        return (), (SIBLING, PLAIN) if generates else ()
    if kids[0][0] == node[0]:  # a right drop
        return (PLAIN,), (SIBLING,)
    return (TOP,), (SIBLING, PLAIN)  # a left drop


def _predict(
    walk: Iterator[tuple[Vertex, tuple[Vertex, ...]]],
    grid: list[list[int]],
    alpha: int,
    greatest: int,
    mutation: str | None,
) -> int:
    """The mask of ``predict_LG`` over a facet's ``_walk``: ``_rule`` at
    every node; ``greatest`` is the alpha of the greatest group."""
    roles: dict[Vertex, int] = {}
    out = 0
    for node, kids in walk:
        role = roles.pop(node, TOP)  # the root is met first
        kid_roles, generating = _rule(node, kids, alpha, greatest, mutation)
        roles.update(zip(kids, kid_roles))
        if role in generating:
            out |= grid[node[0]][node[1]]
    return out


def predict_LG(facet: Facet, *, mutation: str | None = None) -> frozenset[Vertex]:
    """Predicted linear colon generators of a facet, read off its tree.

    Within the column of vertices sharing a left endpoint a, sorted by right
    endpoint: the topmost entry never generates; a middle entry generates
    exactly when its node has a right sibling or two children; the bottom
    entry of a column of size >= 2 always generates when it is not a unit,
    and when it is the unit (a, a+1) it generates exactly for a = alpha in
    every group but the greatest.

    The walk ``facet_complex._walk`` parses the facet with the grammar
    table of ``facet.alpha`` (``StructuralError`` when it is no facet of
    that group, ``CapacityError`` as ``count_facets`` does), and ``_rule``
    places every node by its parent's way and applies the column rule.
    Certification reads the same rule from ``_fold``, a fold of the table,
    and parses no facet.
    """
    _check_mutation(mutation)
    spec = facet.spec
    walk = _walk(spec, _mask(spec, facet.vertices), facet.alpha)
    return _vertices(spec, _predict(walk, _grid(spec), facet.alpha, spec.alphas[-1], mutation))


def _fold(spec: ScrollSpec, mutation: str | None) -> Enumeration:
    """Every facet greatest first, with its prediction: a fold of each
    group's grammar table by ``_rule``, with the node's role as state.

    Per node and per role some parent gives it, the fold lists every
    subtree of the node as one int, its mask shifted above the vertex bits
    ORed with its prediction, in the node's role, in the order of the
    table's ways.  Roles in which the node adds its bit on the same ways
    share one list, so a role that never adds it shares the list of the
    node's descendants.  Groups come larger alpha first, each sorted once
    by mask: within a group the dual supports, read from the greatest
    variable down, are compared position by position with the greater
    variable winning.  The smallest vertex id in the symmetric difference
    decides that; it is the highest differing bit of the two masks, and the
    facet holding it comes later.
    """
    grid, greatest, root = _grid(spec), spec.alphas[-1], (1, spec.c)
    shift = math.comb(spec.c, 2)
    width, low = (shift + 7) // 8, ~(-1 << shift)
    masks: list[int] = []
    alphas: list[int] = []
    packed = bytearray()
    for alpha in reversed(spec.alphas):
        folded: dict[Vertex, dict[int, list[int]]] = {}
        rules = {
            node: [(kids, *_rule(node, kids, alpha, greatest, mutation)) for kids in ways]
            for node, ways in _table(spec, alpha).items()
        }
        wanted: dict[Vertex, set[int]] = {root: {TOP}}
        for ways in rules.values():
            for kids, kid_roles, _ in ways:
                for kid, role in zip(kids, kid_roles):
                    wanted.setdefault(kid, set()).add(role)
        for (a, b), ways in rules.items():
            bit = grid[a][b]
            signs = {r: tuple(r in gen for *_, gen in ways) for r in wanted.get((a, b), ())}
            lists: dict[tuple[bool, ...], list[int]] = {sign: [] for sign in signs.values()}
            for i, (kids, kid_roles, _) in enumerate(ways):
                partial = [bit << shift]
                for kid, role in zip(kids, kid_roles):
                    partial = [p | q for p in partial for q in folded[kid][role]]
                for sign, entries in lists.items():
                    entries += [p | bit for p in partial] if sign[i] else partial
            folded[(a, b)] = {r: lists[sign] for r, sign in signs.items()}
        # Sorted in place, then split one facet at a time: copies of the
        # group here raised the peak RSS of certification by ~1 MB.
        group = folded[root][TOP]
        del folded
        group.sort()
        for e in group:
            masks.append(e >> shift)
            packed += (e & low).to_bytes(width, "little")
        alphas += [alpha] * len(group)
        del group
    return tuple(masks), tuple(alphas), packed


def _enumerated(spec: ScrollSpec) -> Enumeration:
    """The unmutated ``_fold`` of ``spec``, kept on the spec: the facet
    masks in the facet order, the alpha of each and their packed
    predictions.

    Raises ``CapacityError`` before the fold when the spec has more than
    ``MAX_ENUMERATED_FACETS`` facets, and ``InternalError`` unless the fold
    lists as many facets as ``count_facets`` counts.
    """
    require_complex(spec)

    def compute() -> Enumeration:
        expected = count_facets(spec)
        if expected > MAX_ENUMERATED_FACETS:
            raise CapacityError(
                f"{spec} has {expected:,} facets, over the enumeration budget of "
                f"{MAX_ENUMERATED_FACETS:,} facets; choose a smaller scroll type"
            )
        masks, alphas, packed = _fold(spec, None)
        if len(masks) != expected:
            raise InternalError(f"enumerated {len(masks)} facets for {spec}, counted {expected}")
        return masks, alphas, packed

    return per_spec(spec, "facets", compute)


def enumerate_facets(spec: ScrollSpec) -> list[Facet]:
    """All facets of the initial complex, greatest first in the facet order.

    The list is grouped by window position (larger alpha first) and ordered
    within a group by the dual-monomial comparison of ``precedes``.  The
    result is deterministic; its ``Facet`` views are built on the first
    call and kept on the spec object.
    """

    def views() -> tuple[Facet, ...]:
        masks, alphas, _ = _enumerated(spec)
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
    masks, alphas, _ = _enumerated(spec)
    leaves_profile(spec, alpha)
    return Facet(vertices=_vertices(spec, masks[alphas.index(alpha)]), alpha=alpha, spec=spec)


def _minimal_masks(diffs: Iterable[int]) -> frozenset[int]:
    """The inclusion-minimal masks among ``diffs``."""
    kept: list[int] = []
    for s in sorted(set(diffs), key=int.bit_count):
        if not any(k & ~s == 0 for k in kept):
            kept.append(s)
    return frozenset(kept)


def colon_generators(facet: Facet, all_facets: Sequence[Facet]) -> frozenset[frozenset[Vertex]]:
    """Inclusion-minimal difference sets of ``facet`` against all greater
    facets in ``all_facets`` -- the full quadratic scan.

    This is the audit path; ``verify_linear_quotients`` reaches the same
    sets through an inverted index.  The list must contain the globally
    greatest facet, otherwise it cannot be complete.
    """
    spec = facet.spec
    listed = [_mask(spec, g.vertices) for g in all_facets]
    if _enumerated(spec)[0][0] not in listed:
        raise DomainError("facet list is missing the greatest facet; incomplete input")
    f = _mask(spec, facet.vertices)
    earlier = (m for g, m in zip(all_facets, listed) if precedes(g, facet))
    return frozenset(_vertices(spec, d) for d in _minimal_masks(f & ~m for m in earlier))


def _incidence(spec: ScrollSpec) -> list[int]:
    """The ``_bitset_index`` of the enumeration, kept on the spec."""
    return per_spec(spec, "incidence", lambda: _bitset_index(_enumerated(spec)[0]))


def _certified(
    spec: ScrollSpec, mutation: str | None
) -> Iterator[tuple[int, int, frozenset[int] | None, int]]:
    """Per facet in the order certified under ``mutation`` (``_facet_order``):
    its enumeration rank, the mask of its singleton generators, its minimal
    difference masks from the quadratic scan or None, and the mask of its
    prediction: the enumeration's, or under a rule mutation a fresh
    ``_fold``, whose masks must be the enumeration's (``InternalError``
    otherwise).  ``InternalError`` too for a facet not of c + d vertices.

    A facet never yields one swap key twice, so a key seen before came from
    an earlier facet.  The witness starts from the ranks already certified,
    so every order reads the same ``_incidence`` and no reordered copy.
    """
    masks, _, packed = _enumerated(spec)
    if mutation in ("c2", "b2"):  # swap-groups only reorders the facets
        folded, _, packed = _fold(spec, mutation)
        if folded != masks:
            raise InternalError(f"the prediction fold differs from the enumeration of {spec}")
    index = _incidence(spec)
    width = len(packed) // len(masks)
    size = spec.c + spec.d
    order = _facet_order(spec, mutation)
    keys: set[int] = set()
    seen = 0  # the ranks certified so far
    for i, rank in enumerate(order):
        f = masks[rank]
        if f.bit_count() != size:
            raise InternalError(f"facet of size {f.bit_count()} != {size} for {spec}")
        gens, witness, rest = 0, seen, f
        while rest:
            u = rest & -rest
            rest ^= u
            key = f ^ u
            if key in keys:
                gens |= u
                witness &= index[u.bit_length() - 1]
            else:
                keys.add(key)
        seen |= 1 << rank
        diffs = _minimal_masks(f & ~masks[r] for r in order[:i]) if witness else None
        predicted = int.from_bytes(packed[rank * width : (rank + 1) * width], "little")
        yield rank, gens, diffs, predicted


def _report(facet: Facet, gens: int, diffs: frozenset[int] | None, predicted: int) -> ColonReport:
    """The ``ColonReport`` of ``facet`` from its item of ``_certified``."""
    spec = facet.spec
    if diffs is None:
        linear = True
        computed = frozenset(frozenset((v,)) for v in _vertices(spec, gens))
    else:
        linear = all(d.bit_count() == 1 for d in diffs)
        computed = frozenset(_vertices(spec, d) for d in diffs)
    return ColonReport(
        facet=facet,
        computed_generators=computed,
        predicted_LG=_vertices(spec, predicted),
        linear=linear,
        matches_prediction=linear and gens == predicted,
    )


def verify_linear_quotients(
    spec: ScrollSpec, *, mutation: str | None = None
) -> VerificationResult:
    """Certify that the ordered dual generators have linear quotients.

    Every facet's minimal colon generators must be singletons equal to its
    prediction; the greatest facet's colon must be empty.  The unmutated
    result is kept on ``spec``.
    """
    require_complex(spec)
    _check_mutation(mutation)
    if mutation is None:
        return per_spec(spec, "certification", lambda: _certify(spec, None))
    return _certify(spec, mutation)


def _certify(spec: ScrollSpec, mutation: str | None) -> VerificationResult:
    """Fold ``_certified`` into per-degree counts and the failing reports;
    a facet builds its report only off the linear, as-predicted case."""
    masks, alphas, _ = _enumerated(spec)  # its guards refuse a huge c first
    counts = [0] * (spec.c + spec.d + 1)
    failing: list[ColonReport] = []
    fallbacks = 0
    for rank, gens, diffs, predicted in _certified(spec, mutation):
        fallbacks += diffs is not None
        if diffs is None and gens == predicted:
            counts[gens.bit_count()] += 1
            continue
        facet = Facet(_vertices(spec, masks[rank]), alphas[rank], spec)
        report = _report(facet, gens, diffs, predicted)
        counts[gens.bit_count()] += report.linear
        if not report.matches_prediction:
            failing.append(report)
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return VerificationResult(
        spec=spec,
        facet_count=len(masks),
        degree_counts=tuple(counts),
        quadratic_fallbacks=fallbacks,
        failing=tuple(failing),
        mutation=mutation,
    )
