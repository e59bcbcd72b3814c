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
means G = F \\ {u} + {w}: G holds the ridge F \\ {u}.  Only the ridges of
a facet's candidate generators are looked up, mostly those of its
prediction.  Each facet acts on every ridge it holds: it adds the ridge of
a candidate to a pending set and drops the others.  So after a backward
pass over the certified order a ridge is pending exactly when its earliest
owner tests it, and that candidate is no generator; the set holds the
ridges still waiting for an earlier facet, not every ridge certified so far.
It ends empty on every unmutated, ``c2`` and ``b2`` run, which then skip
the forward pass that finds those owners.  Whether a ridge is pending
depends only on the facets holding it, and the leaf sets tell which facets
can (``_classes``): a ridge F - v lies only in F's group when v is no unit,
and only in partner groups, whose leaf sets hold its units, when v is one.
So the within-group ridges of each group and the cross-group ridges are
certified apart, in two halves by group (``_halves``), one in a forked child
on specs with at least ``MIN_FORKED_FACETS`` facets, and a ridge that lies
in its facet alone is never looked up.  On (2,2,2,2,2,2) 403,988 of the
684,216 ridges are looked up, and the pending set peaks at 8,502 ridges in
the pass over the cross-group ones, where one pass over all of them peaks
at 11,159; on (4,4,4,5) at 91,409 against 134,682.  The generators found
this way are true ones, and the face identity decides that they are all of
them: their degree counts equal the h-vector of the counted complex exactly
when the order is a shelling (``_certify``).  Only when the identity fails
does the quadratic scan name the failing facets.

The prediction is local to a facet's tree: each node adds its vertex by
its role in its column, which its parent's way fixes, and by its own way
(``_rule``).  So one fold of each group's grammar table with the role as
state, ``_fold``, lists every facet together with its prediction, next to
the fold of ``facet_complex`` that counts the facets.  Its unmutated run is
the enumeration, kept on the spec (``_enumerated``); only the rule mutations
fold again.  It keeps no alpha per facet: each group's facets take one range
of ranks, larger alpha first.  ``_views`` builds the ``Facet`` views of a
range on request, for ``enumerate_facets``, ``first_facet``, the failing
reports and the ``facets`` command, and keeps none.
Certification parses no facet.  ``predict_LG`` applies the same rule over
one facet's ``_walk``, so a mutation moves both.

``_check_distinct`` checks the enumeration where it is kept, for every
reader: it lists every facet once, with c + d vertices.  ``_certified``
chooses each facet's candidates once, its unmutated prediction where the
order is the enumeration's own from that facet on and every vertex
elsewhere, and merges those that the two halves of the ridge classes miss
(``_missed``: a backward pass, then a forward one while any ridge is
pending).  It and the diagnostic scan yield one entry per facet
(``Colon``), which ``_tally`` folds into per-degree counts and the failing
reports and ``VerificationResult.reports`` maps only when asked.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .errors import (
    CapacityError,
    DomainError,
    InternalError,
    PreconditionError,
    VerificationError,
)
from .facet_complex import (
    Facet,
    Vertex,
    _bitset_index,
    _face_vector,
    _good_groups,
    _grid,
    _mask,
    _table,
    _vertices,
    _walk,
    count_facets,
    numerator_from_face_counts,
    vertex_set,
)
from .scroll_model import ScrollSpec, leaves_profile, per_spec, require_complex, two_halves

#: Enumeration refuses specs with more facets than this (``CapacityError``).
#: Each facet is kept as one int mask, about 50 bytes, with its packed
#: prediction; certification decodes each prediction once and keeps it as
#: an int over its passes, with a byte for the index of its group, the
#: incidence index of the face identity and the ridges still waiting for a
#: partner.  ``invariants`` peaks at 160-190 bytes a facet: 81.3 MB max RSS
#: for (4,4,4,4), 475,456 facets, and 151.1 MB for (4,4,4,5), 982,889, in
#: 2.8 and 6.6 s of wall time and 3.8 and 8.9 s of CPU over both processes
#: (one CLI run each, median of 3, max RSS and CPU of the run and its forked
#: child from ``wait4``, 2-core host).  A ``Facet`` view takes about 2.3 KB
#: at (4,4,4,5), so ``_views`` builds views only on request and keeps none.
MAX_ENUMERATED_FACETS = 1_000_000

# The facets greatest first (``_fold``): their masks, each group's range of
# their ranks (larger alpha first), and their predictions packed ``width``
# little-endian bytes a facet (9 bytes at c = 12, where an int takes 40).
Enumeration = tuple[tuple[int, ...], dict[int, range], bytearray]

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
    exactly k variables (the h-vector when every quotient is linear).  Only
    the failing reports are kept, and ``passed`` means that there are none:
    no facet's generators differ from its prediction, and the face identity
    holds.  ``scanned`` says that the identity failed, so every facet's
    colon ideal came from the quadratic scan.  ``reports`` rebuilds all of
    them, in the certified order, on first access.
    """

    spec: ScrollSpec
    facet_count: int
    degree_counts: tuple[int, ...]
    failing: tuple[ColonReport, ...]
    mutation: str | None = None
    scanned: bool = False
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
            stream = (_scanned if self.scanned else _certified)(self.spec, self.mutation)
            reports = tuple(
                _report(views[r], gens, predicted, diffs) for r, gens, predicted, diffs in stream
            )
            object.__setattr__(self, "_reports", reports)
        return self._reports


def _facet_order(spec: ScrollSpec, mutation: str | None) -> Sequence[int]:
    """Enumeration ranks in the order certified under ``mutation``:
    ``swap-groups`` moves the second group's range ahead of the first's."""
    masks, groups, _ = _enumerated(spec)
    if mutation != "swap-groups":
        return range(len(masks))
    first, second, *_ = groups.values()
    return [*second, *first, *range(second.stop, len(masks))]


def precedes(f: Facet, g: Facet) -> bool:
    """Whether f strictly precedes g (f is greater in the facet order);
    ``PreconditionError`` for an alpha that is not an ``int``."""
    if f.spec != g.spec:
        raise DomainError(f"cannot compare facets of {f.spec} and {g.spec}")
    for alpha in (f.alpha, g.alpha):
        if type(alpha) is not int:  # bool is an int subclass
            raise PreconditionError(f"alpha must be an int, got {alpha!r}")
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
    by mask and given the next range of ranks, so the ranges tile the
    enumeration: within a group the dual supports, read from the greatest
    variable down, are compared position by position with the greater
    variable winning.  The smallest vertex id in the symmetric difference
    decides that; it is the highest differing bit of the two masks, and the
    facet holding it comes later.
    """
    grid, greatest, root = _grid(spec), spec.alphas[-1], (1, spec.c)
    shift = math.comb(spec.c, 2)
    width, low = (shift + 7) // 8, ~(-1 << shift)
    masks: list[int] = []
    groups: dict[int, range] = {}
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
        groups[alpha] = range(len(masks), len(masks) + len(group))
        for e in group:
            masks.append(e >> shift)
            packed += (e & low).to_bytes(width, "little")
        del group
    return tuple(masks), groups, packed


def _enumerated(spec: ScrollSpec) -> Enumeration:
    """The unmutated ``_fold`` of ``spec``, kept on the spec: the facet
    masks in the facet order, each group's range of their ranks (larger
    alpha first) and their packed predictions.

    Raises ``CapacityError`` before the fold when the spec has more than
    ``MAX_ENUMERATED_FACETS`` facets, and ``InternalError`` unless the fold
    lists as many facets as ``count_facets`` counts, each once and with
    c + d vertices.  That is part of the certificate (``_certify``), and
    ``_check_distinct`` checks it for every reader of the enumeration.
    """
    require_complex(spec)

    def compute() -> Enumeration:
        expected = count_facets(spec)
        if expected > MAX_ENUMERATED_FACETS:
            raise CapacityError(
                f"{spec} has {expected:,} facets, over the enumeration budget of "
                f"{MAX_ENUMERATED_FACETS:,} facets; choose a smaller scroll type"
            )
        masks, groups, packed = _fold(spec, None)
        if len(masks) != expected:
            raise InternalError(f"enumerated {len(masks)} facets for {spec}, counted {expected}")
        _check_distinct(spec, masks, groups)
        return masks, groups, packed

    return per_spec(spec, "facets", compute)


def _check_distinct(spec: ScrollSpec, masks: Sequence[int], groups: dict[int, range]) -> None:
    """``InternalError`` unless every facet is listed once, with c + d
    vertices: every mask has c + d bits, no two groups share a leaf set, the
    masks strictly increase within a group's range, and a facet's units, the
    intervals (a, a+1) it holds, are its group's leaf set.  One bit count,
    one comparison and one AND a facet."""
    size = spec.c + spec.d
    sizes = set(map(int.bit_count, masks))
    if sizes != {size}:
        raise InternalError(f"facets of sizes {sorted(sizes)}, not {size}, for {spec}")
    leaves = [_mask(spec, leaves_profile(spec, alpha).leaves) for alpha in groups]
    if len(set(leaves)) < len(leaves):
        raise InternalError(f"two groups of {spec} share a leaf set")
    units = _mask(spec, [(a, a + 1) for a in range(1, spec.c)])
    for (alpha, ranks), held in zip(groups.items(), leaves):
        first, stop = ranks.start, ranks.stop
        ahead = itertools.islice(masks, first + 1, stop)
        if not all(map(operator.lt, itertools.islice(masks, first, stop), ahead)):
            raise InternalError(
                f"the masks of the group at alpha={alpha} of {spec} do not strictly increase"
            )
        if set(map(units.__and__, itertools.islice(masks, first, stop))) != {held}:
            raise InternalError(
                f"a facet of the group at alpha={alpha} of {spec} holds other units than its leaves"
            )


def _views(spec: ScrollSpec, ranks: range) -> Iterator[Facet]:
    """The ``Facet`` view of each rank in ``ranks`` (step 1), built as it is
    yielded; walking the group ranges gives each its group's alpha."""
    masks, groups, _ = _enumerated(spec)
    for alpha, group in groups.items():
        for r in range(max(ranks.start, group.start), min(ranks.stop, group.stop)):
            yield Facet(vertices=_vertices(spec, masks[r]), alpha=alpha, spec=spec)


def enumerate_facets(spec: ScrollSpec) -> list[Facet]:
    """All facets of the initial complex, greatest first in the facet order.

    The list is grouped by window position (larger alpha first) and ordered
    within a group by the dual-monomial comparison of ``precedes``.  The
    result is deterministic; each call builds its own views (``_views``).
    """
    return list(_views(spec, range(len(_enumerated(spec)[0]))))


def first_facet(spec: ScrollSpec, alpha: int) -> Facet:
    """The greatest facet of the group at ``alpha``.

    The enumeration lists facets greatest first; the view of the first facet
    of the group, at the start of its range, is built.  Raises for a spec
    without a complex and for an alpha that is not an ``int`` in
    [1, c-d-2], after the guarded enumeration.
    """
    _, groups, _ = _enumerated(spec)
    leaves_profile(spec, alpha)
    return next(_views(spec, groups[alpha][:1]))


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

    This is the audit path, and the diagnostic scan of
    ``verify_linear_quotients`` when its face identity fails.  The list
    must contain the globally greatest facet, otherwise it cannot be
    complete.
    """
    spec = facet.spec
    listed = [_mask(spec, g.vertices) for g in all_facets]
    if _enumerated(spec)[0][0] not in listed:
        raise DomainError("facet list is missing the greatest facet; incomplete input")
    f = _mask(spec, facet.vertices)
    earlier = (m for g, m in zip(all_facets, listed) if precedes(g, facet))
    return frozenset(_vertices(spec, d) for d in _minimal_masks(f & ~m for m in earlier))


def _decoded(packed: bytearray, width: int) -> list[int]:
    """The predictions packed ``width`` bytes a facet, as masks by rank."""
    return [int.from_bytes(packed[i : i + width], "little") for i in range(0, len(packed), width)]


def _predictions(spec: ScrollSpec, mutation: str | None) -> list[int]:
    """The prediction masks by rank: the enumeration's, or under a rule
    mutation a fresh ``_fold``'s, whose masks must be the enumeration's
    (``InternalError`` otherwise)."""
    masks, _, packed = _enumerated(spec)
    if mutation in ("c2", "b2"):  # swap-groups only reorders the facets
        folded, _, packed = _fold(spec, mutation)
        if folded != masks:
            raise InternalError(f"the prediction fold differs from the enumeration of {spec}")
    return _decoded(packed, len(packed) // len(masks))


#: ``_certified`` certifies the two halves of its ridge classes in two
#: processes, one forked, only on specs with at least this many facets;
#: below it, where ``os.fork`` is missing or fails, and in a process running
#: other threads, it certifies both in one.  A fork pays for itself in wall
#: time on large specs: with it, ``invariants`` on (2,2,2,2,2,2), 38,012
#: facets, took 0.24 s against 0.29 s in one process (median of 8
#: alternating runs), and on (4,4,4,4) 2.7 s against 3.5 s, for 3.6 s of
#: CPU against 3.5 s (median of 3).  On small specs it saves a few
#: milliseconds for more CPU: forked at every size, the benchmark's
#: ``batch`` lines, 2,398-7,384 facets, took 3 % more CPU (4 of 4 runs),
#: and its oracle specs, at most 924 facets, gained nothing (2-core host).
MIN_FORKED_FACETS = 10_000

#: ``_certify`` runs the diagnostic scan only on specs with at most this many
#: facets, and raises ``VerificationError`` over it.  Only an engine defect
#: reaches the scan, which costs about 0.4 µs per pair of facets on a 2-core
#: host: 3.2 s for (12,), 3,962 facets, and 10.7 s for (13,), 8,034; so this
#: budget stops it within about 20 s, where 1,000,000 facets would take days.
MAX_SCANNED_FACETS = 10_000


def _classes(spec: ScrollSpec) -> tuple[bytearray, list[int], list[int]]:
    """The ridge classes by leaf set: the index of each rank's group, in the
    order of the group ranges, one byte a rank; and per group the vertices v
    whose ridge F - v another facet may hold, within the group and across
    groups.

    A facet's units are exactly its group's leaf set, leaf sets differ from
    group to group (both checked by ``_check_distinct``) and all have d + 2
    units.  Let G hold the ridge F - v of a facet F of the group with leaf
    set L, G != F.  If v is no unit, G holds every unit of L, hence no
    other, so G is in F's group; and if every facet of the group holds v, G
    does, so G = F.  If v is a unit, G holds L - v and a unit w != v, so G
    is in a partner group, one whose leaf set holds L - v.  So the
    within-group ridges are those of the vertices not held by every facet of
    the group, and the cross-group ones those of the units with a partner
    group; the other ridges lie in F alone, so their candidates are no
    generators and need no lookup."""
    masks, groups, _ = _enumerated(spec)
    leaves = [_mask(spec, leaves_profile(spec, alpha).leaves) for alpha in groups]
    everything = (1 << math.comb(spec.c, 2)) - 1
    within = [
        everything ^ functools.reduce(operator.and_, itertools.islice(masks, r.start, r.stop))
        for r in groups.values()
    ]
    units = [_grid(spec)[a][a + 1] for a in range(1, spec.c)]
    # A leaf set holds L - u and not u exactly when it is a partner's.
    cross = [sum(u for u in units if any(held & ~m == u for m in leaves)) for held in leaves]
    group_of = bytearray().join(bytes([g]) * len(r) for g, r in enumerate(groups.values()))
    return group_of, within, cross


def _halves(
    spec: ScrollSpec, within: list[int], cross: list[int]
) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
    """Two halves of the ridge classes, balanced by the ridges they look up,
    each as its passes of per-group scopes.  The first takes the
    cross-group ridges, in a pass of their own, and the within-group ridges
    of the set of groups that brings it closest to half of all; the second
    takes those of the other groups.  Every facet of a group has as many
    ridges in a scope as the group's first.

    The cross-group ridges of a group wait in the pending set until the
    adjacent group's facets come, so their pass peaks highest, and the
    within-group ridges of the largest groups would add to that peak in the
    same pass."""
    masks, groups, _ = _enumerated(spec)
    ranks = list(groups.values())
    crossing = sum(len(r) * (masks[r.start] & x).bit_count() for r, x in zip(ranks, cross))
    sizes = [len(r) * (masks[r.start] & w).bit_count() for r, w in zip(ranks, within)]
    subsets = {0: 0}  # a set of groups by its within-group ridges, as a mask of indexes
    for g, size in enumerate(sizes):
        for total, chosen in list(subsets.items()):
            subsets.setdefault(total + size, chosen | 1 << g)
    rest = sum(sizes)
    chosen = subsets[min(subsets, key=lambda total: max(crossing + total, rest - total))]
    return (
        (cross, [w * (chosen >> g & 1) for g, w in enumerate(within)]),
        ([w * (~chosen >> g & 1) for g, w in enumerate(within)],),
    )


def _missed(
    masks: Sequence[int],
    order: Sequence[int],
    candidates: Sequence[int],
    group_of: bytearray,
    passes: Iterable[Sequence[int]],
) -> dict[int, int]:
    """The candidates that are no generators among the ridges of one half
    of the classes, one pass per scope in ``passes``, where a pass takes the
    ridges F - u with u in the scope of F's group (``scopes[group_of[rank]]``):
    by rank, the mask of the candidates u in ``candidates[rank]`` whose
    ridge F - u is in the half and lies in no earlier facet.

    In a pass each facet acts on every ridge of the pass that it holds: it
    adds the ridge of a candidate to ``pending`` and drops the others.  So
    after the backward pass a ridge is pending exactly when its earliest
    owner tests it, and the forward pass finds that owner, until none is
    pending."""
    missed: dict[int, int] = {}
    for scopes in passes:
        pending: set[int] = set()
        for rank in reversed(order):
            f = masks[rank]
            scope = f & scopes[group_of[rank]]  # the vertices whose ridge is in the pass
            if not scope:
                continue
            scoped = candidates[rank] & scope
            drops = scope ^ scoped
            while drops:
                u = drops & -drops
                drops ^= u
                pending.discard(f ^ u)
            while scoped:
                u = scoped & -scoped
                scoped ^= u
                pending.add(f ^ u)
        for rank in order if pending else ():
            f = masks[rank]
            rest = f & scopes[group_of[rank]] & candidates[rank]
            lost = 0
            while rest:
                u = rest & -rest
                rest ^= u
                if f ^ u in pending:  # this facet is the ridge's earliest owner
                    pending.remove(f ^ u)
                    lost |= u
            if lost:
                missed[rank] = missed.get(rank, 0) | lost
                if not pending:
                    break
    return missed


# One facet's entry in a pass, ``_certified``'s or ``_scanned``'s: its
# enumeration rank, the mask of its generators, the mask of its prediction,
# and its minimal difference masks when the pass is the scan, else None.
Colon = tuple[int, int, int, frozenset[int] | None]


def _certified(spec: ScrollSpec, mutation: str | None) -> Iterator[Colon]:
    """Per facet in the order certified under ``mutation`` (``_facet_order``),
    its ``Colon``: its rank, the mask of its counted generators, the mask of
    its prediction (``_predictions``) and None.

    Only a facet's candidate generators are tested, chosen once by rank in
    ``candidates``.  From the first position ``start`` on which the order is
    the enumeration's own (0 for its order, the end of the two moved ranges
    under ``swap-groups``), a rank's earlier facets are exactly the lower
    ranks, and it tests its unmutated prediction; any other rank tests every
    vertex, so any order is certified.  A candidate u of F is a generator
    when an earlier facet holds the ridge F - u, that is unless F is the
    ridge's earliest owner.

    Whether a ridge's earliest owner tests it depends only on the facets
    holding that ridge, so the ridge classes by leaf set (``_classes``) are
    certified apart, and a candidate whose ridge lies in its facet alone is
    no generator without a lookup.  The two halves of the classes
    (``_halves``) run in two processes on specs with at least
    ``MIN_FORKED_FACETS`` facets (``two_halves``), the child reaped before
    the first facet is yielded.  Unmutated, ``c2`` and ``b2`` runs miss none.

    Every counted generator u has an earlier facet holding F - u, found by a
    lookup, so the counted set is part of the true one, whatever the
    prediction and even were a class too small; ``_certify`` decides with
    the face identity that it is all of it.
    """
    masks = _enumerated(spec)[0]
    unmutated = _predictions(spec, None)
    predicted = _predictions(spec, mutation) if mutation in ("c2", "b2") else unmutated
    order = _facet_order(spec, mutation)
    down = range(len(order) - 1, -1, -1)  # the positions, last first
    start = next(itertools.compress(down, map(operator.ne, reversed(order), down)), -1) + 1
    candidates = [*masks[:start], *unmutated[start:]] if start else unmutated
    group_of, within, cross = _classes(spec)
    first, second = (
        functools.partial(_missed, masks, order, candidates, group_of, passes)
        for passes in _halves(spec, within, cross)
    )
    theirs, missed = two_halves(first, second, len(masks) >= MIN_FORKED_FACETS)
    for rank, m in theirs.items():
        missed[rank] = missed.get(rank, 0) | m
    hashed = [w | x for w, x in zip(within, cross)]
    for rank in order:
        gens = candidates[rank] & hashed[group_of[rank]] & ~missed.get(rank, 0)
        yield rank, gens, predicted[rank], None


def _scanned(spec: ScrollSpec, mutation: str | None) -> Iterator[Colon]:
    """The diagnostic pass, quadratic in the facet count: per facet in the
    order certified under ``mutation``, its ``Colon`` with the mask of its
    singleton generators and its minimal difference masks against every
    earlier facet, kept in one list (the scan of ``colon_generators``)."""
    masks = _enumerated(spec)[0]
    predicted = _predictions(spec, mutation)
    earlier: list[int] = []
    for rank in _facet_order(spec, mutation):
        f = masks[rank]
        diffs = _minimal_masks(f & ~m for m in earlier)
        earlier.append(f)
        yield rank, sum(d for d in diffs if d.bit_count() == 1), predicted[rank], diffs


def _report(facet: Facet, gens: int, predicted: int, diffs: frozenset[int] | None) -> ColonReport:
    """The ``ColonReport`` of ``facet`` from the rest of its entry in a pass
    (``Colon``); a certified facet's colon ideal is generated by ``gens``."""
    spec = facet.spec
    if diffs is None:
        diffs = frozenset(1 << k for k in range(gens.bit_length()) if gens >> k & 1)
    linear = all(d.bit_count() == 1 for d in diffs)
    return ColonReport(
        facet=facet,
        computed_generators=frozenset(_vertices(spec, d) for d in diffs),
        predicted_LG=_vertices(spec, predicted),
        linear=linear,
        matches_prediction=linear and gens == predicted,
    )


def _tally(spec: ScrollSpec, stream: Iterable[Colon]) -> tuple[tuple[int, ...], list[ColonReport]]:
    """Fold a pass of ``Colon`` entries, ``_certified``'s or ``_scanned``'s,
    into the degree counts of its linear facets (no trailing zeros) and the
    reports of the facets not linear or not matching their prediction."""
    counts = [0] * (spec.c + spec.d + 1)
    failing = []
    for rank, gens, predicted, diffs in stream:
        # A scanned facet is linear when its minimal differences are its
        # singleton generators; a certified one always is.
        linear = diffs is None or len(diffs) == gens.bit_count()
        counts[gens.bit_count()] += linear
        if not linear or gens != predicted:
            facet = next(_views(spec, range(rank, rank + 1)))
            failing.append(_report(facet, gens, predicted, diffs))
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return tuple(counts), failing


def verify_linear_quotients(
    spec: ScrollSpec, *, mutation: str | None = None
) -> VerificationResult:
    """Certify that the ordered dual generators have linear quotients.

    Every facet's minimal colon generators must be singletons equal to its
    prediction; the greatest facet's colon must be empty.  The unmutated
    result is kept on ``spec``.  ``VerificationError`` when the enumerated
    complex is not the counted one (``_face_h``).
    """
    require_complex(spec)
    _check_mutation(mutation)
    if mutation is None:
        return per_spec(spec, "certification", lambda: _certify(spec, None))
    return _certify(spec, mutation)


def _face_h(spec: ScrollSpec) -> tuple[int, ...]:
    """The h-vector of the counted complex Γ (``_face_vector``), kept on the
    spec once the enumerated complex Δ is checked to lie in Γ;
    ``VerificationError`` otherwise.

    Γ is pure, and its facets are exactly the trees of the grammar.  Fix a
    group, its leaf set L, and call an interval good when it holds a unit of
    L; a face of Γ is a laminar family of good intervals.  Take a maximal
    one, σ.  (1, c) lies in σ: it is good and crosses nothing.  The
    children of a node (a, b) of σ, its maximal proper subintervals in σ,
    number at most two, leave no gap and reach a and b: otherwise the union
    of two adjacent children, or a child stretched to a or b, would be good,
    laminar with σ and new.  So a node has no child, one child (a+1, b) or
    (a, b-1), or two children (a, k) and (k, b).  A childless node is a unit
    of L, since a longer one holds a good unit that could be added; a
    one-child node drops a unit that is not in L, which could be added
    otherwise.  So σ is a tree of ``facet_complex._rules``: every unit is a
    leaf or dropped once, with one more leaf than splits, and |σ| =
    c + |L| - 2 = c + d.  Conversely every tree is maximal: the smallest
    node holding a would-be new interval leaves it only a non-leaf unit,
    which is not good, or a node already present.

    So Δ ⊆ Γ, checked here, and duplicate-free facets of c + d vertices
    (``_check_distinct``) make Δ's facets facets of Γ; Δ = Γ exactly
    when they are as many, which the identity of ``_certify`` implies.
    Δ ⊆ Γ holds when no enumerated facet holds two crossing intervals
    a < a' < b < b' or a vertex not good for its group: one AND of rows of
    the masks' ``_bitset_index`` per crossing pair and per vertex.
    """

    def compute() -> tuple[int, ...]:
        masks, ranks_of, _ = _enumerated(spec)
        groups = _good_groups(spec)
        row = dict(zip(vertex_set(spec), reversed(_bitset_index(masks))))
        ranks = {  # the ranks of each group's facets, one block of bits
            alpha: ((1 << len(r)) - 1) << r.start for alpha, r in ranks_of.items()
        }
        for (a, b), (a2, b2) in itertools.combinations(row, 2):
            if a < a2 < b < b2 and row[(a, b)] & row[(a2, b2)]:
                raise VerificationError(
                    f"a facet of {spec} holds ({a}, {b}) and ({a2}, {b2}), which cross"
                )
        for v, bits in row.items():
            if bits & sum(block for alpha, block in ranks.items() if not groups[v] >> alpha & 1):
                raise VerificationError(f"a facet of {spec} holds {v}, not good for its group")
        f, size = _face_vector(spec), spec.c + spec.d
        if len(f) != size:
            raise VerificationError(f"the faces of {spec} come in {len(f)} sizes, not {size}")
        return numerator_from_face_counts(f, size)

    return per_spec(spec, "face_h", compute)


def _certify(spec: ScrollSpec, mutation: str | None) -> VerificationResult:
    """Tally ``_certified`` into per-degree counts and the failing reports
    (``_tally``), and certify by the face identity that the order is a
    shelling.

    Let R_j be the vertices u of the j-th facet F_j whose ridge F_j - u lies
    in an earlier facet, and R'_j ⊆ R_j the counted generators.  Every face
    of Δ lies in the interval [R_j, F_j] of the first facet that holds it,
    so S = sum_j x^|R_j| (1+x)^(c+d-|R_j|) >= f_Δ coefficientwise, with
    equality exactly when the order is a shelling (Björner's partition
    form); S' with R'_j in place of R_j is at least S, and equals it only
    when R' = R.  The identity says that the counts of the |R'_j| are the
    h-vector of Γ (``_face_h``), that is S' = f_Γ.  Its top coefficient
    makes Δ's facets, which are distinct facets of Γ, all of Γ's, so Δ = Γ;
    then S' = f_Δ forces R' = R and a shelling.  Each facet's colon ideal is
    generated by its counted vertices, and a facet fails only when those
    differ from its prediction.

    When the identity fails, ``_scanned`` gives every facet's colon ideal
    and the failing reports are exact; if the scan finds a shelling all the
    same, Δ is not Γ (``VerificationError``).  Over ``MAX_SCANNED_FACETS``
    facets the failed identity is a ``VerificationError`` with both
    h-vectors, without the scan.
    """
    masks = _enumerated(spec)[0]  # its guards refuse a huge c first
    degree_counts, failing = _tally(spec, _certified(spec, mutation))
    h = _face_h(spec)  # after the passes, so that its index adds nothing to their peak
    scanned = degree_counts != h
    if scanned and len(masks) > MAX_SCANNED_FACETS:
        raise VerificationError(
            f"the faces of {spec} give h = {h}, but its generators count {degree_counts}; "
            f"its {len(masks):,} facets are over the diagnostic scan's budget of "
            f"{MAX_SCANNED_FACETS:,}"
        )
    if scanned:
        degree_counts, failing = _tally(spec, _scanned(spec, mutation))
        if all(report.linear for report in failing) and degree_counts != h:
            raise VerificationError(f"the faces of {spec} give h = {h}, not {degree_counts}")
    return VerificationResult(
        spec=spec,
        facet_count=len(masks),
        degree_counts=degree_counts,
        failing=tuple(failing),
        mutation=mutation,
        scanned=scanned,
    )
