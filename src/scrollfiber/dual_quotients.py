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
the forward pass that finds those owners (``_missed``).  Whether a ridge is
pending depends only on the facets holding it, and the leaf sets tell which
facets can (``_partners``): a ridge F - v lies only in F's group when v is
no unit, and only in F's group and one partner group, at alpha ± 1, when v
is one.  So each group's within-group ridges take a pass of their own, the
cross-group ridges of each pair of partners one more, and a ridge that lies
in its facet alone is never looked up.

Certification streams the groups (``_run``): it folds a group, checks it,
runs its within-group pass, and holds it until a cross pass has met it with
each partner group (``_hold``), then tallies it.  On specs with at least
``MIN_FORKED_FACETS`` facets the groups are cut into two runs of about
equal facet count (``_cut``), the first certified in a forked child, each
process pinned to its own CPU (``two_halves``); the groups the runs leave
waiting meet after the join, so each group is folded once.  The
generators found this way are true ones, and the face identity decides
that they are all of them: their degree counts equal the h-vector of the
counted complex exactly when the order is a shelling (``_certify``).  Only
when the identity fails does the quadratic scan name the failing facets.

The prediction is local to a facet's tree: each node adds its vertex by
its role in its column, which its parent's way fixes, and by its own way
(``_rule``).  So one fold of a group's grammar table with the role as
state, ``_fold``, lists every facet of the group together with its
prediction, next to the fold of ``facet_complex`` that counts them.  Every
reader folds the groups it reaches and checks each as certification does
(``_checked_fold``); the rule mutations, the scan and ``reports`` fold again.
Each certification run folds its own groups, and ``_facets`` yields the
``Facet`` views of one group at a time, in the facet order, to
``enumerate_facets``, ``first_facet``, ``colon_generators`` and the
``facets`` command, which so fold only the groups they read.  No facet is
kept on the spec.  Certification parses no facet.  ``predict_LG`` applies
the same rule over one facet's ``_walk``, so a mutation moves both.
"""

from __future__ import annotations

import collections
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
    _group_counts,
    _mask,
    _table,
    _trimmed,
    _vertices,
    _walk,
    count_facets,
    numerator_from_face_counts,
    vertex_set,
)
from .scroll_model import ScrollSpec, leaves_profile, per_spec, require_complex, two_halves

#: Certification and every facet reader refuse specs with more facets than
#: this (``CapacityError``, ``_counted``), before any fold.  None keeps a
#: facet past its group: a certification run holds two groups at a time,
#: with their masks and predictions, plus the groups still waiting on a
#: partner in the other run and the ridges still waiting for an earlier
#: facet.  ``invariants`` peaks at 46.5 MB max RSS for (4,4,4,4), 475,456
#: facets, and 81.1 MB for (4,4,4,5), 982,889, in 1.6 and 3.8 s of wall
#: time and 2.9 and 6.2 s of CPU over both processes (one CLI run each,
#: median of 8 and 4, max RSS and CPU of the run and its forked child from
#: ``wait4``, 2-core host).  A ``Facet`` view takes about 2.3 KB at
#: (4,4,4,5), so ``_facets`` builds each view as it yields it.
MAX_ENUMERATED_FACETS = 1_000_000

# The certified order (``_facet_order``): its groups in turn, each as its
# alpha and the positions of its facets in the order of the group's fold.
Order = list[tuple[int, Sequence[int]]]

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
    colon ideal came from the quadratic scan.  ``reports`` lists them all
    on first access, in the certified order, off the folds (``_all_reports``).
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
            failing = {_mask(self.spec, r.facet.vertices): r for r in self.failing}
            reports = tuple(_all_reports(self.spec, self.mutation, failing))
            object.__setattr__(self, "_reports", reports)
        return self._reports


def _facet_order(spec: ScrollSpec, mutation: str | None) -> Order:
    """The groups in the order certified under ``mutation``, each with the
    positions of its facets in its fold's order: larger alpha first, each
    group in its fold's own order, and ``swap-groups`` moves the second
    group ahead of the first."""
    order: Order = [(alpha, range(count)) for alpha, count in _group_counts(spec).items()]
    if mutation == "swap-groups":
        order[0], order[1] = order[1], order[0]
    return order


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


def _fold(spec: ScrollSpec, alpha: int, mutation: str | None) -> tuple[list[int], list[int]]:
    """Every facet of the group at ``alpha`` in the facet order, with its
    prediction: a fold of the group's grammar table by ``_rule``, with the
    node's role as state.  Returns the masks and the prediction masks, both
    by position.

    Per node and per role some parent gives it, the fold lists every
    subtree of the node as one int, its mask shifted above the vertex bits
    ORed with its prediction, in the node's role, in the order of the
    table's ways.  Roles in which the node adds its bit on the same ways
    share one list, so a role that never adds it shares the list of the
    node's descendants, and a node's lists are dropped once its last parent
    is built: on the largest group of (4,4,4,4), 88,502 facets, the fold
    peaks at 14.4 MB of traced memory against 22.5 MB when every node's
    lists were kept.  The group is sorted once by mask: within a group
    the dual supports, read from the greatest variable down, are compared
    position by position with the greater variable winning.  The smallest
    vertex id in the symmetric difference decides that; it is the highest
    differing bit of the two masks, and the facet holding it comes later.
    """
    grid, greatest, root = _grid(spec), spec.alphas[-1], (1, spec.c)
    shift = math.comb(spec.c, 2)
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
    last = {kid: node for node, ways in rules.items() for kids, *_ in ways for kid in kids}
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
        for kid in {kid for kids, *_ in ways for kid in kids if last[kid] == (a, b)}:
            del folded[kid]  # its last parent is built
    group = folded.pop(root)[TOP]
    group.sort()
    low = ~(-1 << shift)
    return [e >> shift for e in group], [e & low for e in group]


def _partners(spec: ScrollSpec) -> dict[int, dict[int, int]]:
    """Per group, larger alpha first, its partner groups, each with the
    unit u of the group's leaf set L whose ridges that partner's facets may
    hold: the groups whose leaf sets hold L - u.

    A facet's units are exactly its group's leaf set (``_check_group``),
    and all leaf sets have d + 2 units.  Let G hold the ridge F - v of a
    facet F of the group with leaf set L, G != F.  If v is no unit, G holds
    every unit of L, hence no other, so G is in F's group; and if every
    facet of the group holds v, G does, so G = F.  If v is a unit, G holds
    L - v and a unit w != v, so G is in a partner group.  ``InternalError``
    when two groups share a leaf set, which would let facets of two groups
    coincide, and when a partner is not at alpha ± 1.  Then no unit has two
    partners, which would be partners of each other at alpha ± 2, so the
    pair of a unit's group and its partner holds every facet holding its
    ridges.  Kept on the spec."""

    def compute() -> dict[int, dict[int, int]]:
        leaves = {alpha: _mask(spec, leaves_profile(spec, alpha).leaves) for alpha in spec.alphas}
        if len(set(leaves.values())) < len(leaves):
            raise InternalError(f"two groups of {spec} share a leaf set")
        partners = {}
        for alpha in reversed(spec.alphas):
            units = {beta: leaves[alpha] & ~other for beta, other in leaves.items()}
            partners[alpha] = {beta: u for beta, u in units.items() if u.bit_count() == 1}
            for beta in partners[alpha]:
                if abs(beta - alpha) != 1:
                    raise InternalError(
                        f"the groups at alpha={alpha} and alpha={beta} of {spec} are partners, "
                        "but not adjacent"
                    )
        return partners

    return per_spec(spec, "partners", compute)


def _counted(spec: ScrollSpec) -> tuple[int, dict[int, int]]:
    """``count_facets(spec)`` and the facet count of each group, larger
    alpha first (``_group_counts``), once the spec passes the guards of
    every fold: ``count_facets``'s, ``CapacityError`` over
    ``MAX_ENUMERATED_FACETS`` facets, and ``InternalError`` from ``_partners``."""
    expected = count_facets(spec)
    if expected > MAX_ENUMERATED_FACETS:
        raise CapacityError(
            f"{spec} has {expected:,} facets, over the enumeration budget of "
            f"{MAX_ENUMERATED_FACETS:,} facets; choose a smaller scroll type"
        )
    _partners(spec)
    return expected, _group_counts(spec)


def _check_group(spec: ScrollSpec, alpha: int, masks: Sequence[int], count: int) -> None:
    """``InternalError`` unless ``masks``, a fold of the group at ``alpha``,
    lists each of its ``count`` facets once, with c + d vertices: ``count``
    masks of c + d bits each, strictly increasing, whose units, the
    intervals (a, a+1) a facet holds, are the group's leaf set.  With
    distinct leaf sets (``_partners``), no facet is in two groups.  One bit
    count, one comparison and one AND a facet."""
    if len(masks) != count:
        raise InternalError(
            f"folded {len(masks)} facets of the group at alpha={alpha} of {spec}, counted {count}"
        )
    size = spec.c + spec.d
    sizes = set(map(int.bit_count, masks))
    if sizes != {size}:
        raise InternalError(f"facets of sizes {sorted(sizes)}, not {size}, for {spec}")
    if not all(map(operator.lt, masks, itertools.islice(masks, 1, None))):
        raise InternalError(
            f"the masks of the group at alpha={alpha} of {spec} do not strictly increase"
        )
    units = _mask(spec, [(a, a + 1) for a in range(1, spec.c)])
    held = _mask(spec, leaves_profile(spec, alpha).leaves)
    if set(map(units.__and__, masks)) != {held}:
        raise InternalError(
            f"a facet of the group at alpha={alpha} of {spec} holds other units than its leaves"
        )


def _check_subcomplex(spec: ScrollSpec, alpha: int, masks: Sequence[int]) -> None:
    """``VerificationError`` unless every facet of the group at ``alpha``
    is a face of the counted complex Γ (``_face_vector``).

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

    So Δ ⊆ Γ, checked here group by group, and duplicate-free facets of
    c + d vertices (``_check_group``) make Δ's facets facets of Γ; Δ = Γ
    exactly when they are as many, which the identity of ``_certify``
    implies.  A facet lies in Γ when it holds no two crossing intervals
    a < a' < b < b', one AND of rows of the group's ``_bitset_index`` per
    crossing pair, and no vertex not good for its group, one OR over the
    group's masks.
    """

    def crossing() -> list[tuple[Vertex, Vertex]]:
        pairs = itertools.combinations(vertex_set(spec), 2)
        return [(v, w) for v, w in pairs if v[0] < w[0] < v[1] < w[1]]

    grid, rows = _grid(spec), _bitset_index(masks)
    rows += [0] * (math.comb(spec.c, 2) - len(rows))
    for (a, b), (a2, b2) in per_spec(spec, "crossing", crossing):
        if rows[grid[a][b].bit_length() - 1] & rows[grid[a2][b2].bit_length() - 1]:
            raise VerificationError(
                f"a facet of {spec} holds ({a}, {b}) and ({a2}, {b2}), which cross"
            )
    good = sum(grid[a][b] for (a, b), bits in _good_groups(spec).items() if bits >> alpha & 1)
    outside = functools.reduce(operator.or_, masks, 0) & ~good
    if outside:
        raise VerificationError(
            f"a facet of {spec} holds {min(_vertices(spec, outside))}, not good for its group"
        )


def _checked_fold(spec: ScrollSpec, alpha: int) -> tuple[list[int], list[int]]:
    """The unmutated ``_fold`` of the group at ``alpha`` with the checks
    certification makes on every group it folds: ``_check_group`` against
    the group's count (``_group_counts``, ``InternalError``) and Δ ⊆ Γ
    (``_check_subcomplex``, ``VerificationError``).  Every reader of the
    facets folds its groups here."""
    masks, predicted = _fold(spec, alpha, None)
    _check_group(spec, alpha, masks, _group_counts(spec)[alpha])
    _check_subcomplex(spec, alpha, masks)
    return masks, predicted


def _facets(spec: ScrollSpec, alpha: int | None = None) -> Iterator[Facet]:
    """The ``Facet`` views of every facet, or of the group at ``alpha``,
    greatest first in the facet order, each built as it is yielded.

    Once the spec passes ``_counted``'s guards, each group is folded and
    checked (``_checked_fold``) when the first of its views is asked for,
    and dropped once its last is yielded; a reader that stops early folds
    no later group.  After the last group, ``InternalError`` unless the
    groups held ``count_facets`` facets, as certification checks.
    ``alpha`` is not checked here."""
    expected, groups = _counted(spec)
    listed = 0
    for beta in groups if alpha is None else (alpha,):
        masks = _checked_fold(spec, beta)[0]
        listed += len(masks)
        for mask in masks:
            yield Facet(vertices=_vertices(spec, mask), alpha=beta, spec=spec)
        del masks  # before the next group is folded
    if alpha is None and listed != expected:
        raise InternalError(f"enumerated {listed} facets for {spec}, counted {expected}")


def enumerate_facets(spec: ScrollSpec) -> list[Facet]:
    """All facets of the initial complex, greatest first in the facet order.

    The list is grouped by window position (larger alpha first) and ordered
    within a group by the dual-monomial comparison of ``precedes``.  The
    result is deterministic; each call folds and checks every group again
    and builds its own views (``_facets``).
    """
    return list(_facets(spec))


def first_facet(spec: ScrollSpec, alpha: int) -> Facet:
    """The greatest facet of the group at ``alpha``.

    Only that group is folded and checked (``_facets``), and the view of
    its first facet built.  Raises for a spec without a complex or over
    the facet budget (``_counted``), then for an alpha that is not an
    ``int`` in [1, c-d-2].
    """
    _counted(spec)
    leaves_profile(spec, alpha)
    return next(_facets(spec, alpha))


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
    if _mask(spec, next(_facets(spec)).vertices) not in listed:
        raise DomainError("facet list is missing the greatest facet; incomplete input")
    f = _mask(spec, facet.vertices)
    earlier = (m for g, m in zip(all_facets, listed) if precedes(g, facet))
    return frozenset(_vertices(spec, d) for d in _minimal_masks(f & ~m for m in earlier))


#: ``_certified`` cuts the groups into two runs, the first certified in a
#: forked child, only on specs with at least this many facets; below it,
#: where ``os.fork`` is missing or fails, and in a process running other
#: threads, it certifies both runs in one process.  A fork pays for itself
#: in wall time on large specs, each process pinned to its own CPU: with
#: it, ``invariants`` on (2,2,2,2,2,2), 38,012 facets, took 0.20 s against
#: 0.25 s in one process, for 0.27 s of CPU against 0.24 s (median of 8
#: alternating runs), on (2,2,4,4), 20,696 facets, 0.171 s against 0.178 s
#: (10 runs), and on (4,4,4,4) 1.5 s against 2.6 s, for 2.8 s of CPU
#: against 2.6 s (median of 3).  On small specs it costs time: forked at
#: every size, ``invariants`` on (12,), 3,962 facets, took 0.129 s against
#: 0.124 s, for 11 % more CPU, and on (2,2,2,4) and (3,3,4), lines of the
#: benchmark's ``batch``, 0.123 and 0.113 s against 0.114 and 0.107 s
#: (median of 10 alternating runs, 2-core host).
MIN_FORKED_FACETS = 10_000

#: ``_certify`` runs the diagnostic scan only on specs with at most this many
#: facets, and raises ``VerificationError`` over it.  Only an engine defect
#: reaches the scan, which costs about 0.4 µs per pair of facets on a 2-core
#: host: 3.2 s for (12,), 3,962 facets, and 10.7 s for (13,), 8,034; so this
#: budget stops it within about 20 s, where 1,000,000 facets would take days.
MAX_SCANNED_FACETS = 10_000


@dataclass(slots=True)
class _Group:
    """A group of facets as a run holds it, in the certified order: their
    masks, predictions and candidate generators (``tested``), by position;
    the vertices whose ridges other facets of the group may hold
    (``within``), the units whose ridges a partner group's facets may hold
    (``cross``), how many partner groups it has still to meet
    (``waiting``), and by position the candidates found to be no
    generators so far (``missed``)."""

    alpha: int
    masks: list[int]
    predicted: list[int]
    tested: list[int]
    within: int
    cross: int
    waiting: int
    missed: dict[int, int] = field(default_factory=dict)


def _group(
    spec: ScrollSpec, mutation: str | None, alpha: int, positions: Sequence[int], in_place: bool
) -> _Group:
    """The group at ``alpha``, folded and checked as every reader checks it
    (``_checked_fold``), in the certified order ``positions`` of its fold's
    order, and under ``c2`` and ``b2`` the mutated fold's masks checked
    against the unmutated ones (``InternalError``).

    A facet's candidates are its unmutated prediction when ``in_place``,
    that is when this group and every later one are in the enumeration's
    own order, so that a facet's earlier facets are exactly those of the
    enumeration; elsewhere they are all its vertices, so any order is
    certified."""
    masks, unmutated = _checked_fold(spec, alpha)
    predicted = unmutated
    if mutation in ("c2", "b2"):  # swap-groups only reorders the groups
        folded, predicted = _fold(spec, alpha, mutation)
        if folded != masks:
            raise InternalError(
                f"the {mutation} fold of the group at alpha={alpha} of {spec} differs from "
                "its unmutated fold"
            )
    tested = unmutated if in_place else masks
    if positions != range(len(masks)):
        masks, predicted, tested = ([s[p] for p in positions] for s in (masks, predicted, tested))
    everything = (1 << math.comb(spec.c, 2)) - 1
    partners = _partners(spec)[alpha]
    return _Group(
        alpha=alpha,
        masks=masks,
        predicted=predicted,
        tested=tested,
        within=everything ^ functools.reduce(operator.and_, masks),
        cross=sum(partners.values()),
        waiting=len(partners),
    )


def _missed(segments: Sequence[tuple[_Group, int]]) -> None:
    """One pass over the ridges F - u, u in a scope, of the facets of each
    ``(group, scope)`` in ``segments``, in the certified order: adds to each
    group's ``missed``, by position, the candidates u whose ridge F - u lies
    in no earlier facet of the pass.  A pass holds every facet that can
    hold its ridges (``_partners``).

    Each facet acts on every ridge of the pass that it holds: it adds the
    ridge of a candidate to ``pending`` and drops the others.  So after the
    backward pass a ridge is pending exactly when its earliest owner tests
    it, and the forward pass finds that owner, until none is pending."""
    pending: set[int] = set()
    add, discard = pending.add, pending.discard
    for group, scope in reversed(segments):
        for f, tested in zip(reversed(group.masks), reversed(group.tested)):
            held = f & scope
            if not held:
                continue
            scoped = tested & held
            drops = held ^ scoped
            while drops:
                u = drops & -drops
                drops ^= u
                discard(f ^ u)
            while scoped:
                u = scoped & -scoped
                scoped ^= u
                add(f ^ u)
    for group, scope in segments if pending else ():
        for i, (f, tested) in enumerate(zip(group.masks, group.tested)):
            rest = f & scope & tested
            lost = 0
            while rest:
                u = rest & -rest
                rest ^= u
                if f ^ u in pending:  # this facet is the ridge's earliest owner
                    pending.remove(f ^ u)
                    lost |= u
            if lost:
                group.missed[i] = group.missed.get(i, 0) | lost
                if not pending:
                    return


# One facet's entry in a pass, ``_certified``'s or ``_scanned``'s: its
# group's alpha, its mask, the mask of its generators, the mask of its
# prediction, and its minimal difference masks when the pass is the scan,
# else None.
Colon = tuple[int, int, int, int, frozenset[int] | None]


def _tally(j: int, group: _Group, counts: list[int], kept: list[tuple[int, Colon]]) -> None:
    """Add the facets of ``group``, the ``j``-th of the certified order, to
    the degree counts ``counts``, and to ``kept``, each with ``j``, the
    entries of those whose generators differ from their prediction.  A
    facet's generators are its candidates whose ridges are looked up and
    held by an earlier facet."""
    scope, missed = group.within | group.cross, group.missed
    gens = [tested & scope for tested in group.tested]
    for i, lost in missed.items():
        gens[i] &= ~lost
    for degree, count in collections.Counter(map(int.bit_count, gens)).items():
        counts[degree] += count
    facets = zip(group.masks, gens, group.predicted)
    failing = itertools.compress(facets, map(operator.ne, gens, group.predicted))
    kept += ((j, (group.alpha, *facet, None)) for facet in failing)


def _hold(
    spec: ScrollSpec,
    j: int,
    group: _Group,
    held: dict[int, _Group],
    counts: list[int],
    kept: list[tuple[int, Colon]],
) -> None:
    """Hold ``group``, the ``j``-th of the certified order, next to the
    groups ``held`` by index: run the cross pass of the pair it makes with
    each held partner, the earlier group of the certified order first
    (``_missed``), then tally (``_tally``) and drop every group that has
    met all its partners, keeping its failing entries in ``kept``."""
    partners = _partners(spec)
    held[j] = group
    for i, other in held.items():
        if other.alpha in partners[group.alpha]:
            pair = (other, group) if i < j else (group, other)
            _missed([(g, g.cross & partners[g.alpha][h.alpha]) for g, h in (pair, pair[::-1])])
            other.waiting -= 1
            group.waiting -= 1
    for i in [i for i, other in held.items() if not other.waiting]:
        _tally(i, held.pop(i), counts, kept)


def _run(
    spec: ScrollSpec, mutation: str | None, order: Order, part: range
) -> tuple[list[int], list[tuple[int, Colon]], dict[int, tuple]]:
    """Fold, check and certify the groups ``order[j]``, j in ``part``, in
    turn (``_group``): each gets its within-group pass (``_missed``) and is
    held (``_hold``) until it has met every partner group.  On the
    enumeration's order a run so holds two groups at a time, plus those
    whose partner is in the other run.

    Returns the degree counts and the failing entries of the groups tallied,
    each entry with its group's index, and the groups still waiting by index,
    each as the plain tuple of its fields that a pipe takes (``two_halves``)."""
    enumeration = [(alpha, range(count)) for alpha, count in _group_counts(spec).items()]
    start = len(order)  # from this index on, every group is in the enumeration's order
    while start and order[start - 1] == enumeration[start - 1]:
        start -= 1
    counts = [0] * (spec.c + spec.d + 1)
    kept: list[tuple[int, Colon]] = []
    held: dict[int, _Group] = {}
    for j in part:
        alpha, positions = order[j]
        group = _group(spec, mutation, alpha, positions, j >= start)
        _missed([(group, group.within)])
        _hold(spec, j, group, held, counts, kept)
    fields = operator.attrgetter(*_Group.__slots__)
    return counts, kept, {j: fields(group) for j, group in held.items()}


def _cut(sizes: Sequence[int]) -> int:
    """How many groups, at least one and not all, the first of two runs
    takes, given the facet counts of the groups in the certified order: the
    number that brings the two runs' facet counts closest."""
    total, prefix = sum(sizes), list(itertools.accumulate(sizes))
    return min(range(1, len(sizes)), key=lambda k: abs(2 * prefix[k - 1] - total))


def _certified(
    spec: ScrollSpec, mutation: str | None, cut: int | None = None
) -> tuple[list[int], list[Colon]]:
    """The degree counts of the facets' counted generators in the order
    certified under ``mutation`` (``_facet_order``), and the ``Colon``
    entries, in that order, of the facets whose generators differ from
    their prediction.

    The groups are cut into two runs (``_run``), the first ``cut`` in the
    order and the rest; by default by ``_cut`` on specs with at least
    ``MIN_FORKED_FACETS`` facets, and none on smaller ones, which run in
    one.  When there are two, the first goes to a forked child
    (``two_halves``), the child reaped before this returns.  The groups
    that each run leaves waiting on a partner in the other are held here
    (``_hold``) after the join.  Unmutated, ``c2`` and ``b2`` runs miss no
    candidate.  ``InternalError`` unless the groups hold ``count_facets``
    facets.

    Every counted generator u has an earlier facet holding F - u, found by a
    lookup, so the counted set is part of the true one, whatever the
    prediction and even were a scope too small; ``_certify`` decides with
    the face identity that it is all of it.
    """
    expected, counts_of = _counted(spec)
    order = _facet_order(spec, mutation)
    if cut is None:
        sizes = [counts_of[alpha] for alpha, _ in order]
        cut = _cut(sizes) if expected >= MIN_FORKED_FACETS else 0

    first = functools.partial(_run, spec, mutation, order, range(cut))
    second = functools.partial(_run, spec, mutation, order, range(cut, len(order)))
    (theirs, their_kept, their_waiting), (counts, kept, waiting) = two_halves(
        first, second, cut > 0
    )
    held: dict[int, _Group] = {}
    for j, fields in {**their_waiting, **waiting}.items():
        _hold(spec, j, _Group(*fields), held, counts, kept)
    counts = list(map(operator.add, theirs, counts))
    if sum(counts) != expected:
        raise InternalError(f"enumerated {sum(counts)} facets for {spec}, counted {expected}")
    kept = sorted(their_kept + kept, key=operator.itemgetter(0))  # stable: keeps each group's order
    return counts, [entry for _, entry in kept]


def _ordered(spec: ScrollSpec, mutation: str | None) -> Iterator[tuple[int, int, int]]:
    """Every facet in the order certified under ``mutation``: its group's
    alpha, its mask and the mask of its prediction, one fold a group."""
    for alpha, positions in _facet_order(spec, mutation):
        masks, predicted = _fold(spec, alpha, mutation)
        for p in positions:
            yield alpha, masks[p], predicted[p]


def _scanned(spec: ScrollSpec, mutation: str | None) -> Iterator[Colon]:
    """The diagnostic pass, quadratic in the facet count: per facet of
    ``_ordered``, its ``Colon`` with the mask of its singleton generators
    and its minimal difference masks against every earlier facet, kept in
    one list (the scan of ``colon_generators``)."""
    earlier: list[int] = []
    for alpha, f, predicted in _ordered(spec, mutation):
        diffs = _minimal_masks(f & ~m for m in earlier)
        earlier.append(f)
        yield alpha, f, sum(d for d in diffs if d.bit_count() == 1), predicted, diffs


def _all_reports(
    spec: ScrollSpec, mutation: str | None, failing: dict[int, ColonReport]
) -> Iterator[ColonReport]:
    """The ``ColonReport`` of every facet of ``_ordered``: a facet in
    ``failing``, by mask, takes its report from there; any other passed,
    so its generators are its prediction."""
    for alpha, f, predicted in _ordered(spec, mutation):
        yield failing[f] if f in failing else _report(spec, alpha, f, predicted, predicted, None)


def _report(
    spec: ScrollSpec, alpha: int, mask: int, gens: int, predicted: int, diffs: frozenset[int] | None
) -> ColonReport:
    """The ``ColonReport`` of a ``Colon`` entry; a certified facet's colon
    ideal is generated by ``gens``."""
    if diffs is None:
        diffs = frozenset(1 << k for k in range(gens.bit_length()) if gens >> k & 1)
    linear = all(d.bit_count() == 1 for d in diffs)
    return ColonReport(
        facet=Facet(vertices=_vertices(spec, mask), alpha=alpha, spec=spec),
        computed_generators=frozenset(_vertices(spec, d) for d in diffs),
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
    result is kept on ``spec``.  ``VerificationError`` when the enumerated
    complex is not the counted one (``_check_subcomplex``, ``_face_h``).
    """
    require_complex(spec)
    _check_mutation(mutation)
    if mutation is None:
        return per_spec(spec, "certification", lambda: _certify(spec, None))
    return _certify(spec, mutation)


def _face_h(spec: ScrollSpec) -> tuple[int, ...]:
    """The h-vector of the counted complex Γ, from its f-vector
    (``_face_vector``), kept on the spec; ``VerificationError`` unless its
    faces come in c + d sizes, the size of every facet of Γ
    (``_check_subcomplex``)."""

    def compute() -> tuple[int, ...]:
        f, size = _face_vector(spec), spec.c + spec.d
        if len(f) != size:
            raise VerificationError(f"the faces of {spec} come in {len(f)} sizes, not {size}")
        return numerator_from_face_counts(f, size)

    return per_spec(spec, "face_h", compute)


def _certify(spec: ScrollSpec, mutation: str | None) -> VerificationResult:
    """Certify by the face identity that the order certified under
    ``mutation`` is a shelling: the degree counts of ``_certified`` against
    the h-vector of the counted complex (``_face_h``).

    Let R_j be the vertices u of the j-th facet F_j whose ridge F_j - u lies
    in an earlier facet, and R'_j ⊆ R_j the counted generators.  Every face
    of Δ lies in the interval [R_j, F_j] of the first facet that holds it,
    so S = sum_j x^|R_j| (1+x)^(c+d-|R_j|) >= f_Δ coefficientwise, with
    equality exactly when the order is a shelling (Björner's partition
    form); S' with R'_j in place of R_j is at least S, and equals it only
    when R' = R.  The identity says that the counts of the |R'_j| are the
    h-vector of Γ, that is S' = f_Γ.  Its top coefficient makes Δ's facets,
    which are distinct facets of Γ (``_check_group``, ``_check_subcomplex``),
    all of Γ's, so Δ = Γ; then S' = f_Δ forces R' = R and a shelling.  Each
    facet's colon ideal is generated by its counted vertices, and a facet
    fails only when those differ from its prediction.

    When the identity fails, ``_scanned`` gives every facet's colon ideal
    and the failing reports are exact; if the scan finds a shelling all the
    same, Δ is not Γ (``VerificationError``).  Over ``MAX_SCANNED_FACETS``
    facets the failed identity is a ``VerificationError`` with both
    h-vectors, without the scan.
    """
    counts, kept = _certified(spec, mutation)
    facet_count = sum(counts)
    degree_counts, failing = _trimmed(counts), [_report(spec, *entry) for entry in kept]
    h = _face_h(spec)
    scanned = degree_counts != h
    if scanned and facet_count > MAX_SCANNED_FACETS:
        raise VerificationError(
            f"the faces of {spec} give h = {h}, but its generators count {degree_counts}; "
            f"its {facet_count:,} facets are over the diagnostic scan's budget of "
            f"{MAX_SCANNED_FACETS:,}"
        )
    if scanned:
        counts = [0] * (spec.c + spec.d + 1)
        failing = []
        for alpha, f, gens, predicted, diffs in _scanned(spec, mutation):
            # A scanned facet is linear when its minimal differences are its
            # singleton generators.
            linear = len(diffs) == gens.bit_count()
            counts[gens.bit_count()] += linear
            if not linear or gens != predicted:
                failing.append(_report(spec, alpha, f, gens, predicted, diffs))
        degree_counts = _trimmed(counts)
        if all(report.linear for report in failing) and degree_counts != h:
            raise VerificationError(f"the faces of {spec} give h = {h}, not {degree_counts}")
    return VerificationResult(
        spec=spec,
        facet_count=facet_count,
        degree_counts=degree_counts,
        failing=tuple(failing),
        mutation=mutation,
        scanned=scanned,
    )
