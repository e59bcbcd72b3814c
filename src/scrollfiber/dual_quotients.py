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
over the ordered facets with a dict of swap keys therefore finds every
singleton generator.  A generator of higher degree exists exactly when some
earlier facet contains all singleton generators of F; the bitset index
detects that, and only such facets fall back to the quadratic scan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, InternalError, PreconditionError
from .facet_complex import (
    Facet,
    Vertex,
    _bitset_index,
    _enumerated,
    _facet_index,
    _leaf_set,
    _vertex_ids,
    _walk,
    descending_order_key,
)
from .scroll_model import ScrollSpec, per_spec, require_complex

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
    spec: ScrollSpec
    reports: tuple[ColonReport, ...]
    passed: bool
    mutation: str | None = None

    def failures(self) -> tuple[ColonReport, ...]:
        return tuple(r for r in self.reports if not (r.linear and r.matches_prediction))


def dual_support(facet: Facet) -> tuple[Vertex, ...]:
    """Complement V \\ F listed from the greatest variable downwards."""
    vs = facet.vertices
    return tuple(v for v in _vertex_ids(facet.spec) if v not in vs)


def _swapped_groups_key(facet: Facet):
    top = facet.spec.alphas[-1]
    alpha = {top: top - 1, top - 1: top}.get(facet.alpha, facet.alpha)
    return (-alpha, descending_order_key(facet)[1])


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


def predict_LG(facet: Facet, *, mutation: str | None = None) -> frozenset[Vertex]:
    """Predicted linear colon generators of a facet, read off its tree.

    Within the column of vertices sharing a left endpoint a, sorted by right
    endpoint: the topmost entry never generates; a middle entry generates
    exactly when its node has a right sibling or two children; the bottom
    entry of a column of size >= 2 always generates when it is not a unit,
    and when it is the unit (a, a+1) it generates exactly for a = alpha in
    every group but the greatest.

    The walk ``facet_complex._walk`` validates the facet against the leaf
    set at ``facet.alpha`` (``StructuralError`` otherwise) and places every
    node: it heads its column unless it is a split's left child or a right
    drop's child, and it is the bottom when it is a leaf or a left drop.
    """
    _check_mutation(mutation)
    spec = facet.spec
    alpha = facet.alpha
    leaves = _leaf_set(spec, alpha)
    unit_generates = alpha != spec.alphas[-1] or mutation == "c2"
    split_generates = mutation != "b2"
    out: set[Vertex] = set()
    for node, kids, top, sibling in _walk(facet.vertices, spec.c, leaves):
        if top:
            continue
        a, b = node
        if not kids or kids[0][0] != a:  # bottom of its column
            if b != a + 1 or (a == alpha and unit_generates):
                out.add(node)
        elif sibling or (split_generates and len(kids) == 2):
            out.add(node)
    return frozenset(out)


def _minimal_sets(sets: Iterable[frozenset[Vertex]]) -> frozenset[frozenset[Vertex]]:
    kept: list[frozenset[Vertex]] = []
    for s in sorted(set(sets), key=len):
        if not any(k <= s for k in kept):
            kept.append(s)
    return frozenset(kept)


def _minimal_diffs(facet: Facet, earlier: Iterable[Facet]) -> frozenset[frozenset[Vertex]]:
    return _minimal_sets(facet.vertices - g.vertices for g in earlier)


def colon_generators(facet: Facet, all_facets: Sequence[Facet]) -> frozenset[frozenset[Vertex]]:
    """Inclusion-minimal difference sets of ``facet`` against all greater
    facets in ``all_facets`` -- the full quadratic scan.

    This is the audit path; ``verify_linear_quotients`` reaches the same
    sets through an inverted index.  The list must contain the globally
    greatest facet, otherwise it cannot be complete.
    """
    greatest = _enumerated(facet.spec)[0]
    if not any(f.vertices == greatest.vertices for f in all_facets):
        raise DomainError("facet list is missing the greatest facet; incomplete input")
    return _minimal_diffs(facet, (g for g in all_facets if precedes(g, facet)))


def _report_for(
    facet: Facet,
    computed: frozenset[frozenset[Vertex]],
    mutation: str | None,
) -> ColonReport:
    predicted = predict_LG(facet, mutation=mutation)
    linear = all(len(s) == 1 for s in computed)
    singletons = frozenset(next(iter(s)) for s in computed if len(s) == 1)
    return ColonReport(
        facet=facet,
        computed_generators=computed,
        predicted_LG=predicted,
        linear=linear,
        matches_prediction=linear and singletons == predicted,
    )


def _singleton_generators(facets: Sequence[Facet]) -> list[list[int]]:
    """Vertex ids u of each facet F for which {u} = F \\ G for an earlier G.

    Every facet has c + d vertices, so an earlier G containing F \\ {u} is
    F \\ {u} + {w} for some vertex w, and F and G share the swap key: the
    vertex-id mask of F \\ {u}.  The keys are kept in a dict, first facet
    wins, for one pass; ``InternalError`` if a facet has another size.
    """
    spec = facets[0].spec
    vid = _vertex_ids(spec)
    size = spec.c + spec.d
    first: dict[int, int] = {}
    out: list[list[int]] = []
    for rank, f in enumerate(facets):
        if len(f.vertices) != size:
            raise InternalError(f"facet of size {len(f.vertices)} != {size} for {spec}")
        ids = [vid[v] for v in f.vertices]
        mask = 0
        for u in ids:
            mask |= 1 << u
        out.append([u for u in ids if first.setdefault(mask ^ (1 << u), rank) != rank])
    return out


def _indexed_reports(facets: Sequence[Facet], mutation: str | None) -> list[ColonReport]:
    """Reports from the swap-key singletons (``_singleton_generators``).

    The singleton generators are all the minimal generators unless some
    earlier facet contains every one of them, read off the bitset index;
    only such facets fall back to the quadratic scan.
    """
    spec = facets[0].spec
    vindex = _facet_index(spec) if facets is _enumerated(spec) else _bitset_index(facets)
    singles = [frozenset((v,)) for v in _vertex_ids(spec)]
    reports: list[ColonReport] = []
    seen = 0
    for rank, (f, gens) in enumerate(zip(facets, _singleton_generators(facets))):
        witness = seen
        for g in gens:
            witness &= vindex[g]
        if witness:
            computed = _minimal_diffs(f, facets[:rank])
        else:
            computed = frozenset(singles[g] for g in gens)
        reports.append(_report_for(f, computed, mutation))
        seen |= 1 << rank
    return reports


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
    facets = _enumerated(spec)
    if mutation == "swap-groups":
        facets = sorted(facets, key=_swapped_groups_key)
    reports = _indexed_reports(facets, mutation)
    passed = all(r.linear and r.matches_prediction for r in reports)
    return VerificationResult(spec=spec, reports=tuple(reports), passed=passed, mutation=mutation)
