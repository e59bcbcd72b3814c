"""Numerical invariants of the fiber cone via the certified facet order.

The h-vector is read off the certified quotient degrees.  ``_certified_faces``
checks it at every degree against the face count of ``facet_complex``, which
reads no facet, and refuses to report (``VerificationError``) on a mismatch.
Regularity is the h-degree, dimension is the facet size, the a-invariant their
difference, the reduction number equals the regularity, and Gorensteinness is
decided by palindromicity of the h-vector, all compared against closed forms.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .dual_quotients import ColonReport, _enumerated, _incidence, verify_linear_quotients
from .errors import CapacityError, DomainError, PreconditionError, VerificationError
from .facet_complex import Facet, _face_vector, _good_groups, _mask, vertex_set
from .scroll_model import ScrollSpec, complex_regime, per_spec

#: ``face_counts`` refuses to visit more faces than this (``CapacityError``);
#: its walk counts them as it visits them.  The faces of the largest size are
#: counted, not visited.  A visit costs about 0.2 us on a 2-core host
#: ((16,) to size 6: 3.2M visits in 0.56 s), so a walk stops within about
#: 20 s.
MAX_FACE_NODES = 100_000_000


@dataclass(frozen=True, slots=True)
class HVector:
    """Shelling h-vector: h[k] counts facets of quotient degree k."""

    h: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.h) - 1

    @property
    def total(self) -> int:
        return sum(self.h)

    @property
    def is_palindromic(self) -> bool:
        return self.h == self.h[::-1]


@dataclass(frozen=True, slots=True, eq=False)
class HilbertData:
    """The face ring's certified h-polynomial and f-vector: ``f[k-1]``
    counts the faces of k vertices."""

    dim: int
    h_polynomial: HVector
    f: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class InvariantReport:
    c: int
    d: int
    facet_count: int | None
    h_vector: tuple[int, ...] | None
    dim: int
    reg: int
    a_invariant: int
    reduction_number: int
    gorenstein: bool
    closed_form_match: bool
    mode: str


def h_vector_from_quotients(reports: Sequence[ColonReport]) -> HVector:
    """h[k] = number of facets with exactly k (singleton) colon generators.

    Refuses to compute from a non-linear certification or from no reports.
    """
    if not reports:
        raise PreconditionError("no colon reports: the h-vector needs at least one facet")
    counts: dict[int, int] = {}
    for report in reports:
        if not report.linear:
            raise VerificationError("non-linear colon report present; h-vector undefined")
        k = len(report.computed_generators)
        counts[k] = counts.get(k, 0) + 1
    top = max(counts)
    h = [counts.get(k, 0) for k in range(top + 1)]
    while len(h) > 1 and h[-1] == 0:
        h.pop()
    return HVector(h=tuple(h))


def face_counts(facets: Sequence[Facet], max_size: int) -> tuple[int, ...]:
    """Count distinct faces of each size 1..max_size below the given facets.

    The faces are counted as cliques of the facets' 1-skeleton, after
    ``_certify_flag`` has certified that the maximal cliques of that graph
    are exactly the given facets, so the clique complex is the complex the
    facets generate.

    Returns:
        f where f[k-1] is the number of faces with k vertices.

    Raises:
        DomainError: the facets belong to different scrolls.
        PreconditionError: ``max_size`` is below 1.
        VerificationError: the facets do not form a flag complex (or list a
            face twice, or a face below another).
        CapacityError: the walk would visit more than ``MAX_FACE_NODES``
            faces.
    """
    if any(f.spec != facets[0].spec for f in facets):
        raise DomainError("cannot count the faces of facets of several scrolls")
    masks = [_mask(f.spec, f.vertices) for f in facets]
    adj = [0] * max(map(int.bit_length, masks), default=0)
    for mask in masks:
        rest = mask
        while rest:
            top = rest.bit_length() - 1
            rest ^= 1 << top
            adj[top] |= mask ^ (1 << top)
    _certify_flag(adj, masks)
    return _clique_walk(adj, max_size)


def _present(adj: Sequence[int]) -> int:
    """The mask of the vertices with a neighbour in ``adj``: every vertex
    of a facet with two or more vertices."""
    return sum(1 << pos for pos, nbrs in enumerate(adj) if nbrs)


def _certify_flag(adj: Sequence[int], masks: Sequence[int]) -> None:
    """Certify that the clique complex of the graph ``adj`` is the complex
    with facets ``masks``: every maximal clique is one of the masks, and
    there are as many maximal cliques as masks.

    Both hold exactly when the maximal cliques are the masks, so a wrong
    graph fails too: an extra edge yields a clique that is no mask, a
    missing edge loses a mask.  The cliques come from Bron-Kerbosch with
    the Tomita-Tanaka-Takahashi pivot over int bitsets, each maximal clique
    once; ``VerificationError`` at the first clique that is no mask.
    """
    facets = set(masks)
    found = 0
    vertices = _present(adj)
    # Each entry is (clique, candidates, excluded): the cliques that extend
    # ``clique`` by candidates, maximal when no excluded vertex extends them.
    stack = [(0, vertices, 0)] if vertices else []
    while stack:
        clique, candidates, excluded = stack.pop()
        while candidates:
            # Pivot on a vertex with the most neighbours among the candidates;
            # every maximal clique here holds it or one of its non-neighbours.
            size = candidates.bit_count()
            pool, best, pivot = candidates | excluded, -1, 0
            while pool:
                top = pool.bit_length() - 1
                pool ^= 1 << top
                k = (candidates & adj[top]).bit_count()
                if k > best:
                    best, pivot = k, adj[top]
                    if k >= size - 1:
                        break  # no vertex does better
            if best == size:
                break  # an excluded vertex extends every clique here
            branch = candidates & ~pivot
            while True:
                top = branch.bit_length() - 1
                bit = 1 << top
                branch ^= bit
                if not branch:
                    break  # the last branch continues this loop
                stack.append((clique | bit, candidates & adj[top], excluded & adj[top]))
                candidates ^= bit
                excluded |= bit
            clique |= bit
            candidates &= adj[top]
            excluded &= adj[top]
        if candidates or excluded:
            continue  # not maximal
        if clique not in facets:
            raise VerificationError(
                f"the complex is not flag: a maximal clique of {clique.bit_count()} "
                "vertices of its 1-skeleton is no facet"
            )
        found += 1
    if found != len(masks):
        raise VerificationError(
            f"the complex is not flag: its 1-skeleton has {found:,} maximal cliques "
            f"for {len(masks):,} facets"
        )


def _clique_walk(adj: Sequence[int], max_size: int) -> tuple[int, ...]:
    """Cliques of each size 1..max_size of the graph ``adj``, generated once
    each: a clique grows from the highest bit down and extends only by
    common neighbours of its vertices below its lowest bit, that is above
    its largest vertex.  The cliques of the last size are counted with
    ``bit_count()``, not visited; ``MAX_FACE_NODES`` bounds the cliques
    that are visited."""
    if max_size < 1:
        raise PreconditionError(f"face sizes start at 1, got max_size={max_size}")
    counts = [0] * (max_size + 1)
    visited = 0
    # Each entry is (candidates, size): a clique of ``size`` vertices and the
    # vertices that extend it by one.
    stack = [(_present(adj), 0)]
    while stack:
        candidates, size = stack.pop()
        counts[size + 1] += candidates.bit_count()
        if size + 1 == max_size:
            continue
        visited += candidates.bit_count()
        if visited > MAX_FACE_NODES:
            raise CapacityError(
                f"face walk exceeded its capacity of {MAX_FACE_NODES:,} nodes; "
                "lower the face size or choose a smaller scroll type"
            )
        if size + 2 == max_size:
            last = 0
            while candidates:
                top = candidates.bit_length() - 1
                candidates ^= 1 << top
                last += (candidates & adj[top]).bit_count()
            counts[max_size] += last
            continue
        while candidates:
            top = candidates.bit_length() - 1
            candidates ^= 1 << top
            stack.append((candidates & adj[top], size + 1))
    return tuple(counts[1:])


def _hf_from_counts(f: Sequence[int], t: int) -> int:
    """Degree-t monomials supported on faces, from f[k-1] faces of size k;
    f lists every size up to t, or every size that occurs."""
    if t == 0:
        return 1
    return sum(count * math.comb(t - 1, k) for k, count in enumerate(f[:t]))


def hilbert_function_by_faces(spec: ScrollSpec, facets: Sequence[Facet], t: int) -> int:
    """Number of degree-t monomials whose support is a face of the complex
    of ``spec``, generated by ``facets``; ``DomainError`` for a facet of
    another scroll."""
    if any(f.spec != spec for f in facets):
        raise DomainError(f"facets of another scroll given for {spec}")
    if t < 0:
        raise PreconditionError(f"degree must be non-negative, got {t}")
    if t == 0:
        return 1
    return _hf_from_counts(face_counts(facets, t), t)


def hilbert_function_from_h(h: Sequence[int], dim: int, t: int) -> int:
    """Expand the Hilbert series numerator h over (1-t)^dim at degree t."""
    return sum(
        h[j] * math.comb(t - j + dim - 1, dim - 1) for j in range(min(t, len(h) - 1) + 1)
    )


def numerator_from_face_counts(f: Sequence[int], dim: int) -> tuple[int, ...]:
    """Clear (1-t)^dim from the face-count Hilbert series; needs the full
    f-vector (all sizes up to dim) and refuses a longer one."""
    if len(f) > dim:
        raise PreconditionError(f"f counts faces of {len(f)} vertices, above dim={dim}")
    full = (1,) + tuple(f)
    coeffs = [
        sum(
            full[j] * (-1) ** (k - j) * math.comb(dim - j, k - j)
            for j in range(0, min(k, len(full) - 1) + 1)
        )
        for k in range(dim + 1)
    ]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def closed_form(c: int, d: int) -> InvariantReport:
    """Predicted invariants from c and d alone.

    Regularity is ceil((c+d-1)/2) for c >= d+4 and c-3 for 2 < c < d+4;
    dimension is c+d, respectively 2c-3.  The degenerate c = 2 scroll maps
    onto a polynomial ring in one variable, so its regularity is 0.  No
    scroll has c < d: each block has a column.
    """
    if c < 2 or d < 1:
        raise PreconditionError(f"need c >= 2 and d >= 1, got c={c}, d={d}")
    if c < d:
        raise PreconditionError(f"need c >= d, one column per block at least, got c={c}, d={d}")
    if complex_regime(c, d):
        reg = (c + d) // 2  # = ceil((c + d - 1) / 2)
        dim = c + d
    else:
        reg = c - 3 if c > 2 else 0
        dim = 2 * c - 3
    gorenstein = c in {2, 3, 2 + d, 3 + d, 4 + d}
    return InvariantReport(
        c=c,
        d=d,
        facet_count=None,
        h_vector=None,
        dim=dim,
        reg=reg,
        a_invariant=reg - dim,
        reduction_number=reg,
        gorenstein=gorenstein,
        closed_form_match=True,
        mode="prediction-only",
    )


def _stopwatch(timings: dict[str, float] | None) -> Callable[[str], None]:
    """``lap(name)`` records under ``name`` the seconds since the previous
    lap (or since this call), rounded to milliseconds, when ``timings`` is a
    dict; otherwise it records nothing."""
    last = time.perf_counter()

    def lap(name: str) -> None:
        nonlocal last
        now = time.perf_counter()
        if timings is not None:
            timings[name] = round(now - last, 3)
        last = now

    return lap


def _certified_faces(spec: ScrollSpec) -> tuple[int, ...]:
    """``_face_vector`` of ``spec``, certified once per spec to count the
    faces of the enumerated complex Δ; ``VerificationError`` otherwise.
    Δ lies in the DP's complex Γ when no enumerated facet holds two crossing
    intervals a < a' < b < b' or a vertex not good for its group: one AND of
    rows of ``_incidence``, certification's index, per crossing pair and per
    vertex.  Then Γ = Δ exactly when Γ has no face above size c + d and the
    numerator of its Hilbert series is the certified h-vector.
    """

    def compute() -> tuple[int, ...]:
        result = verify_linear_quotients(spec)
        if not result.passed:
            raise VerificationError(f"linear-quotients certification failed for {spec}")
        alphas = _enumerated(spec)[1]
        f, groups = _face_vector(spec), _good_groups(spec)
        row = dict(zip(vertex_set(spec), reversed(_incidence(spec))))
        ranks = {  # the ranks of each group's facets, one block of bits
            alpha: ((1 << alphas.count(alpha)) - 1) << alphas.index(alpha) for alpha in spec.alphas
        }
        for (a, b), (a2, b2) in itertools.combinations(row, 2):
            if a < a2 < b < b2 and row[(a, b)] & row[(a2, b2)]:
                raise VerificationError(
                    f"a facet of {spec} holds ({a}, {b}) and ({a2}, {b2}), which cross"
                )
        for v, bits in row.items():
            if bits & sum(block for alpha, block in ranks.items() if not groups[v] >> alpha & 1):
                raise VerificationError(f"a facet of {spec} holds {v}, not good for its group")
        size = spec.c + spec.d
        if len(f) != size:
            raise VerificationError(f"the faces of {spec} come in {len(f)} sizes, not {size}")
        h = numerator_from_face_counts(f, size)
        if h != result.degree_counts:
            raise VerificationError(f"the faces of {spec} give h = {h}, not {result.degree_counts}")
        return f

    return per_spec(spec, "faces", compute)


def hilbert_data(spec: ScrollSpec, *, timings: dict[str, float] | None = None) -> HilbertData:
    """The certified h-polynomial and the face count that confirms it at
    every degree (``_certified_faces``).  ``timings``, when given, receives
    the seconds of the stages ``enumerate``, ``certify`` and ``faces``."""
    lap = _stopwatch(timings)
    _enumerated(spec)
    lap("enumerate")
    result = verify_linear_quotients(spec)
    lap("certify")
    f = _certified_faces(spec)
    lap("faces")
    # Certified, so every quotient is linear and the counts are the h-vector.
    return HilbertData(dim=spec.c + spec.d, h_polynomial=HVector(h=result.degree_counts), f=f)


def full_report(spec: ScrollSpec, *, timings: dict[str, float] | None = None) -> InvariantReport:
    """Computed invariants for ``spec``, checked against the closed forms.

    For c < d + 4 no complex is built and the closed-form predictions are
    returned as-is, flagged prediction-only.  Verification failures and
    face-count disagreements propagate as ``VerificationError``.
    ``timings`` is passed to ``hilbert_data``.
    """
    c, d = spec.c, spec.d
    predicted = closed_form(c, d)
    if not spec.has_complex:
        return predicted

    data = hilbert_data(spec, timings=timings)
    hv = data.h_polynomial
    reg = hv.degree
    dim = c + d
    gorenstein = hv.is_palindromic
    matches = (
        reg == predicted.reg
        and dim == predicted.dim
        and reg - dim == predicted.a_invariant
        and reg == predicted.reduction_number
        and gorenstein == predicted.gorenstein
    )
    return InvariantReport(
        c=c,
        d=d,
        facet_count=verify_linear_quotients(spec).facet_count,
        h_vector=hv.h,
        dim=dim,
        reg=reg,
        a_invariant=reg - dim,
        reduction_number=reg,
        gorenstein=gorenstein,
        closed_form_match=matches,
        mode="computed",
    )
