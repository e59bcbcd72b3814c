"""Numerical invariants of the fiber cone via the certified facet order.

The h-vector is read off the certified quotient degrees and cross-checked
against an independent face count of the complex: the number of degree-t
monomials supported on faces must match the h-polynomial expansion in every
window degree, otherwise the computation refuses to report.  Regularity is
the h-degree, dimension is the facet size, the a-invariant their difference,
the reduction number equals the regularity, and Gorensteinness is decided by
palindromicity of the h-vector, all compared against closed forms in c and d.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from .dual_quotients import ColonReport, verify_linear_quotients
from .errors import CapacityError, PreconditionError, VerificationError
from .facet_complex import Facet, _bitset_index, _enumerated, _facet_index, _mask
from .scroll_model import ScrollSpec, complex_regime

#: The face walk refuses to visit more faces than this (``CapacityError``);
#: it counts the faces as it visits them.
MAX_FACE_NODES = 20_000_000

#: ``hilbert_data`` refuses a Hilbert window above this degree
#: (``CapacityError``), before any work.
MAX_HILBERT_WINDOW = 100_000


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
    """Hilbert function window of the face ring, with its h-polynomial."""

    dim: int
    h_polynomial: HVector
    hf: dict[int, int]


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

    Refuses to compute from a non-linear certification.
    """
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

    Faces are generated once each by a lexicographic depth-first walk: a face
    extends only by vertices above its largest one, and the covering facets
    are narrowed along the way, so no dedup set is needed.

    Returns:
        f where f[k-1] is the number of faces with k vertices.

    Raises:
        PreconditionError: ``max_size`` is below 1.
        CapacityError: more than ``MAX_FACE_NODES`` faces would be visited.
    """
    masks = [_mask(f.spec, f.vertices) for f in facets]
    return _face_walk(_bitset_index(masks), max_size)


def _face_walk(index: list[int], max_size: int) -> tuple[int, ...]:
    """``face_counts`` over a ``_bitset_index``.  A face's cover is the bitset
    of facets containing it (-1 for the empty face); adding w narrows it to
    ``cover & index[w]``.  A vertex that extends no face extends none of its
    supersets, so each face passes on only the extensions that hit.  Faces
    grow from the highest bit down, in ascending vertex order."""
    if max_size < 1:
        raise PreconditionError(f"face sizes start at 1, got max_size={max_size}")
    counts = [0] * (max_size + 1)
    visited = 0

    def walk(candidates: Sequence[int], cover: int, size: int) -> None:
        nonlocal visited
        hits = [(w, sub) for w in candidates if (sub := cover & index[w])]
        visited += len(hits)
        if visited > MAX_FACE_NODES:
            raise CapacityError(
                f"face walk exceeded its capacity of {MAX_FACE_NODES:,} nodes; "
                "lower the Hilbert window or choose a smaller scroll type"
            )
        counts[size + 1] += len(hits)
        if size + 1 < max_size:
            extensions = [w for w, _ in hits]
            for i, (_, sub) in enumerate(hits):
                walk(extensions[i + 1 :], sub, size + 1)

    walk(range(len(index) - 1, -1, -1), -1, 0)
    return tuple(counts[1:])


def _hf_from_counts(f: Sequence[int], t: int) -> int:
    """Degree-t monomials supported on faces, from f[k-1] faces of size k;
    f lists every size up to t, or every size that occurs."""
    if t == 0:
        return 1
    return sum(count * math.comb(t - 1, k) for k, count in enumerate(f[:t]))


def hilbert_function_by_faces(spec: ScrollSpec, facets: Sequence[Facet], t: int) -> int:
    """Number of degree-t monomials whose support is a face of the complex."""
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
    f-vector (all sizes up to dim)."""
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
    onto a polynomial ring in one variable, so its regularity is 0.
    """
    if c < 2 or d < 1:
        raise PreconditionError(f"need c >= 2 and d >= 1, got c={c}, d={d}")
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


def hilbert_data(
    spec: ScrollSpec, *, window: int = 5, timings: dict[str, float] | None = None
) -> HilbertData:
    """Hilbert window computed two independent ways; the face count is the
    authority and any disagreement with the h-expansion is a hard failure.

    ``timings``, when given, receives the seconds of the stages
    ``enumerate``, ``certify``, ``face_walk`` and ``hilbert_check``.

    Raises:
        CapacityError: ``window`` exceeds ``MAX_HILBERT_WINDOW``.
    """
    if window > MAX_HILBERT_WINDOW:
        raise CapacityError(
            f"Hilbert window {window:,} is over its capacity of {MAX_HILBERT_WINDOW:,} "
            "degrees; lower the Hilbert window"
        )
    lap = _stopwatch(timings)
    _enumerated(spec)
    lap("enumerate")
    result = verify_linear_quotients(spec)
    if not result.passed:
        raise VerificationError(f"linear-quotients certification failed for {spec}")
    lap("certify")
    f = _face_walk(_facet_index(spec), window)
    lap("face_walk")
    # Certified, so every quotient is linear and the counts are the h-vector.
    hv = HVector(h=result.degree_counts)
    dim = spec.c + spec.d
    # A subset of a face is a face, so the sizes that occur run from 1 up.
    sizes = f[: f.index(0)] if 0 in f else f
    hf: dict[int, int] = {}
    for t in range(window + 1):
        by_faces = _hf_from_counts(sizes, t)
        by_h = hilbert_function_from_h(hv.h, dim, t)
        if by_faces != by_h:
            raise VerificationError(
                f"Hilbert paths disagree for {spec} at degree {t}: "
                f"faces give {by_faces}, h-polynomial gives {by_h}"
            )
        hf[t] = by_faces
    lap("hilbert_check")
    return HilbertData(dim=dim, h_polynomial=hv, hf=hf)


def full_report(
    spec: ScrollSpec, *, hilbert_window: int = 5, timings: dict[str, float] | None = None
) -> InvariantReport:
    """Computed invariants for ``spec``, checked against the closed forms.

    For c < d + 4 no complex is built and the closed-form predictions are
    returned as-is, flagged prediction-only.  Verification failures and
    Hilbert-path disagreements propagate as ``VerificationError``.
    ``timings`` is passed to ``hilbert_data``.
    """
    c, d = spec.c, spec.d
    predicted = closed_form(c, d)
    if not spec.has_complex:
        return predicted

    data = hilbert_data(spec, window=hilbert_window, timings=timings)
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
