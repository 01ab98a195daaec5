"""Ideal calculus for baric algebras and their bowtie products.

Covers ideal closures, sidedness tests, the behaviour of ideals under
the block embeddings and projections of a bowtie product, the pairing
between factor kernel-ideals and kernel-ideals of the product, and
decomposability of the kernel into two nonzero ideals.

A subspace tested against an algebra must live in it: a subspace over
another field raises FieldMismatch, one of another ambient dimension
DimensionMismatch.

Exact decisions (ideal lattices, decomposability) are only offered over
prime fields; over the rationals decomposability is reported as
undecided. Ideal lattices test every subspace, within the enumeration
cap. Decomposability first tries a certificate from the endomorphism
ring of Ker w, which visits no subspace and needs no cap, and only then
a capped search for the first witness pair in enumeration order.

Images of basis vectors come from Algebra.times_basis and membership
from linalg.raw_residue, both on raw values as a Subspace stores its rows.
The module's own arithmetic is the elimination mod p in _commutant_dim.
"""

from __future__ import annotations

from collections import defaultdict
from enum import Enum
from typing import Sequence

from dataclasses import dataclass, replace

from .algebra import Algebra, Element, check_subspace, property_flags
from .bowtie import embed_subspace, factors, project
from .errors import DimensionMismatch, FactorsNotCommutativeUnital
from .linalg import (
    Subspace,
    _raw_span,
    check_subspace_cap,
    enumerate_subspaces,
    raw_residue,
    span,
    subspaces_of_dim,
)
from .weights import BaricAlgebra, find_weight_one_idempotents


class Sided(Enum):
    RIGHT = "right"
    TWO_SIDED = "two_sided"
    NONE = "none"


@dataclass(frozen=True)
class Ideal:
    space: Subspace
    sided: Sided


def _closed(a: Algebra, s: Subspace, left: bool) -> bool:
    """Is s closed under e_j * v (left) or v * e_j for every basis vector e_j?

    Each image of a basis row of s must reduce to zero against those rows.
    """
    for v in s.rows:
        for j in range(a.dim):
            if any(raw_residue(s, a.times_basis(v, j, left))):
                return False
    return True


def sidedness(a: Algebra, s: Subspace) -> Sided:
    """Strongest ideal label of a subspace, by direct multiplication tests."""
    check_subspace(a, s)
    if not _closed(a, s, left=False):
        return Sided.NONE
    if _closed(a, s, left=True):
        return Sided.TWO_SIDED
    return Sided.RIGHT


def is_two_sided_ideal(a: Algebra, s: Subspace) -> bool:
    check_subspace(a, s)
    return _closed(a, s, left=False) and _closed(a, s, left=True)


def ideal_closure(a: Algebra, gens: Sequence[Element], side: Sided | str = Sided.TWO_SIDED) -> Ideal:
    """Least subspace containing gens closed under the requested products.

    Incremental spin: every vector put into the echelon basis waits in a
    pending list until it has been multiplied by each algebra basis
    vector on the required sides; a product joins the basis (and the
    pending list) only when the current span misses it. Each addition
    raises the dimension, so at most dim A vectors are ever pending. Pending
    vectors are raw rows, the input of Algebra.times_basis.
    """
    side = Sided(side)
    if side is Sided.NONE:
        raise ValueError("closure side must be right or two_sided")
    for g in gens:
        if g.algebra != a:
            raise DimensionMismatch("generator from a different algebra")
    field = a.field
    sides = (False, True) if side is Sided.TWO_SIDED else (False,)
    current = _raw_span(field, a.dim, [g.values for g in gens])
    pending = list(current.rows)
    while pending:
        v = pending.pop()
        for j in range(a.dim):
            for left in sides:
                w = field.wrap(a.times_basis(v, j, left))
                if not current.contains_vector(w):
                    current = current + span(field, a.dim, [w])
                    pending.append([x.value for x in w])
    # the loop closed current under the requested sides; only a right
    # closure can still be two-sided
    if side is Sided.RIGHT and _closed(a, current, left=True):
        side = Sided.TWO_SIDED
    return Ideal(current, side)


def embedded_ideal_check(bow: BaricAlgebra, side: str, ideal: Ideal) -> bool:
    """Does a two-sided factor ideal stay two-sided inside the product?

    Computed directly on embed_subspace. This is equivalent to the ideal
    being contained in the kernel of its factor's weight.
    """
    if ideal.sided is not Sided.TWO_SIDED:
        raise ValueError("embedded_ideal_check needs a two-sided factor ideal")
    return is_two_sided_ideal(bow.algebra, embed_subspace(bow, side, ideal.space))


@dataclass(frozen=True)
class IdealProjection:
    left: Subspace
    right: Subspace
    left_is_ideal: bool
    right_is_ideal: bool


def project_ideal(bow: BaricAlgebra, ideal: Ideal) -> IdealProjection:
    """Block projections of a two-sided product ideal, with ideal flags."""
    if ideal.sided is not Sided.TWO_SIDED:
        raise ValueError("project_ideal needs a two-sided ideal")
    left_fac, right_fac = factors(bow)
    p1 = project(bow, "left", ideal.space)
    p2 = project(bow, "right", ideal.space)
    return IdealProjection(
        left=p1,
        right=p2,
        left_is_ideal=is_two_sided_ideal(left_fac.algebra, p1),
        right_is_ideal=is_two_sided_ideal(right_fac.algebra, p2),
    )


def kernel_ideals(b: BaricAlgebra, cap: int | None = None) -> list[Subspace]:
    """All two-sided ideals of the algebra contained in Ker w.

    Tests every subspace of Ker w; the cap bounds their number (see
    enumerate_subspaces).
    """
    return [
        s
        for s in enumerate_subspaces(b.kernel(), cap)
        if is_two_sided_ideal(b.algebra, s)
    ]


@dataclass(frozen=True)
class KernelIdealBijection:
    """The pairing between factor kernel-ideals and product kernel-ideals.

    phi maps a pair (I, J) to I (+) J, the sum of their block embeddings;
    psi maps a product ideal to its pair of block projections. `verified`
    records that over the enumerated lattices phi and psi are mutually
    inverse between the pair set and the product kernel-ideals minus the
    kernel itself.
    """

    bow: BaricAlgebra
    left_ideals: tuple[Subspace, ...]
    right_ideals: tuple[Subspace, ...]
    bowtie_ideals: tuple[Subspace, ...]
    verified: bool

    def phi(self, left: Subspace, right: Subspace) -> Subspace:
        return embed_subspace(self.bow, "left", left) + embed_subspace(self.bow, "right", right)

    def psi(self, s: Subspace) -> tuple[Subspace, Subspace]:
        return project(self.bow, "left", s), project(self.bow, "right", s)


def kernel_ideal_bijection(bow: BaricAlgebra, cap: int | None = None) -> KernelIdealBijection:
    """Verify the kernel-ideal pairing for commutative unital factors."""
    left, right = factors(bow)
    for fac in (left, right):
        flags = property_flags(fac.algebra)
        if not (flags.commutative and flags.unital):
            raise FactorsNotCommutativeUnital(
                "the kernel ideal pairing needs commutative unital factors"
            )
    left_ideals = tuple(kernel_ideals(left, cap))
    right_ideals = tuple(kernel_ideals(right, cap))
    kernel = bow.kernel()
    bowtie_ideals = tuple(s for s in kernel_ideals(bow, cap) if s != kernel)

    result = KernelIdealBijection(bow, left_ideals, right_ideals, bowtie_ideals, verified=False)
    images = {(i, j): result.phi(i, j) for i in left_ideals for j in right_ideals}
    # psi(phi(p)) == p for every pair makes phi injective, and for s = phi(p)
    # it gives phi(psi(s)) = phi(p) = s; with the images equal to the product
    # kernel-ideals, phi and psi are mutually inverse, so neither needs a test
    ok = (
        all(result.psi(image) == pair for pair, image in images.items())
        and set(images.values()) == set(bowtie_ideals)
    )
    return replace(result, verified=ok)


class DecompOutcome(Enum):
    DECOMPOSABLE = "decomposable"
    INDECOMPOSABLE = "indecomposable"
    NO_WEIGHT1_IDEMPOTENT = "no_weight1_idempotent"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class Decomposability:
    outcome: DecompOutcome
    idempotent: Element | None = None
    n1: Subspace | None = None
    n2: Subspace | None = None


def _commutant_dim(a: Algebra, v: Subspace) -> int:
    """dim E for E = End_M(V), V a two-sided ideal of `a` over a prime field.

    M is generated by the maps L_j(x) = e_j * x and R_j(x) = x * e_j
    restricted to V. Each generator G is read in V's RREF coordinates (a
    vector of V is the sum of its entries at V.pivots times the matching
    rows), so E is {X : XG = GX for every G}, the solutions of d^2 unknowns.
    Entry (r, c) of XG - GX is one sparse equation; each is reduced into an
    echelon basis as it comes, and the count stops at rank d^2 - 1, because
    the scalars always lie in E.
    """
    p, d = a.field.p, v.dim
    echelon: dict[int, dict[int, int]] = {}  # leading unknown -> row, leading coefficient 1
    for j in range(a.dim):
        for left in (False, True):
            images = [a.times_basis(row, j, left) for row in v.rows]
            g = [[image[pc] % p for pc in v.pivots] for image in images]
            for r in range(d):
                for c in range(d):
                    # (XG - GX)[r][c] = sum_m X[r][m] G[m][c] - G[r][m] X[m][c]
                    eq = defaultdict(int)
                    for m in range(d):
                        eq[r * d + m] += g[m][c]
                        eq[m * d + c] -= g[r][m]
                    while eq := {u: x % p for u, x in eq.items() if x % p}:
                        lead = min(eq)
                        row = echelon.get(lead)
                        if row is None:
                            inv = pow(eq[lead], -1, p)
                            echelon[lead] = {u: x * inv % p for u, x in eq.items()}
                            if len(echelon) == d * d - 1:
                                return 1
                            break
                        f = eq[lead]
                        for u, x in row.items():
                            eq[u] = eq.get(u, 0) - f * x
    return d * d - len(echelon)


def decomposability(b: BaricAlgebra, cap: int | None = None) -> Decomposability:
    """Split Ker w into two nonzero ideals, if possible.

    Over the rationals the outcome is UNDECIDED, with the weight-one
    idempotent found if there is one: that search examines only a few
    candidates, so finding none proves nothing. Over a prime field the
    search is exhaustive, and an algebra with no idempotent of weight one
    gets NO_WEIGHT1_IDEMPOTENT. Otherwise the decision is exact:

    - Certificate. The ideals inside V = Ker w are the subspaces every
      e_j * (.) and (.) * e_j maps into itself. If the ring E of linear
      maps of V commuting with all of those is just the scalars, V is
      INDECOMPOSABLE: by Fitting's lemma the projection of a splitting
      V = N1 + N2 would be a non-scalar element of E. No subspace is
      visited, and the cap does not apply.
    - Witness search. Otherwise the cap bounds the subspaces of V (the
      search may visit nearly all of them; see check_subspace_cap). For
      k = 1 .. dim V // 2 the ideals of dimension dim V - k are listed
      once and those of dimension k are walked lazily, both in
      enumeration order. The witness is the first pair with n1 & n2 = 0,
      which alone proves n1 + n2 = V as dim n1 + dim n2 = dim V: n1 of
      dimension k and, for equal dimensions, n2 after n1, so the first
      complementary pair with n2 at or after n1 in the whole lattice's
      order. With no pair the outcome is INDECOMPOSABLE.
    """
    idems = find_weight_one_idempotents(b, cap, limit=1)
    idem = idems[0] if idems else None
    if not b.field.is_finite:
        return Decomposability(DecompOutcome.UNDECIDED, idem)
    if idem is None:
        return Decomposability(DecompOutcome.NO_WEIGHT1_IDEMPOTENT)
    a, kernel = b.algebra, b.kernel()
    if _commutant_dim(a, kernel) == 1:
        return Decomposability(DecompOutcome.INDECOMPOSABLE, idem)
    check_subspace_cap(kernel, cap)
    d = kernel.dim
    for k in range(1, d // 2 + 1):
        large = [s for s in subspaces_of_dim(kernel, d - k) if is_two_sided_ideal(a, s)]
        if not large:
            continue
        if 2 * k == d:
            pairs = ((n1, large[i + 1:]) for i, n1 in enumerate(large))
        else:
            small = (s for s in subspaces_of_dim(kernel, k) if is_two_sided_ideal(a, s))
            pairs = ((n1, large) for n1 in small)
        for n1, partners in pairs:
            for n2 in partners:
                if n1.intersect(n2).is_zero:
                    return Decomposability(DecompOutcome.DECOMPOSABLE, idem, n1, n2)
    return Decomposability(DecompOutcome.INDECOMPOSABLE, idem)
