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
undecided. Kernel-ideal lattices walk every subspace of Ker w, within
the enumeration cap, in Ker w's own coordinates, testing each against
the multiplication maps restricted to Ker w. Decomposability first tries
two certificates from the endomorphism ring E of Ker w, E the scalars or
E commutative and local, which visit no subspace and need no cap, and
only then a capped search for the first witness pair in enumeration
order.

Images of basis vectors come from Algebra.times_basis, on raw values as
a Subspace stores its rows, matrix products mod p from linalg._times,
and _closed and _keeps test images with linalg.membership. kernel_ideals
tests each candidate against the restricted maps as d x d matrices
(_keeps), the spin-up in _commutant_basis spins a standard basis of V
under the same maps and solves for the images of its seeds, on linalg's
sparse echelon rows, and the Frobenius test in _is_local_commutative
takes p-th powers of its d x d matrices.
"""

from __future__ import annotations

from enum import Enum
from typing import Sequence

from dataclasses import dataclass, replace

from .algebra import Algebra, Element, check_subspace, property_flags
from .bowtie import embed_subspace, factors, project
from .errors import DimensionMismatch, FactorsNotCommutativeUnital
from .linalg import (
    Subspace,
    _raw_span,
    _times,
    check_subspace_cap,
    echelon_add,
    echelon_reduce,
    enumerate_subspaces,
    membership,
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
    """Does linalg.membership(s) pass e_j * v (left) or v * e_j for every row v of s and basis vector e_j?"""
    inside = membership(s)
    return all(inside(a.times_basis(v, j, left)) for v in s.rows for j in range(a.dim))


def sidedness(a: Algebra, s: Subspace) -> Sided:
    """Strongest ideal label of a subspace, by direct multiplication tests."""
    check_subspace(a, s)
    if not _closed(a, s, left=False):
        return Sided.NONE
    if _closed(a, s, left=True):
        return Sided.TWO_SIDED
    return Sided.RIGHT


def is_two_sided_ideal(a: Algebra, s: Subspace) -> bool:
    return sidedness(a, s) is Sided.TWO_SIDED


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
    """All two-sided ideals of the algebra contained in Ker w, in enumeration order.

    Ker w is itself an ideal, so a subspace of it is one exactly when every
    map L_j, R_j restricted to Ker w (_restricted_maps) keeps it. The walk
    runs over the subspaces of F_p^d, d = dim Ker w, as RREF coefficient
    matrices C in Ker w's coordinates, and keeps each C with C G inside the
    row space of C for every G of a basis of the maps' span modulo the
    identity: a subspace kept by some maps is kept by their span, and the
    scalars keep every subspace. Each ideal is C @ B, B the rows of Ker w,
    which is already canonical (see subspaces_of_dim). The cap bounds the
    subspace_count(p, d) subspaces walked and is checked before any map is
    built.
    """
    kernel = b.kernel()
    check_subspace_cap(kernel, cap)
    p, d = b.field.p, kernel.dim
    # the identity, flattened to key r * d + c, leads at key 0 with entry 1
    spanned = {0: {r * (d + 1): 1 for r in range(d)}}
    maps = []  # each kept G as its rows, the nonzero (column, entry) pairs of each
    for g in _restricted_maps(b.algebra, kernel):
        rest = echelon_reduce(spanned, {r * d + c: x for r, row in enumerate(g) for c, x in enumerate(row)}, p)
        if rest:
            echelon_add(spanned, rest, p)
            maps.append([[(c, x) for c, x in enumerate(row) if x] for row in g])
    ideals = []
    for s in enumerate_subspaces(Subspace.full(b.field, d), cap):
        if _keeps(s, maps):
            rows = tuple([tuple(row) for row in _times(p, s.rows, kernel.rows, b.dim)])
            ideals.append(Subspace(b.field, b.dim, rows, tuple([kernel.pivots[pc] for pc in s.pivots])))
    return ideals


def _keeps(s: Subspace, maps: list[list[list[tuple[int, int]]]]) -> bool:
    """Does linalg.membership(s) pass c G for every row c of s and every sparse G in maps?"""
    inside = membership(s)
    for g in maps:
        for row in s.rows:
            v = [0] * len(row)
            for x, g_row in zip(row, g):
                if x:
                    for c, y in g_row:
                        v[c] += x * y
            if not inside(v):
                return False
    return True


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
    """Verify the kernel-ideal pairing for commutative unital factors.

    The cap is checked on the left, right and product kernels, in that
    order, before any lattice is enumerated.
    """
    left, right = factors(bow)
    for fac in (left, right):
        flags = property_flags(fac.algebra)
        if not (flags.commutative and flags.unital):
            raise FactorsNotCommutativeUnital(
                "the kernel ideal pairing needs commutative unital factors"
            )
    kernel = bow.kernel()
    for ambient in (left.kernel(), right.kernel(), kernel):
        check_subspace_cap(ambient, cap)
    left_ideals = tuple(kernel_ideals(left, cap))
    right_ideals = tuple(kernel_ideals(right, cap))
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


def _restricted_maps(a: Algebra, v: Subspace) -> list[list[list[int]]]:
    """The maps R_j(x) = x * e_j and L_j(x) = e_j * x on a two-sided ideal V of `a`
    over a prime field, for j = 0, 1, ... in turn.

    Each is a d x d matrix mod p in V's RREF coordinates: row m is the image
    of V's row m, read at V.pivots (a vector of V is the sum of its entries
    at V.pivots times the matching rows).
    """
    p = a.field.p
    maps = []
    for j in range(a.dim):
        for left in (False, True):
            images = [a.times_basis(row, j, left) for row in v.rows]
            maps.append([[image[pc] % p for pc in v.pivots] for image in images])
    return maps


def _commutant_basis(a: Algebra, v: Subspace) -> list[list[list[int]]]:
    """A basis of E = End_M(V), V a two-sided ideal of `a` over a prime field.

    M is generated by the maps L_j(x) = e_j * x and R_j(x) = x * e_j
    restricted to V, each a d x d matrix G in V's RREF coordinates
    (_restricted_maps); E is {X : XG = GX for every G}, and each basis
    element is a d x d matrix X mod p.

    Standard-basis spin-up (Schneider, JSC 1990): the unit vectors u_i of V
    are spun in order, skipping those already in the span, until the spins
    span V; with s seeds, each basis vector b_k = u_i M_k keeps its word
    M_k, a product of generators, and its seed t. An X in E is fixed by the
    rows y_t = u_i X, as b_k X = y_t M_k. Every product b_k G that is
    already in the span, b_k G = sum a_m b_m, gives d equations
    y_t M_k G - sum a_m y_t(m) M_m = 0, and E is their solution space in
    s * d unknowns: back-substitution gives one solution y per free unknown,
    and X = B^-1 Y, with rows b_k in B and y_t M_k in Y. The count stops at
    rank s * d - 1, because the scalars always lie in E, and then E is the
    identity's span. dim V = 0 gives no basis.
    """
    p, d = a.field.p, v.dim
    identity = [[int(r == c) for c in range(d)] for r in range(d)]
    gens = _restricted_maps(a, v)
    # a spin row (r | c) keeps V coordinates under keys 0..d-1 and c_m under
    # key d + m, with r = -sum c_m b_m; reducing b_k G to (0 | c) gives a = c
    spun: dict[int, dict[int, int]] = {}
    words: list[list[list[int]]] = []  # M_k
    seed_of: list[int] = []  # t for b_k
    units: list[int] = []  # i for seed t
    equations: dict[int, dict[int, int]] = {}  # unknown t * d + r is entry r of y_t

    def grow(rest: dict[int, int], word: list[list[int]], t: int) -> None:
        rest[d + len(words)] = p - 1
        echelon_add(spun, rest, p)
        words.append(word)
        seed_of.append(t)

    k = 0
    for i in range(d):
        rest = echelon_reduce(spun, {i: 1}, p)
        if not rest or min(rest) >= d:
            continue  # u_i is in the span
        units.append(i)
        grow(rest, identity, len(units) - 1)
        while k < len(words):
            word, t = words[k], seed_of[k]
            for g in gens:
                # the rank never passes s * d - 1; once there, only the spin can add
                saturated = len(equations) == len(units) * d - 1
                if saturated and len(words) == d:
                    return [identity]
                (bg,) = _times(p, [word[units[t]]], g, d)  # b_k G
                rest = echelon_reduce(spun, dict(enumerate(bg)), p)
                is_new = bool(rest) and min(rest) < d
                if saturated and not is_new:
                    continue
                wg = _times(p, word, g, d)
                if is_new:
                    grow(rest, wg, t)
                    continue
                for c in range(d):
                    eq = {t * d + r: wg[r][c] for r in range(d)}
                    for key, am in rest.items():
                        base, wm = seed_of[key - d] * d, words[key - d]
                        for r in range(d):
                            eq[base + r] = eq.get(base + r, 0) - am * wm[r][c]
                    eq = echelon_reduce(equations, eq, p)
                    if eq:
                        echelon_add(equations, eq, p)
            k += 1
    # row m of B^-1 holds the c of u_m = sum c_k b_k, read off the spin rows as (0 | c)
    inverse = [echelon_reduce(spun, {m: 1}, p) for m in range(d)]
    inverse = [[c.get(d + k, 0) for k in range(d)] for c in inverse]
    leads = sorted(equations, reverse=True)
    basis = []
    for free in range(len(units) * d):
        if free in equations:
            continue
        y = [0] * (len(units) * d)
        y[free] = 1
        for lead in leads:  # the other keys of a row lie above its lead, and y[lead] is still 0
            y[lead] = -sum(x * y[u] for u, x in equations[lead].items()) % p
        rows = [_times(p, [y[t * d:t * d + d]], word, d)[0] for word, t in zip(words, seed_of)]
        basis.append(_times(p, inverse, rows, d))
    return basis


def _power(x: list[list[int]], n: int, p: int) -> list[list[int]]:
    """x^n mod p for n >= 1, squaring for each binary digit of n after the first."""
    result, d = x, len(x)
    for digit in bin(n)[3:]:
        result = _times(p, result, result, d)
        if digit == "1":
            result = _times(p, result, x, d)
    return result


def _is_local_commutative(basis: list[list[list[int]]], p: int) -> bool:
    """Is the ring spanned by `basis` (d x d matrices mod p) commutative and local?

    Berlekamp (1967): in a commutative F_p-algebra E, X -> X^p is F_p-linear
    and the dimension of its fixed space is the number of local factors of E.
    So E is local when the images X^p - X of the basis have rank dim E - 1;
    the scalars, with X^p = X, are. No basis spans no ring, and gives False.
    """
    if any(_times(p, x, y, len(x)) != _times(p, y, x, len(x)) for i, x in enumerate(basis) for y in basis[i + 1:]):
        return False
    images: dict[int, dict[int, int]] = {}
    for x in basis:
        xp, d = _power(x, p, p), len(x)
        row = echelon_reduce(images, {r * d + c: xp[r][c] - x[r][c] for r in range(d) for c in range(d)}, p)
        if row:
            echelon_add(images, row, p)
    return len(basis) - len(images) == 1


def decomposability(b: BaricAlgebra, cap: int | None = None) -> Decomposability:
    """Split Ker w into two nonzero ideals, if possible.

    Over the rationals the outcome is UNDECIDED, with the weight-one
    idempotent found if there is one: that search examines only a few
    candidates, so finding none proves nothing. Over a prime field the
    search is exhaustive, and an algebra with no idempotent of weight one
    gets NO_WEIGHT1_IDEMPOTENT. Otherwise the decision is exact:

    - Scalars. The ideals inside V = Ker w are the subspaces every
      e_j * (.) and (.) * e_j maps into itself. Let E be the ring of
      linear maps of V commuting with all of those. By Fitting's lemma
      the projection of a splitting V = N1 + N2 would be an idempotent of
      E other than 0 and 1, so if E is just the scalars, V is
      INDECOMPOSABLE.
    - Local E. Otherwise, if E is commutative and X -> X^p - X has a
      kernel of dimension 1 on it, E is local (Berlekamp: that kernel
      has one dimension per local factor), its only idempotents are 0
      and 1, and V is INDECOMPOSABLE. This covers the chains K[x]/(x^n),
      where E = K[N]/(N^(n-1)). One Frobenius test decides both
      certificates, as the scalars are local.
      Neither certificate visits a subspace, and the cap does not apply.
    - Witness search. Otherwise (E not commutative, or with several local
      factors) the cap bounds the subspaces of V (the search may visit
      nearly all of them; see check_subspace_cap). For
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
    if _is_local_commutative(_commutant_basis(a, kernel), b.field.p):
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
