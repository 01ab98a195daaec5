"""The bowtie product of two baric algebras.

Given baric algebras (A1, w1) and (A2, w2) over the same field, the
product on A1 (+) A2 is

    (a1, a2) * (b1, b2) = (a1 b1 + w2(b2) a1,  a2 b2 + w1(b1) a2)

and the combined weight is (w1 | w2), i.e. w(a1, a2) = w1(a1) + w2(a2).
The result carries a BowtieTag with the block split, so that
factor-aware operations never have to guess it: the block embeddings of
factor elements (embed) and subspaces (embed_subspace, whose inverse is
project) and the ideal calculus. The factor weights are the blocks of w.

The module also provides the closed forms for commutators and
associators of the product, the family of weight-one idempotents built
from factor idempotents, the structural isomorphisms (swap, regrouping,
transport along a factor isomorphism), and the associativity
characterization in terms of the scalar-action law x*y = w(y)*x. The
iterated power of the base field, kpow, lives in weights.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Algebra, Element, check_subspace, property_flags
from .errors import (
    DimensionMismatch,
    FieldMismatch,
    NotABowtie,
    NotIdempotentInput,
    NotWeightPreserving,
    WeightNotOne,
)
from .fields import FieldElement
from .linalg import Matrix, Subspace, _raw_span
from .weights import (
    BaricAlgebra,
    BowtieTag,
    Weight,
    baric_isomorphic_by,
    is_scalar_action,
)


def bowtie(b1: BaricAlgebra, b2: BaricAlgebra) -> BaricAlgebra:
    """Build (A1 bowtie A2, w1 bowtie w2) on the concatenated bases."""
    if b1.field is not b2.field:
        raise FieldMismatch("factors must share a field")
    n1, n2 = b1.dim, b2.dim
    table = dict(b1.algebra.entries())
    for (i, j, k), c in b2.algebra.entries():
        table[(n1 + i, n1 + j, n1 + k)] = c
    w1, w2 = b1.weight.values, b2.weight.values
    for i in range(n1):
        table.update({(i, n1 + j, i): c for j, c in enumerate(w2) if c})
    for i in range(n1, n1 + n2):
        table.update({(i, j, i): c for j, c in enumerate(w1) if c})
    weight = Weight(b1.field, w1 + w2)
    return BaricAlgebra(Algebra(b1.field, n1 + n2, table), weight, BowtieTag(n1, n2))


def _block(b: BaricAlgebra, side: str) -> tuple[int, int]:
    """(offset, size) of one factor's block of coordinates in the product."""
    tag = b.provenance
    if tag is None:
        raise NotABowtie("operation needs factor provenance")
    if side == "left":
        return 0, tag.left_dim
    if side == "right":
        return tag.left_dim, tag.right_dim
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def factor(b: BaricAlgebra, side: str) -> BaricAlgebra:
    """Recover a factor from its block of the structure constants and of the weight."""
    lo, size = _block(b, side)
    table = {
        (i - lo, j - lo, k - lo): c
        for (i, j, k), c in b.algebra.entries()
        if lo <= i < lo + size and lo <= j < lo + size and lo <= k < lo + size
    }
    names = None
    if b.algebra.basis_names is not None:
        names = b.algebra.basis_names[lo : lo + size]
    weight = Weight(b.field, b.weight.values[lo : lo + size])
    return BaricAlgebra(Algebra(b.field, size, table, names), weight)


def factors(b: BaricAlgebra) -> tuple[BaricAlgebra, BaricAlgebra]:
    return factor(b, "left"), factor(b, "right")


def embed(b: BaricAlgebra, side: str, x) -> Element:
    """Block-extend a factor element or coordinate row into the product algebra.

    A wrong length raises DimensionMismatch. An Element over the product's field
    is zero-padded on its stored values; anything else goes through b.element,
    which refuses an element of another field (FieldMismatch).
    """
    lo, size = _block(b, side)
    raw = isinstance(x, Element) and x.algebra.field is b.field
    coords = x.values if raw else x.coords if isinstance(x, Element) else tuple(x)
    if len(coords) != size:
        raise DimensionMismatch(f"{side} factor has dimension {size}")
    padded = (0,) * lo + coords + (0,) * (b.dim - lo - size)
    return Element._raw(b.algebra, padded) if raw else b.element(padded)


def project(b: BaricAlgebra, side: str, s: Subspace) -> Subspace:
    """Coordinate projection of a subspace onto one block, in the factor."""
    lo, size = _block(b, side)
    check_subspace(b.algebra, s)
    return _raw_span(b.field, size, [r[lo : lo + size] for r in s.rows])


def embed_subspace(b: BaricAlgebra, side: str, s: Subspace) -> Subspace:
    """Block embedding of a factor subspace into the product, the inverse of project."""
    lo, size = _block(b, side)
    if s.ambient_dim != size:
        raise DimensionMismatch(f"{side} factor has dimension {size}")
    if s.field is not b.field:
        raise FieldMismatch(f"subspace over {s.field!r}, product over {b.field!r}")
    # zero-padded RREF rows, pivots shifted, are RREF; zero.value is a Fraction over Q
    pad = (b.field.zero.value,)
    rows = tuple([pad * lo + r + pad * (b.dim - lo - size) for r in s.rows])
    return Subspace(b.field, b.dim, rows, tuple([pc + lo for pc in s.pivots]))


def split_element(b1: BaricAlgebra, b2: BaricAlgebra, x: Element) -> tuple[Element, Element]:
    """Split an element of the product of b1 and b2 into its factor components."""
    n1 = b1.dim
    return Element(b1.algebra, x.coords[:n1]), Element(b2.algebra, x.coords[n1:])


def commutator_closed_form(
    b1: BaricAlgebra,
    b2: BaricAlgebra,
    x: tuple[Element, Element],
    y: tuple[Element, Element],
) -> tuple[FieldElement, ...]:
    """[x, y] in the product, computed from factor data only.

    For x = (a1, a2) and y = (c1, c2) the commutator is the pair

        ([a1, c1] + w2(c2) a1 - w2(a2) c1,
         [a2, c2] + w1(c1) a2 - w1(a1) c2)

    returned as concatenated coordinates. The operands are checked by
    _operand_values; the arithmetic runs on raw values, with products taken
    in the factors' algebras and weights read from the factors. One
    FieldSpec.wrap makes the result.
    """
    (a1, a2), (c1, c2) = _operand_values(b1, b2, (x, y))
    w1, w2 = b1.weight, b2.weight
    raw = _commutator_part(b1.algebra, a1, c1, w2.at(c2), w2.at(a2))
    raw += _commutator_part(b2.algebra, a2, c2, w1.at(c1), w1.at(a1))
    return b1.field.wrap(raw)


def _commutator_part(algebra: Algebra, av: list, cv: list, wc, wa) -> list:
    """Raw [a, c] + wc a - wa c, from raw coordinates av and cv."""
    return [
        k + wc * u - wa * v for k, u, v in zip(algebra.raw_commutator(av, cv), av, cv)
    ]


def associator_closed_form(
    b1: BaricAlgebra,
    b2: BaricAlgebra,
    x: tuple[Element, Element],
    y: tuple[Element, Element],
    z: tuple[Element, Element],
) -> tuple[FieldElement, ...]:
    """(x, y, z) in the product, computed from factor data only.

    For x = (a1, a2), y = (b1, b2), z = (c1, c2) the associator is

        ((a1, b1, c1) + w2(b2)(a1 c1 - w1(c1) a1),
         (a2, b2, c2) + w1(b1)(a2 c2 - w2(c2) a2))

    returned as concatenated coordinates. The operands are checked by
    _operand_values; the arithmetic runs on raw values, with products taken
    in the factors' algebras and weights read from the factors. One
    FieldSpec.wrap makes the result.
    """
    (a1, a2), (p1, p2), (c1, c2) = _operand_values(b1, b2, (x, y, z))
    w1, w2 = b1.weight, b2.weight
    raw = _associator_part(b1.algebra, a1, p1, c1, w2.at(p2), w1.at(c1))
    raw += _associator_part(b2.algebra, a2, p2, c2, w1.at(p1), w2.at(c2))
    return b1.field.wrap(raw)


def _associator_part(algebra: Algebra, av: list, pv: list, cv: list, wp, wc) -> list:
    """Raw (a, p, c) + wp (a c - wc a), from raw coordinates av, pv and cv."""
    return [
        k + wp * (u - wc * v)
        for k, u, v in zip(algebra.raw_associator(av, pv, cv), algebra.times(av, cv), av)
    ]


def _operand_values(b1: BaricAlgebra, b2: BaricAlgebra, operands) -> list[tuple[tuple, tuple]]:
    """Raw coordinates (x1, x2) of each closed-form operand, once it is checked.

    The factors must share one field and every component must be over it
    (FieldMismatch); each x1 must be an element of b1's algebra and each x2
    of b2's (DimensionMismatch).
    """
    field, alg1, alg2 = b1.field, b1.algebra, b2.algebra
    if b2.field is not field:
        raise FieldMismatch("factors must share a field")
    out = []
    for x1, x2 in operands:
        if x1.algebra.field is not field or x2.algebra.field is not field:
            raise FieldMismatch("factors and components must share one field")
        # tuple comparison tests each item by identity before ==
        if (x1.algebra, x2.algebra) != (alg1, alg2):
            raise DimensionMismatch("components must be elements of the factors' algebras")
        out.append((x1.values, x2.values))
    return out


def idempotent_family(
    b: BaricAlgebra, e1: Element, e2: Element, lam: FieldElement
) -> Element:
    """The weight-one idempotent (lam e1, (1 - lam) e2) of the product.

    e1 and e2 must be weight-one idempotents of the factors. Any two
    members e, f of the family satisfy e*f = e. Each is checked through
    its image in the product, since the block embeddings are
    multiplicative and keep weights.
    """
    one = b.field.one
    x1, x2 = embed(b, "left", e1), embed(b, "right", e2)
    for x, e in ((x1, e1), (x2, e2)):
        if x * x != x:
            raise NotIdempotentInput(f"{e!r} is not idempotent in its factor")
        if b.weight(x) != one:
            raise WeightNotOne(f"{e!r} does not have weight one")
    return x1.scaled(lam) + x2.scaled(one - lam)


@dataclass(frozen=True)
class StructuralIsos:
    """Explicit matrices for the swap / regrouping isomorphisms, verified."""

    swap: Matrix
    assoc: Matrix
    swap_verified: bool
    assoc_verified: bool


def swap_matrix(b1: BaricAlgebra, b2: BaricAlgebra) -> Matrix:
    """Matrix of (a1, a2) -> (a2, a1) from b1|b2 to b2|b1 coordinates."""
    n = b1.dim + b2.dim
    ident = Matrix.identity(b1.field, n).rows
    return Matrix(b1.field, ident[b2.dim :] + ident[: b2.dim], n)


def structural_isos(
    b1: BaricAlgebra, b2: BaricAlgebra, b3: BaricAlgebra
) -> StructuralIsos:
    """Build and verify the swap and regrouping isomorphisms.

    swap: (a1, a2) -> (a2, a1) between b1|b2 and b2|b1.
    assoc: ((a1, a2), a3) -> (a1, (a2, a3)), which is the identity on the
    concatenated coordinates.
    """
    bow12 = bowtie(b1, b2)
    bow21 = bowtie(b2, b1)
    f_swap = swap_matrix(b1, b2)
    swap_ok = baric_isomorphic_by(f_swap, bow12, bow21)

    left_grouped = bowtie(bow12, b3)
    right_grouped = bowtie(b1, bowtie(b2, b3))
    f_assoc = Matrix.identity(b1.field, b1.dim + b2.dim + b3.dim)
    assoc_ok = baric_isomorphic_by(f_assoc, left_grouped, right_grouped)

    return StructuralIsos(f_swap, f_assoc, swap_ok, assoc_ok)


def transport_iso(
    f: Matrix, src: BaricAlgebra, dst: BaricAlgebra, other: BaricAlgebra
) -> tuple[Matrix, bool]:
    """Extend an isomorphism f: src -> dst to src|other -> dst|other.

    f must be a weight-preserving isomorphism of the left factors; the
    extension acts as f on the left block and as the identity on the
    right block. Returns the extended matrix and its verification.
    """
    if not baric_isomorphic_by(f, src, dst):
        raise NotWeightPreserving("f is not a weight-preserving isomorphism")
    n = src.dim + other.dim
    ident = Matrix.identity(src.field, n).rows
    padding = (src.field.zero,) * other.dim
    extended = Matrix(src.field, [r + padding for r in f.rows] + list(ident[src.dim :]), n)
    ok = baric_isomorphic_by(extended, bowtie(src, other), bowtie(dst, other))
    return extended, ok


@dataclass(frozen=True)
class AssociativityCharacter:
    bowtie_associative: bool
    scalar_action_left: bool
    scalar_action_right: bool


def associativity_character(b1: BaricAlgebra, b2: BaricAlgebra) -> AssociativityCharacter:
    """Associativity of the product vs the scalar-action law in the factors.

    The product is associative exactly when both factors satisfy
    x*y = w(y)*x, and in that case the product satisfies the law as well.
    """
    bow = bowtie(b1, b2)
    return AssociativityCharacter(
        bowtie_associative=property_flags(bow.algebra).associative,
        scalar_action_left=is_scalar_action(b1.algebra, b1.weight),
        scalar_action_right=is_scalar_action(b2.algebra, b2.weight),
    )
