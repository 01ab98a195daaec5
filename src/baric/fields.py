"""Exact scalar arithmetic over the rationals and over prime fields.

Rational values are reduced fractions with positive denominator; prime
field values are residues in [0, p). Canonical forms are unique, so
``==`` is exact mathematical equality and no tolerances appear anywhere.
Elements of small prime fields are interned, so FieldElement views cost
no allocation and their equality tests mostly end at the identity check;
over such a field `wrap` makes one pass, a table lookup of v % p per value.

Every kernel in `fields`, `linalg`, `algebra` and `weights` takes raw values.
`FieldSpec.unwrap` is the one door from caller-supplied FieldElements to
raw values and checks length, type and field; `FieldSpec.wrap` is its inverse.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import index as _as_int
from typing import Sequence

from .errors import DimensionMismatch, DivisionByZero, FieldMismatch, FieldNotFinite, ParseError

_INTERN_LIMIT = 1 << 12


# The first 13 primes as Miller-Rabin bases decide primality exactly for
# every n below PRIME_MODULUS_BOUND (Sorenson & Webster 2015); larger
# moduli are refused rather than guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_MODULUS_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; n must lie below PRIME_MODULUS_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldSpec:
    """The scalar domain: the rationals (p is None) or integers mod a prime.

    Instances are interned, one per domain, so identity comparison is a
    valid equality test.
    """

    __slots__ = ("p", "_table", "zero", "one")
    _cache: dict = {}

    def __new__(cls, p: int | None = None) -> "FieldSpec":
        # coerce before the cache lookup, or 3.0 would find the entry of 3
        if p is not None:
            p = _as_int(p)
        spec = cls._cache.get(p)
        if spec is not None:
            return spec
        if p is not None:
            if p >= PRIME_MODULUS_BOUND:
                raise ParseError(
                    f"field modulus {p} is too large: primality is decided only "
                    f"below {PRIME_MODULUS_BOUND}"
                )
            if not _is_prime(p):
                raise ValueError(f"field modulus must be prime, got {p}")
        spec = object.__new__(cls)
        spec.p = p
        spec._table = None
        if p is not None and p <= _INTERN_LIMIT:
            spec._table = tuple(FieldElement._raw(spec, v) for v in range(p))
        spec.zero = spec.element(0)
        spec.one = spec.element(1)
        cls._cache[p] = spec
        return spec

    @classmethod
    def rationals(cls) -> "FieldSpec":
        return cls(None)

    @classmethod
    def prime(cls, p: int) -> "FieldSpec":
        return cls(_as_int(p))  # None is no prime: FieldSpec(None) is Q

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    @property
    def token(self) -> str:
        """Short form used on the command line: 'q' or 'p<prime>'."""
        return "q" if self.p is None else f"p{self.p}"

    @classmethod
    def from_token(cls, token: str) -> "FieldSpec":
        token = token.strip().lower()
        if token == "q":
            return cls(None)
        if token.startswith("p") and token[1:].isdigit():
            return cls(int(token[1:]))
        raise ValueError(f"bad field token {token!r}: expected 'q' or 'p<prime>'")

    def _make(self, value) -> "FieldElement":
        """The element for one raw result: an int reduced mod p, or a Fraction over Q."""
        p = self.p
        if p is None:
            return FieldElement._raw(self, value)
        table = self._table
        return FieldElement._raw(self, value % p) if table is None else table[value % p]

    def canon(self, values) -> tuple:
        """Canonical form of raw values, the unreduced ints over F_p and Fractions (or ints)
        over Q that the inner loops compute on: residues in [0, p), or Fractions."""
        p = self.p
        if p is None:
            zero = self.zero.value  # one shared Fraction: building Fraction(0) is slow
            return tuple([v if type(v) is Fraction else Fraction(v) if v else zero for v in values])
        return tuple([v % p for v in values])

    def wrap(self, values) -> tuple["FieldElement", ...]:
        """FieldElements for raw values: interned ones by residue (as in _make), others via canon."""
        table, p = self._table, self.p
        if table is not None:
            return tuple([table[v % p] for v in values])
        zero = self.zero
        return tuple([FieldElement._raw(self, v) if v else zero for v in self.canon(values)])

    def unwrap(self, coords: Sequence, n: int) -> tuple:
        """Raw values of n caller-supplied FieldElements of this field: the inverse of wrap.

        A wrong length raises DimensionMismatch, a non-element TypeError and
        an element of another field FieldMismatch.
        """
        if len(coords) != n:
            raise DimensionMismatch(f"{len(coords)} coordinates where {n} are expected")
        for c in coords:
            if type(c) is not FieldElement or c.field is not self:
                self.one._check(c)
        return tuple([c.value for c in coords])

    def element(self, value) -> "FieldElement":
        """The one reader of Python values: a FieldElement of this field as it is, a
        string through parse_scalar, a Fraction exactly, and anything else through
        operator.index, so a float or a Decimal is a TypeError over Q and F_p alike."""
        if isinstance(value, FieldElement):
            if value.field is not self:
                raise FieldMismatch(f"element of {value.field!r} given to {self!r}")
            return value
        if isinstance(value, str):
            return parse_scalar(value, self)
        if isinstance(value, Fraction):
            if self.p is None:
                return FieldElement._raw(self, Fraction(value))
            if value.denominator % self.p == 0:
                raise DivisionByZero(f"denominator of {value} is zero mod {self.p}")
            return self._make(value.numerator * pow(value.denominator, -1, self.p))
        value = _as_int(value)
        return FieldElement._raw(self, Fraction(value)) if self.p is None else self._make(value)

    def elements(self):
        """Iterate every field element (finite fields only)."""
        if self.p is None:
            raise FieldNotFinite("cannot enumerate the rationals")
        return (self._make(v) for v in range(self.p))

    def __repr__(self) -> str:
        return "FieldSpec.rationals()" if self.p is None else f"FieldSpec.prime({self.p})"


class FieldElement:
    """A scalar in canonical form, tied to its FieldSpec; built by FieldSpec.element or wrap."""

    __slots__ = ("field", "value")

    @classmethod
    def _raw(cls, field: FieldSpec, value) -> "FieldElement":
        self = object.__new__(cls)
        self.field = field
        self.value = value
        return self

    def _check(self, other) -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if self.field is not other.field:
            raise FieldMismatch(f"{self.field!r} vs {other.field!r}")

    def __add__(self, other):
        self._check(other)
        return self.field._make(self.value + other.value)

    def __sub__(self, other):
        self._check(other)
        return self.field._make(self.value - other.value)

    def __mul__(self, other):
        self._check(other)
        return self.field._make(self.value * other.value)

    def __truediv__(self, other):
        self._check(other)
        f = self.field
        if not other.value:
            raise DivisionByZero("division by zero" if f.p is None else "division by zero residue")
        if f.p is None:
            return f._make(self.value / other.value)
        return f._make(self.value * pow(other.value, -1, f.p))

    def __neg__(self):
        return self.field._make(-self.value)

    def inverse(self) -> "FieldElement":
        return self.field.one / self

    def __pow__(self, n: int) -> "FieldElement":
        f = self.field
        if n < 0:
            return self.inverse() ** (-n)
        return f._make(self.value**n if f.p is None else pow(self.value, n, f.p))

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.field is other.field and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.field.p, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"<{self.value} in {self.field.token}>"


_SCALAR_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


def parse_scalar(text: str, field: FieldSpec) -> FieldElement:
    """Parse 'a' or 'a/b' into a canonical field element.

    Over a prime field 'a/b' means a * b^-1; a zero denominator (or a
    denominator divisible by p) raises DivisionByZero.
    """
    m = _SCALAR_RE.fullmatch(text)
    if m is None:
        raise ParseError(f"bad scalar literal {text!r}")
    try:
        num, den = int(m.group(1)), int(m.group(2) or 1)
    except ValueError as exc:  # more digits than Python converts to an int
        raise ParseError(f"scalar literal too long: {exc}") from None
    if field.p is None:
        if den == 0:
            raise DivisionByZero(f"zero denominator in {text!r}")
        return FieldElement._raw(field, Fraction(num, den))
    if den % field.p == 0:
        raise DivisionByZero(f"denominator of {text!r} is zero mod {field.p}")
    return field._make(num * pow(den, -1, field.p))
