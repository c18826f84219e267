"""The underlying graded algebra: three degree-1 generators x1, x2, x3 with
pairwise anticommutation x_i x_j = -x_j x_i (i != j).

Normal forms are signed exponent triples: every word rewrites uniquely to
+- x1^a x2^b x3^c, so degree-d elements live in the C(d+2, 2)-dimensional
span of the degree-d monomials.  No Groebner machinery is needed; the three
relations already form a confluent rewriting system for this order.

`degree_basis(d)`, one tuple cached per degree, puts x1^a x2^b x3^c at
position T(b+c) + c, T(k) = k(k+1)/2 (`basis_position`).  A `GradedElement`
is its sparse vector {position: nonzero scalar}, the form the differential
and the cochain engine read, and `terms` a view keyed by `Monomial`.
Products find each term's position by that closed form and read exponents
off the basis tuples, so no monomial is built per term.

`GradedElement` arithmetic sums coefficients with the native operators and
normalizes once per result through `fields.normalized`.  Field methods are
called only where scalars cross the boundary: `coerce` on the coefficients
`from_terms`, `from_vector` and `scale` are handed, `parse_scalar` in the
text grammar, and `to_str` in `render`.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .fields import (check_same_field, normalized, parse_natural, parse_scalar, render_sum,
                     split_sum)


class Monomial(NamedTuple):
    a: int
    b: int
    c: int

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c


ONE = Monomial(0, 0, 0)
X1 = Monomial(1, 0, 0)
X2 = Monomial(0, 1, 0)
X3 = Monomial(0, 0, 1)


def mul_monomials(m1, m2):
    """Product of normal-form monomials, given as any exponent triples:
    (sign, monomial).

    Sorting the concatenated word x1^a1 x2^b1 x3^c1 * x1^a2 x2^b2 x3^c2 into
    normal form transposes distinct generators a2*(b1+c1) + b2*c1 times.
    """
    a1, b1, c1 = m1
    a2, b2, c2 = m2
    sign = -1 if (a2 * (b1 + c1) + b2 * c1) % 2 else 1
    return sign, Monomial(a1 + a2, b1 + b2, c1 + c2)


def degree_dim(d: int) -> int:
    return 0 if d < 0 else (d + 1) * (d + 2) // 2


def basis_position(m) -> int:
    """Position of x1^a x2^b x3^c in degree_basis(a + b + c): T(b+c) + c.

    The T(b+c) monomials with a larger exponent of x1 come first, then the
    c monomials of exponent a with a larger exponent of x2."""
    _, b, c = m
    k = b + c
    return k * (k + 1) // 2 + c


@cache
def degree_basis(d: int) -> tuple:
    """All degree-d monomials, lexicographically descending on (a, b, c), as
    one tuple built on first use and shared by every caller.  The cache
    keeps C(d+2, 2) monomials for each degree d that has been reached."""
    return tuple(Monomial(a, b, d - a - b) for a in range(d, -1, -1) for b in range(d - a, -1, -1))


class GradedElement:
    """A homogeneous element: its sparse vector `vec`, {position in
    degree_basis(degree): nonzero normal-form scalar}, taken as given (the
    `from_*` constructors normalize).  Treated as immutable after
    construction.  Two elements are equal when their fields, degrees and
    vectors are; an element is not hashable.
    """

    def __init__(self, field, degree: int, vec: dict):
        self.field = field
        self.degree = degree
        self.vec = vec

    @property
    def terms(self) -> dict:
        """A fresh {Monomial: coefficient} view of `vec`."""
        basis = degree_basis(self.degree)
        return {basis[j]: x for j, x in self.vec.items()}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.degree, self.vec) == (other.field, other.degree, other.vec)

    @classmethod
    def zero(cls, field, degree: int) -> "GradedElement":
        return cls(field, degree, {})

    @classmethod
    def from_terms(cls, field, degree: int, items) -> "GradedElement":
        """The sum of the (monomial, coefficient) items; coefficients are
        anything `field.coerce` accepts."""
        vec = {}
        for (a, b, c), coeff in items:
            m = Monomial(a, b, c)
            if not (type(a) is type(b) is type(c) is int and a >= 0 and b >= 0 and c >= 0):
                raise ValueError(f"monomial {m} has an exponent that is not a nonnegative int")
            if a + b + c != degree:
                raise ValueError(f"monomial {m} is not of degree {degree}")
            j = basis_position(m)
            vec[j] = vec.get(j, 0) + field.coerce(coeff)
        return cls(field, degree, normalized(field, vec))

    @classmethod
    def monomial(cls, field, m, coeff=1) -> "GradedElement":
        m = Monomial(*m)
        return cls.from_terms(field, m.degree, [(m, coeff)])

    def is_zero(self) -> bool:
        return not self.vec

    def add(self, other: "GradedElement") -> "GradedElement":
        check_same_field(self.field, other.field)
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        out = dict(self.vec)
        for j, c in other.vec.items():
            out[j] = out.get(j, 0) + c
        return GradedElement(self.field, self.degree, normalized(self.field, out))

    def sub(self, other: "GradedElement") -> "GradedElement":
        return self.add(other.scale(-1))

    def scale(self, c) -> "GradedElement":
        c = self.field.coerce(c)
        return GradedElement(self.field, self.degree,
                             normalized(self.field, {j: c * x for j, x in self.vec.items()}))

    def mul(self, other: "GradedElement") -> "GradedElement":
        check_same_field(self.field, other.field)
        # the sign of mul_monomials and the position T(b+c) + c of the
        # product, inlined on the exponents
        left, right = degree_basis(self.degree), degree_basis(other.degree)
        terms = []
        for j, x2 in other.vec.items():
            a2, b2, c2 = right[j]
            terms.append((a2, b2, c2, b2 + c2, x2))
        out = {}
        get = out.get
        for j, x1 in self.vec.items():
            _, b1, c1 = left[j]
            k1 = b1 + c1
            for a2, b2, c2, k2, x2 in terms:
                k = k1 + k2
                pos = k * (k + 1) // 2 + c1 + c2
                x = -x1 * x2 if (a2 * k1 + b2 * c1) & 1 else x1 * x2
                y = get(pos)
                out[pos] = x if y is None else y + x
        return GradedElement.from_sparse(self.field, self.degree + other.degree, out)

    @classmethod
    def from_vector(cls, field, degree: int, vec) -> "GradedElement":
        """The element with coefficients vec over degree_basis(degree); each
        coefficient is anything `field.coerce` accepts.  An int 0 is skipped
        before `coerce`; any other value, 0.0 and None included, goes
        through it."""
        n = degree_dim(degree)
        if len(vec) != n:
            raise ValueError(f"vector of length {len(vec)} in degree {degree}, "
                             f"whose basis has {n} monomials")
        coerce = field.coerce
        return cls(field, degree, normalized(field, {j: coerce(c) for j, c in enumerate(vec)
                                                     if c or type(c) is not int}))

    @classmethod
    def from_sparse(cls, field, degree: int, vec: dict) -> "GradedElement":
        """The element with coefficients {position in degree_basis(degree):
        native scalar}; over Q the scalars may be integral `Fraction`s, over
        F_p unreduced ints (see `fields.normalized`)."""
        return cls(field, degree, normalized(field, vec))

    def render(self) -> str:
        """Deterministic text form, e.g. "2*x1^2 x3 - 1/3*x2"."""
        # ascending position: the order of degree_basis, lexicographically descending
        basis = degree_basis(self.degree)
        return render_sum(self.field, ((self.vec[j], _render_monomial(basis[j]))
                                       for j in sorted(self.vec)))

    def __repr__(self):
        return f"<{self.render()}>"


def _render_monomial(m: Monomial) -> str:
    if m.degree == 0:
        return "1"
    factors = []
    for name, e in zip(("x1", "x2", "x3"), m):
        if e == 1:
            factors.append(name)
        elif e > 1:
            factors.append(f"{name}^{e}")
    return " ".join(factors)


def parse_element(field, text: str, degree: int | None = None) -> GradedElement:
    """Parse the render() grammar: terms of "coeff*x1^a x2^b x3^c" joined by +/-."""
    text = text.strip()
    if text in ("0", ""):
        if degree is None:
            raise ValueError("degree required to parse 0")
        return GradedElement.zero(field, degree)
    terms = split_sum(text)
    if not terms:
        raise ValueError(f"no terms in {text!r}")
    items = []
    deg = None
    for sign, chunk in terms:
        coeff, mono = _parse_term(field, chunk)
        if deg is None:
            deg = mono.degree
        elif mono.degree != deg:
            raise ValueError(f"inhomogeneous input: {text!r}")
        items.append((mono, sign * coeff))
    if degree is not None and deg is not None and deg != degree:
        raise ValueError(f"parsed degree {deg}, expected {degree}")
    return GradedElement.from_terms(field, deg if degree is None else degree, items)


def _parse_term(field, chunk: str):
    """(coefficient, monomial) of one unsigned term; its factors multiply in
    the order written, so "x2 x1" is -x1 x2."""
    coeff = field.one
    if "*" in chunk:
        head, chunk = chunk.split("*", 1)
        coeff = parse_scalar(field, head.strip())
    elif not chunk.startswith("x"):
        coeff = parse_scalar(field, chunk)
        chunk = ""
    mono = ONE
    for factor in chunk.split():
        if "^" in factor:
            name, e = factor.split("^")
            e = parse_natural(e, f"exponent in {factor!r}")
        else:
            name, e = factor, 1
        if name == "1":
            continue
        if name not in ("x1", "x2", "x3"):
            raise ValueError(f"unknown generator {name!r}")
        sign, mono = mul_monomials(mono, [e if g == name else 0 for g in ("x1", "x2", "x3")])
        coeff *= sign
    return coeff, mono


def generators(field):
    """The three degree-1 generators as elements."""
    return (GradedElement.monomial(field, X1),
            GradedElement.monomial(field, X2),
            GradedElement.monomial(field, X3))


def element_from_linear(field, coeffs) -> GradedElement:
    """c1*x1 + c2*x2 + c3*x3."""
    return GradedElement.from_vector(field, 1, coeffs)


def element_from_squares(field, coeffs) -> GradedElement:
    """c1*x1^2 + c2*x2^2 + c3*x3^2, at positions 0, 3 and 5."""
    c1, c2, c3 = coeffs
    return GradedElement.from_vector(field, 2, (c1, 0, 0, c2, 0, c3))


def permute_element(u: GradedElement, perm) -> GradedElement:
    """Apply the variable substitution x_i -> x_perm[i] (0-based images).

    The substitution is an algebra map, so x1^a x2^b x3^c goes to the product
    of the pure powers x_perm[0]^a x_perm[1]^b x_perm[2]^c, whose sign
    `mul_monomials` gives.
    """
    items = []
    for m, c in u.terms.items():
        sign, mono = 1, ONE
        for g, e in zip(perm, m):
            s, mono = mul_monomials(mono, [e if k == g else 0 for k in range(3)])
            sign *= s
        items.append((mono, sign * c))
    return GradedElement.from_terms(u.field, u.degree, items)
