"""The underlying graded algebra: three degree-1 generators x1, x2, x3 with
pairwise anticommutation x_i x_j = -x_j x_i (i != j).

Normal forms are signed exponent triples: every word rewrites uniquely to
+- x1^a x2^b x3^c, so degree-d elements live in the C(d+2, 2)-dimensional
span of the degree-d monomials.  No Groebner machinery is needed; the three
relations already form a confluent rewriting system for this order.

`GradedElement` arithmetic sums coefficients with the native operators and
normalizes once per result through `fields.normalized`.  Field methods are
called only where scalars cross the boundary: `coerce` on the coefficients
`from_terms` and `scale` are handed, `parse_scalar` in the text grammar,
and `to_str` in `render`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .fields import check_same_field, normalized, parse_scalar


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


def mul_monomials(m1: Monomial, m2: Monomial):
    """Product of normal-form monomials: (sign, monomial).

    Sorting the concatenated word x1^a1 x2^b1 x3^c1 * x1^a2 x2^b2 x3^c2 into
    normal form transposes distinct generators a2*(b1+c1) + b2*c1 times.
    """
    sign = -1 if (m2.a * (m1.b + m1.c) + m2.b * m1.c) % 2 else 1
    return sign, Monomial(m1.a + m2.a, m1.b + m2.b, m1.c + m2.c)


def degree_basis(d: int):
    """All degree-d monomials, lexicographically descending on (a, b, c)."""
    if d < 0:
        return []
    out = []
    for a in range(d, -1, -1):
        for b in range(d - a, -1, -1):
            out.append(Monomial(a, b, d - a - b))
    return out


def degree_dim(d: int) -> int:
    return 0 if d < 0 else (d + 1) * (d + 2) // 2


_BASIS_INDEX_CACHE: dict = {}


def basis_index(d: int):
    """Monomial -> position in degree_basis(d)."""
    if d not in _BASIS_INDEX_CACHE:
        _BASIS_INDEX_CACHE[d] = {m: i for i, m in enumerate(degree_basis(d))}
    return _BASIS_INDEX_CACHE[d]


@dataclass
class GradedElement:
    """A homogeneous element: finite map from degree-d monomials to scalars.

    Zero coefficients are never stored.  Treated as immutable after
    construction.
    """

    field: object
    degree: int
    terms: dict

    @classmethod
    def zero(cls, field, degree: int) -> "GradedElement":
        return cls(field, degree, {})

    @classmethod
    def from_terms(cls, field, degree: int, items) -> "GradedElement":
        """The sum of the (monomial, coefficient) items; coefficients are
        anything `field.coerce` accepts."""
        terms = {}
        for m, c in items:
            m = Monomial(*m)
            if m.degree != degree:
                raise ValueError(f"monomial {m} is not of degree {degree}")
            terms[m] = terms.get(m, 0) + field.coerce(c)
        return cls(field, degree, normalized(field, terms))

    @classmethod
    def monomial(cls, field, m, coeff=1) -> "GradedElement":
        m = Monomial(*m)
        return cls.from_terms(field, m.degree, [(m, coeff)])

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "GradedElement") -> "GradedElement":
        check_same_field(self.field, other.field)
        if self.degree != other.degree:
            raise ValueError("degrees differ")
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return GradedElement(self.field, self.degree, normalized(self.field, out))

    def sub(self, other: "GradedElement") -> "GradedElement":
        return self.add(other.scale(-1))

    def scale(self, c) -> "GradedElement":
        c = self.field.coerce(c)
        return GradedElement(self.field, self.degree,
                             normalized(self.field, {m: c * x for m, x in self.terms.items()}))

    def mul(self, other: "GradedElement") -> "GradedElement":
        check_same_field(self.field, other.field)
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                sign, m = mul_monomials(m1, m2)
                out[m] = out.get(m, 0) + sign * c1 * c2
        return GradedElement(self.field, self.degree + other.degree, normalized(self.field, out))

    def vector(self):
        """Coefficients over degree_basis(self.degree)."""
        F = self.field
        idx = basis_index(self.degree)
        v = [F.zero] * degree_dim(self.degree)
        for m, c in self.terms.items():
            v[idx[m]] = c
        return tuple(v)

    @classmethod
    def from_vector(cls, field, degree: int, vec) -> "GradedElement":
        basis = degree_basis(degree)
        return cls.from_terms(field, degree, [(m, c) for m, c in zip(basis, vec)])

    def render(self) -> str:
        """Deterministic text form, e.g. "2*x1^2 x3 - 1/3*x2"."""
        if not self.terms:
            return "0"
        out = []
        # the order of degree_basis: lexicographically descending
        for i, m in enumerate(sorted(self.terms, reverse=True)):
            s = self.field.to_str(self.terms[m])
            mono = _render_monomial(m)
            neg = s.startswith("-")
            if neg:
                s = s[1:]
            if mono == "1":
                body = s
            elif s == "1":
                body = mono
            else:
                body = f"{s}*{mono}"
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

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
    # normalize separators: ensure +/- acting as term separators are padded
    terms = []
    for chunk in text.replace("- ", "+ -").replace(" -", " +-").split("+"):
        chunk = chunk.strip()
        if chunk:
            terms.append(chunk)
    if not terms:
        raise ValueError(f"no terms in {text!r}")
    items = []
    deg = None
    for chunk in terms:
        coeff, mono = _parse_term(field, chunk)
        if deg is None:
            deg = mono.degree
        elif mono.degree != deg:
            raise ValueError(f"inhomogeneous input: {text!r}")
        items.append((mono, coeff))
    if degree is not None and deg is not None and deg != degree:
        raise ValueError(f"parsed degree {deg}, expected {degree}")
    return GradedElement.from_terms(field, deg if degree is None else degree, items)


def _parse_term(field, chunk: str):
    sign = 1
    chunk = chunk.strip()
    while chunk.startswith("-") or chunk.startswith("+"):
        if chunk[0] == "-":
            sign = -sign
        chunk = chunk[1:].strip()
    coeff = field.one
    if "*" in chunk:
        head, chunk = chunk.split("*", 1)
        coeff = parse_scalar(field, head.strip())
    elif not chunk.startswith("x"):
        coeff = parse_scalar(field, chunk)
        chunk = ""
    exps = [0, 0, 0]
    for factor in chunk.split():
        if not factor:
            continue
        if "^" in factor:
            name, e = factor.split("^")
            if not e.isdecimal():
                raise ValueError(f"exponent in {factor!r} is not a nonnegative integer")
            e = int(e)
        else:
            name, e = factor, 1
        if name == "1":
            continue
        if name not in ("x1", "x2", "x3"):
            raise ValueError(f"unknown generator {name!r}")
        exps[int(name[1]) - 1] += e
    return sign * coeff, Monomial(*exps)


def generators(field):
    """The three degree-1 generators as elements."""
    return (GradedElement.monomial(field, X1),
            GradedElement.monomial(field, X2),
            GradedElement.monomial(field, X3))


def element_from_linear(field, coeffs) -> GradedElement:
    """c1*x1 + c2*x2 + c3*x3."""
    return GradedElement.from_terms(field, 1, [(X1, coeffs[0]), (X2, coeffs[1]), (X3, coeffs[2])])


def element_from_squares(field, coeffs) -> GradedElement:
    """c1*x1^2 + c2*x2^2 + c3*x3^2."""
    return GradedElement.from_terms(
        field, 2,
        [(Monomial(2, 0, 0), coeffs[0]), (Monomial(0, 2, 0), coeffs[1]), (Monomial(0, 0, 2), coeffs[2])])


def permute_element(u: GradedElement, perm) -> GradedElement:
    """Apply the variable substitution x_i -> x_perm[i] (0-based images).

    The substitution is an algebra map; resorting each permuted word into
    normal form contributes the inversion-parity sign.
    """
    items = []
    for m, c in u.terms.items():
        word = [perm[0]] * m.a + [perm[1]] * m.b + [perm[2]] * m.c
        sign = 1
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                if word[i] > word[j]:
                    sign = -sign
        exps = [0, 0, 0]
        for g in word:
            exps[g] += 1
        items.append((Monomial(*exps), sign * c))
    return GradedElement.from_terms(u.field, u.degree, items)
