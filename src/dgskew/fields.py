"""Exact scalar arithmetic: the rationals and large prime fields.

A computation fixes one *session field* up front; matrices and graded
elements carry a reference to it and refuse to mix with another field.
A rational scalar is an int when it is integral and a `fractions.Fraction`
with denominator > 1 otherwise, so each value has one form and integer
data computes on int arithmetic; prime-field scalars are ints in
``[0, p)``.  There is no floating point anywhere.

The engine combines scalars with the native operators, on sparse
``{key: scalar}`` dicts, and brings each result to normal form once through
`normalized` (over F_p that is one reduction mod p).  The Field protocol
serves only the boundaries: `coerce` and `parse_scalar` on input from
outside, `inv` and `div` where the code divides, and `to_str` on output.
Both field classes keep all nine methods, the arithmetic ones included:
the independent test oracles compute with them, and the benchmark's
field-call counter wraps them.

The two text grammars, of skew-algebra elements and of presentations, write
and split their signed sums with the shared `render_sum` and `split_sum`.
"""

from __future__ import annotations

import re
from fractions import Fraction

# the scalars of the text grammars
_SCALAR = re.compile(r"[0-9]+(/[0-9]+)?")

# Primes above 2**31; the first is the default prime of "Fp".
CANDIDATE_PRIMES = (2147483659, 4294967311)

# Miller-Rabin on the prime bases 2..41 is exact below PRIME_LIMIT
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_LIMIT = 3317044064679887385961981


class FieldMismatchError(TypeError):
    """Raised when values from two different session fields are combined."""


class Frozen:
    """Base of the package's immutable values (`Matrix`, `DGSpec`, the
    presentations' `Generator` and `AlgebraPresentation`, the command
    line's and the suite's table rows).  A subclass's `__init__` stores its
    fields, in order, with `vars(self).update`; after that, assigning or
    deleting an attribute raises AttributeError.  Two values are equal when
    they are of one class with equal fields, and a value hashes as the
    tuple of its fields."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return tuple(vars(self).values()) == tuple(vars(other).values())

    def __hash__(self):
        return hash(tuple(vars(self).values()))


def _rational(x):
    """The canonical form of the rational x: an int when integral, else a
    `Fraction` (whose denominator is then > 1)."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class Rationals:
    """The field Q.  A scalar is an int when integral, else a `Fraction`
    with denominator > 1."""

    name = "Q"
    zero = 0
    one = 1

    def coerce(self, x):
        if isinstance(x, Fraction):
            return _rational(x)
        if isinstance(x, int):
            return int(x)
        if isinstance(x, str):
            return _coerce_text(self, x)
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return _rational(a + b)

    def sub(self, a, b):
        return _rational(a - b)

    def mul(self, a, b):
        return _rational(a * b)

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return _rational(Fraction(1) / a)

    def div(self, a, b):
        # Fraction(a), not a: the quotient of two ints stays exact
        return _rational(Fraction(a) / b)

    def is_zero(self, a) -> bool:
        return a == 0

    def to_str(self, a) -> str:
        return str(a)

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")


class PrimeField:
    """The field F_p for an odd prime p.  Scalars are ints in [0, p)."""

    def __init__(self, p: int):
        if p >= PRIME_LIMIT:
            raise ValueError(f"modulus {p} is not below {PRIME_LIMIT}, where primality is proven")
        if p < 3 or not _is_prime(p):
            raise ValueError(f"{p} is not an odd prime")
        self.p = p
        self.name = f"F{p}"
        self.zero = 0
        self.one = 1

    def coerce(self, x) -> int:
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            return (x.numerator * self.inv(x.denominator % self.p)) % self.p
        if isinstance(x, str):
            return _coerce_text(self, x)
        raise TypeError(f"cannot coerce {x!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in {self.name}")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return (a * self.inv(b)) % self.p

    def is_zero(self, a) -> bool:
        return a % self.p == 0

    def to_str(self, a) -> str:
        return str(a % self.p)

    def __repr__(self):
        return f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))


QQ = Rationals()


def field_from_name(name: str):
    """Parse a field descriptor: "Q", or "Fp:<prime>"."""
    name = name.strip()
    if name == "Q":
        return QQ
    if name.startswith("Fp:"):
        return PrimeField(parse_natural(name[3:], f"the modulus of {name!r}"))
    if name == "Fp":
        return PrimeField(CANDIDATE_PRIMES[0])
    raise ValueError(f"unknown field descriptor {name!r} (expected 'Q' or 'Fp:<prime>')")


def parse_scalar(field, text: str):
    """The scalar written as text in the form `to_str` renders it, an
    integer "3" or a quotient "2/5" (a sign is a token of its own); anything
    else, such as "0.5" or "1e5000", raises ValueError, and so does a
    denominator that is zero in the field."""
    if not _SCALAR.fullmatch(text):
        raise ValueError(f"coefficient {text!r} is not an integer or a quotient p/q")
    try:
        return field.coerce(Fraction(text))
    except ZeroDivisionError as e:
        raise ValueError(f"coefficient {text!r} has a zero denominator in {field.name}") from e


def _coerce_text(field, text: str):
    """`coerce` of a string: spaces around, one optional "-", then a scalar."""
    text = text.strip()
    value = parse_scalar(field, text.removeprefix("-"))
    return field.coerce(-value) if text.startswith("-") else value


def parse_natural(text: str, what: str) -> int:
    """The nonnegative integer in ASCII digits, as `render` writes one; int()
    would also take spaces, "_", a sign and other scripts' digits."""
    if not (text.isascii() and text.isdecimal()):
        raise ValueError(f"{what} is not a nonnegative integer")
    return int(text)


def render_sum(field, terms) -> str:
    """The text of a sum of (scalar, term text) pairs, in the order given,
    as the text grammars write it: "2*x - y + 3".  A coefficient 1 and a
    term "1" (the unit) are left out of a product; no terms give "0"."""
    out = []
    for c, term in terms:
        s = field.to_str(c)
        neg = s.startswith("-")
        if neg:
            s = s[1:]
        body = s if term == "1" else term if s == "1" else f"{s}*{term}"
        if out:
            out.append(("- " if neg else "+ ") + body)
        else:
            out.append(("-" if neg else "") + body)
    return " ".join(out) if out else "0"


def split_sum(text: str):
    """The terms of a sum written as `render_sum` writes it, as (sign, term)
    pairs in order: sign is 1 or -1, and term the stripped text after the
    signs (possibly empty, which the grammars reject)."""
    out = []
    for chunk in text.replace("- ", "+ -").replace(" -", " +-").split("+"):
        term = chunk.strip()
        if not term:
            continue
        sign = 1
        while term.startswith("-"):
            sign = -sign
            term = term[1:].strip()
        out.append((sign, term))
    return out


def _modulus(field):
    """p for F_p, None for Q."""
    return getattr(field, "p", None)


def normalized(field, vec):
    """The nonzero entries of vec, a dense sequence or a sparse dict with
    any keys, as a fresh dict of normalized field scalars: over Q ints and
    `Fraction`s with denominator > 1, over F_p ints in [1, p).  Over Q vec
    may hold integral `Fraction`s, over F_p unreduced ints."""
    p = _modulus(field)
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    if p is None:
        # `_rational`, inlined: this is the engine's hottest loop
        return {j: x.numerator if type(x) is Fraction and x.denominator == 1 else x
                for j, x in items if x}
    return {j: y for j, x in items if (y := x % p)}


def _all_zero(field, values) -> bool:
    """True when every scalar of values is zero in field, taken as native
    arithmetic leaves it: exactly over Q, mod p over F_p."""
    p = _modulus(field)
    if p is None:
        return not any(values)
    return not any(x % p for x in values)


def check_same_field(a, b):
    if a != b:
        raise FieldMismatchError(f"mixed session fields: {a!r} and {b!r}")


def _is_prime(n: int) -> bool:
    """Miller-Rabin on `_MR_BASES`: exact for n < PRIME_LIMIT."""
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
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
