"""Exact scalar arithmetic: the rationals and large prime fields.

A computation fixes one *session field* up front; matrices and graded
elements carry a reference to it and refuse to mix with another field.
Rational scalars are `fractions.Fraction`, prime-field scalars are ints
in ``[0, p)``.  There is no floating point anywhere.

The engine combines scalars with the native operators, on sparse
``{key: scalar}`` dicts, and brings each result to normal form once through
`normalized` (over F_p that is one reduction mod p).  The Field protocol
serves only the boundaries: `coerce` and `parse_scalar` on input from
outside, `inv` and `div` where the code divides, and `to_str` on output.
Both field classes keep all nine methods, the arithmetic ones included:
the independent test oracles compute with them, and the benchmark's
field-call counter wraps them.
"""

from __future__ import annotations

import re
from fractions import Fraction

# the scalars of the text grammars
_SCALAR = re.compile(r"[0-9]+(/[0-9]+)?")

# Primes above 2**31; the first is the default prime of "Fp".
CANDIDATE_PRIMES = (2147483659, 4294967311)


class FieldMismatchError(TypeError):
    """Raised when values from two different session fields are combined."""


class Rationals:
    """The field Q.  Scalars are `Fraction` instances."""

    name = "Q"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, x) -> Fraction:
        if isinstance(x, Fraction):
            return x
        if isinstance(x, int):
            return Fraction(x)
        if isinstance(x, str):
            return Fraction(x.strip())
        raise TypeError(f"cannot coerce {x!r} into Q")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return Fraction(1) / a

    def div(self, a, b):
        # plain ints are valid rationals; keep the quotient exact
        return Fraction(a) / b

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
        if p < 3 or not _is_probable_prime(p):
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
            return self.coerce(Fraction(x.strip()))
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
        return PrimeField(int(name[3:]))
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
        return field.coerce(text)
    except ZeroDivisionError as e:
        raise ValueError(f"coefficient {text!r} has a zero denominator in {field.name}") from e


def _modulus(field):
    """p for F_p, None for Q."""
    return getattr(field, "p", None)


def normalized(field, vec):
    """The nonzero entries of vec, a dense sequence or a sparse dict with
    any keys, as a fresh dict of normalized field scalars: `Fraction`s over
    Q, ints in [1, p) over F_p.  Over Q vec may hold ints, over F_p
    unreduced ints."""
    p = _modulus(field)
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    if p is None:
        return {j: x if type(x) is Fraction else Fraction(x) for j, x in items if x}
    return {j: y for j, x in items if (y := x % p)}


def check_same_field(a, b):
    if a != b:
        raise FieldMismatchError(f"mixed session fields: {a!r} and {b!r}")


def _is_probable_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
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
