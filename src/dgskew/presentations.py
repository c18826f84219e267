"""Finitely presented connected graded algebras, truncated degreewise.

A presentation is a list of generators with positive degrees and a list of
homogeneous relations (noncommutative polynomials in the generators).  The
truncation computes, degree by degree, a monomial-word basis of the quotient
together with the "append one generator" maps; every product inside the
bound reduces to those.  This stays linear algebra throughout: in degree d
the relation span is generated by u * r with u running over the degree
d - |r| quotient basis, because occurrences of a relation anywhere left of
the last letter already vanish in the lower-degree quotients.

Coset representatives are the lexicographically smallest candidate words
outside the relation span (candidates extend lower-degree basis words by
one generator, so representatives are prefix-closed), fixed per degree for
reproducibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegreeOverflowError
from .linalg import RowSpan, apply_columns


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


@dataclass(frozen=True)
class AlgebraPresentation:
    """Generators plus homogeneous relations; a relation maps words (tuples
    of generator indices) to scalars."""

    field: object
    generators: tuple
    relations: tuple  # tuple of dict[word, scalar]

    def __post_init__(self):
        for g in self.generators:
            if g.degree < 1:
                raise ValueError(f"generator {g.name} must have positive degree")
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        cleaned = []
        for rel in self.relations:
            rel = {tuple(w): c for w, c in rel.items() if not self.field.is_zero(c)}
            if not rel:
                raise ValueError("zero relation")
            degs = {self.word_degree(w) for w in rel}
            if len(degs) != 1:
                raise ValueError(f"inhomogeneous relation {self.render_poly(rel)}")
            if degs == {0}:
                raise ValueError("degree-0 relation makes the presentation inconsistent")
            cleaned.append(rel)
        object.__setattr__(self, "relations", tuple(cleaned))

    def word_degree(self, word) -> int:
        return sum(self.generators[g].degree for g in word)

    def opposite(self) -> "AlgebraPresentation":
        """Same generators, every relation word reversed (the opposite algebra)."""
        rels = tuple({tuple(reversed(w)): c for w, c in rel.items()} for rel in self.relations)
        return AlgebraPresentation(self.field, self.generators, rels)

    # -- text grammar: "gen x:1, y:1, z:2; rel x*y + y*x; rel ..." --

    def render(self) -> str:
        gens = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        parts = [f"gen {gens}".rstrip()]
        for rel in self.relations:
            parts.append("rel " + self.render_poly(rel))
        return "; ".join(parts)

    def render_poly(self, rel) -> str:
        F = self.field
        items = sorted(rel.items())
        out = []
        for i, (w, c) in enumerate(items):
            s = F.to_str(c)
            neg = s.startswith("-")
            if neg:
                s = s[1:]
            word = self.render_word(w)
            if word == "1":
                body = s
            elif s == "1":
                body = word
            else:
                body = f"{s}*{word}"
            if i == 0:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    def render_word(self, word) -> str:
        if not word:
            return "1"
        parts = []
        i = 0
        while i < len(word):
            j = i
            while j < len(word) and word[j] == word[i]:
                j += 1
            name = self.generators[word[i]].name
            parts.append(name if j - i == 1 else f"{name}^{j - i}")
            i = j
        return "*".join(parts)

    def to_json(self) -> dict:
        return {"generators": [[g.name, g.degree] for g in self.generators],
                "relations": [self.render_poly(rel) for rel in self.relations]}


def parse_presentation(field, text: str) -> AlgebraPresentation:
    """Parse the render() grammar: "gen x:1, y:1; rel x*y + y*x; ..."."""
    gens: list[Generator] = []
    rels = []
    for stmt in text.split(";"):
        stmt = stmt.strip()
        if not stmt:
            continue
        head, _, body = stmt.partition(" ")
        if head == "gen":
            for piece in body.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                name, _, deg = piece.partition(":")
                gens.append(Generator(name.strip(), int(deg)))
        elif head == "rel":
            rels.append(_parse_poly(field, body, gens))
        else:
            raise ValueError(f"unknown statement {stmt!r}")
    return AlgebraPresentation(field, tuple(gens), tuple(rels))


def _parse_poly(field, text: str, gens) -> dict:
    index = {g.name: i for i, g in enumerate(gens)}
    out: dict = {}
    for chunk in text.replace("- ", "+ -").replace(" -", " +-").split("+"):
        chunk = chunk.strip()
        if not chunk:
            continue
        sign = 1
        while chunk.startswith(("-", "+")):
            if chunk[0] == "-":
                sign = -sign
            chunk = chunk[1:].strip()
        coeff = field.one
        factors = [f.strip() for f in chunk.split("*")]
        if factors and factors[0] not in index and "^" not in factors[0]:
            # leading factor is a scalar, e.g. "3/2" or "2"
            try:
                coeff = field.coerce(Fraction(factors[0]))
                factors = factors[1:]
            except ValueError:
                pass
        word: list[int] = []
        for f in factors:
            if not f or f == "1":
                continue
            if "^" in f:
                name, e = f.split("^")
                if not e.isdecimal():
                    raise ValueError(f"exponent in {f!r} is not a nonnegative integer")
                e = int(e)
            else:
                name, e = f, 1
            if name not in index:
                raise ValueError(f"unknown generator {name!r}")
            word.extend([index[name]] * e)
        key = tuple(word)
        c = coeff if sign > 0 else field.neg(coeff)
        acc = field.add(out.get(key, field.zero), c)
        if field.is_zero(acc):
            out.pop(key, None)
        else:
            out[key] = acc
    return out


class TruncatedAlgebra:
    """Degreewise bases and multiplication of a presented algebra, valid for
    all products landing in internal degree <= bound."""

    def __init__(self, presentation: AlgebraPresentation, bound: int):
        if presentation.relations:
            maxrel = max(presentation.word_degree(next(iter(r))) for r in presentation.relations)
            if bound < maxrel:
                raise ValueError(f"bound {bound} below maximal relation degree {maxrel}")
        self.presentation = presentation
        self.field = presentation.field
        self.bound = bound
        self.basis = [[()]]            # chosen representative words per degree
        self._append: dict = {}        # (src_degree, gen) -> list of columns
        self._word_mul_cache: dict = {}
        self._mul_columns_cache: dict = {}
        for d in range(1, bound + 1):
            self._build_degree(d)

    @property
    def dims(self):
        """Basis sizes per degree 0..bound: the Hilbert function."""
        return [len(b) for b in self.basis]

    def dim(self, d: int) -> int:
        if d < 0:
            return 0
        if d > self.bound:
            raise DegreeOverflowError(f"degree {d} beyond bound {self.bound}")
        return len(self.basis[d])

    def _build_degree(self, d: int):
        F = self.field
        gens = self.presentation.generators
        # candidate words: lower-degree basis word + one generator
        candidates = []
        for gi, g in enumerate(gens):
            if g.degree > d:
                continue
            for b in self.basis[d - g.degree]:
                candidates.append(b + (gi,))
        candidates.sort()
        pos = {w: i for i, w in enumerate(candidates)}
        n = len(candidates)

        rel_vecs = []
        for rel in self.presentation.relations:
            dr = self.presentation.word_degree(next(iter(rel)))
            if dr > d:
                continue
            for u in self.basis[d - dr]:
                vec = [F.zero] * n
                for w, c in rel.items():
                    prefix, last = w[:-1], w[-1]
                    head = self._fold(u, prefix)  # vector in degree d - deg(last)
                    src = d - gens[last].degree
                    for i, a in enumerate(head):
                        if not F.is_zero(a):
                            p = pos[self.basis[src][i] + (last,)]
                            vec[p] = F.add(vec[p], F.mul(c, a))
                rel_vecs.append(vec)
        rel_span = RowSpan(F, n, pivot_from_right=True)
        rel_span.extend(rel_vecs)

        chooser = RowSpan(F, n, pivot_from_right=True)
        chooser.extend(rel_span.basis_rows())
        selected = []
        for i, w in enumerate(candidates):
            unit = [F.zero] * n
            unit[i] = F.one
            if chooser.add(unit):
                selected.append((i, w))
        sel_pos = {i: k for k, (i, _) in enumerate(selected)}
        self.basis.append([w for _, w in selected])

        # append maps: normal form of (basis word of degree d-e) + generator
        for gi, g in enumerate(gens):
            if g.degree > d:
                continue
            src = d - g.degree
            cols = []
            for b in self.basis[src]:
                unit = [F.zero] * n
                unit[pos[b + (gi,)]] = F.one
                residue = rel_span.reduce(unit)
                col = [F.zero] * len(selected)
                for i, a in enumerate(residue):
                    if not F.is_zero(a):
                        if i not in sel_pos:
                            raise AssertionError("reduction left a non-basis candidate")
                        col[sel_pos[i]] = a
                cols.append(tuple(col))
            self._append[(src, gi)] = cols

    def _fold(self, word, letters):
        """Vector of word * letters, folding one generator at a time."""
        F = self.field
        deg = self.presentation.word_degree(word)
        vec = [F.zero] * len(self.basis[deg])
        vec[self.basis[deg].index(word)] = F.one
        for g in letters:
            vec = self._apply_append(vec, deg, g)
            deg += self.presentation.generators[g].degree
        return vec

    def _apply_append(self, vec, deg: int, g: int):
        F = self.field
        gdeg = self.presentation.generators[g].degree
        if deg + gdeg > self.bound:
            raise DegreeOverflowError(f"product degree {deg + gdeg} beyond bound {self.bound}")
        cols = self._append[(deg, g)]
        out = [F.zero] * len(self.basis[deg + gdeg])
        for i, a in enumerate(vec):
            if not F.is_zero(a):
                for j, x in enumerate(cols[i]):
                    if not F.is_zero(x):
                        out[j] = F.add(out[j], F.mul(a, x))
        return out

    def word_vector(self, word):
        """Normal form of an arbitrary word: coordinates in its degree basis."""
        return self._fold((), tuple(word))

    def word_mul_matrix(self, src_degree: int, word):
        """Columns of left-multiplication sending A_src -> A_(src+|word|),
        v |-> v * word ... applied on basis elements of A_src."""
        key = (src_degree, tuple(word))
        if key not in self._word_mul_cache:
            cols = []
            for b in self.basis[src_degree]:
                cols.append(tuple(self._fold(b, tuple(word))))
            self._word_mul_cache[key] = cols
        return self._word_mul_cache[key]

    def mul_columns(self, vec, degree: int, q: int, left: bool):
        """Sparse columns ``{row: nonzero}`` of u |-> c*u (left) or u |-> u*c
        on A_q, one per basis word u, for the element c = vec of A_degree.

        The columns are cached and shared between callers: read them only."""
        key = (tuple(vec), degree, q, left)
        if key not in self._mul_columns_cache:
            coeffs = {k: x for k, x in enumerate(vec) if x}
            if left:
                tables = [self.word_mul_matrix(degree, u) for u in self.basis[q]]
            else:
                rights = {k: self.word_mul_matrix(q, self.basis[degree][k]) for k in coeffs}
                tables = [{k: cols[w] for k, cols in rights.items()}
                          for w in range(len(self.basis[q]))]
            self._mul_columns_cache[key] = [apply_columns(self.field, table, coeffs)
                                            for table in tables]
        return self._mul_columns_cache[key]

    def mul(self, u, p: int, v, q: int):
        """Product of element-vectors: (u in degree p) * (v in degree q)."""
        F = self.field
        if p + q > self.bound:
            raise DegreeOverflowError(f"product degree {p + q} beyond bound {self.bound}")
        out = [F.zero] * len(self.basis[p + q])
        for j, c in enumerate(v):
            if F.is_zero(c):
                continue
            cols = self.word_mul_matrix(p, self.basis[q][j])
            for i, a in enumerate(u):
                if not F.is_zero(a):
                    col = cols[i]
                    for k, x in enumerate(col):
                        if not F.is_zero(x):
                            out[k] = F.add(out[k], F.mul(F.mul(a, c), x))
        return out

    def normal_form(self, poly, degree: int | None = None):
        """Coordinates of a word combination {word: coeff} in its degree basis."""
        F = self.field
        degs = {self.presentation.word_degree(w) for w in poly}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        d = degs.pop() if degs else (degree if degree is not None else 0)
        if degree is not None and d != degree:
            raise ValueError(f"element has degree {d}, expected {degree}")
        if d > self.bound:
            raise DegreeOverflowError(f"degree {d} beyond bound {self.bound}")
        out = [F.zero] * len(self.basis[d])
        for w, c in poly.items():
            if F.is_zero(c):
                continue
            vec = self.word_vector(w)
            for i, a in enumerate(vec):
                if not F.is_zero(a):
                    out[i] = F.add(out[i], F.mul(c, a))
        return out

    def element_render(self, vec, degree: int) -> str:
        F = self.field
        parts = []
        for w, c in zip(self.basis[degree], vec):
            if F.is_zero(c):
                continue
            s = F.to_str(c)
            word = self.presentation.render_word(w)
            parts.append(word if s == "1" else (f"{s}*{word}" if word != "1" else s))
        return " + ".join(parts) if parts else "0"

    def check_associativity(self, rng: random.Random, samples: int = 30) -> bool:
        """Spot-check (uv)w = u(vw) on random triples within the bound."""
        F = self.field
        degrees = [d for d in range(self.bound + 1) if self.dims[d]]
        for _ in range(samples):
            p = rng.choice(degrees)
            qs = [q for q in degrees if p + q <= self.bound]
            if not qs:
                continue
            q = rng.choice(qs)
            rs = [r for r in degrees if p + q + r <= self.bound]
            if not rs:
                continue
            r = rng.choice(rs)
            u = [F.coerce(rng.randint(-2, 2)) for _ in range(self.dims[p])]
            v = [F.coerce(rng.randint(-2, 2)) for _ in range(self.dims[q])]
            w = [F.coerce(rng.randint(-2, 2)) for _ in range(self.dims[r])]
            left = self.mul(self.mul(u, p, v, q), p + q, w, r)
            right = self.mul(u, p, self.mul(v, q, w, r), q + r)
            if any(not F.is_zero(F.sub(a, b)) for a, b in zip(left, right)):
                return False
        return True


def truncate(presentation: AlgebraPresentation, bound: int) -> TruncatedAlgebra:
    """Bases and multiplication tables valid through internal degree `bound`."""
    return TruncatedAlgebra(presentation, bound)


# -- the candidate cohomology presentations, one per classifier case --


def case_presentation(field, label: str, row=None, l1=None, l2=None) -> AlgebraPresentation:
    """The predicted cohomology presentation for a classifier case.

    Two degree-1 generators x, y for the rank-1 cases with l1*l2-dependent
    relations; a central degree-2 generator z when one of the degree-1
    directions collapses; k[x] or k[x, y]/(x^2) for rank 2; the full
    three-generator algebra for rank 0; no generators for rank 3.

    For the R1a case the mixed coefficient is
    (m12*l1^2 + m13*l2^2 - m11) / (2*l1*l2): with it the relation's cochain
    representative is exactly the coboundary of x1, which the degree-2
    boundary space pins down.
    """
    F = field
    one = F.one
    x, y, z = 0, 1, 2
    deg1 = (Generator("x", 1), Generator("y", 1))
    deg12 = (Generator("x", 1), Generator("y", 1), Generator("z", 2))
    anticomm = {(x, y): one, (y, x): one}

    if label == "R0":
        gens = (Generator("x", 1), Generator("y", 1), Generator("z", 1))
        rels = ({(0, 1): one, (1, 0): one},
                {(1, 2): one, (2, 1): one},
                {(2, 0): one, (0, 2): one})
        return AlgebraPresentation(F, gens, rels)
    if label == "R3":
        return AlgebraPresentation(F, (), ())
    if label == "R2_pairing_nonzero":
        return AlgebraPresentation(F, (Generator("x", 1),), ())
    if label == "R2_pairing_zero":
        gens = (Generator("x", 1), Generator("y", 2))
        rels = ({(x, x): one}, {(x, y): one, (y, x): F.neg(one)})
        return AlgebraPresentation(F, gens, rels)

    m11, m12, m13 = (F.coerce(v) for v in row)
    l1 = F.coerce(l1)
    l2 = F.coerce(l2)
    if label == "R1a":
        shifted = F.sub(F.add(F.mul(m12, F.mul(l1, l1)), F.mul(m13, F.mul(l2, l2))), m11)
        c = F.div(shifted, F.mul(F.coerce(2), F.mul(l1, l2)))
        rel = {(x, x): m12, (y, y): m13, (x, y): F.neg(c), (y, x): F.neg(c)}
        return AlgebraPresentation(F, deg1, (rel,))
    if label == "R1b":
        return AlgebraPresentation(F, deg1, (anticomm,))
    if label == "R1c":
        return AlgebraPresentation(F, deg1, ({(x, x): m12, (y, y): m13},))
    if label in ("R1d", "R1e", "R1f"):
        if label == "R1d":
            quad = {(x, x): m12, (y, y): m13}
        elif label == "R1e":
            quad = {(x, x): m13, (y, y): m12}
        else:
            quad = {(x, x): m12, (y, y): m13}
        central = ({(z, x): one, (x, z): F.neg(one)},
                   {(z, y): one, (y, z): F.neg(one)})
        return AlgebraPresentation(F, deg12, (quad, dict(anticomm)) + central)
    raise ValueError(f"unknown case label {label!r}")
