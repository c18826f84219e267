"""Finitely presented connected graded algebras, truncated degreewise.

A presentation is a list of generators with positive degrees and a list of
homogeneous relations (noncommutative polynomials in the generators).  The
truncation computes, degree by degree, a monomial-word basis of the quotient
and the "append one generator" maps, the tables of right multiplication by
one-letter words.  Any other word's table is one append step from its
prefix's, so every product inside the bound reduces to those maps.
This stays linear algebra throughout: in degree d
the relation span is generated by u * r with u running over the degree
d - |r| quotient basis, because occurrences of a relation anywhere left of
the last letter already vanish in the lower-degree quotients.

An element of degree d is a sparse vector ``{k: nonzero}`` on the basis
words of degree d (k indexes `basis[d]`); every vector and map here is kept
sparse.

Coset representatives are the lexicographically smallest candidate words
outside the relation span (candidates extend lower-degree basis words by
one generator, so representatives are prefix-closed), fixed per degree for
reproducibility.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import BoundInsufficientError
from .fields import normalized, parse_scalar, render_sum, split_sum
from .linalg import RowSpan, apply_columns


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int


@dataclass(frozen=True)
class AlgebraPresentation:
    """Generators plus homogeneous relations; a relation maps words (tuples
    of generator indices) to scalars, anything `field.coerce` accepts.  The
    stored relations hold their nonzero coefficients as field scalars."""

    field: object
    generators: tuple
    relations: tuple  # tuple of dict[word, scalar]

    def __post_init__(self):
        for g in self.generators:
            if g.degree < 1:
                raise ValueError(f"generator {g.name} must have positive degree")
        names = [g.name for g in self.generators]
        for name in names:
            if not name.isidentifier():
                raise ValueError(f"generator name {name!r} is not an identifier")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        cleaned = []
        for rel in self.relations:
            rel = normalized(self.field, {tuple(w): self.field.coerce(c) for w, c in rel.items()})
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
        return render_sum(self.field, ((c, self.render_word(w)) for w, c in sorted(rel.items())))

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
    for sign, chunk in split_sum(text):
        coeff = field.one
        factors = [f.strip() for f in chunk.split("*")]
        if factors and not factors[0].isidentifier() and "^" not in factors[0]:
            # generator names are identifiers: the leading factor is a
            # scalar, e.g. "3/2" or "2"
            coeff = parse_scalar(field, factors[0])
            factors = factors[1:]
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
        out[key] = out.get(key, 0) + sign * coeff
    return normalized(field, out)


class TruncatedAlgebra:
    """Degreewise bases and multiplication of a presented algebra, valid for
    all products landing in internal degree <= bound."""

    def __init__(self, presentation: AlgebraPresentation, bound: int):
        if bound < 0:
            raise ValueError(f"bound {bound} is negative")
        maxrel = max((presentation.word_degree(next(iter(r))) for r in presentation.relations),
                     default=0)
        if bound < maxrel:
            raise BoundInsufficientError("a relation", maxrel, bound)
        self.presentation = presentation
        self.field = presentation.field
        self.bound = bound
        self.basis = [[()]]            # chosen representative words per degree
        self._word_mul_cache: dict = {}  # (src_degree, word) -> sparse columns
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
            raise BoundInsufficientError("a dimension", d, self.bound)
        return len(self.basis[d])

    def _build_degree(self, d: int):
        """Basis and append maps of degree d.

        The candidates are the words b + (g,) for b a basis word of degree
        d - |g|, sorted, and indexed latest-first.  Each row of the relation
        span then pivots on its latest candidate, so the non-pivot
        candidates are the greedy, lexicographically earliest complement of
        the span: the basis.  The residue of a candidate modulo the span is
        its normal form.
        """
        gens = self.presentation.generators
        candidates = sorted(b + (gi,) for gi, g in enumerate(gens) if g.degree <= d
                            for b in self.basis[d - g.degree])
        n = len(candidates)
        pos = {w: n - 1 - i for i, w in enumerate(candidates)}

        # u * r for every relation r and basis word u of degree d - |r|: the
        # prefix of each word of r folds in through the word tables, the last
        # letter lands on a candidate
        rel_vecs = []
        for rel in self.presentation.relations:
            src = d - self.presentation.word_degree(next(iter(rel)))
            if src < 0:
                continue
            vecs = [{} for _ in self.basis[src]]
            for w, c in rel.items():
                prefix, last = w[:-1], w[-1]
                heads = self.basis[d - gens[last].degree]
                for vec, head in zip(vecs, self.word_mul_matrix(src, prefix)):
                    for i, a in head.items():
                        p = pos[heads[i] + (last,)]
                        vec[p] = vec.get(p, 0) + c * a
            rel_vecs.extend(vecs)
        rel_span = RowSpan(self.field, n)
        rel_span.extend(rel_vecs)

        pivots = set(rel_span.pivots)
        self.basis.append([w for w in candidates if pos[w] not in pivots])
        sel_pos = {pos[w]: k for k, w in enumerate(self.basis[d])}

        one = self.field.one
        for gi, g in enumerate(gens):
            if g.degree > d:
                continue
            src = d - g.degree
            cols = []
            for b in self.basis[src]:
                residue = rel_span.reduce({pos[b + (gi,)]: one})
                if not residue.keys() <= sel_pos.keys():
                    raise AssertionError("reduction left a non-basis candidate")
                cols.append({sel_pos[i]: a for i, a in residue.items()})
            self._word_mul_cache[(src, (gi,))] = cols

    def word_mul_matrix(self, src_degree: int, word):
        """Sparse columns ``{row: nonzero}`` of v |-> v * word from A_src to
        A_(src+|word|), one per basis word of A_src.

        A word's table is its last letter's, built with the basis, applied
        to its prefix's; all are cached and shared between callers: read them only."""
        key = (src_degree, tuple(word))
        cols = self._word_mul_cache.get(key)
        if cols is None:
            word = key[1]
            if not word:
                one = self.field.one
                cols = [{i: one} for i in range(self.dim(src_degree))]
            else:
                end = src_degree + self.presentation.word_degree(word)
                if end > self.bound:
                    raise BoundInsufficientError("a product", end, self.bound)
                letter = word[-1:]
                step = self._word_mul_cache[(end - self.presentation.word_degree(letter), letter)]
                cols = [apply_columns(self.field, step, col)
                        for col in self.word_mul_matrix(src_degree, word[:-1])]
            self._word_mul_cache[key] = cols
        return cols

    def mul_columns(self, coeffs, degree: int, q: int, left: bool):
        """Sparse columns ``{row: nonzero}`` of u |-> c*u (left) or u |-> u*c
        on A_q, one per basis word u, for the element c = coeffs of A_degree.

        The columns are cached and shared between callers: read them only."""
        key = (tuple(sorted(coeffs.items())), degree, q, left)
        if key not in self._mul_columns_cache:
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
        """u * v for u in A_p and v in A_q, as a vector of A_(p+q): the sum
        over the words w of v of v[w] * (u * w)."""
        if p + q > self.bound:
            raise BoundInsufficientError("a product", p + q, self.bound)
        words = self.basis[q]
        images = {j: apply_columns(self.field, self.word_mul_matrix(p, words[j]), u) for j in v}
        return apply_columns(self.field, images, v)

    def normal_form(self, poly):
        """The vector of a word combination {word: coeff} over its degree basis."""
        degs = {self.presentation.word_degree(w) for w in poly}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        d = degs.pop() if degs else 0
        if d > self.bound:
            raise BoundInsufficientError("an element", d, self.bound)
        coeffs = {tuple(w): c for w, c in poly.items() if c}
        images = {w: self.word_mul_matrix(0, w)[0] for w in coeffs}
        return apply_columns(self.field, images, coeffs)

    def element_render(self, vec, degree: int) -> str:
        F = self.field
        parts = []
        for k, c in sorted(vec.items()):
            s = F.to_str(c)
            word = self.presentation.render_word(self.basis[degree][k])
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
            u = normalized(F, [rng.randint(-2, 2) for _ in range(self.dims[p])])
            v = normalized(F, [rng.randint(-2, 2) for _ in range(self.dims[q])])
            w = normalized(F, [rng.randint(-2, 2) for _ in range(self.dims[r])])
            left = self.mul(self.mul(u, p, v, q), p + q, w, r)
            right = self.mul(u, p, self.mul(v, q, w, r), q + r)
            if left != right:
                return False
        return True


def truncate(presentation: AlgebraPresentation, bound: int) -> TruncatedAlgebra:
    """Bases and multiplication tables valid through internal degree `bound`."""
    return TruncatedAlgebra(presentation, bound)
