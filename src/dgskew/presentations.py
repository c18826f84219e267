"""Finitely presented connected graded algebras, truncated degreewise.

A presentation is a list of generators with positive degrees and a list of
homogeneous relations (noncommutative polynomials in the generators).  The
truncation computes, degree by degree, a monomial-word basis of the quotient
together with the "append one generator" maps, kept as sparse columns.  The
table of right multiplication by a word is one append step from the table
of its prefix, so every product inside the bound reduces to those maps.
This stays linear algebra throughout: in degree d
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

from .errors import DegreeOverflowError
from .fields import normalized, parse_scalar
from .linalg import RowSpan, apply_columns, dense


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
        if presentation.relations:
            maxrel = max(presentation.word_degree(next(iter(r))) for r in presentation.relations)
            if bound < maxrel:
                raise ValueError(f"bound {bound} below maximal relation degree {maxrel}")
        self.presentation = presentation
        self.field = presentation.field
        self.bound = bound
        self.basis = [[()]]            # chosen representative words per degree
        self._append: dict = {}        # (src_degree, gen) -> sparse columns
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
        """Basis and append maps of degree d.

        The candidates are the words b + (g,) for b a basis word of degree
        d - |g|, sorted.  With pivots at the right, the non-pivot columns of
        the relation span are the greedy, lexicographically earliest
        complement of it, so they are the basis; the residue of a candidate
        modulo the span is its normal form.
        """
        gens = self.presentation.generators
        candidates = sorted(b + (gi,) for gi, g in enumerate(gens) if g.degree <= d
                            for b in self.basis[d - g.degree])
        pos = {w: i for i, w in enumerate(candidates)}

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
        rel_span = RowSpan(self.field, len(candidates), pivot_from_right=True)
        rel_span.extend(rel_vecs)

        pivots = set(rel_span.pivots)
        selected = [i for i in range(len(candidates)) if i not in pivots]
        sel_pos = {i: k for k, i in enumerate(selected)}
        self.basis.append([candidates[i] for i in selected])

        one = self.field.one
        for gi, g in enumerate(gens):
            if g.degree > d:
                continue
            src = d - g.degree
            cols = []
            for b in self.basis[src]:
                residue = rel_span.reduce_sparse({pos[b + (gi,)]: one})
                if not residue.keys() <= sel_pos.keys():
                    raise AssertionError("reduction left a non-basis candidate")
                cols.append({sel_pos[i]: a for i, a in residue.items()})
            self._append[(src, gi)] = cols

    def word_vector(self, word):
        """Normal form of an arbitrary word: coordinates in its degree basis."""
        word = tuple(word)
        return dense(self.field, self.dim(self.presentation.word_degree(word)),
                     self.word_mul_matrix(0, word)[0])

    def word_mul_matrix(self, src_degree: int, word):
        """Sparse columns ``{row: nonzero}`` of v |-> v * word from A_src to
        A_(src+|word|), one per basis word of A_src.

        A table is one append step from the table of its prefix; both are
        cached, and shared between callers: read them only."""
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
                    raise DegreeOverflowError(f"product degree {end} beyond bound {self.bound}")
                last = word[-1]
                step = self._append[(end - self.presentation.generators[last].degree, last)]
                cols = [apply_columns(self.field, step, col)
                        for col in self.word_mul_matrix(src_degree, word[:-1])]
            self._word_mul_cache[key] = cols
        return cols

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

    def mul_sparse(self, u, p: int, v, q: int):
        """u * v for sparse vectors u of A_p and v of A_q, as a sparse vector
        of A_(p+q): the sum over the words w of v of v[w] * (u * w)."""
        if p + q > self.bound:
            raise DegreeOverflowError(f"product degree {p + q} beyond bound {self.bound}")
        words = self.basis[q]
        images = {j: apply_columns(self.field, self.word_mul_matrix(p, words[j]), u) for j in v}
        return apply_columns(self.field, images, v)

    def mul(self, u, p: int, v, q: int):
        """Product of element-vectors: (u in degree p) * (v in degree q)."""
        prod = self.mul_sparse({i: a for i, a in enumerate(u) if a}, p,
                               {j: c for j, c in enumerate(v) if c}, q)
        return dense(self.field, self.dim(p + q), prod)

    def normal_form(self, poly, degree: int | None = None):
        """Coordinates of a word combination {word: coeff} in its degree basis."""
        degs = {self.presentation.word_degree(w) for w in poly}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        d = degs.pop() if degs else (degree if degree is not None else 0)
        if degree is not None and d != degree:
            raise ValueError(f"element has degree {d}, expected {degree}")
        if d > self.bound:
            raise DegreeOverflowError(f"degree {d} beyond bound {self.bound}")
        coeffs = {tuple(w): c for w, c in poly.items() if c}
        images = {w: self.word_mul_matrix(0, w)[0] for w in coeffs}
        return dense(self.field, self.dim(d), apply_columns(self.field, images, coeffs))

    def element_render(self, vec, degree: int) -> str:
        F = self.field
        parts = []
        for w, c in zip(self.basis[degree], vec):
            if not c:
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
            if left != right:
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
        rels = ({(x, x): one}, {(x, y): one, (y, x): -one})
        return AlgebraPresentation(F, gens, rels)

    m11, m12, m13 = (F.coerce(v) for v in row)
    l1 = F.coerce(l1)
    l2 = F.coerce(l2)
    if label == "R1a":
        c = F.div(m12 * l1 * l1 + m13 * l2 * l2 - m11, 2 * l1 * l2)
        rel = {(x, x): m12, (y, y): m13, (x, y): -c, (y, x): -c}
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
        central = ({(z, x): one, (x, z): -one},
                   {(z, y): one, (y, z): -one})
        return AlgebraPresentation(F, deg12, (quad, dict(anticomm)) + central)
    raise ValueError(f"unknown case label {label!r}")
