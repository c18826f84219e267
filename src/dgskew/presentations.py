"""Finitely presented connected graded algebras, truncated degreewise.

A presentation is a list of generators with positive degrees and a list of
homogeneous relations (noncommutative polynomials in the generators).  The
truncation computes, degree by degree, a monomial-word basis of the quotient
and the "append one generator" maps, the tables of right multiplication by
one-letter words.  Every product inside the bound reduces to those maps,
one stored per (degree, letter); a longer word's product steps a vector
through its letters' maps and is not stored.  The only other store is the
product table of multiplication by one element on one degree
(`mul_columns`), kept as integral columns over one denominator.  Both are
shared with every caller and read-only.  A left product c*u reads no word
table: the basis is prefix-closed, so c*(b g) = (c*b)*g is one append step
on a cached column of c*A_(|u|-|g|).
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
from itertools import groupby

from .errors import BoundInsufficientError
from .fields import Frozen, normalized, parse_natural, parse_terms, render_factors, render_sum
from .linalg import RowSpan, apply_columns, integral_columns


class Generator(Frozen):
    def __init__(self, name: str, degree: int):
        vars(self).update(name=name, degree=degree)


class AlgebraPresentation(Frozen):
    """Generators plus homogeneous relations; a relation maps words (tuples
    of generator indices) to scalars, anything `field.coerce` accepts.  The
    stored relations hold their nonzero coefficients as field scalars."""

    def __init__(self, field, generators: tuple, relations: tuple):
        vars(self).update(field=field, generators=generators)
        for g in generators:
            if type(g.degree) is not int:
                raise ValueError(f"generator {g.name} has degree {g.degree!r}, not an int")
            if g.degree < 1:
                raise ValueError(f"generator {g.name} must have positive degree")
        names = [g.name for g in generators]
        for name in names:
            if not (isinstance(name, str) and name.isidentifier()):
                raise ValueError(f"generator name {name!r} is not an identifier")
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names")
        cleaned = []
        for rel in relations:  # dict[word, scalar]
            rel = normalized(field, {_word(generators, w): field.coerce(c)
                                     for w, c in rel.items()})
            if not rel:
                raise ValueError("zero relation")
            degs = {self.word_degree(w) for w in rel}
            if len(degs) != 1:
                raise ValueError(f"inhomogeneous relation {self.render_poly(rel)}")
            if degs == {0}:
                raise ValueError("degree-0 relation makes the presentation inconsistent")
            cleaned.append(rel)
        vars(self)["relations"] = tuple(cleaned)

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
        return render_factors([(self.generators[g].name, len(list(run)))
                               for g, run in groupby(word)], "*")

    def to_json(self) -> dict:
        return {"generators": [[g.name, g.degree] for g in self.generators],
                "relations": [self.render_poly(rel) for rel in self.relations]}


def _word(generators, word) -> tuple:
    """`word` as a tuple, refused unless every letter indexes a generator."""
    word = tuple(word)
    if not all(type(g) is int and 0 <= g < len(generators) for g in word):
        raise ValueError(f"word {word} has a letter that indexes none of the "
                         f"{len(generators)} generators")
    return word


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
                gens.append(Generator(name.strip(),
                                      parse_natural(deg.strip(), f"degree of {piece!r}")))
        elif head == "rel":
            rels.append(_parse_poly(field, body, gens))
        else:
            raise ValueError(f"unknown statement {stmt!r}")
    return AlgebraPresentation(field, tuple(gens), tuple(rels))


def _parse_poly(field, text: str, gens) -> dict:
    """The relation {word: coefficient} of a sum of "c*x^2*y" terms."""
    out: dict = {}
    for c, word in parse_terms(field, text, [g.name for g in gens], "*"):
        out[word] = out.get(word, 0) + c
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
        # per degree >= 1, (letter, index of the prefix) of each basis word
        self._prefixes: list = [[]]
        self._append_maps: dict = {}  # (src_degree, letter) -> sparse columns
        # (element, its degree, q, left) -> (den, integral sparse columns)
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
        d - |g|, each kept with its letter g and the index of b, sorted, and
        indexed latest-first.  Each row of the relation span then pivots on
        its latest candidate, so the non-pivot candidates are the greedy,
        lexicographically earliest complement of the span: the basis, whose
        words keep the letter and prefix index of their candidates.  The
        residue of a candidate modulo the span is its normal form, read off
        the reduced echelon: a candidate off the pivots is a basis word, one
        at a pivot is minus its row's tail.
        """
        gens = self.presentation.generators
        candidates = sorted((b + (gi,), gi, k) for gi, g in enumerate(gens) if g.degree <= d
                            for k, b in enumerate(self.basis[d - g.degree]))
        n = len(candidates)
        pos = {(gi, k): n - 1 - i for i, (_, gi, k) in enumerate(candidates)}

        # u * r for every relation r and basis word u of degree d - |r|: the
        # prefix of each word of r folds in through the append maps, the last
        # letter lands on a candidate
        rel_vecs = []
        for rel in self.presentation.relations:
            src = d - self.presentation.word_degree(next(iter(rel)))
            if src < 0:
                continue
            vecs = [{} for _ in self.basis[src]]
            for w, c in rel.items():
                for vec, head in zip(vecs, self.word_mul_matrix(src, w[:-1])):
                    for i, a in head.items():
                        p = pos[w[-1], i]
                        vec[p] = vec.get(p, 0) + c * a
            rel_vecs.extend(vecs)
        rel_span = RowSpan(self.field, n)
        rel_span.extend(rel_vecs)
        rows = dict(zip(rel_span.pivots, rel_span.rows_sparse()))

        kept = [(w, gi, k) for w, gi, k in candidates if pos[gi, k] not in rows]
        self.basis.append([w for w, _, _ in kept])
        self._prefixes.append([(gi, k) for _, gi, k in kept])
        sel_pos = {pos[gi, k]: j for j, (_, gi, k) in enumerate(kept)}

        F = self.field
        for gi, g in enumerate(gens):
            if g.degree > d:
                continue
            cols = []
            for k in range(len(self.basis[d - g.degree])):
                p = pos[gi, k]
                row = rows.get(p)
                if row is None:
                    cols.append({sel_pos[p]: F.one})
                    continue
                if not row.keys() - {p} <= sel_pos.keys():
                    raise AssertionError("reduction left a non-basis candidate")
                cols.append(normalized(F, {sel_pos[i]: -a for i, a in row.items() if i != p}))
            self._append_maps[d - g.degree, gi] = cols

    def _times_word(self, vec, degree: int, word):
        """vec * word for vec in A_degree: one append step per letter."""
        gens = self.presentation.generators
        for g in word:
            vec = apply_columns(self.field, self._append_maps[degree, g], vec)
            degree += gens[g].degree
        return vec

    def word_mul_matrix(self, src_degree: int, word):
        """Sparse columns ``{row: nonzero}`` of v |-> v * word from A_src to
        A_(src+|word|), one per basis word of A_src.

        A one-letter word's table is its append map, built with the basis,
        stored, and shared between callers: read it only.  Any other word's
        table is a fresh list, the unit columns stepped through the append
        maps of its letters in turn."""
        end = src_degree + self.presentation.word_degree(word)
        if end > self.bound:
            raise BoundInsufficientError("a product", end, self.bound)
        if len(word) == 1:
            return self._append_maps[src_degree, word[0]]
        one = self.field.one
        return [self._times_word({i: one}, src_degree, word) for i in range(self.dim(src_degree))]

    def mul_columns(self, coeffs, degree: int, q: int, left: bool):
        """The product table of u |-> c*u (left) or u |-> u*c on A_q, for
        the element c = coeffs of A_degree, as (den, columns): one sparse
        column ``{row: nonzero}`` per basis word u, integral with den > 0,
        so that columns / den are the products (see `integral_columns`;
        den is 1 over F_p and wherever no denominator occurs).

        Left products need no word table: c*1 = c, and for a basis word
        u = b + (g,), whose prefix b is a basis word, c*u = (c*b)*g is one
        append step on the column of b in c*A_(q-|g|), which is cached too.
        Right products apply `word_mul_matrix` of c's basis words: an append
        map for a letter, a fresh table for a longer word.  When c is one
        basis word w with coefficient 1, u*c = u*w and the table is w's
        word table itself, with no product built: for a letter the stored
        append map, handed back uncopied where it holds no denominator
        (always over F_p).  These tables are the one store besides the
        append maps, shared between callers: read them only."""
        key = (tuple(sorted(coeffs.items())), degree, q, left)
        table = self._mul_columns_cache.get(key)
        if table is None:
            if degree + q > self.bound:
                raise BoundInsufficientError("a product", degree + q, self.bound)
            F = self.field
            if not left:
                if len(coeffs) == 1 and 1 in coeffs.values():
                    # one basis word w: the table is w's own, for a letter
                    # its stored append map
                    [k] = coeffs
                    cols = self.word_mul_matrix(q, self.basis[degree][k])
                else:
                    rights = {k: self.word_mul_matrix(q, self.basis[degree][k]) for k in coeffs}
                    cols = [apply_columns(F, {k: t[w] for k, t in rights.items()}, coeffs)
                            for w in range(len(self.basis[q]))]
                dens = [1] * len(cols)
            elif q == 0:
                cols, dens = [normalized(F, coeffs)], [1]
            else:
                gens = self.presentation.generators
                lower = {}   # q - |g| -> the table of c*A_(q-|g|)
                cols, dens = [], []   # cols[w] / dens[w]: the products of basis word w
                for g, k in self._prefixes[q]:
                    src = q - gens[g].degree
                    if src not in lower:
                        lower[src] = self.mul_columns(coeffs, degree, src, True)
                    step = self._append_maps[degree + src, g]
                    den, prods = lower[src]
                    cols.append(apply_columns(F, step, prods[k]))
                    dens.append(den)
            table = integral_columns(cols, dens)
            self._mul_columns_cache[key] = table
        return table

    def mul(self, u, p: int, v, q: int):
        """u * v for u in A_p and v in A_q, as a vector of A_(p+q): the sum
        over the words w of v of v[w] * (u * w)."""
        if p + q > self.bound:
            raise BoundInsufficientError("a product", p + q, self.bound)
        words = self.basis[q]
        images = {j: self._times_word(u, p, words[j]) for j in v}
        return apply_columns(self.field, images, v)

    def normal_form(self, poly):
        """The vector of a word combination {word: coeff} over its degree basis."""
        poly = {_word(self.presentation.generators, w): c for w, c in poly.items()}
        degs = {self.presentation.word_degree(w) for w in poly}
        if len(degs) > 1:
            raise ValueError("inhomogeneous element")
        d = degs.pop() if degs else 0
        if d > self.bound:
            raise BoundInsufficientError("an element", d, self.bound)
        coeffs = {w: c for w, c in poly.items() if c}
        images = {w: self._times_word({0: self.field.one}, 0, w) for w in coeffs}
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
