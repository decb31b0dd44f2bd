"""Verma modules M(lambda) for gl(m,n) with the partition-indexed weight basis.

A vector is stored as a map from canonical negative PBW monomials to
coefficients; v_lambda is the empty monomial with coefficient 1.  Acting by
an element of U(g) normal-orders against the monomials, kills positive
residues on the highest weight vector and evaluates Cartan parts at lambda.
Coefficients are Fractions for numeric lambda and polynomials in the free
parameters when lambda is a generic point (exact_algebra.generic_point), so
a vector that is zero there is zero on the whole locus at once.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_algebra import Poly, Weight
from .pbw import DISTINGUISHED, GLAlgebra, PBWOrder, UEAElement, _accumulate, _splice, normal_order
from .pbw import _nf_atoms  # noqa: F401  act's kernel via _splice, kept for per-module patching


class VermaVector:
    """Weight-homogeneous element of M(lambda).

    Monomial keys are negative PBW monomials for the vector's triangular
    order; the default is the distinguished one, and a Borel order is used
    when verifying elements attached to other Borel subalgebras.
    """

    __slots__ = ("alg", "lam", "terms", "order")

    def __init__(self, alg: GLAlgebra, lam: Weight, terms=None, order: PBWOrder = DISTINGUISHED):
        self.alg = alg
        self.lam = lam
        self.terms = dict(terms) if terms else {}
        self.order = order

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        if self.lam != other.lam or self.order.tag != other.order.tag:
            raise ValueError("vectors live in different Verma module presentations")
        out = dict(self.terms)
        for k, c in other.terms.items():
            _accumulate(out, k, c)
        return VermaVector(self.alg, self.lam, out, self.order)

    def __neg__(self):
        return VermaVector(self.alg, self.lam, {k: -c for k, c in self.terms.items()}, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, c):
        if not _nonzero(c):
            return VermaVector(self.alg, self.lam, order=self.order)
        return VermaVector(
            self.alg, self.lam, {k: c * v for k, v in self.terms.items()}, self.order
        )

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        return (
            self.lam == other.lam
            and self.order.tag == other.order.tag
            and self.terms == other.terms
        )

    def weight(self):
        """Weight of the vector (lambda plus the common monomial weight)."""
        w = None
        for neg in self.terms:
            cur = self.lam
            for i, j, e in neg:
                cur = cur + e * self.alg.gen_weight(i, j)
            if w is None:
                w = cur
            elif w != cur:
                return None
        return w

    def coefficient(self, neg):
        return self.terms.get(tuple(tuple(t) for t in neg), Fraction(0))

    def map_coeffs(self, f) -> "VermaVector":
        out = {}
        for k, c in self.terms.items():
            v = f(c)
            if _nonzero(v):
                out[k] = v
        return VermaVector(self.alg, self.lam, out, self.order)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for neg, c in sorted(self.terms.items()):
            mono = " ".join(
                f"e{i}{j}" + (f"^{e}" if e > 1 else "") for i, j, e in neg
            )
            bits.append(f"({c}) {mono or 'v'}".strip())
        return " + ".join(bits)

    __repr__ = __str__

    def to_json(self):
        pol = lambda c: c.to_json() if isinstance(c, Poly) else Poly.const(c).to_json()
        return {
            "lambda": self.lam.to_json(),
            "terms": [
                {"factors": [list(t) for t in neg], "h": pol(c)}
                for neg, c in sorted(self.terms.items())
            ],
        }


def _nonzero(c) -> bool:
    if isinstance(c, Poly):
        return not c.is_zero()
    return c != 0


def vacuum(alg: GLAlgebra, lam: Weight, order: PBWOrder = DISTINGUISHED) -> VermaVector:
    return VermaVector(alg, lam, {(): Fraction(1)}, order)


def act(x, v: VermaVector) -> VermaVector:
    """Action of x (UEAElement or free word) on a Verma vector."""
    alg = v.alg
    if not isinstance(x, UEAElement):
        x = normal_order(alg, x)
    lam = v.lam
    order = v.order
    one = Poly.one()
    out: dict = {}
    for (n1, p1), h1 in x.terms.items():
        for neg0, c0 in v.terms.items():
            for neg, val in _splice(alg, (n1, h1, p1), (neg0, one, ()), order, lam=lam):
                _accumulate(out, neg, val * c0)
    return VermaVector(alg, lam, out, order)


def weight_basis(alg: GLAlgebra, lam: Weight, drop: Weight):
    """All canonical negative PBW monomials of weight -drop, in a fixed order.

    Returns the empty list when drop is not a non-negative combination of
    positive roots.
    """
    gens = alg.negative_gens()
    weights = [alg.gen_weight(j, i) for i, j in gens]  # positive root of e_{ij}
    out = []

    def total_height(w):
        return sum(abs(c) for c in w.coords)

    def rec(idx, remaining, acc):
        if remaining.is_zero():
            out.append(tuple(acc))
            return
        if idx == len(gens):
            return
        if any(c.denominator != 1 for c in remaining.coords):
            return
        i, j = gens[idx]
        w = weights[idx]
        cap = 1 if alg.gen_parity(i, j) else int(total_height(remaining))
        rec(idx + 1, remaining, acc)
        cur = remaining
        for e in range(1, cap + 1):
            cur = cur - w
            if min_ok(cur):
                rec(idx + 1, cur, acc + [(i, j, e)])
            else:
                break

    def min_ok(w):
        # necessary condition to stay in the positive cone: partial sums of
        # coordinates from the left must be non-negative for type A
        s = Fraction(0)
        for c in w.coords:
            s += c
            if s < 0:
                return False
        return s == 0

    if not min_ok(drop):
        return []
    rec(0, drop, [])
    return out


def is_highest_weight(v: VermaVector, raising=None) -> bool:
    """True iff every simple raising operator of the chosen Borel kills v."""
    if v.is_zero():
        raise ValueError("the zero vector is not a highest weight vector")
    alg = v.alg
    if raising is None:
        raising = [g for _, g in alg.simple_root_data()]
    for g in raising:
        if not act([g], v).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# exact linear algebra over Q (used for basis conversion and independence)

def solve_in_span(vectors, target):
    """Exact test/solve: coefficients c with sum c_i vectors_i = target, or None.

    vectors and target are lists of Fractions.
    """
    if not vectors:
        return None if any(target) else []
    rows = len(vectors[0])
    cols = len(vectors)
    aug = [[Fraction(vectors[c][r]) for c in range(cols)] + [Fraction(target[r])] for r in range(rows)]
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [x / pv for x in aug[r]]
        for i in range(rows):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if aug[i][cols]:
            return None  # inconsistent: target not in the span
    sol = [Fraction(0)] * cols
    for row, c in enumerate(pivots):
        sol[c] = aug[row][cols]
    return sol


def coords_in_basis(v: VermaVector, monomials):
    order = {mono: k for k, mono in enumerate(monomials)}
    out = [Fraction(0)] * len(monomials)
    for mono, c in v.terms.items():
        if mono not in order:
            raise ValueError(f"monomial {mono} outside the given basis")
        out[order[mono]] = c
    return out


def coefficients_in_word_basis(v: VermaVector, words):
    """Coefficients of v in the basis {normal_form(word) v_lambda}.

    words are free generator words; they must form a basis of the weight
    space of v.  Raises if the expansion does not exist or is not unique.
    """
    alg, lam = v.alg, v.lam
    monos = sorted({mono for w in words for mono in act(list(w), vacuum(alg, lam)).terms} | set(v.terms))
    cols = []
    for w in words:
        vec = act(list(w), vacuum(alg, lam))
        cols.append(coords_in_basis(vec, monos))
    target = coords_in_basis(v, monos)
    sol = solve_in_span(cols, target)
    if sol is None:
        raise ValueError("vector does not lie in the span of the given words")
    return sol
