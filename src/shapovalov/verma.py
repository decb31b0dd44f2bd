"""Verma modules M(lambda) for gl(m,n) with the partition-indexed weight basis.

A vector is stored as a map from canonical negative PBW monomials to
numerators over one common denominator; v_lambda is the empty monomial
with numerator 1 over 1.  Inside the module a monomial is a flat tuple of
int letters in the numbering of the order's generators, the one context
per algebra and order (pbw._codes), which alone knows the letter code.
Monomials are decoded to (i, j, e) triples only where a vector is read
(terms, weight, str) and encoded where one is built from triples.

An element of U(g) acts one letter at a time from the right.  A Cartan
part is evaluated at lambda plus the monomial's weight, through one
evaluation table per such point for the whole call
(exact_algebra.eval_table), so a Cartan monomial that recurs across an
element's terms is evaluated once.  A term's negative part of two or more
letters, all lowering, acts as one product, kept with the numbering's other
lambda-free results on (word, monomial) (_lowering, pbw._Codes.lowered),
which the UEA product reads too.  A generator g,
negative or positive, goes through the numbering's one Leibniz recursion
on the monomial's first factor x (_letter, pbw._Codes.step):
g x rest = [g, x] rest + (-1)^{|g||x|} x (g rest).  A negative g stops at
once when it sorts before x or equals it, a positive g at v_lambda, which
it kills.  No word reaches the straightening kernel (pbw._nf_atoms); it
serves normal_order only.

The action is fraction-free.  lambda is read once as its common
denominator D and the integers D * lambda_i (Weight.scaled), and each
letter multiplies the numerators by integers and puts its own factor on
the denominator: a Cartan letter of degree d is evaluated at the integer
point D * (lambda + wt mono) and puts D^d there, a raising value, the
integer linear form c0 + sum c_i lambda_i, becomes c0 * D + sum c_i *
(D * lambda_i) and puts D there, and a lowering value is an integer.  At a
generic point (exact_algebra.generic_point) D is 1 and the numerators are
polynomials in the free parameters, so a vector that is zero there is zero
on the whole locus at once; numeric and symbolic lambda share one path.
terms, the read-only view of the coefficients, builds one Fraction per
monomial when it is read.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import mul
from types import MappingProxyType

from .exact_algebra import Poly, Weight, eval_table
from .pbw import (
    DISTINGUISHED,
    GLAlgebra,
    PBWOrder,
    UEAElement,
    _accumulate,
    _cartan_unit,
    _codes,
    _letters,
    _nf_atoms,  # kept only because perfbench/tests/test_perfbench.py:102 asserts the binding
)


class VermaVector:
    """Weight-homogeneous element of M(lambda): nums / den, with nums a map
    from negative monomials to numerators (ints, or Polys at a generic
    point) and den a positive int.

    Monomial keys are negative PBW monomials for the vector's triangular
    order; the default is the distinguished one, and a Borel order is used
    when verifying elements attached to other Borel subalgebras.  terms
    maps (i, j, e) monomials to ints, Fractions and Polys; the monomials
    are encoded for the order (pbw._codes) and the coefficients brought
    over one denominator.  nums is keyed by the codes.
    """

    __slots__ = ("alg", "lam", "nums", "den", "order", "_terms")

    def __init__(self, alg: GLAlgebra, lam: Weight, terms=None, order: PBWOrder = DISTINGUISHED):
        terms = dict(terms) if terms else {}
        den = lcm(*(c.denominator for c in terms.values() if isinstance(c, Fraction)))
        encode = _codes(alg, order).encode
        nums = {encode(k): c.numerator * (den // c.denominator) if isinstance(c, Fraction) else c * den
                for k, c in terms.items() if c}
        self._set(alg, lam, nums, den, order)

    def _set(self, alg, lam, nums, den, order):
        self.alg = alg
        self.lam = lam
        self.nums = nums
        self.den = den
        self.order = order
        self._terms = None

    @classmethod
    def over(cls, alg: GLAlgebra, lam: Weight, nums: dict, den: int,
             order: PBWOrder = DISTINGUISHED) -> "VermaVector":
        """The vector nums / den; nums is keyed by codes, holds no zero and
        is not copied."""
        v = cls.__new__(cls)
        v._set(alg, lam, nums, den, order)
        return v

    @property
    def terms(self):
        """Read-only map from negative (i, j, e) monomials to coefficients:
        Fractions, or Polys at a generic point."""
        t = self._terms
        if t is None:
            den = self.den
            decode = _codes(self.alg, self.order).decode
            t = self._terms = MappingProxyType({
                decode(k): (n if den == 1 else n * Fraction(1, den)) if isinstance(n, Poly) else Fraction(n, den)
                for k, n in self.nums.items()})
        return t

    def is_zero(self) -> bool:
        return not self.nums

    def __add__(self, other):
        if self.lam != other.lam or self.order != other.order:
            raise ValueError("vectors live in different Verma module presentations")
        out = dict(self.nums)
        den = _merge(out, self.den, other.nums, other.den)
        return VermaVector.over(self.alg, self.lam, out, den, self.order)

    def __neg__(self):
        return VermaVector.over(self.alg, self.lam, {k: -c for k, c in self.nums.items()},
                                self.den, self.order)

    def __sub__(self, other):
        return self + (-other)

    def __rmul__(self, c):
        if not c:
            return VermaVector(self.alg, self.lam, order=self.order)
        num, den = (c.numerator, c.denominator) if isinstance(c, Fraction) else (c, 1)
        return VermaVector.over(
            self.alg, self.lam, {k: v * num for k, v in self.nums.items()}, self.den * den, self.order
        )

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, VermaVector):
            return NotImplemented
        if self.lam != other.lam or self.order != other.order or self.nums.keys() != other.nums.keys():
            return False
        a, b = self.den, other.den
        if a == b:
            return self.nums == other.nums
        theirs = other.nums
        return all(n * b == theirs[k] * a for k, n in self.nums.items())

    def weight(self):
        """Weight of the vector (lambda plus the common monomial weight), or
        None if it is zero or inhomogeneous."""
        found = set(map(_codes(self.alg, self.order).offsets, self.nums))
        if len(found) != 1:
            return None
        return self.lam + Weight(self.alg.m, self.alg.n, found.pop())

    def __str__(self):
        if not self.nums:
            return "0"
        bits = []
        for neg, c in sorted(self.terms.items()):
            mono = " ".join(
                f"e{i}{j}" + (f"^{e}" if e > 1 else "") for i, j, e in neg
            )
            bits.append(f"({c}) {mono or 'v'}".strip())
        return " + ".join(bits)

    __repr__ = __str__


def _merge(acc: dict, den: int, nums: dict, d: int) -> int:
    """Add nums / d to acc / den in place, over their least common
    denominator, which it returns."""
    if not acc:
        den = d
    factor = 1
    if d != den:
        common = lcm(den, d)
        if common != den:
            up = common // den
            for k in acc:
                acc[k] *= up
        factor, den = common // d, common
    for k, c in nums.items():
        _accumulate(acc, k, c if factor == 1 else c * factor)
    return den


def vacuum(alg: GLAlgebra, lam: Weight, order: PBWOrder = DISTINGUISHED) -> VermaVector:
    return VermaVector.over(alg, lam, {(): 1}, 1, order)


def act(x, v: VermaVector) -> VermaVector:
    """Action of x (UEAElement or free word) on a Verma vector.

    Each term n h p of x, and a free word as a whole, acts one letter at a
    time from the right: a generator acts on each monomial by the Leibniz
    recursion (_letter), and a Cartan element is evaluated at lambda plus
    the monomial's weight (_cartan), through one table per such point for
    the whole call (exact_algebra.eval_table), so a Cartan monomial that
    recurs across the terms is evaluated once.  A negative part n of two or
    more letters, all lowering for v's order, acts as one product
    (_lowering).  Each word's numerators carry their own denominator until
    they are added to the result.
    """
    alg, lam, order = v.alg, v.lam, v.order
    codes = _codes(alg, order)
    code, half = codes.code, codes.G // 2
    D, point = lam.scaled()
    at = (D,) + point
    if isinstance(x, UEAElement):
        words = []
        for (n, p), h in x.terms.items():
            n = _letters(codes, n)
            if len(n) > 1 and max(n) < half:
                n = (n,)
            words.append(n + (h,) + _letters(codes, p))
    else:
        words = [[a if isinstance(a, Poly) else _cartan_unit(alg, a[0]) if a[0] == a[1] else code[a[0], a[1]]
                  for a in x]]
    tables: dict = {}
    out: dict = {}
    den = 1
    for word in words:
        nums, d = v.nums, v.den
        for a in reversed(word):
            if not nums:
                break
            if type(a) is int:
                nums = _letter(codes, a, nums, at)
                if a >= half:
                    d *= D
            elif type(a) is tuple:
                nums = _lowering(codes, a, nums)
            else:
                nums, f = _cartan(D, point, a, nums, codes.offsets, tables)
                d *= f
        if not out and nums is not v.nums:
            out, den = nums, d  # a fresh dict: the first word's numerators
        elif nums:
            den = _merge(out, den, nums, d)
    return VermaVector.over(alg, lam, out, den, order)


def _cartan(D, point, h, nums, offsets, tables):
    """h mono v_lambda = h(lambda + wt mono) mono v_lambda, for each monomial:
    h at the integer point D * (lambda + wt mono), with wt mono read from
    offsets (pbw._Codes.offsets), by the evaluation table of that point in
    tables (keyed by wt mono, made on first use).  Returns the numerators
    and the factor they put on the denominator, D^deg h (a constant h
    multiplies by its numerator and puts its denominator there)."""
    if h.is_constant():
        c = h.constant_value()
        if not c:
            return {}, 1
        num = c.numerator
        return (nums if num == 1 else {mono: x * num for mono, x in nums.items()}), c.denominator
    out: dict = {}
    d = 0
    for mono, x in nums.items():
        off = offsets(mono)
        evaluate = tables.get(off)
        if evaluate is None:
            at = tuple(p + D * o if o else p for p, o in zip(point, off))
            evaluate = tables[off] = eval_table(at, D)
        c, d = evaluate(h)
        _accumulate(out, mono, x * c)
    return out, D ** d


def _lowering(codes, word, nums):
    """The word of lowering codes, two or more letters applied from the
    right, on each monomial of nums: the product word * mono, a lambda-free
    tuple of int multiples of monomials (pbw._Codes.lowered)."""
    out: dict = {}
    for mono, x in nums.items():
        for neg, c in codes.lowered(word, mono):
            _accumulate(out, neg, x if c == 1 else x * c)
    return out


def _letter(codes, g, nums, at=None):
    """The generator with code g on each monomial of nums, by the Leibniz
    recursion of the numbering codes (pbw._Codes.step).  A lowering value
    is an int, so a lowering g takes no at; a raising one is a linear form,
    worth c0 * D + sum c_i * (D * lambda_i) at at = (D, D * lambda_1, ...):
    it puts D on the denominator.  At a generic point D is 1, the
    D * lambda_i are Polys and a zero coefficient multiplies none of them.
    The result for (g, mono) is kept in codes.results unless its step stops
    at once (pbw._Codes.steps)."""
    generic = at is not None and isinstance(at[-1], Poly)
    out: dict = {}
    for x, res in zip(nums.values(), codes.steps(g, nums)):
        for neg, v in res:
            if type(v) is not int:
                v = sum([c * a for c, a in zip(v, at) if c]) if generic else sum(map(mul, v, at))
            _accumulate(out, neg, x if v == 1 else x * v)
    return out


def weight_basis(alg: GLAlgebra, drop: Weight):
    """All canonical negative PBW monomials of weight -drop for the
    distinguished order, as tuples of (i, j, e) triples.

    drop is read in simple-root coordinates, the partial sums c_k = drop_1
    + ... + drop_k: it lies in the positive cone iff c_N = 0 and every c_k
    is a non-negative integer, and the list is empty otherwise.  A factor
    e_ij (i > j) takes 1 from each of c_j ... c_{i-1}, so an even factor's
    exponent is at most their minimum and an odd one's at most 1.  The
    monomials come in ascending lexicographic order of their exponent
    vectors over the factor order (pbw._codes).
    """
    if any(x.denominator != 1 for x in drop.coords):
        return []
    c = list(accumulate(x.numerator for x in drop.coords))
    if c.pop() or any(x < 0 for x in c):
        return []
    codes = _codes(alg, DISTINGUISHED)
    gens = codes.gens[:codes.G // 2]
    out = []

    def rec(idx, mono):
        if not any(c):
            out.append(mono)
        elif idx < len(gens):
            i, j = gens[idx]
            span = range(j - 1, i - 1)  # c_j ... c_{i-1}
            rec(idx + 1, mono)
            cap = min(c[j - 1:i - 1])
            cap = min(cap, 1) if alg.gen_parity(i, j) else cap
            for e in range(1, cap + 1):
                for k in span:
                    c[k] -= 1
                rec(idx + 1, mono + ((i, j, e),))
            for k in span:
                c[k] += cap

    rec(0, ())
    return out


def is_highest_weight(v: VermaVector, raising=None) -> bool:
    """True iff every generator in raising kills v.  By default raising
    holds the simple raising generators of v's own order (pbw._Codes.raising):
    e_{k,k+1} for the distinguished order, e_ab for each consecutive pair
    a b of a Borel order's word."""
    if v.is_zero():
        raise ValueError("the zero vector is not a highest weight vector")
    if raising is None:
        raising = _codes(v.alg, v.order).raising
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
    vecs = [act(list(w), vacuum(alg, lam)) for w in words]
    monos = sorted({mono for vec in vecs for mono in vec.terms} | set(v.terms))
    cols = [coords_in_basis(vec, monos) for vec in vecs]
    target = coords_in_basis(v, monos)
    sol = solve_in_span(cols, target)
    if sol is None:
        raise ValueError("vector does not lie in the span of the given words")
    return sol
