"""Verma modules M(lambda) for gl(m,n) with the partition-indexed weight basis.

A vector is stored as a map from canonical negative PBW monomials to
numerators over one common denominator; v_lambda is the empty monomial
with numerator 1 over 1.  An element of U(g) acts one letter at a time from
the right, with no splice: a negative generator goes in front of each
monomial (_prepend), a Cartan part is evaluated at lambda plus the
monomial's weight, and a positive generator acts by the Leibniz rule, so no
word with a positive generator is ever straightened.  _prepend puts the
generator in front when it sorts before the monomial's first factor and
raises that factor's exponent when it equals it, so only words left out of
order reach the straightening kernel.

The action is fraction-free.  lambda is read once as its common
denominator D and the integers D * lambda_i (Weight.scaled), and each
letter multiplies the numerators by integers and puts its own factor on
the denominator: a Cartan letter of degree d is evaluated at the integer
point D * (lambda + wt mono) and puts D^d there, a raising result h of
degree <= 1 multiplies by h(lambda) * D and puts D there, and a lowering
coefficient is an integer.  At a generic point (exact_algebra.generic_point)
D is 1 and the numerators are polynomials in the free parameters, so a
vector that is zero there is zero on the whole locus at once; numeric and
symbolic lambda share one path.  terms, the read-only view of the
coefficients, builds one Fraction per monomial when it is read.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from types import MappingProxyType

from .exact_algebra import Poly, Weight, eval_scaled
from .pbw import (
    _NF_CACHE,
    DISTINGUISHED,
    GLAlgebra,
    PBWOrder,
    UEAElement,
    _accumulate,
    _expand_key,
    _nf_atoms,
    _offsets,
    sbracket_gens,
)


class VermaVector:
    """Weight-homogeneous element of M(lambda): nums / den, with nums a map
    from negative monomials to numerators (ints, or Polys at a generic
    point) and den a positive int.

    Monomial keys are negative PBW monomials for the vector's triangular
    order; the default is the distinguished one, and a Borel order is used
    when verifying elements attached to other Borel subalgebras.  terms
    may hold ints, Fractions and Polys; they are brought over one
    denominator.
    """

    __slots__ = ("alg", "lam", "nums", "den", "order", "_terms")

    def __init__(self, alg: GLAlgebra, lam: Weight, terms=None, order: PBWOrder = DISTINGUISHED):
        terms = dict(terms) if terms else {}
        den = lcm(*(c.denominator for c in terms.values() if isinstance(c, Fraction)))
        nums = {k: c.numerator * (den // c.denominator) if isinstance(c, Fraction) else c * den
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
        """The vector nums / den; nums holds no zero and is not copied."""
        v = cls.__new__(cls)
        v._set(alg, lam, nums, den, order)
        return v

    @property
    def terms(self):
        """Read-only map from negative monomials to coefficients: Fractions,
        or Polys at a generic point."""
        t = self._terms
        if t is None:
            den = self.den
            t = self._terms = MappingProxyType({
                k: (n if den == 1 else n * Fraction(1, den)) if isinstance(n, Poly) else Fraction(n, den)
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
        """Weight of the vector (lambda plus the common monomial weight)."""
        w = None
        for neg in self.nums:
            cur = self.lam
            for i, j, e in neg:
                cur = cur + e * self.alg.gen_weight(i, j)
            if w is None:
                w = cur
            elif w != cur:
                return None
        return w

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

    def to_json(self):
        pol = lambda c: c.to_json() if isinstance(c, Poly) else Poly.const(c).to_json()
        return {
            "lambda": self.lam.to_json(),
            "terms": [
                {"factors": [list(t) for t in neg], "h": pol(c)}
                for neg, c in sorted(self.terms.items())
            ],
        }


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
    time from the right: a negative generator is put in front of each
    monomial (_lower), a positive generator acts by the Leibniz rule
    (_raise_all), and a Cartan element is evaluated at lambda plus the
    monomial's weight (_cartan).  Each word's numerators carry their own
    denominator until they are added to the result.
    """
    alg, lam, order = v.alg, v.lam, v.order
    rank = order.rank(alg)
    D, point = lam.scaled()
    if isinstance(x, UEAElement):
        words = [_expand_key(n) + [h] + _expand_key(p) for (n, p), h in x.terms.items()]
    else:
        words = [[a if isinstance(a, Poly) else Poly.x(a[0]) if a[0] == a[1] else (a[0], a[1])
                  for a in x]]
    out: dict = {}
    den = 1
    for word in words:
        nums, d = v.nums, v.den
        for a in reversed(word):
            if not nums:
                break
            if isinstance(a, Poly):
                nums, f = _cartan(D, point, a, nums)
                d *= f
            elif rank[a] < 0:
                nums = _lower(alg, order, a, nums)
            else:
                nums = _raise_all(alg, order, D, point, a, nums)
                d *= D
        if not out and nums is not v.nums:
            out, den = nums, d  # a fresh dict: the first word's numerators
        elif nums:
            den = _merge(out, den, nums, d)
    return VermaVector.over(alg, lam, out, den, order)


def _cartan(D, point, h, nums):
    """h mono v_lambda = h(lambda + wt mono) mono v_lambda, for each monomial:
    h at the integer point D * (lambda + wt mono).  Returns the numerators
    and the factor they put on the denominator, D^deg h (a constant h
    multiplies by its numerator and puts its denominator there)."""
    d = h.degree()
    if not d:
        c = h.constant_value()
        if not c:
            return {}, 1
        num = c.numerator
        return (nums if num == 1 else {mono: x * num for mono, x in nums.items()}), c.denominator
    out: dict = {}
    for mono, x in nums.items():
        at = point
        if mono:
            at = list(point)
            for k, o in _offsets({}, mono, 1).items():
                at[k - 1] += D * o
        _accumulate(out, mono, x * eval_scaled(h, at, D, d))
    return out, D ** d


def _lower(alg, order, g, nums):
    """The negative generator g in front of each monomial (_prepend)."""
    out: dict = {}
    for mono, x in nums.items():
        for neg, c in _prepend(alg, order, g, mono):
            _accumulate(out, neg, x if c == 1 else x * c)
    return out


def _prepend(alg, order, g, mono):
    """(negative monomial, coefficient) pairs of g mono, for a negative
    generator g and a canonical negative monomial mono.

    g goes in front as it is when it sorts before mono's first factor, and
    raises that factor's exponent when it equals it (an odd square is 0);
    only the words that are not already ordered go to the kernel.  Such a
    word has no Cartan part and its normal form does not depend on lambda,
    so the kernel stores it.
    """
    if mono:
        i, j, e = mono[0]
        if g == (i, j):
            return () if alg.gen_parity(i, j) else ((((i, j, e + 1),) + mono[1:], 1),)
        rank = order.rank(alg)
        if rank[g] > rank[i, j]:
            nf = _nf_atoms(alg, (g,) + tuple(_expand_key(mono)), order=order)
            return [(neg, h.terms[()]) for (neg, _), h in nf.items()]
    return ((((g[0], g[1], 1),) + mono, 1),)


def _raise_all(alg, order, D, point, g, nums):
    """The positive generator g on each monomial, times D.  The lambda-free
    result for (g, monomial) is cached as {negative monomial: Poly of degree
    <= 1}, and each h in it multiplies by the integer h(lambda) * D;
    _raise's intermediate results are shared across the monomials of this
    one application."""
    memo: dict = {}
    out: dict = {}
    for mono, x in nums.items():
        key = ("raise", alg.m, alg.n, order.word, g, mono)
        res = _NF_CACHE.get(key)
        if res is None:
            res = _NF_CACHE[key] = MappingProxyType(_raise(alg, order, g, mono, memo))
        for neg, h in res.items():
            _accumulate(out, neg, x * eval_scaled(h, point, D, 1))
    return out


def _raise(alg, order, g, mono, memo):
    """g mono v_lambda for g positive in the order, as {negative monomial: Poly}
    with Polys of degree at most 1 to be evaluated at lambda.

    Leibniz rule on the first letter x of mono = x rest, with g v_lambda = 0:
    g x rest = [g, x] rest + (-1)^{|g||x|} x (g rest).  The bracket is a
    negative generator (put in front of rest), a Cartan element H
    (H rest v_lambda = H(lambda + wt rest) rest v_lambda) or a positive
    generator (recurse).
    """
    key = (g, mono)
    out = memo.get(key)
    if out is not None:
        return out
    out = {}
    if mono:
        i, j, e = mono[0]
        x = (i, j)
        rest = ((i, j, e - 1),) + mono[1:] if e > 1 else mono[1:]
        sign = -1 if alg.gen_parity(*g) and alg.gen_parity(*x) else 1
        for item, c in sbracket_gens(alg, g, x):
            if isinstance(item, Poly):
                # item = x_a - sign x_b for g = e_ab, moved past rest
                off = _offsets({}, rest, 1)
                d = off.get(g[0], 0) - sign * off.get(g[1], 0)
                _accumulate(out, rest, _scaled(item + d if d else item, c))
            elif order.rank(alg)[item] < 0:
                for neg, k in _prepend(alg, order, item, rest):
                    _accumulate(out, neg, Poly.const(k * c))
            else:
                for neg, h in _raise(alg, order, item, rest, memo).items():
                    _accumulate(out, neg, _scaled(h, c))
        for neg, h in _raise(alg, order, g, rest, memo).items():
            for neg2, k in _prepend(alg, order, x, neg):
                _accumulate(out, neg2, _scaled(h, k * sign))
    memo[key] = out
    return out


def _scaled(h, c):
    return h if c == 1 else h * c


def weight_basis(alg: GLAlgebra, lam: Weight, drop: Weight):
    """All canonical negative PBW monomials of weight -drop, in a fixed order.

    Returns the empty list when drop is not a non-negative combination of
    positive roots.
    """
    rank = DISTINGUISHED.rank(alg)
    gens = sorted((g for g in rank if rank[g] < 0), key=rank.get)
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
    if raising is None:
        raising = v.alg.simple_raising()
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
