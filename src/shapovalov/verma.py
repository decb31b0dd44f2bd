"""Verma modules M(lambda) for gl(m,n) with the partition-indexed weight basis.

A vector is stored as a map from canonical negative PBW monomials to
numerators over one common denominator; v_lambda is the empty monomial
with numerator 1 over 1.  An element of U(g) acts one letter at a time from
the right.  A Cartan part is evaluated at lambda plus the monomial's
weight.  A generator g, negative or positive, goes through one Leibniz
recursion on the monomial's first factor x (_leibniz):
g x rest = [g, x] rest + (-1)^{|g||x|} x (g rest).  A negative g stops at
once when it sorts before x or equals it, a positive g at v_lambda, which
it kills.  No word reaches the straightening kernel; it serves UEA
products only.

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
from functools import lru_cache
from math import lcm
from operator import mul
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
    _nf_atoms,  # kept only because perfbench/tests/test_perfbench.py:102 asserts the binding
    _offsets,
    _rank_table,
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
    time from the right: a generator acts on each monomial by the Leibniz
    recursion (_letter), and a Cartan element is evaluated at lambda plus
    the monomial's weight (_cartan).  Each word's numerators carry their own
    denominator until they are added to the result.
    """
    alg, lam, order = v.alg, v.lam, v.order
    rank = order.rank(alg)
    D, point = lam.scaled()
    at = (D,) + point
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
            else:
                nums = _letter(alg, order, a, nums, at)
                if rank[a] >= 0:
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


def _letter(alg, order, g, nums, at):
    """The generator g on each monomial of nums (_leibniz).  A lowering
    value is an int; a raising one is a linear form, worth
    c0 * D + sum c_i * (D * lambda_i) at at = (D, D * lambda_1, ...), so it
    puts D on the denominator.  At a generic point D is 1 and the
    D * lambda_i are Polys.  The result for (g, mono) is stored in
    _NF_CACHE unless its step stops at once."""
    step, memo = _leibniz(alg, order.word)
    memo.clear()
    head = (alg.m, alg.n, order.word, g)
    out: dict = {}
    for mono, x in nums.items():
        key = head + (mono,)
        res = _NF_CACHE.get(key)
        if res is None:
            res = step(g, mono)
            if (g, mono) in memo:
                _NF_CACHE[key] = res
        for neg, v in res:
            if type(v) is not int:
                v = sum(map(mul, v, at))
            _accumulate(out, neg, x if v == 1 else x * v)
    return out


@lru_cache(maxsize=None)
def _leibniz(alg, word):
    """step(g, mono) for one algebra and order word: the (negative monomial,
    value) pairs of g mono v_lambda, for a generator g and a canonical
    negative monomial mono.  A value is an int when g is negative; when g is
    positive it is the integer linear form (c0, c1, ..., cN) of
    c0 + sum c_i lambda_i.

    Leibniz rule on the first letter x of mono = x rest:
    g x rest = [g, x] rest + (-1)^{|g||x|} x (g rest), and x goes back in
    front of each monomial of g rest by the same rule.  A negative g stops
    when it sorts before x (it goes in front) or equals it (x's exponent
    goes up; an odd square is 0), a positive g at the empty monomial, since
    g v_lambda = 0.  The bracket is a generator, or the Cartan element
    x_a -+ x_b for g = e_ab, worth lambda_a -+ lambda_b plus wt rest there.
    Returns step and memo, which holds the result of every step that does
    not stop at once, on (g, mono); no result depends on lambda.  _letter
    clears memo for each letter, so it holds one letter's steps.
    """
    rank = _rank_table(alg.N, word)
    table = alg.brackets
    memo: dict = {}
    zero = (0,) * alg.N

    def step(g, mono):
        r = rank[g]
        if not mono:
            return ((((g[0], g[1], 1),), 1),) if r < 0 else ()
        i, j, e = mono[0]
        x = (i, j)
        if r <= rank[x]:  # so g is negative, like x
            if g != x:
                return ((((g[0], g[1], 1),) + mono, 1),)
            return () if table[g, g][0] < 0 else ((((i, j, e + 1),) + mono[1:], 1),)
        key = (g, mono)
        out = memo.get(key)
        if out is not None:
            return out
        sign, bracket = table[g, x]
        rest = ((i, j, e - 1),) + mono[1:] if e > 1 else mono[1:]
        acc: dict = {}
        for item, c in bracket:
            if isinstance(item, Poly):
                a, b = g
                off = _offsets({}, rest, 1)
                form = [0] * (alg.N + 1)
                form[0], form[a], form[b] = off.get(a, 0) - sign * off.get(b, 0), 1, -sign
                _add(acc, rest, tuple(form), c)
            else:
                pad = r >= 0 and rank[item] < 0  # an int inside a raising step
                for neg, v in step(item, rest):
                    _add(acc, neg, (v,) + zero if pad else v, c)
        for neg, v in step(g, rest):
            for neg2, k in step(x, neg):
                _add(acc, neg2, v, k * sign)
        out = memo[key] = tuple(acc.items())
        return out

    return step, memo


def _add(acc, key, v, c):
    """acc[key] += c * v, for an int or a linear form v; a zero is dropped."""
    s = acc.get(key)
    if s is None:
        acc[key] = v if c == 1 else v * c if type(v) is int else tuple(c * t for t in v)
        return
    s = s + v * c if type(v) is int else tuple(a + c * t for a, t in zip(s, v))
    if s if type(s) is int else any(s):
        acc[key] = s
    else:
        acc.pop(key, None)


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
