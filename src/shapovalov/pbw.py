"""The superalgebra gl(m,n): matrix-unit generators, super-commutators, and
normal ordering of words into the triangular PBW form.

A generator e_{ij} (i != j) is stored as the pair (i, j) with 1-based
indices; it is odd iff exactly one of i, j exceeds m.  The canonical PBW
form of an element of U(gl(m,n)) is a sum of monomials

    (negative factors, sorted) * (polynomial in the x_i = e_{ii}) * (positive factors, sorted)

with negative factors e_{ij}, i > j ordered by (j, i) ascending (or, in
the reverse order, descending), and odd factors appearing with exponent at
most one.  Two rules do all the work:

    [e_{ab}, e_{cd}] = d_{bc} e_{ad} - (-1)^{p(e_ab) p(e_cd)} d_{da} e_{cb}
    H(x) e_{ij} = e_{ij} H(x + w),  w = +1 at i, -1 at j.

U(g) is straightened by one Leibniz recursion, that of the numbering
below, run by one routine that applies atoms to terms n H p from the
right (_apply): a generator goes into n by the recursion, a positive
letter left over goes past H with one shift and into p by the same
recursion, and a Cartan atom goes past n with one shift.  normal_order
applies a word to 1 through the caching kernel _nf_atoms, Cartan atoms
included.  The UEA product applies each left term to the right
operand, and multiplies a lowering term in U(n-) by the numbering's
lowering products (_Codes.lowered), which the Verma action reads too.
The Verma action and construct's chain sums call no kernel (verma.act).

A triangular order (PBWOrder) numbers the G generators in factor order,
once per algebra and order value (_codes): the negative ones take the
codes below G // 2.  An order is a word of 1..N and one of two orders of
the negative factors, ascending or reverse; the reverse one makes the
descending chain words of construct canonical, and only the singularity
check uses it (construct._is_singular).  _apply and the Verma action work
over these int codes, compare codes only, and read brackets and signs
from the one code-indexed table of the numbering, so either order of the
negatives serves them.  The numbering is the one context
per algebra and order: it alone knows the letter code of a monomial, it
owns the Leibniz recursion (the Verma action's step, with its memo and
results, verma._letter taking the numbering; and times, _apply's
instance of it), and raising lists the order's simple raising generators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from types import MappingProxyType

from .exact_algebra import Poly, Weight, _coeff, _linear, rho


@lru_cache(maxsize=None)
def gl(m: int, n: int = 0) -> "GLAlgebra":
    return GLAlgebra(m, n)


class GLAlgebra:
    """Dimension data and root bookkeeping for gl(m,n)."""

    def __init__(self, m: int, n: int = 0):
        if m < 1 or n < 0:
            raise ValueError("need m >= 1, n >= 0")
        self.m = m
        self.n = n
        self.N = m + n
        self.rho = rho(m, n)

    def parity(self, i: int) -> int:
        return 0 if i <= self.m else 1

    def gen_parity(self, i: int, j: int) -> int:
        return self.parity(i) ^ self.parity(j)

    def basis_weight(self, i: int) -> Weight:
        """eps_i for i <= m, delta_{i-m} otherwise."""
        return Weight.basis(self.m, self.n, i)

    def gen_weight(self, i: int, j: int) -> Weight:
        return self.basis_weight(i) - self.basis_weight(j)

    def positive_roots(self):
        """All positive roots as (Weight, (i, j)) with e_{ji} the lowering vector."""
        out = []
        for i in range(1, self.N + 1):
            for j in range(i + 1, self.N + 1):
                out.append((self.gen_weight(i, j), (i, j)))
        return out

    def root_from_weight(self, w: Weight):
        """Return (i, j) with w = eps/delta_i - eps/delta_j, or None."""
        pos = [k for k, c in enumerate(w.coords) if c == 1]
        neg = [k for k, c in enumerate(w.coords) if c == -1]
        others = [c for c in w.coords if c not in (0, 1, -1)]
        if others or len(pos) != 1 or len(neg) != 1:
            return None
        return (pos[0] + 1, neg[0] + 1)

    def __repr__(self):
        return f"gl({self.m},{self.n})"


# ---------------------------------------------------------------------------
# brackets

def sbracket_gens(alg: GLAlgebra, a, b):
    """Super-commutator [e_a, e_b] as a list of (generator-or-Poly, int)."""
    (i, j), (k, l) = a, b
    sign = -1 if alg.gen_parity(i, j) and alg.gen_parity(k, l) else 1
    out = []
    if j == k and i == l:
        # [e_{ij}, e_{ji}] = x_i -+ x_j
        out.append((Poly.x(i) - Poly.x(j) * sign, 1))
        return out
    if j == k:
        out.append(((i, l), 1))
    if l == i:
        out.append(((k, j), -sign))
    return out


def superbracket(alg: GLAlgebra, a, b) -> "UEAElement":
    """Public bracket: a, b are generator pairs or Cartan Polys."""
    if isinstance(a, Poly) or isinstance(b, Poly):
        # [h, e] is a multiple of e; [h, h'] = 0
        if isinstance(a, Poly) and isinstance(b, Poly):
            return UEAElement.zero(alg)
        h, e, flip = (a, b, 1) if isinstance(a, Poly) else (b, a, -1)
        delta = h.shifted({e[0]: 1, e[1]: -1}) - h
        if not delta.is_constant():
            raise ValueError("bracket of non-linear Cartan polynomial with a generator")
        return normal_order(alg, [e]) * (delta.constant_value() * flip)
    out = UEAElement.zero(alg)
    for item, c in sbracket_gens(alg, a, b):
        out = out + normal_order(alg, [item]) * c
    return out


# ---------------------------------------------------------------------------
# triangular orders

class PBWOrder:
    """Triangular decomposition given by a word of 1..N: e_{ij} is negative
    iff i comes after j.  No word, or the identity, is the distinguished
    order (i > j).  The negative factors sort by the positions of (j, i) in
    the word, ascending, or with reverse all descending: the same basis of
    U(n-) in a second PBW order, in which the descending chain words are
    canonical.  _codes(alg, order) numbers its generators.  An order is a
    value with one instance per word and reverse flag (_made), so equal
    orders are the same object and compare and hash by identity, as cheaply
    as the numbering's cache needs; word and reverse are read-only.
    """

    __slots__ = ("_word", "_reverse")
    _made: dict = {}

    def __new__(cls, word: tuple | None = None, reverse: bool = False):
        word = tuple(word or ())
        key = None if word == tuple(range(1, len(word) + 1)) else word, bool(reverse)
        self = cls._made.get(key)
        if self is None:
            self = cls._made[key] = super().__new__(cls)
            self._word, self._reverse = key
        return self

    def __reduce__(self):
        return PBWOrder, (self._word, self._reverse)

    word = property(lambda self: self._word)
    reverse = property(lambda self: self._reverse)

    def __repr__(self):
        return f"PBWOrder(word={self._word!r}" + (", reverse=True)" if self._reverse else ")")


class _Table(dict):
    """A dict filled on first use: a missing key k is stored as fill(k)."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        out = self[key] = self.fill(key)
        return out


class _Codes:
    """The numbering of the generators of one algebra and order (_codes).
    gens lists the G generators in factor order: the negative ones by the
    positions of (j, i) in the order's word, ascending (descending for a
    reverse order), then the positive ones by the positions of (i, j); code
    maps a generator to its place, so a code below G // 2 is negative, and
    refuses a generator outside the algebra with a ValueError.  A word of
    generators is a tuple of codes.

    A monomial is a tuple of letters: x^e is the int e * G +
    code[x], so r = c % G, e = c // G, and raising x's exponent adds G.
    weight maps a letter to wt x^e as N int offsets.  bracket maps
    a * G + b, for generator codes a and b, to (sign, items, h): sign is
    (-1)^{|a||b|}, and [a, b] is the sum of c times the generator coded r
    over the pairs (r, c) of items, plus h, the Cartan element x_i -+ x_j
    when a, b are e_ij, e_ji (None otherwise).  Both tables are filled on
    first use.  raising lists the order's simple raising generators, the
    consecutive pairs of its index sequence: it depends on the word only.

    The numbering also owns the Verma action's Leibniz recursion
    (verma._letter).  step(g, mono) gives the (negative monomial, value)
    pairs of g mono v_lambda, for the code g of a generator and a canonical
    negative monomial mono.  A value is an int when g is negative; when g
    is positive it is the integer linear form (c0, c1, ..., cN) of
    c0 + sum c_i lambda_i.  Leibniz rule on the first letter x of
    mono = x rest: g x rest = [g, x] rest + (-1)^{|g||x|} x (g rest), and x
    goes back in front of each monomial of g rest by the same rule.  A
    negative g stops when it sorts before x (it goes in front) or equals it
    (x's exponent goes up; an odd square is 0), a positive g at the empty
    monomial, since g v_lambda = 0.  The bracket is a generator, or the
    Cartan element x_a -+ x_b for g = e_ab, worth lambda_a -+ lambda_b plus
    wt rest there.  memo holds the result of every step that does not stop
    at once, on (g, mono); the recursion compares codes only, so it serves
    either order of the negatives.  steps clears memo for each letter, and
    keeps in results, across letters, what it asked of step.  results also
    keeps, on (word, mono), the product of a word of lowering codes with
    mono (lowered).  No result depends on lambda.

    times is the same recursion, with its own memo, for U(g) (_apply): it
    works in U(g) rather than on v_lambda, so a positive g
    at the empty monomial stays as the last letter (g + G,) with value 1.
    A raising g then gives two kinds of pairs: a linear form, read as the
    Cartan polynomial that sits right of the monomial, or an int, for a
    monomial that ends in one positive letter.  The same step sorts a
    positive g into a monomial of positive letters."""

    __slots__ = ("alg", "G", "gens", "code", "weight", "bracket", "zero", "raising", "step", "memo",
                 "results", "times")

    def __init__(self, alg, order):
        seq, N = order.word or range(1, alg.N + 1), alg.N
        self.alg = alg
        self.gens = gens = [(seq[a], seq[b]) for b in range(N) for a in range(b + 1, N)]
        if order.reverse:
            gens.reverse()
        gens += [(seq[a], seq[b]) for a in range(N) for b in range(a + 1, N)]
        self.G = G = len(gens)
        self.code = _Table(partial(_outside, alg))
        self.code.update((g, r) for r, g in enumerate(gens))
        self.zero = zero = (0,) * N

        def weight(c):
            (i, j), e = gens[c % G], c // G
            w = list(zero)
            w[i - 1] += e
            w[j - 1] -= e
            return tuple(w)

        self.weight = _Table(weight)
        self.bracket = _Table(self._bracket)
        self.raising = tuple(zip(seq, seq[1:]))
        self.memo, self.results = {}, {}
        self.step = self._recursion(self.memo)
        self.times = self._recursion({}, keep=True)

    def _bracket(self, key):
        a, b = self.gens[key // self.G], self.gens[key % self.G]
        (i, j), (k, l) = a, b
        sign = -1 if self.alg.gen_parity(i, j) and self.alg.gen_parity(k, l) else 1
        if j != k and i != l:
            return sign, (), None
        terms = sbracket_gens(self.alg, a, b)
        items = tuple((self.code[g], c) for g, c in terms if not isinstance(g, Poly))
        return sign, items, None if items else terms[0][0]

    def steps(self, g, monos):
        """[step(g, mono) for mono in monos], one letter g of the Verma
        action (verma._letter, construct._lower_into).  memo is cleared for
        the letter; a result is read from results, and kept there unless
        its step stopped at once."""
        step, memo, results = self.step, self.memo, self.results
        memo.clear()
        out = []
        for mono in monos:
            key = (g, mono)
            res = results.get(key)
            if res is None:
                res = step(g, mono)
                if key in memo:
                    results[key] = res
            out.append(res)
        return out

    def _recursion(self, memo, keep=False):
        """The Leibniz recursion's step, over this numbering's tables; with
        keep, a positive g at the empty monomial stays as a last letter."""
        G, gens, table, offsets, zero = self.G, self.gens, self.bracket, self.offsets, self.zero
        half, size = G // 2, self.alg.N + 1

        def step(g, mono):
            if not mono:
                return (((g + G,), 1),) if keep or g < half else ()
            c = mono[0]
            x = c % G
            if g <= x:  # so g has x's sign
                if g != x:
                    return (((g + G,) + mono, 1),)
                return () if table[g * G + g][0] < 0 else (((c + G,) + mono[1:], 1),)
            key = (g, mono)
            out = memo.get(key)
            if out is not None:
                return out
            sign, bracket, cartan = table[g * G + x]
            rest = ((c - G,) + mono[1:]) if c >= 2 * G else mono[1:]
            acc: dict = {}
            if cartan is not None:
                a, b = gens[g]
                off = offsets(rest)
                form = [0] * size
                form[0], form[a], form[b] = off[a - 1] - sign * off[b - 1], 1, -sign
                _add(acc, rest, tuple(form), 1)
            for item, k in bracket:
                pad = g >= half and item < half  # an int inside a raising step
                for neg, v in step(item, rest):
                    _add(acc, neg, (v,) + zero if pad else v, k)
            for neg, v in step(g, rest):
                if not neg or x < neg[0] % G:  # x goes in front, as step(x, neg) would put it
                    _add(acc, (x + G,) + neg, v, sign)
                    continue
                for neg2, k in step(x, neg):
                    _add(acc, neg2, v, k * sign)
            out = memo[key] = tuple(acc.items())
            return out

        return step

    def encode(self, mono, sign=0):
        """Codes of a canonical monomial of negative factors, or of positive
        ones for sign 1; others are refused by name."""
        G, code, out = self.G, self.code, []
        for i, j, e in mono:
            r = code[i, j]
            why = (("a positive generator", "a negative generator")[sign] if (r >= G // 2) != sign else
                   "factors out of order or repeated" if out and r <= out[-1] % G else
                   "an exponent below 1 or not an int" if type(e) is not int or e < 1 else
                   "an odd factor with exponent above 1" if e > 1 and self.alg.gen_parity(i, j) else None)
            if why:
                kind = ("negative", "positive")[sign]
                raise ValueError(f"{tuple(mono)} is not a canonical {kind} monomial of {self.alg}: {why}")
            out.append(e * G + r)
        return tuple(out)

    def decode(self, mono):
        G, gens = self.G, self.gens
        return tuple(gens[c % G] + (c // G,) for c in mono)

    def lowered(self, word, mono):
        """word * mono for a word of lowering codes and a canonical negative
        monomial, its letters applied from the right by steps: a lambda-free
        tuple of (monomial, int) pairs, kept in results on (word, mono), or by
        steps for one letter (verma._lowering, UEAElement.__mul__)."""
        if len(word) < 2:
            return self.steps(word[0], (mono,))[0] if word else ((mono, 1),)
        res = self.results.get((word, mono))
        if res is None:
            part = {mono: 1}
            for g in reversed(word):
                out: dict = {}
                for x, r in zip(part.values(), self.steps(g, part)):
                    for neg, c in r:
                        _accumulate(out, neg, x * c)
                part = out
            res = self.results[word, mono] = tuple(part.items())
        return res

    def offsets(self, mono):
        """wt mono as N int offsets."""
        if len(mono) == 1:
            return self.weight[mono[0]]
        return tuple(map(sum, zip(*map(self.weight.__getitem__, mono)))) if mono else self.zero


@lru_cache(maxsize=None)
def _codes(alg, order):
    return _Codes(alg, order)


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


def _outside(alg, g):
    raise ValueError(f"generator {tuple(g)} is not in {alg}")


def _cartan_unit(alg, i):
    """x_i, for the diagonal unit e_ii of alg."""
    return Poly.x(i) if 1 <= i <= alg.N else _outside(alg, (i, i))


DISTINGUISHED = PBWOrder()


# ---------------------------------------------------------------------------
# normal ordering

def _accumulate(acc, key, val):
    s = acc.get(key)
    s = val if s is None else s + val
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _letters(codes, part):
    """The generator codes of a monomial of (i, j, exp) triples, one per letter."""
    return tuple([codes.code[i, j] for i, j, e in part for _ in range(e)])


def _decoded(codes, terms):
    return {(codes.decode(n), codes.decode(p)): h for (n, p), h in terms.items()}


def _apply(codes, atoms, terms) -> dict:
    """The atoms applied from the right, one at a time, to terms, a map from
    (n, p), canonical monomials over the numbering codes (_codes), to the
    Cartan part H of n H p; an atom is a generator code or a Cartan Poly.

    A generator g goes into n by the numbering's Leibniz recursion
    (_Codes.times).  A lowering g gives int multiples of monomials n'.  A
    raising g gives a linear form, the Cartan part that sits between n' and
    H and multiplies H, or a leftover positive letter q at the end of n':
    q H p = H(x - wt q) q p, and q goes into p by the same step.  A Cartan
    atom A moves past n: A n H p = n A(x + wt n) H p, one shift per weight.
    """
    G, half, gens, times, offsets = codes.G, codes.G // 2, codes.gens, codes.times, codes.offsets
    for a in reversed(atoms):
        if type(a) is not int:  # one shift per weight of n; Q[x] has no zero divisors
            if a != 1:
                moved = _Table(lambda off: a.shifted(dict(enumerate(off, 1))))
                terms = {(n, p): moved[offsets(n)] * h for (n, p), h in terms.items()} if a else {}
            continue
        out: dict = {}
        for (n, p), h in terms.items():
            for n2, v in times(a, n):
                if type(v) is not int:  # n2 (v h) p
                    _accumulate(out, (n2, p), h * _linear(v))
                elif n2[-1] % G < half:  # v n2 h p
                    _accumulate(out, (n2, p), h if v == 1 else h * v)
                else:  # n2 = n' q, and q h p = h(x - wt q) q p
                    q = n2[-1] - G
                    i, j = gens[q]
                    hq = h.shifted({i: -1, j: 1}) * v
                    for p2, k in times(q, p):
                        _accumulate(out, (n2[:-1], p2), hq if k == 1 else hq * k)
        terms = out
    return terms


_NF_CACHE: dict = {}


def _nf_atoms(alg: GLAlgebra, atoms, *, order: PBWOrder = DISTINGUISHED) -> MappingProxyType:
    """Straighten a word of generator pairs and Cartan Polys; returns a read-only {(neg, pos): Poly}.

    The atoms act on 1 from the right over the order's codes (_apply).
    Every word is cached, a Poly being a hashable value; the cache holds the
    read-only views it hands out, so no caller can change a later one."""
    key = (alg.m, alg.n, order, tuple(atoms))
    hit = _NF_CACHE.get(key)
    if hit is not None:
        return hit
    codes = _codes(alg, order)
    terms = _apply(codes, [a if isinstance(a, Poly) else codes.code[a] for a in key[3]], {((), ()): Poly.one()})
    return _NF_CACHE.setdefault(key, MappingProxyType(_decoded(codes, terms)))


def normal_order(alg: GLAlgebra, word, order: PBWOrder = DISTINGUISHED) -> "UEAElement":
    """Normal-order a free word of generators and Cartan polynomials.

    The result is canonical for the given triangular order: every monomial
    is (negative part) * (Cartan polynomial) * (positive part) with factors
    in the order's within-class sort.  A diagonal unit e_ii is x_i, so the
    two spellings share one entry of the caching kernel _nf_atoms, which
    straightens every word.
    """
    word = [a if isinstance(a, Poly) else _cartan_unit(alg, a[0]) if a[0] == a[1] else (a[0], a[1])
            for a in word]
    return UEAElement(alg, _nf_atoms(alg, word, order=order))


def _expand_key(part):
    return [(i, j) for i, j, e in part for _ in range(e)]


class UEAElement:
    """Element of U(gl(m,n)) in canonical PBW form.

    terms maps (negative part, positive part) -- tuples of (i, j, exp) -- to
    the Cartan polynomial sitting between them.  Rational coefficients are
    folded into the Cartan polynomial.
    """

    __slots__ = ("alg", "terms")

    def __init__(self, alg: GLAlgebra, terms=None):
        self.alg = alg
        self.terms = dict(terms) if terms else {}

    # -- constructors ------------------------------------------------------
    @staticmethod
    def zero(alg) -> "UEAElement":
        return UEAElement(alg)

    @staticmethod
    def one(alg) -> "UEAElement":
        return UEAElement(alg, {((), ()): Poly.one()})

    @staticmethod
    def gen(alg, i, j) -> "UEAElement":
        return normal_order(alg, [(i, j)])

    # -- ring structure ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        out = dict(self.terms)
        for k, p in other.terms.items():
            _accumulate(out, k, p)
        return UEAElement(self.alg, out)

    def __neg__(self):
        return UEAElement(self.alg, {k: -p for k, p in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        """self * other.  A UEAElement other is multiplied in the
        distinguished order, over its numbering's codes: other is encoded
        once, and a term that is not canonical is straightened first, by
        _apply from 1.  A term n1 h1 p1 of self with no positive part and a
        negative part of lowering letters multiplies in U(n-):
        n1 h1 n2 h2 p2 = (n1 n2) h1(x + wt n2) h2 p2, with n1 n2 read from
        _Codes.lowered.  Any other term applies its atoms to other from the
        right: p1's letters, then h1, then n1's.  Cartan parts must be Polys."""
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return UEAElement(self.alg)
            return UEAElement(self.alg, {k: p * c for k, p in self.terms.items()})
        if isinstance(other, Poly):
            return self.scale_central(other)
        if not isinstance(other, UEAElement):
            return NotImplemented
        for key, h in (*self.terms.items(), *other.terms.items()):
            if not isinstance(h, Poly):  # _apply would read an int as a generator code
                raise TypeError(f"the Cartan part {h!r} of {key} is not a Poly")
        codes = _codes(self.alg, DISTINGUISHED)
        half, encode, lowered, one, ys = codes.G // 2, codes.encode, codes.lowered, {((), ()): Poly.one()}, {}
        for (n, p), h in other.terms.items():
            try:
                key = encode(n), encode(p, 1)
            except ValueError:  # not canonical: straightened from 1
                for key, h2 in _apply(codes, _letters(codes, n) + (h,) + _letters(codes, p), one).items():
                    _accumulate(ys, key, h2)
                continue
            _accumulate(ys, key, h)
        out: dict = {}
        for (n, p), h in self.terms.items():
            word = _letters(codes, n)
            if p or word and max(word) >= half:
                for key, h2 in _apply(codes, word + (h,) + _letters(codes, p), ys).items():
                    _accumulate(out, key, h2)
                continue
            for (n2, p2), h2 in _apply(codes, (h,), ys).items():
                for n3, c in lowered(word, n2):
                    _accumulate(out, (n3, p2), h2 if c == 1 else h2 * c)
        return UEAElement(self.alg, _decoded(codes, out))

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        if k == 0:
            return UEAElement.one(self.alg)
        out = self
        for _ in range(k - 1):
            out = self * out
        return out

    def scale_central(self, p: Poly) -> "UEAElement":
        """Multiply every monomial's Cartan polynomial on the right by p.

        This realizes multiplication by a formally central scalar: it is how
        subdiagonal coefficients of Hessenberg matrices are attached.
        """
        if p.is_zero():  # Q[x] has no zero divisors
            return UEAElement(self.alg)
        return UEAElement(self.alg, {k: h * p for k, h in self.terms.items()})

    # -- queries -----------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, UEAElement):
            return NotImplemented
        return self.alg.m == other.alg.m and self.alg.n == other.alg.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.alg.m, self.alg.n, frozenset(self.terms.items())))

    def coefficient_of(self, neg, pos=()) -> Poly:
        """Cartan coefficient of the PBW monomial with the given parts."""
        neg = tuple(tuple(t) for t in neg)
        pos = tuple(tuple(t) for t in pos)
        return self.terms.get((neg, pos), Poly.zero())

    def weight(self):
        """Common weight of all monomials, or None if inhomogeneous/zero."""
        w = None
        alg = self.alg
        for (neg, pos), h in self.terms.items():
            cur = Weight.zero(alg.m, alg.n)
            for i, j, e in neg + pos:
                cur = cur + e * alg.gen_weight(i, j)
            if w is None:
                w = cur
            elif w != cur:
                return None
        return w

    # -- presentation ------------------------------------------------------
    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (neg, pos), h in sorted(self.terms.items()):
            facs = [f"e{i}{j}" + (f"^{e}" if e > 1 else "") for i, j, e in neg]
            if not (h == 1 and (neg or pos)):
                facs.append(f"({h})")
            facs += [f"e{i}{j}" + (f"^{e}" if e > 1 else "") for i, j, e in pos]
            bits.append(" ".join(facs) if facs else "1")
        return " + ".join(bits)

    __repr__ = __str__

    def latex(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for (neg, pos), h in sorted(self.terms.items()):
            s = "".join(
                f"e_{{{i},{j}}}" + (f"^{{{e}}}" if e > 1 else "") for i, j, e in neg
            )
            if not (h == 1 and (neg or pos)):
                s += f"\\left({h.latex()}\\right)"
            s += "".join(
                f"e_{{{i},{j}}}" + (f"^{{{e}}}" if e > 1 else "") for i, j, e in pos
            )
            bits.append(s if s else "1")
        return " + ".join(bits)

    def to_json(self):
        return {
            "terms": [
                {
                    "factors": [list(t) for t in neg],
                    "h": h.to_json(),
                    "positive": [list(t) for t in pos],
                }
                for (neg, pos), h in sorted(self.terms.items())
            ]
        }

    @staticmethod
    def from_json(alg, data) -> "UEAElement":
        terms = {}
        for t in data["terms"]:
            neg = tuple(tuple(x) for x in t["factors"])
            pos = tuple(tuple(x) for x in t.get("positive", []))
            terms[(neg, pos)] = Poly.from_json(t["h"])
        return UEAElement(alg, terms)

