"""The superalgebra gl(m,n): matrix-unit generators, super-commutators, and
normal ordering of words into the triangular PBW form.

A generator e_{ij} (i != j) is stored as the pair (i, j) with 1-based
indices; it is odd iff exactly one of i, j exceeds m.  The canonical PBW
form of an element of U(gl(m,n)) is a sum of monomials

    (negative factors, sorted) * (polynomial in the x_i = e_{ii}) * (positive factors, sorted)

with negative factors e_{ij}, i > j ordered by (j, i) ascending, and odd
factors appearing with exponent at most one.  Two rules do all the work:

    [e_{ab}, e_{cd}] = d_{bc} e_{ad} - (-1)^{p(e_ab) p(e_cd)} d_{da} e_{cb}
    H(x) e_{ij} = e_{ij} H(x + w),  w = +1 at i, -1 at j.

The straightening kernel _nf_atoms rewrites words made only of generators.
The Cartan element x_i -+ x_j that a bracket [e_ij, e_ji] leaves behind is
moved to the right end of the word in one constant shift and carried beside
the word; it is put between the negative and positive parts when the word
is ordered.  Products go through one splice: the product of terms
(n1 h1 p1)(n2 h2 p2) moves h1 to the far left and h2 to the far right,
straightens the generator word n1 p1 n2 p2 once, and puts each Cartan part
back with a single shift.  The UEA product and normal_order (a free word
with Cartan atoms is the product of its runs) use it; the Verma action
does not (see verma.act) and calls no kernel.  The kernel caches every
word it straightens: a word has no Cartan part, so its normal form serves
every product it is met in.  A triangular order (PBWOrder) maps each
generator to an int rank, and the kernel and the Verma action compare
ranks only; both read brackets and signs from the algebra's one table
(GLAlgebra.brackets).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .exact_algebra import Poly, Weight, _coeff, rho


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
        self.brackets = _Brackets(self)

    def parity(self, i: int) -> int:
        return 0 if i <= self.m else 1

    def gen_parity(self, i: int, j: int) -> int:
        return self.parity(i) ^ self.parity(j)

    def basis_weight(self, i: int) -> Weight:
        """eps_i for i <= m, delta_{i-m} otherwise."""
        return Weight.basis(self.m, self.n, i)

    def gen_weight(self, i: int, j: int) -> Weight:
        return self.basis_weight(i) - self.basis_weight(j)

    def simple_raising(self):
        """The distinguished simple raising generators e_{k,k+1}."""
        return [(k, k + 1) for k in range(1, self.N)]

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


class _Brackets(dict):
    """The bracket table of one gl(m,n), alg.brackets: (sign,
    sbracket_gens(alg, a, b)) for pairs (a, b) of generators, with
    sign = (-1)^{|a||b|}; each pair is computed on first use."""

    def __init__(self, alg):
        super().__init__()
        self.alg = alg

    def __missing__(self, pair):
        (i, j), (k, l) = pair
        m = self.alg.m
        sign = -1 if (i > m) != (j > m) and (k > m) != (l > m) else 1
        out = self[pair] = (sign, tuple(sbracket_gens(self.alg, *pair)) if j == k or i == l else ())
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

@dataclass(frozen=True)
class PBWOrder:
    """Triangular decomposition given by a word of 1..N: e_{ij} is negative
    iff i comes after j.  No word, or the identity, is the distinguished
    order (i > j).  rank(alg) numbers the generators in factor order: the
    negative ones below 0 by the positions of (j, i), the positive ones
    from 0 by the positions of (i, j).
    """

    word: tuple | None = None

    def __post_init__(self):
        word = tuple(self.word or ())
        object.__setattr__(self, "word", None if word == tuple(range(1, len(word) + 1)) else word)

    def rank(self, alg) -> dict:
        return _rank_table(alg.N, self.word)


@lru_cache(maxsize=None)
def _rank_table(N, word):
    """{(i, j): rank} for every generator of gl(m,n), N = m + n (shared)."""
    seq = word or range(1, N + 1)
    neg = [(seq[a], seq[b]) for b in range(N) for a in range(b + 1, N)]
    pos = [(seq[a], seq[b]) for a in range(N) for b in range(a + 1, N)]
    rank = {g: k - len(neg) for k, g in enumerate(neg)}
    rank.update((g, k) for k, g in enumerate(pos))
    return rank


DISTINGUISHED = PBWOrder()


# ---------------------------------------------------------------------------
# normal ordering

def _violation(alg, word, rank, start=0):
    """Index of the first adjacent pair out of the rank table's order at or
    after start, or None."""
    for k in range(start, len(word) - 1):
        a, b = word[k], word[k + 1]
        if rank[a] > rank[b]:
            return k
        if a == b and alg.gen_parity(*a):
            return k  # odd square, the term dies
    return None


def _offsets(off, part, sign):
    """Add sign * wt(part) to the coordinate offsets off; part holds (i, j, exp)."""
    for i, j, e in part:
        off[i] = off.get(i, 0) + sign * e
        off[j] = off.get(j, 0) - sign * e
    return off


def _accumulate(acc, key, val):
    s = acc.get(key)
    s = val if s is None else s + val
    if s:
        acc[key] = s
    else:
        acc.pop(key, None)


def _fold(word, coeff, cart, out, rank):
    """Accumulate an ordered word, times the Cartan part cart carried at its
    right end (None for 1), into the terms dict."""
    neg = []
    pos = []
    for a in word:
        part = neg if rank[a] < 0 else pos
        if part and part[-1][0] == a[0] and part[-1][1] == a[1]:
            part[-1][2] += 1
        else:
            part.append([a[0], a[1], 1])
    key = (tuple(tuple(t) for t in neg), tuple(tuple(t) for t in pos))
    if cart is None:
        _accumulate(out, key, Poly.const(coeff))
    else:  # pos H = H(x - wt pos) pos
        _accumulate(out, key, (cart.shifted(_offsets({}, key[1], -1)) if pos else cart) * coeff)


_NF_CACHE: dict = {}


def _nf_atoms(alg: GLAlgebra, atoms, *, order: PBWOrder = DISTINGUISHED) -> MappingProxyType:
    """Straighten a word of generator pairs; returns a read-only {(neg, pos): Poly}.

    The Cartan part x_i -+ x_j of a bracket [e_ij, e_ji] moves to the right
    end of the word, shifted by the weight it passes, and rides there until
    the word is ordered.  Every word is cached; the cache holds the
    read-only views it hands out, so no caller can change a later
    straightening.
    """
    key = (alg.m, alg.n, order.word, tuple(atoms))
    hit = _NF_CACHE.get(key)
    if hit is not None:
        return hit
    rank = order.rank(alg)
    table = alg.brackets
    out: dict = {}
    # each word carries where its scan starts: a rewrite at k leaves the
    # pairs before k - 1 ordered, so the first violation is not before it
    stack = [(tuple(atoms), 1, None, 0)]
    while stack:
        word, coeff, cart, start = stack.pop()
        k = _violation(alg, word, rank, start)
        if k is None:
            _fold(word, coeff, cart, out, rank)
            continue
        a, b = word[k], word[k + 1]
        head, tail = word[:k], word[k + 2:]
        sign, bracket = table[a, b]
        if a == b and sign < 0:
            continue  # isotropic square is zero
        start = max(k - 1, 0)
        stack.append((head + (b, a) + tail, coeff * sign, cart, start))
        for item, c in bracket:
            if isinstance(item, Poly):
                # item = x_i - sign x_j picks up wt(tail) at i minus sign times it at j
                i, j = a
                d = sum((g[0] == i) - (g[1] == i) - sign * ((g[0] == j) - (g[1] == j))
                        for g in tail)
                h = item + d if d else item
                stack.append((head + tail, coeff * c, h if cart is None else cart * h, start))
            else:
                stack.append((head + (item,) + tail, coeff * c, cart, start))
    out = _NF_CACHE[key] = MappingProxyType(out)
    return out


def _splice(alg, left, right, order=DISTINGUISHED):
    """Yield ((neg, pos), Poly) for the product (n1 h1 p1)(n2 h2 p2) of two terms.

    n, p are (i, j, exp) tuples, not necessarily sorted.  h1 moves to the far
    left and h2 to the far right, n1 p1 n2 p2 is straightened once into
    terms neg H pos, and each Cartan part goes back with one shift:
    neg h1(x + wt neg - wt n1) H h2(x + wt p2 - wt pos) pos.  The word
    does not depend on h1 or h2, so its normal form is cached whatever they
    are.
    """
    n1, h1, p1 = left
    n2, h2, p2 = right
    c1 = h1.constant_value() if h1.is_constant() else None
    c2 = h2.constant_value() if h2.is_constant() else None
    word = _expand_key(n1) + _expand_key(p1) + _expand_key(n2) + _expand_key(p2)
    nf = _nf_atoms(alg, word, order=order)
    scale = (1 if c1 is None else c1) * (1 if c2 is None else c2)
    moved1: dict = {}
    moved2: dict = {}
    for (neg, pos), h in nf.items():
        if c1 is None:
            if neg not in moved1:
                moved1[neg] = h1.shifted(_offsets(_offsets({}, neg, 1), n1, -1))
            h = moved1[neg] * h
        if c2 is None:
            if pos not in moved2:
                moved2[pos] = h2.shifted(_offsets(_offsets({}, p2, 1), pos, -1))
            h = h * moved2[pos]
        yield (neg, pos), h if scale == 1 else h * scale


def _product(alg, left: dict, right: dict, order=DISTINGUISHED) -> dict:
    """Terms of the product of two {(n, p): h} dicts, one splice per pair."""
    acc: dict = {}
    for (n1, p1), h1 in left.items():
        for (n2, p2), h2 in right.items():
            for key, h in _splice(alg, (n1, h1, p1), (n2, h2, p2), order):
                _accumulate(acc, key, h)
    return acc


def normal_order(alg: GLAlgebra, word, order: PBWOrder = DISTINGUISHED) -> "UEAElement":
    """Normal-order a free word of generators and Cartan polynomials.

    The result is canonical for the given triangular order: every monomial
    is (negative part) * (Cartan polynomial) * (positive part) with factors
    in the order's within-class sort.  A diagonal unit e_ii is x_i.  A word
    r0 h1 r1 h2 r2 ... with Cartan atoms h_k between generator runs r_k is
    the product of the terms (r0, h1, r1), ((), h2, r2), ...
    """
    runs, carts = [[]], []
    for a in word:
        if isinstance(a, Poly) or a[0] == a[1]:
            h = a if isinstance(a, Poly) else Poly.x(a[0])
            if carts and not runs[-1]:
                carts[-1] = carts[-1] * h
            else:
                carts.append(h)
                runs.append([])
        else:
            runs[-1].append((a[0], a[1], 1))
    runs = [tuple(r) for r in runs] + [()]
    first = (runs[0], carts[0] if carts else Poly.one(), runs[1])
    terms = {((), ()): Poly.one()}
    for n, h, p in [first] + [((), h, r) for h, r in zip(carts[1:], runs[2:])]:
        terms = _product(alg, terms, {(n, p): h}, order)
    return UEAElement(alg, terms)


def _expand_key(part):
    out = []
    for i, j, e in part:
        out.extend([(i, j)] * e)
    return out


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
    def from_cartan(alg, p: Poly) -> "UEAElement":
        if p.is_zero():
            return UEAElement(alg)
        return UEAElement(alg, {((), ()): p})

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
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return UEAElement(self.alg)
            return UEAElement(self.alg, {k: p * c for k, p in self.terms.items()})
        if isinstance(other, Poly):
            return self.scale_central(other)
        if not isinstance(other, UEAElement):
            return NotImplemented
        return UEAElement(self.alg, _product(self.alg, self.terms, other.terms))

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
            out = out * self
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

