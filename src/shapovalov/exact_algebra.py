"""Exact arithmetic layer: rational sparse polynomials, weights of gl(m,n),
the supersymmetric bilinear form, the Weyl vector, and root hyperplanes.

Everything here is a pure value; no floating point is used anywhere.
Weights live in the eps/delta coordinate basis of the dual Cartan: the
first m coordinates are eps-coefficients, the last n are delta-coefficients.
Polynomials are sparse multivariate polynomials over Q in commuting
variables x_1, x_2, ... where x_i stands for the diagonal matrix unit
e_{ii}; they double as elements of U(h) and as polynomial functions of a
weight's coordinates.  A coefficient is an int when its denominator is 1,
else a Fraction: the constructed elements have integer coefficients
throughout, and rationals only enter when a rational weight is substituted.
A monomial is one packed int, each exponent in an 8-bit field (_BITS), so
a product of monomials is an int addition; total degree is capped at 255
(_MAX_DEG), and a result past it is refused with a ValueError, never
wrapped into the next field.  Exponent tuples are the public boundary:
Poly(...) takes them, and terms, str, latex and to_json give them back.

The straightener moves Cartan parts past generators (H(x) e = e H(x + w))
and evaluates them at sampled weights, so two substitutions are hot and
have their own kernels: Poly.shifted is a binomial (Taylor) shift, and
eval_table evaluates at the integer point D * lambda (Weight.scaled reads
a weight once as its common denominator D and those integers), times D^d
for d = deg p, found in the same pass; eval_at divides by D^d once, and the
Verma action keeps the integer.  It keeps each packed monomial's value at
the point, and the powers of D, so the many polynomials that the Verma
action evaluates at one point share them.
The chain sums attach one linear factor at a time, so a product with an
operand of degree <= 1 has its own kernel as well (_times_linear, over
term dicts, which the chain sums keep and own): each of that operand's
terms adds one key to every key of the other.
generic_point solves linear constraints once, with the general
substitution Poly.subs, and returns a weight with Poly coordinates on
their zero locus, so an identity on a whole hyperplane is checked by
evaluating there (the same kernel, with D = 1) and testing for zero.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from math import comb, lcm
from types import MappingProxyType


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def _coeff(x):
    """x as a coefficient: an int when its denominator is 1, else a Fraction."""
    if type(x) is int:
        return x
    x = _frac(x)
    return x.numerator if x.denominator == 1 else x


_BITS = 8  # width of one exponent field of a packed monomial
_MAX_DEG = (1 << _BITS) - 1  # the largest total degree a Poly holds, so no field carries
_new = object.__new__


def _refuse(deg):
    raise ValueError(f"a polynomial of degree {deg} is refused: packed monomials hold degree at most {_MAX_DEG}")


def _unit(i: int) -> int:
    """The packed key of x_i."""
    return 1 << _BITS * (i - 1)


def _unpack(key: int) -> tuple:
    """The trimmed exponent tuple of a packed key."""
    out = []
    while key:
        out.append(key & _MAX_DEG)
        key >>= _BITS
    return tuple(out)


def _packed(terms: dict, deg: int) -> "Poly":
    """The Poly with packed keys, nonzero coefficients and degree bound deg:
    the constructor of every Poly built inside the package."""
    p = _new(Poly)
    p._t = terms
    p._deg = deg
    return p


def _degree(terms: dict) -> int:
    """The exact total degree of the packed terms (0 for none)."""
    return max((sum(_unpack(k)) for k in terms), default=0)


def _product_degree(a: dict, b: dict) -> int:
    """The degree of the product of the polynomials with packed terms a and
    b, for operands whose degree bounds add up past _MAX_DEG: the exact
    degrees add up in a product, and a sum past _MAX_DEG is refused."""
    deg = _degree(a) + _degree(b)
    if deg > _MAX_DEG:
        _refuse(deg)
    return deg


def _times_linear(terms: dict, deg: int, lin: "Poly"):
    """(terms of p * lin, degree bound) for p given by its packed terms and
    degree bound deg, and a non-constant lin with few terms: the kernel of
    Poly products with an operand of degree <= 1, and of the chain sums'
    linear factors, which keep their Cartan parts as term dicts
    (construct._element).

    A term c x^u of lin adds u's key to every key of p, and c scales them.
    Adding one key maps keys to keys one to one, so only the terms of lin
    after the first can meet a key already there.  A bound past _MAX_DEG is
    replaced by the exact degree, and a product past it is refused.
    """
    deg += lin._deg
    if deg > _MAX_DEG:
        deg = _product_degree(terms, lin._t)
    out = None
    for u, cl in lin._t.items():
        if out is None:
            out = {k + u: c * cl for k, c in terms.items()}
            continue
        for k, c in terms.items():
            k += u
            s = out.get(k)
            if s is None:
                out[k] = c * cl
            else:
                s += c * cl
                if s:
                    out[k] = s
                else:
                    del out[k]
    return out, deg


class Poly:
    """Sparse polynomial over Q in commuting variables x_1, x_2, ...

    A monomial is one packed int, after Monagan and Pearce ("Polynomial
    division using dynamic arrays, heaps, and packed exponent vectors",
    CASC 2007): x_i's exponent sits in the _BITS-bit field at bit
    _BITS * (i - 1), so a product of monomials is an int addition and a
    variable's exponent is read by shift and mask.  _t maps packed keys to
    nonzero coefficients: an int when the denominator is 1, else a Fraction
    (const, from_json and scalar multiplication normalise; Fraction(k) == k
    with equal hash and str, so a stray integral Fraction from other
    arithmetic is harmless).  _deg is an upper bound on the total degree:
    the sum of the operands' bounds for a product, their maximum for a sum.
    Total degree is capped at _MAX_DEG = 255, so no exponent field can
    carry into the next; an operation whose result would pass it raises
    ValueError naming the limit.  The zero polynomial has no terms.
    Instances are treated as immutable: no code changes _t once a Poly is
    built, and the hash is kept on first use (_hash).

    Exponent tuples stay the public boundary: Poly(terms) takes a map from
    exponent tuples (trailing zeros allowed) to coefficients, and terms is
    a read-only view keyed by trimmed tuples, decoded when it is read.
    """

    __slots__ = ("_t", "_deg", "_hash")

    def __init__(self, terms=None):
        t: dict = {}
        deg = 0
        for exps, c in (terms.items() if hasattr(terms, "items") else terms or ()):
            d = 0
            key = 0
            for i, e in enumerate(exps):
                if type(e) is not int or e < 0:
                    raise ValueError(f"exponent {e!r} is not a non-negative int")
                d += e
                key |= e << _BITS * i
            if d > _MAX_DEG:
                _refuse(d)
            deg = max(deg, d)
            s = t.get(key, 0) + c
            if s:
                t[key] = s
            else:
                t.pop(key, None)
        self._t = t
        self._deg = deg

    @property
    def terms(self):
        """Read-only map from trimmed exponent tuples to coefficients."""
        return MappingProxyType({_unpack(k): c for k, c in self._t.items()})

    @staticmethod
    def const(c) -> "Poly":
        c = _coeff(c)
        return _packed({0: c} if c else {}, 0)

    @staticmethod
    def x(i: int) -> "Poly":
        if i < 1:
            raise ValueError("variables are 1-indexed")
        return _packed({_unit(i): 1}, 1)

    @staticmethod
    def zero() -> "Poly":
        return _packed({}, 0)

    @staticmethod
    def one() -> "Poly":
        return _packed({0: 1}, 0)

    def is_zero(self) -> bool:
        return not self._t

    def __bool__(self):
        return bool(self._t)

    def is_constant(self) -> bool:
        t = self._t
        return not t or (len(t) == 1 and 0 in t)

    def constant_value(self):
        """The constant term of a constant polynomial (int or Fraction)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self._t.get(0, 0)

    def degree(self) -> int:
        """The exact total degree (0 for the zero polynomial)."""
        return _degree(self._t)

    def variables(self):
        key = 0
        for k in self._t:
            key |= k
        return [i + 1 for i, e in enumerate(_unpack(key)) if e]

    def _coerce(self, other):
        if isinstance(other, Poly):
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.const(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        big, small = self._t, other._t
        if len(small) > len(big):
            big, small = small, big
        out = dict(big)  # the larger operand is copied, the smaller added in
        for k, c in small.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _packed(out, max(self._deg, other._deg))

    __radd__ = __add__

    def __neg__(self):
        return _packed({k: -c for k, c in self._t.items()}, self._deg)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            if not c:
                return _packed({}, 0)
            if type(c) is int:
                return _packed({k: v * c if type(v) is int else _coeff(v * c) for k, v in self._t.items()},
                               self._deg)
            return _packed({k: _coeff(v * c) for k, v in self._t.items()}, self._deg)
        if not isinstance(other, Poly):
            return NotImplemented
        # a product with the polynomial 1 is the other operand itself
        if other.is_constant():
            c = other._t.get(0, 0)
            return self if c == 1 else self * c
        if self.is_constant():
            c = self._t.get(0, 0)
            return other if c == 1 else other * c
        if other._deg <= 1:
            return _packed(*_times_linear(self._t, self._deg, other))
        if self._deg <= 1:
            return _packed(*_times_linear(other._t, other._deg, self))
        deg = self._deg + other._deg
        if deg > _MAX_DEG:
            deg = _product_degree(self._t, other._t)
        right = list(other._t.items())
        out: dict = {}
        for k1, c1 in self._t.items():
            for k2, c2 in right:
                k = k1 + k2
                s = out.get(k)
                out[k] = c1 * c2 if s is None else s + c1 * c2
        return _packed({k: c for k, c in out.items() if c}, deg)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # no square past the last bit: x ** 255 needs no x ** 256
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        """Kept on the Poly after the first call, as _t never changes.  A
        constant hashes as its value, which it equals."""
        try:
            return self._hash
        except AttributeError:
            t = self._t
            h = self._hash = hash(t.get(0, 0) if self.is_constant() else frozenset(t.items()))
            return h

    def subs(self, mapping) -> "Poly":
        """Substitute x_i -> mapping[i] (Poly or rational) for listed variables.

        The general route: each monomial is expanded with Poly products and
        added into one result dict.  Shifts and evaluation have their own
        kernels (shifted, eval_table).
        """
        out: dict = {}
        powers: dict = {}
        deg = 0
        for k, c in self._t.items():
            term = _packed({0: c}, 0)
            v = 1
            while k:
                p = k & _MAX_DEG
                if p:
                    pw = powers.get((v, p))
                    if pw is None:
                        base = mapping.get(v)
                        if base is None:
                            base = Poly.x(v)
                        elif not isinstance(base, Poly):
                            base = Poly.const(base)
                        pw = powers[(v, p)] = base ** p
                    term = term * pw
                k >>= _BITS
                v += 1
            deg = max(deg, term._deg)
            for k2, c2 in term._t.items():
                s = out.get(k2)
                out[k2] = c2 if s is None else s + c2
        return _packed({k: c for k, c in out.items() if c}, deg)

    def shifted(self, offsets) -> "Poly":
        """Substitute x_i -> x_i + offsets[i] for each nonzero offset.

        Offsets are ints or Fractions.  A binomial (Taylor) shift, one pass
        per shifted variable: x_i^p becomes sum_k C(p, k) a^(p-k) x_i^k, and
        the pass adds every image into one dict.  The degree bound stays.
        """
        terms = self._t
        for v, a in offsets.items():
            if not a:
                continue
            at = _BITS * (v - 1)
            unit = 1 << at
            out: dict = {}
            rows = {}  # p -> [C(p, k) a^(p-k) for k = 0..p]
            for key, c in terms.items():
                p = key >> at & _MAX_DEG
                if not p:
                    s = out.get(key)
                    out[key] = c if s is None else s + c
                    continue
                row = rows.get(p)
                if row is None:
                    row = rows[p] = [comb(p, k) * a ** (p - k) for k in range(p + 1)]
                key -= p * unit
                for k in range(p + 1):
                    val = c if k == p else c * row[k]
                    s = out.get(key)
                    out[key] = val if s is None else s + val
                    key += unit
            terms = {k: c for k, c in out.items() if c}
        return self if terms is self._t else _packed(terms, self._deg)

    def _sorted(self, key):
        """(exponent tuple, coefficient) pairs, sorted by key(exponent tuple)."""
        return sorted(((_unpack(k), c) for k, c in self._t.items()), key=lambda ec: key(ec[0]))

    def __str__(self):
        if not self._t:
            return "0"
        bits = []
        for e, c in self._sorted(lambda e: (sum(e), e)):
            mono = "*".join(
                f"x{i + 1}" + (f"^{p}" if p > 1 else "")
                for i, p in enumerate(e)
                if p
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append(f"{c}*{mono}")
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    __repr__ = __str__

    def latex(self) -> str:
        if not self._t:
            return "0"
        bits = []
        for e, c in self._sorted(lambda e: (sum(e), e)):
            mono = "".join(
                f"x_{{{i + 1}}}" + (f"^{{{p}}}" if p > 1 else "")
                for i, p in enumerate(e)
                if p
            )
            coef = ""
            if not mono:
                coef = _frac_latex(c)
            elif c == -1:
                coef = "-"
            elif c != 1:
                coef = _frac_latex(c)
            bits.append(coef + mono)
        out = bits[0]
        for b in bits[1:]:
            out += b if b.startswith("-") else "+" + b
        return out

    def to_json(self):
        return {"monomials": [{"exps": list(e), "coeff": str(c)} for e, c in self._sorted(tuple)]}

    @staticmethod
    def from_json(data) -> "Poly":
        """The Poly of to_json's output; exponent lists may carry trailing
        zeros, and repeated monomials add up."""
        return Poly((tuple(mono["exps"]), _coeff(mono["coeff"])) for mono in data["monomials"])


def _linear(form) -> Poly:
    """The Cartan polynomial c0 + sum c_i x_i of a linear form (c0, c1, ..., cN)."""
    terms = {_unit(i): c for i, c in enumerate(form) if i and c}
    if form[0]:
        terms[0] = form[0]
    return _packed(terms, 1)


def _frac_latex(c) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    s = "-" if c < 0 else ""
    return s + f"\\tfrac{{{abs(c.numerator)}}}{{{c.denominator}}}"


class Weight:
    """Vector in the dual Cartan of gl(m,n), in eps/delta coordinates.

    Coordinates are Fractions for ordinary weights; a generic point of a
    hyperplane (see generic_point) carries Poly coordinates in parameter
    variables, used to verify identities on the whole hyperplane at once.
    """

    __slots__ = ("m", "n", "coords", "_scaled")

    def __init__(self, m: int, n: int, coords):
        coords = tuple(
            c if isinstance(c, (Fraction, Poly)) else _frac(c) for c in coords
        )
        if len(coords) != m + n:
            raise ValueError(f"expected {m + n} coordinates, got {len(coords)}")
        self.m = m
        self.n = n
        self.coords = coords
        self._scaled = None

    @staticmethod
    def zero(m, n) -> "Weight":
        return Weight(m, n, [Fraction(0)] * (m + n))

    @staticmethod
    def eps(m, n, i) -> "Weight":
        if not 1 <= i <= m:
            raise ValueError(f"eps index {i} out of range for gl({m},{n})")
        c = [Fraction(0)] * (m + n)
        c[i - 1] = Fraction(1)
        return Weight(m, n, c)

    @staticmethod
    def delta(m, n, j) -> "Weight":
        if not 1 <= j <= n:
            raise ValueError(f"delta index {j} out of range for gl({m},{n})")
        c = [Fraction(0)] * (m + n)
        c[m + j - 1] = Fraction(1)
        return Weight(m, n, c)

    @staticmethod
    def basis(m, n, i) -> "Weight":
        """i-th coordinate functional, 1 <= i <= m+n (eps then delta)."""
        c = [Fraction(0)] * (m + n)
        c[i - 1] = Fraction(1)
        return Weight(m, n, c)

    def scaled(self):
        """(D, D * coords): the least common denominator D of the coordinates
        and the integers D * lambda_i, computed once per weight.  A weight
        with Poly coordinates gives D = 1 and its coordinates as Polys."""
        s = self._scaled
        if s is None:
            coords = self.coords
            if all(type(c) is Fraction for c in coords):
                D = lcm(*(c.denominator for c in coords))
                s = (D, tuple(c.numerator * (D // c.denominator) for c in coords))
            else:
                s = (1, tuple(c if isinstance(c, Poly) else Poly.const(c) for c in coords))
            self._scaled = s
        return s

    def _check(self, other):
        if self.m != other.m or self.n != other.n:
            raise ValueError("dimension mismatch between weights")

    def __add__(self, other):
        self._check(other)
        return Weight(self.m, self.n, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        self._check(other)
        return Weight(self.m, self.n, [a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self):
        return Weight(self.m, self.n, [-a for a in self.coords])

    def __rmul__(self, c):
        if not isinstance(c, Poly):
            c = _frac(c)
        return Weight(self.m, self.n, [c * a for a in self.coords])

    __mul__ = __rmul__

    def is_zero(self) -> bool:
        return all(not c for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and all(
            a == b for a, b in zip(self.coords, other.coords)
        )

    def __hash__(self):
        return hash((self.m, self.n, self.coords))

    def __str__(self):
        return "(" + ", ".join(str(c) for c in self.coords) + ")"

    __repr__ = __str__

    def to_json(self):
        return [str(c) for c in self.coords]

    @staticmethod
    def from_json(m, n, data) -> "Weight":
        return Weight(m, n, [_frac(c) for c in data])


def bilinear_form(mu: Weight, nu: Weight):
    """Supersymmetric form: (eps_i,eps_j)=delta_ij, (delta_i,delta_j)=-delta_ij."""
    mu._check(nu)
    m = mu.m
    out = Fraction(0)
    for i, (a, b) in enumerate(zip(mu.coords, nu.coords)):
        if a and b:  # a zero in either argument adds nothing
            out = out + a * b if i < m else out - a * b
    return out


@cache
def rho(m: int, n: int = 0) -> Weight:
    """Weyl vector normalized to coordinate sum zero.

    Pairs to 1 with eps-side simple roots, 0 with the odd simple root and -1
    with delta-side simple roots; the radical direction is fixed by the zero
    coordinate sum (for m = n any choice pairs identically with all roots).
    Cached per (m, n): weights are immutable, so every caller shares one.
    """
    if m < 1 or n < 0:
        raise ValueError("need m >= 1, n >= 0")
    eps_part = [Fraction(m - n + 1 - 2 * i, 2) for i in range(1, m + 1)]
    del_part = [Fraction(m + n + 1 - 2 * j, 2) for j in range(1, n + 1)]
    return Weight(m, n, eps_part + del_part)


def h_of_weight(mu: Weight) -> Poly:
    """Linear polynomial h_mu in the diagonal units with beta(h_mu) = (mu, beta)."""
    out = Poly()
    for i in range(mu.m):
        c = mu.coords[i]
        if c:
            out = out + Poly.x(i + 1) * c
    for j in range(mu.m, mu.m + mu.n):
        c = mu.coords[j]
        if c:
            out = out - Poly.x(j + 1) * c
    return out


def rho_pairing(beta: Weight, c=0) -> Poly:
    """(lam + rho, beta) + c as a linear polynomial in the coordinates of
    lam: h_beta + (rho, beta) + c."""
    return h_of_weight(beta) + Poly.const(bilinear_form(rho(beta.m, beta.n), beta) + c)


def eval_table(point, D: int):
    """The evaluation kernel at the integer point D * lambda: a function
    p -> (num, d) for d = deg p, num = D^d times p at x = point / D, the
    sum over the terms c x^k of p of c * prod point_i^k_i * D^(d - |k|).

    point is D * lambda (Weight.scaled): integers for a numeric weight, so
    with integer coefficients num is an int; Polys at a generic point,
    where D = 1.  A variable beyond the point stands for itself, as
    D * x_i.  The function keeps one table for the point: each packed
    monomial's value prod point_i^k_i and degree |k|, computed field by
    field on first use, and the powers of D.  So a monomial that recurs
    across the polynomials evaluated at one point, as the Cartan parts of
    one element's terms do (verma.act) or the factors of a chain
    (construct.ShapovalovElement.apply), is evaluated once.  eval_at
    divides num by D^d.  The terms are scaled to p's degree bound and, in
    the rare case that the bound is above the degree found, the sum is
    divided by the surplus power of D once.
    """
    values: dict = {}
    powers = [1]
    size = len(point)

    def evaluate(p):
        bound = p._deg
        while len(powers) <= bound:
            powers.append(powers[-1] * D)
        num = 0
        d = 0
        for k, c in p._t.items():
            vs = values.get(k)
            if vs is None:
                val = 1
                s = i = 0
                key = k
                while key:
                    e = key & _MAX_DEG
                    if e:
                        x = point[i] if i < size else D * Poly.x(i + 1)
                        val *= x if e == 1 else x ** e
                        s += e
                    key >>= _BITS
                    i += 1
                vs = values[k] = val, s
            val, s = vs
            if s > d:
                d = s
            num += c * val if s == bound or D == 1 else c * val * powers[bound - s]
        if d < bound and D != 1:
            surplus = powers[bound - d]
            num = num // surplus if type(num) is int else num * Fraction(1, surplus)
        return num, d

    return evaluate


def eval_at(p: Poly, lam: Weight):
    """Evaluate p at x_i = i-th coordinate of lam.

    The kernel eval_table at the point D * lam, divided once by D^deg p.
    Returns a Fraction for a numeric weight and p in x_1..x_{m+n}.  A
    symbolic weight (Poly coordinates) or a p in further variables gives a
    Poly, or a Fraction when the result is a constant of a numeric weight.
    """
    D, point = lam.scaled()
    num, d = eval_table(point, D)(p)
    numeric = not point or type(point[0]) is int
    if isinstance(num, Poly):
        if numeric and num.is_constant():
            return Fraction(num.constant_value(), D ** d)
        return num if D == 1 else num * Fraction(1, D ** d)
    if not numeric:  # a constant p at a generic point
        return Poly.const(num)
    return Fraction(num, D ** d) if D != 1 else Fraction(num)


class Hyperplane:
    """Locus (lam + rho, eta) = mult * (eta,eta)/2 in the dual Cartan."""

    __slots__ = ("eta", "mult", "_rhs", "_rho_eta")

    def __init__(self, eta: Weight, mult: int = 1):
        if mult < 1:
            raise ValueError("multiplicity must be a positive integer")
        if eta.is_zero():
            raise ValueError("eta = 0 defines no hyperplane: (lam + rho, 0) = 0 for every lam")
        if bilinear_form(eta, eta) == 0 and mult != 1:
            raise ValueError("isotropic roots only admit multiplicity 1")
        self.eta = eta
        self.mult = mult
        self._rhs = Fraction(mult) * bilinear_form(eta, eta) / 2
        self._rho_eta = bilinear_form(rho(eta.m, eta.n), eta)  # (rho, eta), read by every member call

    def rhs(self) -> Fraction:
        return self._rhs

    def member(self, lam: Weight) -> bool:
        return bilinear_form(lam, self.eta) + self._rho_eta == self._rhs

    def constraint_poly(self) -> Poly:
        """Linear polynomial in the coordinates of lam vanishing exactly on the hyperplane."""
        return rho_pairing(self.eta, -self.rhs())

    def __repr__(self):
        return f"Hyperplane(eta={self.eta}, mult={self.mult})"


_SAMPLE_BOUND = 1000
_DRAW_BOUND = 24  # free coordinates are drawn as a/b, |a| <= 24, 1 <= b <= 5
_MAX_MISSES = 10_000  # consecutive draws without a new point before giving up


def sample_hyperplane(hp: Hyperplane, seed: int, count: int) -> list:
    """Deterministic distinct rational points on hp, coordinates bounded by 10^3.

    Raises ValueError when _MAX_MISSES draws in a row add no new point:
    the bounded part of hp may hold fewer points than asked for.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    eta = hp.eta
    m, n = eta.m, eta.n
    coeffs = [eta.coords[i] for i in range(m)] + [
        -eta.coords[m + j] for j in range(n)
    ]
    pivot = next(i for i, c in enumerate(coeffs) if c)
    others = [(i, c) for i, c in enumerate(coeffs) if c and i != pivot]  # one entry for a root
    target = hp.rhs() - hp._rho_eta  # required value of (lam, eta)
    # the pivot coordinate is (target - partial) / coeff with |partial| <= spread;
    # when that range misses [-bound, bound], no draw can ever be accepted
    spread = _DRAW_BOUND * sum(abs(c) for _, c in others)
    if abs(target) - spread > _SAMPLE_BOUND * abs(coeffs[pivot]):
        raise ValueError(f"{hp} has no sample point with coordinates bounded by {_SAMPLE_BOUND}")
    rng = random.Random(seed)
    # x = (target - partial) / coeff, with the division made once here
    target, others = target / coeffs[pivot], [(i, c / coeffs[pivot]) for i, c in others]
    points = []
    seen = set()  # points as tuples of (numerator, denominator) int pairs
    misses = 0
    while len(points) < count:
        if misses == _MAX_MISSES:
            raise ValueError(
                f"{hp}: found {len(points)} of {count} sample points with coordinates "
                f"bounded by {_SAMPLE_BOUND} before {_MAX_MISSES} draws in a row added none"
            )
        misses += 1
        drawn = [_drawn(rng.randint(-_DRAW_BOUND, _DRAW_BOUND), rng.randint(1, 5)) for _ in range(m + n)]
        x = target - sum(c * drawn[i][0] for i, c in others)
        p, q = x.numerator, x.denominator
        # the drawn coordinates are within the bound by construction
        if abs(p) > _SAMPLE_BOUND or q > _SAMPLE_BOUND:
            continue
        drawn[pivot] = x, (p, q)
        key = tuple(pair for _, pair in drawn)
        if key in seen:
            continue
        seen.add(key)
        lam = Weight(m, n, [f for f, _ in drawn])
        assert hp.member(lam)
        points.append(lam)
        misses = 0
    return points


@cache
def _drawn(a: int, b: int) -> tuple:
    """The draw a/b as a Fraction and as its reduced (numerator, denominator) pair."""
    x = Fraction(a, b)
    return x, (x.numerator, x.denominator)


def generic_point(m: int, n: int, constraints) -> Weight:
    """Generic point of the locus where the linear constraint polys vanish.

    The constraints are polynomials in the weight coordinates x_1..x_{m+n},
    such as Hyperplane.constraint_poly().  The i-th coordinate of the point
    is the parameter x_{m+n+i}, or, for a coordinate the constraints solve
    for, its value in the remaining parameters.  The parameter block is
    disjoint from the Cartan variables, so coefficients evaluated at the
    point stay central under later normal ordering, and a polynomial in the
    coordinates vanishes on the whole locus iff it is zero at the point.
    Inconsistent constraints raise ValueError.
    """
    N = m + n
    # the constraints rewritten in the parameter block, x_i -> x_{N+i}: each
    # key moves up N fields
    shift = _BITS * N
    params = [_packed({k << shift: c for k, c in p._t.items()}, p._deg) for p in constraints]
    return Weight(m, n, [reduce_mod(Poly.x(N + i), params) for i in range(1, N + 1)])


def reduce_mod(p: Poly, constraints) -> Poly:
    """Reduce p modulo a list of linear constraint polynomials.

    Each constraint is solved for its highest-index unused variable and
    substituted away; the result is zero iff p vanishes on the common zero
    locus of the constraints.  This is the solver behind generic_point.
    """
    used = set()
    out = p
    solved = []
    # triangularize the constraints first
    for c in constraints:
        for prev_var, prev_expr in solved:
            c = c.subs({prev_var: prev_expr})
        if c.is_zero():
            continue
        if c.is_constant():
            raise ValueError("constraints are inconsistent")
        if c.degree() != 1:
            raise ValueError("constraints must be linear")
        var = max(v for v in c.variables() if v not in used)
        used.add(var)
        coeff = Fraction(0)
        rest = Poly()
        at = _BITS * (var - 1)
        for k, cf in c._t.items():
            if k >> at & _MAX_DEG:
                coeff = cf
            else:
                rest = rest + _packed({k: cf}, 1)
        expr = rest * (Fraction(-1) / coeff)
        solved.append((var, expr))
    for var, expr in solved:
        out = out.subs({var: expr})
    return out

