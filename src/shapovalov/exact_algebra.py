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

The straightener moves Cartan parts past generators (H(x) e = e H(x + w))
and evaluates them at sampled weights, so two substitutions are hot and
have their own kernels: Poly.shifted is a binomial (Taylor) shift, and
eval_scaled evaluates at the integer point D * lambda (Weight.scaled reads
a weight once as its common denominator D and those integers), times D^d;
eval_at divides by D^d once, and the Verma action keeps the integer.  The
chain sums attach one linear factor at a time, so a product with an
operand of degree <= 1 has its own kernel as well (Poly._times_linear):
each of that operand's terms bumps one exponent of the other's keys.
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
from operator import add


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


def _trim(exps):
    """Drop trailing zero exponents so tuples are canonical."""
    k = len(exps)
    while k and exps[k - 1] == 0:
        k -= 1
    return tuple(exps[:k])


def _is_linear(p) -> bool:
    """Every term of p has degree at most 1."""
    return all(sum(e) <= 1 for e in p.terms)


class Poly:
    """Sparse polynomial over Q in commuting variables x_1, x_2, ...

    terms maps a trimmed exponent tuple to a nonzero coefficient: an int
    when the denominator is 1, else a Fraction (const, from_json and scalar
    multiplication normalise; Fraction(k) == k with equal hash and str, so
    a stray integral Fraction from other arithmetic is harmless).  The zero
    polynomial has an empty terms dict.  Instances are treated as
    immutable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def const(c) -> "Poly":
        c = _coeff(c)
        return Poly({(): c} if c else None)

    @staticmethod
    def x(i: int) -> "Poly":
        if i < 1:
            raise ValueError("variables are 1-indexed")
        exps = tuple([0] * (i - 1) + [1])
        return Poly({exps: 1})

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly({(): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        terms = self.terms
        return not terms or (len(terms) == 1 and () in terms)

    def constant_value(self):
        """The constant term of a constant polynomial (int or Fraction)."""
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.terms.get((), 0)

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def variables(self):
        vs = set()
        for e in self.terms:
            vs.update(i + 1 for i, p in enumerate(e) if p)
        return sorted(vs)

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly({e: -c for e, c in self.terms.items()})

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
                return Poly()
            if type(c) is int:
                return Poly({e: v * c if type(v) is int else _coeff(v * c) for e, v in self.terms.items()})
            return Poly({e: _coeff(v * c) for e, v in self.terms.items()})
        if not isinstance(other, Poly):
            return NotImplemented
        # a product with the polynomial 1 is the other operand itself
        if other.is_constant():
            c = other.terms.get((), 0)
            return self if c == 1 else self * c
        if self.is_constant():
            c = self.terms.get((), 0)
            return other if c == 1 else other * c
        if _is_linear(other):
            return self._times_linear(other)
        if _is_linear(self):
            return other._times_linear(self)
        # exponent tuples are padded once to a common length k; a sum ends
        # in 0 only where both operands were shorter than k, so only those
        # keys need trimming
        k = max(max(map(len, self.terms)), max(map(len, other.terms)))
        left = [(e + (0,) * (k - len(e)), c) for e, c in self.terms.items()]
        right = [(e + (0,) * (k - len(e)), c) for e, c in other.terms.items()]
        out = {}
        for e1, c1 in left:
            for e2, c2 in right:
                e = tuple(map(add, e1, e2))
                s = out.get(e)
                out[e] = c1 * c2 if s is None else s + c1 * c2
        return Poly({e if e[-1] else _trim(e): c for e, c in out.items() if c})

    __rmul__ = __mul__

    def _times_linear(self, lin: "Poly") -> "Poly":
        """self * lin for lin of degree <= 1.

        A term c x_i of lin adds 1 to exponent i of every key of self, and
        its constant term scales them.  Bumping one exponent maps trimmed
        keys to trimmed keys, one to one, so only the terms of lin after the
        first can meet a key already there.
        """
        out = None
        for el, cl in lin.terms.items():
            i = len(el) - 1  # el is () or (0, ..., 0, 1)
            if i < 0:
                moved = {e: c * cl for e, c in self.terms.items()}
            else:
                moved = {
                    e[:i] + (e[i] + 1,) + e[i + 1:] if i < len(e) else e + (0,) * (i - len(e)) + (1,): c * cl
                    for e, c in self.terms.items()
                }
            if out is None:
                out = moved
                continue
            for e, c in moved.items():
                s = out.get(e)
                out[e] = c if s is None else s + c
        return Poly({e: c for e, c in out.items() if c})

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Poly.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def subs(self, mapping) -> "Poly":
        """Substitute x_i -> mapping[i] (Poly or rational) for listed variables.

        The general route: each monomial is expanded with Poly products and
        added into one result dict.  Shifts and evaluation have their own
        kernels (shifted, eval_scaled).
        """
        out = {}
        powers = {}
        for e, c in self.terms.items():
            term = Poly({(): c})
            for i, p in enumerate(e):
                if not p:
                    continue
                v = i + 1
                pw = powers.get((v, p))
                if pw is None:
                    base = mapping.get(v)
                    if base is None:
                        base = Poly.x(v)
                    elif not isinstance(base, Poly):
                        base = Poly.const(base)
                    pw = powers[(v, p)] = base ** p
                term = term * pw
            for e2, c2 in term.terms.items():
                s = out.get(e2)
                out[e2] = c2 if s is None else s + c2
        return Poly({e: c for e, c in out.items() if c})

    def shifted(self, offsets) -> "Poly":
        """Substitute x_i -> x_i + offsets[i] for each nonzero offset.

        Offsets are ints or Fractions.  A binomial (Taylor) shift, one pass
        per shifted variable: x_i^p becomes sum_k C(p, k) a^(p-k) x_i^k, and
        the pass adds every image into one dict.
        """
        terms = self.terms
        for v, a in offsets.items():
            if not a:
                continue
            i = v - 1
            out = {}
            rows = {}  # p -> [C(p, k) a^(p-k) for k = 0..p]
            for e, c in terms.items():
                p = e[i] if i < len(e) else 0
                if not p:
                    s = out.get(e)
                    out[e] = c if s is None else s + c
                    continue
                row = rows.get(p)
                if row is None:
                    row = rows[p] = [comb(p, k) * a ** (p - k) for k in range(p + 1)]
                head, tail = e[:i], e[i + 1:]
                for k in range(p + 1):
                    key = head + (k,) + tail if k or tail else _trim(head)
                    val = c if k == p else c * row[k]
                    s = out.get(key)
                    out[key] = val if s is None else s + val
            terms = {e: c for e, c in out.items() if c}
        return self if terms is self.terms else Poly(terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
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
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda e: (sum(e), e)):
            c = self.terms[e]
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
        return {
            "monomials": [
                {"exps": list(e), "coeff": str(c)}
                for e, c in sorted(self.terms.items())
            ]
        }

    @staticmethod
    def from_json(data) -> "Poly":
        out = Poly()
        for mono in data["monomials"]:
            out = out + Poly({_trim(tuple(mono["exps"])): _coeff(mono["coeff"])})
        return out


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


def eval_scaled(p: Poly, point, D: int, d: int):
    """D^d times p at x = point / D, for d >= deg p: the sum over the terms
    c x^k of p of c * prod point_i^k_i * D^(d - |k|).

    point is D * lambda (Weight.scaled): integers for a numeric weight, so
    with integer coefficients the result is an int; Polys at a generic
    point, where D = 1.  A variable beyond the point stands for itself, as
    D * x_i.  This is the one evaluation kernel: eval_at divides its result
    by D^deg p, and the Verma action keeps it as a numerator.
    """
    num = 0
    size = len(point)
    for e, c in p.terms.items():
        if len(e) > size:
            point = tuple(point) + tuple(D * Poly.x(i) for i in range(size + 1, len(e) + 1))
            size = len(e)
        s = 0
        for i, k in enumerate(e):
            if k:
                c *= point[i] if k == 1 else point[i] ** k
                s += k
        num += c if s == d or D == 1 else c * D ** (d - s)
    return num


def eval_at(p: Poly, lam: Weight):
    """Evaluate p at x_i = i-th coordinate of lam.

    The kernel eval_scaled at the point D * lam, divided once by D^deg p.
    Returns a Fraction for a numeric weight and p in x_1..x_{m+n}.  A
    symbolic weight (Poly coordinates) or a p in further variables gives a
    Poly, or a Fraction when the result is a constant of a numeric weight.
    """
    D, point = lam.scaled()
    d = p.degree()
    num = eval_scaled(p, point, D, d)
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

    __slots__ = ("eta", "mult", "_rhs")

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

    def rhs(self) -> Fraction:
        return self._rhs

    def member(self, lam: Weight) -> bool:
        eta = self.eta
        return bilinear_form(lam, eta) + bilinear_form(rho(lam.m, lam.n), eta) == self._rhs

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
    r = rho(m, n)
    target = hp.rhs() - bilinear_form(r, eta)  # required value of (lam, eta)
    # the pivot coordinate is (target - partial) / coeff with |partial| <= spread;
    # when that range misses [-bound, bound], no draw can ever be accepted
    spread = _DRAW_BOUND * sum(abs(c) for _, c in others)
    if abs(target) - spread > _SAMPLE_BOUND * abs(coeffs[pivot]):
        raise ValueError(f"{hp} has no sample point with coordinates bounded by {_SAMPLE_BOUND}")
    rng = random.Random(seed)
    points = []
    seen = set()
    misses = 0
    while len(points) < count:
        if misses == _MAX_MISSES:
            raise ValueError(
                f"{hp}: found {len(points)} of {count} sample points with coordinates "
                f"bounded by {_SAMPLE_BOUND} before {_MAX_MISSES} draws in a row added none"
            )
        misses += 1
        # int pairs first: Fractions only for the coordinates a point needs
        draws = [(rng.randint(-_DRAW_BOUND, _DRAW_BOUND), rng.randint(1, 5)) for _ in range(m + n)]
        x = (target - sum(c * Fraction(*draws[i]) for i, c in others)) / coeffs[pivot]
        # the drawn coordinates are within the bound by construction
        if abs(x.numerator) > _SAMPLE_BOUND or x.denominator > _SAMPLE_BOUND:
            continue
        lam = Weight(m, n, [x if i == pivot else Fraction(p, q) for i, (p, q) in enumerate(draws)])
        if lam.coords in seen:
            continue
        seen.add(lam.coords)
        assert hp.member(lam)
        points.append(lam)
        misses = 0
    return points


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
    # the constraints rewritten in the parameter block, x_i -> x_{N+i}
    params = [Poly({(0,) * N + e if e else e: c for e, c in p.terms.items()}) for p in constraints]
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
        for e, cf in c.terms.items():
            if len(e) >= var and e[var - 1]:
                coeff = cf
            else:
                rest = rest + Poly({e: cf})
        expr = rest * (Fraction(-1) / coeff)
        solved.append((var, expr))
    for var, expr in solved:
        out = out.subs({var: expr})
    return out

