"""Differential tests of Poly arithmetic against sympy as an independent oracle.

The straightener moves Cartan parts with multi-variable shifts and evaluates
them at moved weights, so products, sums, shifts, substitutions and
evaluation are each compared with sympy's expansion on random small
polynomials.  Coefficients mix ints and Fractions, integral Fractions such
as Fraction(3) included, since a Poly stores an integer coefficient as an
int but may meet either kind.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shapovalov.exact_algebra import Poly, Weight, eval_at

sympy = pytest.importorskip("sympy")

NVARS = 4
XS = sympy.symbols(f"x1:{NVARS + 1}")

rationals = st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)
coeffs = st.one_of(st.integers(-9, 9), rationals)
monomials = st.tuples(*[st.integers(0, 2)] * NVARS)
polys = st.dictionaries(monomials, coeffs, max_size=4)
# exponents up to 4 reach the binomials C(p, k) with p >= 3 of the Taylor shift
powers = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 1), st.integers(0, 1)),
    coeffs,
    max_size=3,
)
multilinear = st.dictionaries(st.tuples(*[st.integers(0, 1)] * NVARS), coeffs, max_size=3)
offsets = st.dictionaries(st.integers(1, NVARS), coeffs, max_size=NVARS)


def make(terms) -> Poly:
    """The Poly with the drawn coefficients stored as drawn, int or Fraction."""
    out = {}
    for exps, c in terms.items():
        k = len(exps)
        while k and not exps[k - 1]:
            k -= 1
        if c:
            out[exps[:k]] = c
    return Poly(out)


def exact(p: Poly) -> bool:
    """Every coefficient an int or a Fraction, never a float."""
    return all(type(c) in (int, Fraction) for c in p.terms.values())


def normal(p: Poly) -> bool:
    """exact, and an integer coefficient is stored as an int."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in p.terms.values())


def rat(c):
    return sympy.Rational(c.numerator, c.denominator)


def to_sympy(p: Poly):
    return sympy.Add(*[
        rat(c) * sympy.Mul(*[XS[i] ** e for i, e in enumerate(exps)])
        for exps, c in p.terms.items()
    ])


def same(p: Poly, expr) -> bool:
    return sympy.expand(to_sympy(p) - expr) == 0


@given(polys, polys)
@settings(max_examples=25, deadline=None)
def test_mul(a, b):
    p, q = make(a), make(b)
    assert same(p * q, to_sympy(p) * to_sympy(q))
    assert exact(p * q)
    # every key of a product is trimmed and every stored coefficient nonzero
    assert all(not e or e[-1] for e in (p * q).terms)
    assert all((p * q).terms.values())
    # a product that cancels completely is the zero polynomial
    assert (p * q - q * p).terms == {}
    assert (p * (q - q)).terms == {} and ((q - q) * p).terms == {}


# a linear form as {variable: coefficient}, 0 standing for the constant term
linear = st.dictionaries(st.integers(0, NVARS), coeffs, max_size=NVARS + 1)


def make_linear(terms) -> Poly:
    return make({tuple(int(k == v) for k in range(1, NVARS + 1)): c for v, c in terms.items()})


@given(polys, linear, st.booleans())
# a constant term, and x4 beyond the keys of the other operand
@example({(2, 1, 0, 0): 3, (0, 0, 0, 0): -1}, {0: 2, 4: Fraction(1, 2)}, True)
@example({(0, 2, 0, 0): Fraction(3, 2), (1, 0, 0, 0): 4}, {0: -5, 1: 1, 3: -2}, False)
# (x1 - x2)(x1 + x2): the cross terms of two linear forms cancel
@example({(1, 0, 0, 0): 1, (0, 1, 0, 0): -1}, {1: 1, 2: 1}, False)
@settings(max_examples=50, deadline=None)
def test_mul_linear(a, b, left):
    p, lin = make(a), make_linear(b)
    prod = lin * p if left else p * lin
    assert same(prod, to_sympy(p) * to_sympy(lin))
    assert exact(prod)
    assert all(not e or e[-1] for e in prod.terms)
    assert all(prod.terms.values())
    if all(type(c) is int for c in [*p.terms.values(), *lin.terms.values()]):
        assert all(type(c) is int for c in prod.terms.values())


# exponents up to the packed field's 255 on one or two variables, the total
# degree within cap; x1 and x4 sit in the lowest and the highest field
PAIRS = [(0,), (3,), (0, 1), (1, 3), (0, 3)]


@st.composite
def high(draw, cap=255):
    pair = draw(st.sampled_from(PAIRS))
    out = {}
    for _ in range(draw(st.integers(1, 3))):
        e = [0] * NVARS
        e[pair[0]] = a = draw(st.integers(0, cap))
        if len(pair) == 2:
            e[pair[1]] = draw(st.integers(0, cap - a))
        out[tuple(e)] = draw(st.one_of(st.integers(-9, 9).filter(bool), rationals.filter(bool)))
    return out


@st.composite
def high_pairs(draw):
    """Two term dicts whose degrees add up to at most 255."""
    cap = draw(st.integers(0, 255))
    return draw(high(cap)), draw(high(255 - cap))


@given(high_pairs(), linear, offsets)
@example(({(255, 0, 0, 0): 1}, {}), {0: 1}, {1: 1})
@example(({(0, 128, 0, 0): 2, (0, 0, 0, 127): Fraction(-1, 3)}, {(0, 0, 0, 0): 5}), {4: -1}, {2: -1, 4: 2})
@example(({(254, 0, 0, 0): 1, (1, 0, 0, 253): 3}, {}), {1: 1, 4: -2}, {})
@settings(max_examples=25, deadline=None)
def test_high_exponents(pair, lin_terms, off):
    p, q = make(pair[0]), make(pair[1])
    assert same(p * q, to_sympy(p) * to_sympy(q))
    assert same(p + q, to_sympy(p) + to_sympy(q))
    assert same(p - q, to_sympy(p) - to_sympy(q))
    moved = {XS[i - 1]: XS[i - 1] + rat(c) for i, c in off.items()}
    assert same(p.shifted(off), to_sympy(p).subs(moved, simultaneous=True))
    assert p.to_json() == Poly.from_json(p.to_json()).to_json()
    lin = make_linear(lin_terms)
    if p.degree() < 255:
        assert same(p * lin, to_sympy(p) * to_sympy(lin))
    if p:
        # a product of degree 255 is kept; one whose degree crosses 255 is
        # refused, by the linear and by the general kernel, never wrapped
        d = p.degree()
        top = p * Poly.x(4) ** (255 - d)
        assert top.degree() == 255
        crossing = [lambda: top * Poly.x(1)]
        if d:
            crossing.append(lambda: p * Poly.x(4) ** (256 - d))
        for product in crossing:
            with pytest.raises(ValueError, match="at most 255"):
                product()


def test_mul_cancels_cross_terms():
    x1, x2, x3 = Poly.x(1), Poly.x(2), Poly.x(3)
    # the cross terms cancel, and x1^2 is padded to three variables and trimmed back
    assert ((x1 + x3) * (x1 - x3)).terms == {(2,): 1, (0, 0, 2): -1}
    assert ((x1 - x2 * x3) * (x1 + x2 * x3)).terms == {(2,): 1, (0, 2, 2): -1}


@given(polys, polys)
@settings(max_examples=25, deadline=None)
def test_add(a, b):
    p, q = make(a), make(b)
    assert same(p + q, to_sympy(p) + to_sympy(q))
    assert same(p - q, to_sympy(p) - to_sympy(q))
    assert exact(p + q) and exact(p - q)


@given(polys, coeffs)
@settings(max_examples=25, deadline=None)
def test_normalised_coefficients(a, c):
    # const, from_json and scalar products store an integer coefficient as an int
    p = make(a)
    const, back = Poly.const(c), Poly.from_json(p.to_json())
    assert normal(const) and const == c
    assert normal(back) and back == p
    for prod in (p * c, c * p):
        assert normal(prod)
        assert same(prod, to_sympy(p) * rat(c))


@given(powers, offsets)
@example({(4, 3, 0, 1): Fraction(2, 3), (1, 0, 0, 1): Fraction(-1)}, {1: Fraction(-1, 2), 2: 3, 4: 1})
@settings(max_examples=25, deadline=None)
def test_shifted(a, off):
    p = make(a)
    moved = {XS[i - 1]: XS[i - 1] + rat(c) for i, c in off.items()}
    assert same(p.shifted(off), to_sympy(p).subs(moved, simultaneous=True))
    assert exact(p.shifted(off))


@given(polys, st.dictionaries(st.integers(1, NVARS), st.one_of(coeffs, multilinear), max_size=3))
@settings(max_examples=25, deadline=None)
def test_subs(a, mapping):
    p = make(a)
    ours = {i: v if isinstance(v, (int, Fraction)) else make(v) for i, v in mapping.items()}
    theirs = {
        XS[i - 1]: rat(v) if isinstance(v, (int, Fraction)) else to_sympy(v) for i, v in ours.items()
    }
    assert same(p.subs(ours), to_sympy(p).subs(theirs, simultaneous=True))


@given(powers, st.lists(coeffs, min_size=NVARS, max_size=NVARS), offsets)
@settings(max_examples=25, deadline=None)
def test_eval_at_moved_weight(a, coords, off):
    # the Verma action evaluates a Cartan part at lambda + (a weight offset)
    p = make(a)
    lam = Weight(2, 2, [c + off.get(k + 1, 0) for k, c in enumerate(coords)])
    expected = to_sympy(p).subs({XS[k]: rat(c) for k, c in enumerate(lam.coords)})
    value = eval_at(p, lam)
    assert isinstance(value, Fraction)
    assert rat(value) == expected


@given(polys, st.lists(multilinear, min_size=NVARS, max_size=NVARS))
@settings(max_examples=10, deadline=None)
def test_eval_at_symbolic_weight(a, coords):
    # Poly coordinates, as a weight generic on a hyperplane has
    p = make(a)
    lam = Weight(2, 2, [make(c) for c in coords])
    expected = to_sympy(p).subs({XS[k]: to_sympy(c) for k, c in enumerate(lam.coords)}, simultaneous=True)
    value = eval_at(p, lam)
    assert isinstance(value, Poly)
    assert same(value, expected)
    assert exact(value)


@given(polys, st.lists(coeffs, min_size=2, max_size=2))
@settings(max_examples=10, deadline=None)
def test_eval_at_keeps_variables_beyond_the_weight(a, coords):
    # x3 and x4 are not coordinates of a gl(1,1) weight and stay as they are
    p = make(a)
    lam = Weight(1, 1, coords)
    expected = sympy.expand(to_sympy(p).subs({XS[0]: rat(coords[0]), XS[1]: rat(coords[1])}))
    value = eval_at(p, lam)
    if isinstance(value, Fraction):
        assert rat(value) == expected
    else:
        assert same(value, expected)
