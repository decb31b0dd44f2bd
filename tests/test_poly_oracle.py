"""Differential tests of Poly arithmetic against sympy as an independent oracle.

The straightener moves Cartan parts with multi-variable shifts and evaluates
them at moved weights, so products, shifts, substitutions and evaluation are
each compared with sympy's expansion on random small polynomials.
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
monomials = st.tuples(*[st.integers(0, 2)] * NVARS)
polys = st.dictionaries(monomials, rationals, max_size=4)
# exponents up to 4 reach the binomials C(p, k) with p >= 3 of the Taylor shift
powers = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 1), st.integers(0, 1)),
    rationals,
    max_size=3,
)
multilinear = st.dictionaries(st.tuples(*[st.integers(0, 1)] * NVARS), rationals, max_size=3)
offsets = st.dictionaries(st.integers(1, NVARS), st.one_of(st.integers(-3, 3), rationals), max_size=NVARS)


def make(terms) -> Poly:
    out = Poly.zero()
    for exps, c in terms.items():
        mono = Poly.const(c)
        for i, e in enumerate(exps):
            mono = mono * Poly.x(i + 1) ** e
        out = out + mono
    return out


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


@given(powers, offsets)
@example({(4, 3, 0, 1): Fraction(2, 3), (1, 0, 0, 1): Fraction(-1)}, {1: Fraction(-1, 2), 2: 3, 4: 1})
@settings(max_examples=25, deadline=None)
def test_shifted(a, off):
    p = make(a)
    moved = {XS[i - 1]: XS[i - 1] + c for i, c in off.items()}
    assert same(p.shifted(off), to_sympy(p).subs(moved, simultaneous=True))


@given(polys, st.dictionaries(st.integers(1, NVARS), st.one_of(rationals, multilinear), max_size=3))
@settings(max_examples=25, deadline=None)
def test_subs(a, mapping):
    p = make(a)
    ours = {i: v if isinstance(v, Fraction) else make(v) for i, v in mapping.items()}
    theirs = {
        XS[i - 1]: rat(v) if isinstance(v, Fraction) else to_sympy(v) for i, v in ours.items()
    }
    assert same(p.subs(ours), to_sympy(p).subs(theirs, simultaneous=True))


@given(powers, st.lists(rationals, min_size=NVARS, max_size=NVARS), offsets)
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


@given(polys, st.lists(rationals, min_size=2, max_size=2))
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
