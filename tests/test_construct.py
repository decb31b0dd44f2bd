import random
from fractions import Fraction
from itertools import combinations

import pytest

from shapovalov import construct, pbw
from shapovalov.exact_algebra import (
    Hyperplane,
    Poly,
    Weight,
    bilinear_form,
    eval_at,
    generic_point,
    h_of_weight,
    rho,
    sample_hyperplane,
)
from shapovalov.hessenberg import build_A_rs, build_B_rs, build_D, det_lr
from shapovalov.pbw import (
    DISTINGUISHED,
    GLAlgebra,
    PBWOrder,
    UEAElement,
    _codes,
    _expand_key,
    gl,
    normal_order,
    sbracket_gens,
)
from shapovalov.shuffles import Shuffle, diagram_data, enumerate_shuffles
from shapovalov.verma import VermaVector, act, is_highest_weight, vacuum, weight_basis
from shapovalov.construct import (
    ODD_ORDERINGS,
    ShapovalovElement,
    parse_root,
    raising_vectors,
    root_to_str,
    theta_borel,
    theta_even_delta,
    theta_even_eps,
    theta_for_root,
    theta_gl,
    theta_glmn_distinguished,
    theta_odd,
    theta_odd_alg,
    theta_power,
    verify_highest_weight,
    verify_highest_weight_symbolic,
)
from test_pbw import reference_straightener


def h_alpha(m, n):
    return Poly.x(1) - Poly.x(2)


def h_gamma_22():
    return Poly.x(4) - Poly.x(3)


class TestThetaGl:
    def test_m2(self):
        t = theta_gl(2)
        assert t.terms == [(((2, 1),), ())]
        assert t.body == UEAElement.gen(gl(2, 0), 2, 1)

    def test_m3_frozen(self):
        t = theta_gl(3)
        assert (((3, 2), (2, 1)), ()) in t.terms
        assert (((3, 1),), (Poly.x(1) - Poly.x(2),)) in t.terms
        assert len(t.terms) == 2

    def test_leading_coefficient_is_one(self):
        for m in range(2, 7):
            t = theta_gl(m)
            chain = tuple((k + 1, k, 1) for k in range(m - 1, 0, -1))
            key = tuple(sorted(chain, key=lambda g: (g[1], g[0])))
            assert t.body.coefficient_of(key) == Poly.one()
            full_word, factors = t.terms[-1]
            assert factors == () and len(full_word) == m - 1

    def test_rejects_small(self):
        with pytest.raises(ValueError):
            theta_gl(1)

    @pytest.mark.parametrize("m,p", [(m, p) for m in range(2, 6) for p in (1, 2, 3)] + [(6, 2), (3, 4), (4, 4)])
    def test_power_matches_product_of_bodies(self, m, p):
        # theta_power takes one pass of the chain per factor, with shifted
        # factors; the UEA product of expanded bodies is the oracle
        assert theta_power(m, p) == theta_gl(m).body ** p


class TestElementFields:
    def test_repr_lists_the_fields_but_not_the_chain(self):
        for t in (theta_gl(3), theta_borel(Shuffle.parse(2, 2, "1 1' 2 2'"))):
            text = repr(t)
            assert text.startswith("ShapovalovElement(alg=")
            for name in ("alg", "eta", "mult", "ordering", "borel"):
                assert f"{name}={getattr(t, name)!r}" in text
            assert "chain" not in text and "_body" not in text

    def test_equality_ignores_the_cached_body(self):
        a, b = theta_gl(3), theta_gl(3)
        assert a is not b and a == b
        assert not a.body.is_zero() and a._body is not None and b._body is None
        assert verify_highest_weight(a, 2)["all_passed"] and a._adapted is not None and b._adapted is None
        assert a == b and b == a
        assert not b.body.is_zero() and a == b
        assert a != theta_gl(4)
        assert a != ShapovalovElement(a.alg, a.eta, 2, a.ordering, a.chain, a.borel)
        assert a != ShapovalovElement(a.alg, a.eta, a.mult, "bform", a.chain, a.borel)
        assert a != ShapovalovElement(a.alg, a.eta, a.mult, a.ordering, ((),), a.borel)
        with pytest.raises(TypeError):
            hash(a)


class TestDistinguishedOdd:
    def test_gl11(self):
        t = theta_glmn_distinguished(1, 1)
        assert t.body == UEAElement.gen(gl(1, 1), 2, 1)

    def test_a_plus_b_lines(self):
        alg = gl(2, 2)
        mid = theta_odd_alg(alg, 1, 1, "middle")
        assert mid.terms == [
            (((3, 1),), (Poly.x(1) - Poly.x(2),)),
            (((3, 2), (2, 1)), ()),
        ]
        last = theta_odd_alg(alg, 1, 1, "odd-last")
        assert last.terms == [
            (((3, 1),), (Poly.one() + Poly.x(1) - Poly.x(2),)),
            (((2, 1), (3, 2)), ()),
        ]
        assert mid.body == last.body

    def test_a_plus_b_coefficient_extraction(self):
        # the displayed expansion carries h_alpha on e_{-alpha-beta}; the
        # canonical normal form is the other displayed line, so the canonical
        # coefficient is h_alpha + 1
        alg = gl(2, 2)
        t = theta_odd_alg(alg, 1, 1, "middle")
        term_factors = dict(t.terms)[((3, 1),)]
        assert term_factors == (Poly.x(1) - Poly.x(2),)
        assert t.body.coefficient_of(((3, 1, 1),)) == Poly.x(1) - Poly.x(2) + Poly.one()

    def test_c_plus_b_lines(self):
        alg = gl(2, 2)
        mid = theta_odd_alg(alg, 2, 2, "middle")
        assert mid.terms == [
            (((4, 2),), (h_gamma_22() - Poly.one(),)),
            (((4, 3), (3, 2)), ()),
        ]
        first = theta_odd_alg(alg, 2, 2, "odd-first")
        assert first.terms == [
            (((4, 2),), (h_gamma_22(),)),
            (((3, 2), (4, 3)), ()),
        ]
        assert mid.body == first.body

    def test_full_root_four_orderings_frozen(self):
        alg = gl(2, 2)
        ha, hg = h_alpha(2, 2), h_gamma_22()
        one = Poly.one()
        expected = {
            "middle": [
                (((4, 1),), (ha, hg - one)),
                (((4, 2), (2, 1)), (hg - one,)),
                (((4, 3), (3, 1)), (ha,)),
                (((4, 3), (3, 2), (2, 1)), ()),
            ],
            "odd-last": [
                (((4, 1),), (ha + one, hg - one)),
                (((2, 1), (4, 2)), (hg - one,)),
                (((4, 3), (3, 1)), (ha + one,)),
                (((4, 3), (2, 1), (3, 2)), ()),
            ],
            "odd-first": [
                (((4, 1),), (ha, hg)),
                (((4, 2), (2, 1)), (hg,)),
                (((3, 1), (4, 3)), (ha,)),
                (((3, 2), (2, 1), (4, 3)), ()),
            ],
            "bform": [
                (((4, 1),), (ha + one, hg)),
                (((2, 1), (4, 2)), (hg,)),
                (((3, 1), (4, 3)), (ha + one,)),
                (((2, 1), (3, 2), (4, 3)), ()),
            ],
        }
        bodies = []
        for ordering, terms in expected.items():
            t = theta_odd_alg(alg, 1, 2, ordering)
            assert sorted(t.terms) == sorted(terms), ordering
            bodies.append(t.body)
        assert all(b == bodies[0] for b in bodies)

    def test_leading_coefficient(self):
        # the all-simple-roots chain carries coefficient exactly 1: its term
        # has no Cartan factors, and no shorter term can reach its monomial
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            alg = gl(m, n)
            for r in range(1, m + 1):
                for s in range(1, n + 1):
                    for ordering in ODD_ORDERINGS:
                        t = theta_odd_alg(alg, r, s, ordering)
                        full_word, factors = t.terms[-1]
                        assert factors == () and len(full_word) == m + s - r
                        key = tuple(
                            sorted(((i, j, 1) for i, j in full_word), key=lambda g: (g[1], g[0]))
                        )
                        assert t.body.coefficient_of(key) == Poly.one()

    def test_signature_wrapper(self):
        t = theta_odd(1, 2, 2, 2, "odd-last")
        assert t.eta == Weight.eps(2, 2, 1) - Weight.delta(2, 2, 2)

    def test_distinguished_is_the_standard_middle_chain(self):
        for m, n in [(1, 1), (2, 1), (2, 3), (3, 2)]:
            t = theta_glmn_distinguished(m, n)
            assert t.ordering == "standard"
            assert t.chain == theta_odd_alg(gl(m, n), 1, n, "middle").chain


class TestDefiningProperty:
    def test_sweep_small(self):
        for alg in (gl(4, 0), gl(2, 2), gl(1, 3)):
            for root, _ in alg.positive_roots():
                theta = theta_for_root(alg, root)
                rep = verify_highest_weight(theta, samples=5, seed=0)
                assert rep["all_passed"], (alg, root_to_str(alg, root))

    def test_distinguished_raising_builds_no_weights(self, monkeypatch):
        def refuse(alg, i, j):
            raise AssertionError("the distinguished raising generators need no weights")

        theta = theta_glmn_distinguished(2, 2)
        monkeypatch.setattr(GLAlgebra, "gen_weight", refuse)
        assert raising_vectors(theta) == [(1, 2), (2, 3), (3, 4)]
        assert verify_highest_weight(theta, samples=2, seed=0)["all_passed"]
        lam = sample_hyperplane(theta.hyperplane(), 1, 1)[0]
        assert is_highest_weight(theta.verma_vector(lam))

    def test_symbolic_spot_checks(self):
        assert verify_highest_weight_symbolic(theta_gl(3))
        assert verify_highest_weight_symbolic(theta_glmn_distinguished(2, 2))
        assert verify_highest_weight_symbolic(theta_even_delta(gl(1, 3), 1, 3))

    def test_symbolic_negative_controls(self):
        # the element of multiplicity 1 is not singular on the multiplicity-2 hyperplane
        for t in (theta_gl(3), theta_even_delta(gl(1, 3), 1, 3)):
            assert verify_highest_weight_symbolic(
                ShapovalovElement(t.alg, t.eta, 1, t.ordering, t.chain, t.borel))
            assert not verify_highest_weight_symbolic(
                ShapovalovElement(t.alg, t.eta, 2, t.ordering, t.chain, t.borel))
        # a zero theta v is killed by everything but is not a singular vector
        t = theta_gl(3)
        assert not t.body.is_zero()
        zero = ShapovalovElement(t.alg, t.eta, t.mult, t.ordering, ((),), t.borel)
        assert zero.body.is_zero()  # the body cached from the old chain is not kept
        assert not verify_highest_weight_symbolic(zero)
        assert not verify_highest_weight(zero, samples=2)["all_passed"]

    def test_symbolic_keys_wider_than_a_machine_word(self):
        # gl(5,5)'s parameters are x_11 ... x_20, whose packed keys reach
        # bit 159; the constraint is solved for x_20, so the point lives in
        # x_11 ... x_19 (x_19's field starts at bit 144).  The check runs on
        # multi-word ints, and a point one unit off the hyperplane is its
        # negative control
        theta = theta_glmn_distinguished(5, 5)
        lam = generic_point(5, 5, [theta.hyperplane().constraint_poly()])
        assert max(v for c in lam.coords for v in c.variables()) == 19
        assert verify_highest_weight_symbolic(theta)
        off = generic_point(5, 5, [theta.hyperplane().constraint_poly() + 1])
        assert not construct._is_singular(theta, off)

    def test_nonzero_normalization(self):
        theta = theta_glmn_distinguished(2, 2)
        for lam in sample_hyperplane(theta.hyperplane(), 1, 3):
            assert not theta.verma_vector(lam).is_zero()

    def test_report_shape(self):
        rep = verify_highest_weight(theta_gl(3), samples=2, seed=1)
        assert set(rep) >= {"constructor", "root", "borel", "samples", "all_passed"}
        assert rep["root"] == "e1-e3"
        assert rep["borel"] == "distinguished"


class TestBorel:
    def test_all_small_shuffles(self):
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            for sh in enumerate_shuffles(m, n):
                t = theta_borel(sh)
                assert verify_highest_weight(t, samples=5, seed=0)["all_passed"], str(sh)

    def test_symbolic_gl22(self):
        for sh in enumerate_shuffles(2, 2):
            assert verify_highest_weight_symbolic(theta_borel(sh))

    def test_pi0_coefficient_is_one(self):
        for sh in enumerate_shuffles(3, 2):
            t = theta_borel(sh)
            full_word, factors = t.terms[-1]
            assert factors == () and len(full_word) == 4

    def test_matches_distinguished_on_hyperplane(self):
        tb = theta_borel(Shuffle.distinguished(2, 2))
        td = theta_glmn_distinguished(2, 2)
        for lam in sample_hyperplane(td.hyperplane(), 5, 5):
            assert tb.verma_vector(lam) == td.verma_vector(lam)
        assert tb.body != td.body  # off the hyperplane the coefficients differ

    def test_raising_vectors_follow_borel(self):
        sh = Shuffle.parse(2, 2, "1 1' 2 2'")
        assert raising_vectors(theta_borel(sh)) == [(1, 3), (3, 2), (2, 4)]

    @pytest.mark.parametrize("m, n, word", [(2, 2, "1 1' 2 2'"), (3, 2, "1 1' 2 3 2'")])
    def test_highest_weight_default_follows_borel(self, m, n, word):
        """With no raising argument, is_highest_weight tests the simple
        raising generators of the vector's own order, not e_{k,k+1}."""
        theta = theta_borel(Shuffle.parse(m, n, word))
        hp = theta.hyperplane()
        lam = sample_hyperplane(hp, 0, 1)[0]
        assert is_highest_weight(theta.verma_vector(lam))
        assert is_highest_weight(theta.verma_vector(generic_point(m, n, [hp.constraint_poly()])))
        off = Weight(m, n, [lam.coords[0] + 1] + list(lam.coords[1:]))
        assert not is_highest_weight(theta.verma_vector(off))

    @pytest.mark.parametrize("build, args, message", [
        (theta_even_eps, (gl(3), 2, 2), "need 1 <= a < b <= m for an eps root, got (2,2)"),
        (theta_even_delta, (gl(2, 2), 1, 3), "need 1 <= a < b <= n for a delta root, got (1,3)"),
        (theta_odd_alg, (gl(2, 2), 3, 1), "odd root indices r=3, s=1 out of range for gl(2,2)"),
        (theta_glmn_distinguished, (0, 1), "need m, n >= 1"),
        (theta_for_root, (gl(3), Weight(3, 0, [1, 1, -2])), "(1, 1, -2) is not a root of gl(3,0)"),
    ])
    def test_constructors_refuse_bad_indices(self, build, args, message):
        with pytest.raises(ValueError) as err:
            build(*args)
        assert str(err.value) == message

    def test_refuses_purely_even_shuffle(self):
        with pytest.raises(ValueError, match="^shuffle Borels need n >= 1$"):
            theta_borel(Shuffle(3, 0, (1, 2, 3)))


class TestOrderingIndependence:
    def test_same_vector_on_hyperplane(self):
        alg = gl(3, 2)
        for r, s in [(1, 1), (1, 2), (2, 1), (2, 2), (3, 2)]:
            thetas = [theta_odd_alg(alg, r, s, o) for o in ODD_ORDERINGS]
            hp = thetas[0].hyperplane()
            for lam in sample_hyperplane(hp, 7, 3):
                vecs = [t.verma_vector(lam) for t in thetas]
                assert all(v == vecs[0] for v in vecs), (r, s)

    @pytest.mark.parametrize("ordering", ["middle", "odd-last", "odd-first", "nonsense"])
    def test_even_roots_refuse_odd_orderings(self, ordering):
        with pytest.raises(ValueError, match="even roots support the standard and bform orderings"):
            theta_even_eps(gl(4, 0), 1, 4, ordering)
        with pytest.raises(ValueError, match="even roots support the standard and bform orderings"):
            theta_even_delta(gl(1, 3), 1, 3, ordering)

    def test_even_orderings_equal_exactly(self):
        alg = gl(4, 0)
        assert theta_even_eps(alg, 1, 4).body == theta_even_eps(alg, 1, 4, "bform").body
        algd = gl(1, 4)
        assert (
            theta_even_delta(algd, 1, 4).body
            == theta_even_delta(algd, 1, 4, "bform").body
        )


class TestRecurrences:
    def test_gl_coefficient_recurrence(self):
        # h_k - h_{k-1} = h_{alpha_k} + 1 for k > 1, h_1 = h_{alpha_1}
        m = 6
        alg = gl(m, 0)
        r = alg.rho

        def h_k(k):
            sigma = Weight.eps(m, 0, 1) - Weight.eps(m, 0, k + 1)
            return h_of_weight(sigma) + Poly.const(bilinear_form(r, sigma) - 1)

        assert h_k(1) == h_of_weight(Weight.eps(m, 0, 1) - Weight.eps(m, 0, 2))
        for k in range(2, m):
            alpha = Weight.eps(m, 0, k) - Weight.eps(m, 0, k + 1)
            assert h_k(k) - h_k(k - 1) == h_of_weight(alpha) + Poly.one()

    def test_delta_branch_recurrence(self):
        # h_{m+j-1} - h_{m+j} = h_{gamma_j} - 1, with h_{m+n-1} = 0
        m, n = 2, 4
        alg = gl(m, n)
        r = alg.rho

        def h_i(i):
            if i == m + n - 1:
                return Poly.zero()
            if i < m:
                sigma = Weight.eps(m, n, 1) - Weight.eps(m, n, i + 1)
                return h_of_weight(sigma) + Poly.const(bilinear_form(r, sigma) - 1)
            tau = Weight.delta(m, n, i + 1 - m) - Weight.delta(m, n, n)
            return h_of_weight(tau) + Poly.const(bilinear_form(r, tau))

        for j in range(1, n):
            gamma = Weight.delta(m, n, j) - Weight.delta(m, n, j + 1)
            assert h_i(m + j - 1) - h_i(m + j) == h_of_weight(gamma) - Poly.one()


class TestDeterminantConsistency:
    def test_theta_gl_is_det_D(self):
        for m in range(2, 6):
            assert det_lr(build_D(m)) == theta_gl(m).body
        # the chain factor x1 - x2 is 0 at lam, so the chain sum drops the partial sum it scales
        lam = Weight(3, 0, [1, 1, 0])
        want = normal_order(gl(3), [(2, 1), (3, 2)]) + normal_order(gl(3), [(3, 1)])
        assert theta_gl(3).evaluate(lam) == det_lr(build_D(3).evaluate(lam)) == want

    def test_theta_glmn_is_det_A(self):
        for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]:
            t = theta_glmn_distinguished(m, n)
            for lam in sample_hyperplane(t.hyperplane(), 2, 2):
                assert det_lr(build_A_rs(1, n, m, n).evaluate(lam)) == t.evaluate(lam)
        # an odd root whose chain factor x3 - x2 - 1 is 0 at lam
        lam = Weight(1, 2, [3, 0, 1])
        assert theta_glmn_distinguished(1, 2).evaluate(lam) == det_lr(build_A_rs(1, 2, 1, 2).evaluate(lam))

    def test_theta_odd_is_det_A_rs(self):
        alg = gl(3, 2)
        for r, s in [(1, 1), (2, 2), (3, 1)]:
            t = theta_odd_alg(alg, r, s, "middle")
            for lam in sample_hyperplane(t.hyperplane(), 3, 2):
                assert det_lr(build_A_rs(r, s, 3, 2).evaluate(lam)) == t.evaluate(lam)

    def test_bform_is_det_B_rs(self):
        alg = gl(2, 2)
        t = theta_odd_alg(alg, 1, 2, "bform")
        assert det_lr(build_B_rs(1, 2, 2, 2)) == t.body


def _integer_coefficient_cases():
    """Constructed elements whose Cartan coefficients are all integers: their
    linear factors are h_alpha + (rho, alpha) + k over +-1 structure constants."""
    for m, n in [(3, 0), (5, 0), (2, 2), (3, 3), (4, 2), (1, 4)]:
        alg = gl(m, n)
        for root, (i, j) in alg.positive_roots():
            for o in ODD_ORDERINGS if i <= m < j else ("standard", "bform"):
                yield theta_for_root(alg, root, o)
    for m, n in [(2, 2), (3, 3)]:
        for sh in enumerate_shuffles(m, n):
            yield theta_borel(sh)
    yield theta_power(4, 3)
    yield det_lr(build_D(5))


class TestIntegerCoefficients:
    def test_constructed_coefficients_are_ints(self):
        # a Fraction here means the int fast path of Poly has been lost
        count = 0
        for x in _integer_coefficient_cases():
            if isinstance(x, UEAElement):
                polys = list(x.terms.values())
            else:
                polys = [f for _, factors in x.terms for f in factors] + list(x.body.terms.values())
            coeffs = [c for p in polys for c in p.terms.values()]
            assert all(type(c) is int for c in coeffs), x
            count += len(coeffs)
        assert count > 5000

    def test_straightening_constants_are_ints(self):
        # scalar products normalise their results, so a Fraction creeping into
        # the straightener's own constants would not show in the sweep above
        alg = gl(2, 2)
        gens = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
        for a in gens:
            for b in gens:
                for item, c in sbracket_gens(alg, a, b):
                    assert type(c) is int
                    if isinstance(item, Poly):
                        assert all(type(v) is int for v in item.terms.values())
        assert all(type(v) is int for p in (Poly.one(), Poly.x(3)) for v in p.terms.values())

    def test_verma_coefficients_are_exact(self):
        # rationals enter at a sampled weight, as Fractions and never floats
        for x in _integer_coefficient_cases():
            if isinstance(x, UEAElement):
                continue
            for lam in sample_hyperplane(x.hyperplane(), 0, 1):
                v = x.verma_vector(lam)
                assert v.terms
                assert all(type(c) in (int, Fraction) for c in v.terms.values())


# ---------------------------------------------------------------------------
# the subset sums of the paper, one term per subset: the reference for the
# chain, its paths and its recurrence

def _interval_subsets(lo, hi):
    """Subsets of [lo, hi] containing both endpoints, smallest first."""
    interior = list(range(lo + 1, hi))
    for size in range(len(interior) + 1):
        for combo in combinations(interior, size):
            yield (lo,) + combo + (hi,)


def _desc_chain(entries):
    return tuple((entries[k], entries[k + 1]) for k in range(len(entries) - 1))


def _asc_chain(entries):
    return tuple((entries[k + 1], entries[k]) for k in range(len(entries) - 1))


def _subset_word(I, m, ordering):
    if ordering in ("standard", "middle"):
        return _desc_chain(I[::-1])
    if ordering == "bform":
        return _asc_chain(I)
    P = tuple(p for p in reversed(I) if p > m)
    Q = tuple(p for p in I if p <= m)
    word = _desc_chain(P) + _asc_chain(Q) + ((P[-1], Q[-1]),)
    # odd-first is the exact reversal of odd-last: the unique arrangement
    # whose coefficients stay products of the skipped indices' factors
    return word if ordering == "odd-last" else word[::-1]


def reference_terms(t):
    """The expansion of t built subset by subset: its words and its Cartan
    factors in the order of the skipped indices."""
    alg, m = t.alg, t.alg.m
    if t.borel is not None:
        word, data = t.borel.word, diagram_data(t.borel)
        return [
            (_desc_chain(tuple(word[k] for k in reversed(pos))),
             tuple(data.t[e] for k, e in enumerate(word) if k not in pos))
            for pos in _interval_subsets(0, len(word) - 1)
        ]
    i, j = alg.root_from_weight(t.eta)
    return [
        (_subset_word(I, m, t.ordering),
         tuple(_skip_coeff(alg, i, j, p, t.ordering) for p in range(i + 1, j) if p not in I))
        for I in _interval_subsets(i, j)
    ]


# the paper's constants added to a skipped index's coefficient, on the eps
# side and on the delta side (Theorems bb and bsb1 and their orderings)
_SHIFTS = {"standard": (-1, 0), "middle": (-1, 0), "odd-last": (0, 0), "odd-first": (-1, 1), "bform": (0, 1)}


def _skip_coeff(alg, i, j, p, ordering):
    """h_root + (rho, root) + shift for skipping p in the interval i..j:
    the root is eps_i - eps_p for an eps index, delta_{p-m} - delta_{j-m}
    for a delta index."""
    m, n = alg.m, alg.n
    if p <= m:
        root, shift = Weight.eps(m, n, i) - Weight.eps(m, n, p), _SHIFTS[ordering][0]
    else:
        root, shift = Weight.delta(m, n, p - m) - Weight.delta(m, n, j - m), _SHIFTS[ordering][1]
    return h_of_weight(root) + Poly.const(bilinear_form(rho(m, n), root) + shift)


def _term_body(t):
    total = UEAElement.zero(t.alg)
    for word, factors in reference_terms(t):
        total = total + normal_order(t.alg, list(word) + list(factors))
    return total


def _term_values(t, lam):
    for word, factors in reference_terms(t):
        c = Fraction(1)
        for f in factors:
            c = c * eval_at(f, lam)
        yield list(word), c


def _term_evaluate(t, lam):
    total = UEAElement.zero(t.alg)
    for word, c in _term_values(t, lam):
        total = total + normal_order(t.alg, word) * c
    return total


def _term_vector(t, lam):
    order = t.pbw_order()
    vac = vacuum(t.alg, lam, order)
    total = VermaVector(t.alg, lam, order=order)
    for word, c in _term_values(t, lam):
        total = total + c * act(word, vac)
    return total


def _chain_cases(shuffle_rank=5):
    """Every root and ordering with m+n <= 6, every endpoint-fixed shuffle
    Borel with m+n <= shuffle_rank."""
    for m in range(1, 7):
        for n in range(7 - m):
            alg = gl(m, n)
            for root, (i, j) in alg.positive_roots():
                for o in ODD_ORDERINGS if i <= m < j else ("standard", "bform"):
                    yield theta_for_root(alg, root, o)
    for m in range(1, shuffle_rank):
        for n in range(1, shuffle_rank + 1 - m):
            for sh in enumerate_shuffles(m, n):
                yield theta_borel(sh)


class TestChainRecurrence:
    def test_paths_are_the_subset_terms(self):
        # term order and factor order too: JSON, LaTeX and text print them
        count = 0
        for t in _chain_cases(shuffle_rank=6):
            assert t.terms == reference_terms(t), (t.alg, root_to_str(t.alg, t.eta), t.ordering, str(t.borel))
            count += 1
        assert count == 521

    def test_matches_term_sums(self):
        count = 0
        for t in _chain_cases():
            alg = t.alg
            label = (alg, root_to_str(alg, t.eta), t.ordering, str(t.borel))
            assert t.body == _term_body(t), label
            points = sample_hyperplane(t.hyperplane(), 0, 1)
            points.append(generic_point(alg.m, alg.n, [t.hyperplane().constraint_poly()]))
            for lam in points:
                assert t.evaluate(lam) == _term_evaluate(t, lam), label
                assert t.verma_vector(lam) == _term_vector(t, lam), label
            count += 1
        assert count > 500

    def test_off_hyperplane(self):
        # away from the hyperplane the orderings differ, so each must match
        # its own terms there too
        lam = Weight(3, 2, [Fraction(1, 2), 3, -2, 5, Fraction(-7, 3)])
        alg = gl(3, 2)
        for o in ODD_ORDERINGS:
            t = theta_odd_alg(alg, 1, 2, o)
            assert t.verma_vector(lam) == _term_vector(t, lam), o
            assert t.evaluate(lam) == _term_evaluate(t, lam), o

    def test_cartan_factor_moves_past_positive_parts(self):
        # a shuffle chain runs in its own order, where its words are
        # lowering; in the distinguished form they have positive parts, which
        # the factors must move past, so scaling the coefficients would be
        # wrong: e12 x1 = (x1 - 1) e12
        alg = gl(1, 1)
        chain = (((0, (1, 2), ((0, Poly.x(1)),)),),)
        t = construct.ShapovalovElement(alg, alg.gen_weight(2, 1), 1, "borel", chain,
                                        borel=Shuffle.parse(1, 1, "1' 1"))
        x = normal_order(alg, [(1, 2)])
        assert t.body == normal_order(alg, [(1, 2), Poly.x(1)])
        assert t.body != x.scale_central(Poly.x(1))

    def test_chain_sums_call_no_kernel(self, monkeypatch):
        # every generator of a distinguished chain is lowering, so body and
        # theta_power run on the Leibniz recursion's lowering step alone and
        # leave the straightening kernel's cache empty
        monkeypatch.setattr(pbw, "_NF_CACHE", {})
        assert theta_gl(6).body.terms
        assert theta_power(4, 2).terms
        assert not pbw._NF_CACHE

    def test_degree_cap_holds_through_the_chain_sums(self):
        # the chain sums keep Cartan parts as term dicts; a linear factor on
        # x1^255 is refused with the one-line limit error, never wrapped into
        # x2, and a result of degree exactly 255 is kept
        t = theta_gl(3)
        alg = t.alg
        x1 = Poly.x(1)
        with pytest.raises(ValueError, match="at most 255") as exc:
            t._element(lambda f: f, UEAElement(alg, {((), ()): x1 ** 255}))
        assert "\n" not in str(exc.value)
        top = t._element(lambda f: f, UEAElement(alg, {((), ()): x1 ** 254}))
        assert top == UEAElement(alg, {k: h * x1 ** 254 for k, h in t.body.terms.items()})
        assert max(h.degree() for h in top.terms.values()) == 255
        assert any(255 in e for h in top.terms.values() for e in h.terms)

    def test_chain_start_must_be_canonical(self):
        # the start of a chain sum is encoded as the Verma vectors are, so a
        # positive part or an odd square is refused
        t = theta_glmn_distinguished(2, 1)
        alg = t.alg
        for start in (normal_order(alg, [(1, 2)]), UEAElement(alg, {(((3, 1, 2),), ()): Poly.one()})):
            with pytest.raises(ValueError, match="not a canonical negative monomial"):
                t._element(lambda f: f, start)

    def test_vector_takes_at_most_n_squared_actions(self, monkeypatch):
        calls = []
        real = construct.act

        def counting(x, v):
            calls.append(x)
            return real(x, v)

        monkeypatch.setattr(construct, "act", counting)
        t = theta_gl(10)
        lam = sample_hyperplane(t.hyperplane(), 0, 1)[0]
        v = t.verma_vector(lam)
        assert 0 < len(calls) <= 10 ** 2
        assert all(len(x) == 1 for x in calls)
        assert len(v.terms) == 2 ** 8


# ---------------------------------------------------------------------------
# theta on any vector through its chain, against the expanded body

_OFF_POINT = [Fraction(7, 2), -3, Fraction(5, 3), 11, Fraction(-1, 4)]


def _apply_cases():
    """(element, order of the start vectors): every root and ordering with
    m+n <= 5 in its own order, and for every shuffle of gl(2,2) and gl(3,2)
    its Borel element, or the distinguished one when the shuffle does not
    fix its endpoints, in the shuffle's order."""
    for m in range(1, 6):
        for n in range(6 - m):
            alg = gl(m, n)
            for root, (i, j) in alg.positive_roots():
                for o in ODD_ORDERINGS if i <= m < j else ("standard", "bform"):
                    t = theta_for_root(alg, root, o)
                    yield t, t.pbw_order()
    for m, n in ((2, 2), (3, 2)):
        for sh in enumerate_shuffles(m, n, fixed_endpoints=False):
            t = theta_borel(sh) if sh.endpoint_fixed() else theta_glmn_distinguished(m, n)
            yield t, PBWOrder(sh.word)


def _start_vectors(alg, lam, order, theta):
    """The vacuum, theta v_lambda, two lowering letters on v_lambda, their
    inhomogeneous sum and the zero vector, all in the given order."""
    vac = vacuum(alg, lam, order)
    codes = _codes(alg, order)
    neg = codes.gens[:codes.G // 2]
    lowered = act([neg[-1], neg[0]], vac)
    image = act(theta.body, vac)
    return [vac, image, lowered, vac + image + lowered, VermaVector(alg, lam, order=order)]


class TestApply:
    def test_matches_body_action(self):
        count = 0
        for t, order in _apply_cases():
            alg = t.alg
            label = (alg, root_to_str(alg, t.eta), t.ordering, str(t.borel), order)
            off = Weight(alg.m, alg.n, _OFF_POINT[:alg.N])
            assert not t.hyperplane().member(off), label
            for lam in (off, generic_point(alg.m, alg.n, [])):
                for v in _start_vectors(alg, lam, order, t):
                    assert t.apply(v) == act(t.body, v), (label, v)
                    count += 1
        assert count == 2560


class TestAdaptedNumbering:
    """_is_singular builds theta v_lambda in the numbering _adapted_order
    picks, which may differ from the element's own order only in the order
    of its negative factors."""

    def test_matches_the_element_order(self):
        """Every root and ordering with m+n <= 6 and every endpoint-fixed
        shuffle Borel with m+n <= 6, at a sampled point and one unit off:
        each monomial of the adapted theta v_lambda, re-straightened into
        the element's own order by the reference straightener (which shares
        no code with pbw), sums to verma_vector(lam), and the verdicts
        agree."""
        straighteners = {}
        seen = set()
        for t in _chain_cases(shuffle_rank=6):
            alg = t.alg
            order = construct._adapted_order(t)
            assert order.word == t.pbw_order().word
            code = _codes(alg, order).code
            steps = {(a, b) for word, _ in t.terms for a, b in zip(word, word[1:])}
            # the reverse order when it puts more of the path words' step
            # pairs in order than the element's own, which wins a tie
            own = _codes(alg, t.pbw_order()).code
            assert order.reverse is (sum(1 if own[a] < own[b] else -1 for a, b in steps) < 0)
            if steps:
                seen.add((t.ordering, order.reverse))
            if t.ordering not in ("odd-first", "odd-last"):  # every path word is canonical
                assert all(code[a] < code[b] for a, b in steps), (alg, t.eta, t.ordering, t.borel)
            key = (alg.m, order.word or tuple(range(1, alg.N + 1)))
            if key not in straighteners:
                straighteners[key] = reference_straightener(*key)
            straighten = straighteners[key]
            lam = sample_hyperplane(t.hyperplane(), 0, 1)[0]
            off = lam + alg.basis_weight(alg.root_from_weight(t.eta)[0])
            assert not t.hyperplane().member(off)
            for point, singular in ((lam, True), (off, False)):
                adapted = t.apply(vacuum(alg, point, order))
                assert adapted.order == order
                total = {}
                for mono, c in adapted.terms.items():
                    for (neg, pos), h in straighten(tuple(_expand_key(mono))).items():
                        assert not pos and h.is_constant()
                        total[neg] = total.get(neg, 0) + c * h.constant_value()
                v = t.verma_vector(point)
                label = (alg, root_to_str(alg, t.eta), t.ordering, str(t.borel), point)
                assert {k: c for k, c in total.items() if c} == v.terms, label
                assert construct._is_singular(t, point) is singular is (not v.is_zero() and is_highest_weight(v)), label
        # with two letters or more on a path, bform keeps the element's
        # order, standard, middle and the Borels take the reverse one, and
        # odd-first and odd-last take both
        assert seen == {("standard", True), ("middle", True), ("borel", True), ("bform", False),
                        ("odd-first", False), ("odd-first", True), ("odd-last", False), ("odd-last", True)}

    def test_at_most_two_numberings_per_word(self, monkeypatch):
        """Checking the standard, bform and odd-first elements of gl(4,2)
        makes one numbering per order it uses, and two orders of gl(4,2)'s
        one word: the distinguished order and its reverse."""
        made = []

        class Recording(pbw._Codes):
            __slots__ = ()

            def __init__(self, alg, order):
                made.append((alg, order))
                super().__init__(alg, order)

        alg = gl(4, 2)
        monkeypatch.setattr(pbw, "_Codes", Recording)
        pbw._codes.cache_clear()
        try:
            for root, (i, j) in alg.positive_roots():
                for o in ("standard", "bform", "odd-first") if i <= alg.m < j else ("standard", "bform"):
                    assert verify_highest_weight(theta_for_root(alg, root, o), 2, 0)["all_passed"]
        finally:
            pbw._codes.cache_clear()
        assert len(made) == len(set(made)) == 2
        assert set(made) == {(alg, DISTINGUISHED), (alg, PBWOrder(reverse=True))}


class TestOddSquare:
    def test_square_kills_vacuum_off_every_hyperplane(self):
        """theta^2 = 0 for every odd root and odd ordering, so theta^2
        v_lambda vanishes at a generic point with no constraint, not only
        on the hyperplane that square_isotropic_check asks for; where
        m+n <= 5 the square of the body is zero in U(g) itself."""
        count = 0
        for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]:
            alg = gl(m, n)
            lam = generic_point(m, n, [])
            for i in range(1, m + 1):
                for j in range(m + 1, m + n + 1):
                    for o in ODD_ORDERINGS:
                        t = theta_for_root(alg, alg.gen_weight(i, j), o)
                        label = (alg, i, j, o)
                        assert t.apply(t.verma_vector(lam)).is_zero(), label
                        if m + n <= 5:
                            assert (t.body * t.body).is_zero(), label
                        count += 1
        assert count == 120


# ---------------------------------------------------------------------------
# singular vectors found by linear algebra alone, without the constructors

def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][c]:
                f = Fraction(rows[i][c]) / rows[rank][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _raising_matrix(alg, lam, drop, raising):
    """Basis of M(lam)_{lam - drop} and the matrix of the raising operators
    on it: one column per basis monomial, one row per (operator, monomial)."""
    basis = weight_basis(alg, drop)
    vac = vacuum(alg, lam)
    images = [
        [act([g], act([x for i, j, e in mono for x in [(i, j)] * e], vac)) for g in raising]
        for mono in basis
    ]
    rows = sorted({(k, key) for col in images for k, w in enumerate(col) for key in w.terms})
    index = {row: r for r, row in enumerate(rows)}
    matrix = [[Fraction(0)] * len(basis) for _ in rows]
    for c, col in enumerate(images):
        for k, w in enumerate(col):
            for key, val in w.terms.items():
                matrix[index[(k, key)]][c] = val
    return basis, matrix


class TestSingularSpace:
    @pytest.mark.parametrize("m, n", [(4, 0), (5, 0), (2, 2), (3, 2), (3, 3)])
    def test_kernel_of_raising_operators(self, m, n):
        sympy = pytest.importorskip("sympy")
        alg = gl(m, n)
        theta = theta_for_root(alg, alg.gen_weight(1, m + n))
        raising = raising_vectors(theta)
        lam = sample_hyperplane(theta.hyperplane(), 3, 1)[0]
        off = lam + Weight.eps(m, n, 1)
        assert not theta.hyperplane().member(off)
        for point, dim in ((lam, 1), (off, 0)):
            basis, matrix = _raising_matrix(alg, point, theta.eta, raising)
            rank = _rank(matrix)
            assert rank == sympy.Matrix(
                [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix]
            ).rank()
            assert len(basis) - rank == dim, point
        # the kernel on the hyperplane is spanned by theta v
        basis, matrix = _raising_matrix(alg, lam, theta.eta, raising)
        v = theta.verma_vector(lam)
        x = [v.terms.get(mono, 0) for mono in basis]
        assert set(v.terms) <= set(basis) and any(x)
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in matrix)


class TestRootParsing:
    def test_roundtrip(self):
        alg = gl(3, 2)
        for text in ["e1-e3", "e2-d1", "d1-d2"]:
            assert root_to_str(alg, parse_root(alg, text)) == text

    def test_bad_input(self):
        with pytest.raises(ValueError):
            parse_root(gl(2, 2), "x1-y2")
