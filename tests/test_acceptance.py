"""Acceptance criteria: one test per criterion, exact assertions, stated
time budgets.  Each test prints a single PASS line with its timing."""

import random
import time
from fractions import Fraction

import pytest

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
from shapovalov.hessenberg import build_A_rs, build_D, build_E, det_lr
from shapovalov.pbw import UEAElement, gl
from shapovalov.shuffles import (
    Shuffle,
    diagram_data,
    enumerate_shuffles,
    eta_weight,
    simple_roots,
    supertrace_pairing,
)
from shapovalov.verma import act, is_highest_weight, vacuum
from shapovalov.construct import (
    ODD_ORDERINGS,
    b_lambda,
    case1_decompose,
    case2_assembled,
    case2_decompose,
    is_dominant_even,
    is_independent,
    is_minimal,
    kac_coefficient,
    lemma1768_check,
    ordered_basis_coefficient,
    root_to_str,
    square_isotropic_check,
    theta_borel,
    theta_for_root,
    theta_gl,
    theta_glmn_distinguished,
    theta_odd_alg,
    theta_power,
    verify_highest_weight,
    verify_highest_weight_symbolic,
    _gamma_indices,
)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.time() - self.start
        if exc_type is None:
            print(f"ACCEPTANCE {self.name}: PASS ({elapsed:.2f}s, budget {self.seconds}s)")
            assert elapsed < self.seconds, f"{self.name} exceeded {self.seconds}s"
        else:
            print(f"ACCEPTANCE {self.name}: FAIL ({elapsed:.2f}s)")
        return False


def test_criterion_1_gl22_golden():
    """The four expressions for the highest odd root of gl(2,2), plus both
    displayed lines for the two sub-roots, reproduced verbatim and all equal
    after normal ordering."""
    with Budget("1 gl(2,2) golden expressions", 1.0):
        alg = gl(2, 2)
        ha = Poly.x(1) - Poly.x(2)          # h_alpha
        hg = Poly.x(4) - Poly.x(3)          # h_gamma
        one = Poly.one()
        golden = {
            "middle": [
                (((4, 3), (3, 2), (2, 1)), ()),
                (((4, 3), (3, 1)), (ha,)),
                (((4, 2), (2, 1)), (hg - one,)),
                (((4, 1),), (ha, hg - one)),
            ],
            "odd-last": [
                (((4, 3), (2, 1), (3, 2)), ()),
                (((4, 3), (3, 1)), (ha + one,)),
                (((2, 1), (4, 2)), (hg - one,)),
                (((4, 1),), (ha + one, hg - one)),
            ],
            "odd-first": [
                (((3, 2), (2, 1), (4, 3)), ()),
                (((3, 1), (4, 3)), (ha,)),
                (((4, 2), (2, 1)), (hg,)),
                (((4, 1),), (ha, hg)),
            ],
            "bform": [
                (((2, 1), (3, 2), (4, 3)), ()),
                (((3, 1), (4, 3)), (ha + one,)),
                (((2, 1), (4, 2)), (hg,)),
                (((4, 1),), (ha + one, hg)),
            ],
        }
        bodies = []
        for ordering, expected in golden.items():
            t = theta_odd_alg(alg, 1, 2, ordering)
            assert sorted(t.terms) == sorted(expected), ordering
            bodies.append(t.body)
        assert all(b == bodies[0] for b in bodies)

        # both displayed lines for eps1 - delta1
        t = theta_odd_alg(alg, 1, 1, "middle")
        assert sorted(t.terms) == sorted(
            [(((3, 2), (2, 1)), ()), (((3, 1),), (ha,))]
        )
        t2 = theta_odd_alg(alg, 1, 1, "odd-last")
        assert sorted(t2.terms) == sorted(
            [(((2, 1), (3, 2)), ()), (((3, 1),), (ha + one,))]
        )
        assert t.body == t2.body

        # both displayed lines for eps2 - delta2
        t = theta_odd_alg(alg, 2, 2, "middle")
        assert sorted(t.terms) == sorted(
            [(((4, 3), (3, 2)), ()), (((4, 2),), (hg - one,))]
        )
        t2 = theta_odd_alg(alg, 2, 2, "odd-first")
        assert sorted(t2.terms) == sorted(
            [(((3, 2), (4, 3)), ()), (((4, 2),), (hg,))]
        )
        assert t.body == t2.body


def test_criterion_2_defining_property_sweep():
    """act(e_alpha, theta v) = 0 for every simple root at 5 seeded points of
    the hyperplane: all roots of gl(m), m <= 6, and of gl(m,n), m+n <= 6;
    all endpoint-fixed shuffles for m+n <= 5; the same roots, orderings and
    shuffles fully symbolic."""
    with Budget("2 defining-property sweep", 60.0):
        for m in range(2, 7):
            alg = gl(m, 0)
            for root, _ in alg.positive_roots():
                theta = theta_for_root(alg, root)
                rep = verify_highest_weight(theta, samples=5, seed=0)
                assert rep["all_passed"], (m, 0, root_to_str(alg, root))
        for m in range(1, 6):
            for n in range(1, 7 - m):
                alg = gl(m, n)
                for root, _ in alg.positive_roots():
                    theta = theta_for_root(alg, root)
                    rep = verify_highest_weight(theta, samples=5, seed=0)
                    assert rep["all_passed"], (m, n, root_to_str(alg, root))
        for m in range(1, 5):
            for n in range(1, 6 - m):
                for sh in enumerate_shuffles(m, n):
                    theta = theta_borel(sh)
                    rep = verify_highest_weight(theta, samples=5, seed=0)
                    assert rep["all_passed"], str(sh)
        for m in range(1, 7):
            for n in range(7 - m):
                alg = gl(m, n)
                for root, _ in alg.positive_roots():
                    i, j = alg.root_from_weight(root)
                    orders = ODD_ORDERINGS if i <= m < j else ("standard", "bform")
                    for order in orders:
                        theta = theta_for_root(alg, root, order)
                        assert verify_highest_weight_symbolic(theta), (m, n, root_to_str(alg, root), order)
        for m in range(1, 5):
            for n in range(1, 6 - m):
                for sh in enumerate_shuffles(m, n):
                    assert verify_highest_weight_symbolic(theta_borel(sh)), str(sh)


def test_criterion_3_determinant_equivalences():
    """det of the row-form matrix equals the subset-sum expansion for m <= 6
    symbolically; row-form equals column-form for m <= 5 symbolically; the
    gl(m,n) matrix evaluation matches the distinguished element for
    m+n <= 5."""
    with Budget("3 determinant equivalences", 30.0):
        for m in range(2, 7):
            assert det_lr(build_D(m)) == theta_gl(m).body, m
        for m in range(2, 6):
            assert det_lr(build_D(m)) == det_lr(build_E(m)), m
        for m in range(1, 5):
            for n in range(1, 6 - m):
                t = theta_glmn_distinguished(m, n)
                for lam in sample_hyperplane(t.hyperplane(), 13, 3):
                    assert det_lr(build_A_rs(1, n, m, n).evaluate(lam)) == t.evaluate(lam), (m, n)


def test_criterion_4_powers():
    """Powers are multiplicity-p elements in gl(3) and gl(4) for p <= 3 at 5
    sampled weights; squares of isotropic elements kill the highest weight
    vector in gl(2,2), gl(3,2), gl(2,3)."""
    with Budget("4 powers", 30.0):
        for m in (3, 4):
            eta = Weight.eps(m, 0, 1) - Weight.eps(m, 0, m)
            alg = gl(m, 0)
            for p in (1, 2, 3):
                th = theta_power(m, p)
                for lam in sample_hyperplane(Hyperplane(eta, p), 17, 5):
                    v = act(th, vacuum(alg, lam))
                    assert not v.is_zero()
                    assert is_highest_weight(v), (m, p)
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            t = theta_glmn_distinguished(m, n)
            for lam in sample_hyperplane(t.hyperplane(), 19, 5):
                assert square_isotropic_check(m, n, lam), (m, n)


def test_criterion_5_exchange_identity():
    """The exchange identity between adjacent-length roots, symbolic in
    gl(3) and at sampled weights in gl(4) for p <= 2."""
    with Budget("5 exchange identity", 30.0):
        for p in (1, 2):
            assert lemma1768_check(3, p, 1)
        rng = random.Random(29)
        alg = gl(4, 0)
        eta = Weight.eps(4, 0, 1) - Weight.eps(4, 0, 4)
        for p in (1, 2):
            for _ in range(5):
                l4 = Fraction(rng.randint(-9, 9), 2)
                l2 = Fraction(rng.randint(-9, 9), 3)
                lam = Weight(4, 0, [l4 - 2, l2, l4 - 1 - p, l4])
                assert Hyperplane(eta, 1).member(lam)
                assert lemma1768_check(4, p, 1, lam)


def test_criterion_6_case_decompositions():
    """Both partial expansions hold exactly: symbolically in gl(2,2) and
    gl(3,2), and at 5 sampled indeterminate values in gl(3,3); the subset
    class containing both split indices equals the triple product."""
    with Budget("6 case decompositions", 60.0):
        # case 1, gl(2,2): exact as elements
        d = case1_decompose(1, 2, 2, 2, 2)
        assert d.pieces["main"] == d.pieces["product"]
        assert d.theta.body == d.pieces["main"] + d.pieces["remainder"].scale_central(
            d.indeterminates["T"]
        )
        # case 1, gl(3,2): symbolic identity over the two defining constraints
        m, n = 3, 2
        d = case1_decompose(1, 2, 2, m, n)
        cons = [
            Hyperplane(d.gamma).constraint_poly(),
            Hyperplane(d.factors["gamma_prime"].eta).constraint_poly(),
        ]
        lam = generic_point(m, n, cons)
        vac_ = vacuum(d.alg, lam)
        diff = act(d.pieces["main"], vac_) - act(d.pieces["product"], vac_)
        assert diff.is_zero()
        d3 = case1_decompose(1, 2, 3, m, n)
        assert d3.pieces["main"] == d3.pieces["product"]

        # case 2: exact element identities in gl(2,2) and gl(3,2)
        for args in [(1, 2, 2, 1, 2, 2), (1, 2, 3, 1, 3, 2)]:
            d = case2_decompose(*args)
            assert d.pieces["both"] == d.pieces["product"], args
            assert d.theta.body == case2_assembled(d), args
            total = sum(len(v) for v in d.index_sets.values())
            r, s, m_, n_ = args[0], args[1], args[4], args[5]
            assert total == 2 ** (m_ + s - r - 1)

        # case 2 in gl(3,3): sampled at 5 weights with distinct T values
        d = case2_decompose(1, 3, 3, 1, 3, 3)
        alg = gl(3, 3)
        assembled = case2_assembled(d)
        t_values = set()
        for lam in sample_hyperplane(Hyperplane(d.gamma), 23, 5):
            t_values.add(eval_at(d.indeterminates["T"], lam))
            lhs = d.theta.verma_vector(lam)
            rhs = act(assembled, vacuum(alg, lam))
            assert lhs == rhs
        assert len(t_values) >= 4


def test_criterion_7_independence_suite():
    """Minimality and independence coincide on seeded families of 20 weights
    with at least two vanishing odd roots in gl(2,2) and gl(3,2); the plain
    lowering generator survives for every minimal root; the product formula
    matches the expansion and is nonzero on 10 dominant instances."""
    with Budget("7 independence suite", 120.0):
        rng = random.Random(101)
        families = []
        for m, n in [(2, 2), (3, 2)]:
            alg = gl(m, n)
            r_w = alg.rho
            fam = []
            pairs_all = [(r, s) for r in range(1, m + 1) for s in range(1, n + 1)]
            while len(fam) < 10:
                pairs = rng.sample(pairs_all, rng.choice([2, 2, 3]))
                if len({r for r, _ in pairs}) != len(pairs):
                    continue
                coords = [Fraction(rng.randint(-9, 9)) for _ in range(m + n)]
                for r, s in pairs:
                    coords[r - 1] = -r_w.coords[r - 1] - coords[m + s - 1] - r_w.coords[m + s - 1]
                lam = Weight(m, n, coords)
                if len(b_lambda(alg, lam)) >= 2:
                    fam.append(lam)
            families.append((alg, fam))
        assert sum(len(f) for _, f in families) == 20

        saw_dependent = False
        for alg, fam in families:
            for lam in fam:
                for gamma in b_lambda(alg, lam):
                    minimal = is_minimal(alg, gamma, lam)
                    independent = is_independent(alg, gamma, lam)
                    assert minimal == independent, (lam, root_to_str(alg, gamma))
                    saw_dependent = saw_dependent or not minimal
                    if minimal:
                        r, s = _gamma_indices(alg, gamma)
                        v = theta_odd_alg(alg, r, s, "odd-last").verma_vector(lam)
                        assert ordered_basis_coefficient(alg, gamma, v, "last") != 0
        assert saw_dependent

        # product-formula instances with lambda and lambda - gamma dominant
        instances = 0
        for m, n in [(2, 2), (3, 2)]:
            alg = gl(m, n)
            r_w = alg.rho
            for base in range(8, 16):
                for r in range(1, m + 1):
                    for s in range(1, n + 1):
                        gamma = Weight.eps(m, n, r) - Weight.delta(m, n, s)
                        eps_part = [Fraction(base + 2 * (m - i)) for i in range(1, m + 1)]
                        del_part = [Fraction(-base + 2 * (n - j)) for j in range(1, n + 1)]
                        lam = Weight(m, n, eps_part + del_part)
                        coords = list(lam.coords)
                        coords[m + s - 1] -= bilinear_form(lam + r_w, gamma)
                        lam = Weight(m, n, coords)
                        if not (is_dominant_even(alg, lam) and is_dominant_even(alg, lam - gamma)):
                            continue
                        assert bilinear_form(lam + r_w, gamma) == 0
                        assert kac_coefficient(r, s, m, n, lam) != 0
                        instances += 1
        assert instances >= 10


def test_criterion_8_shuffle_combinatorics():
    """Diagram combinatorics for every endpoint-fixed shuffle with m+n <= 6:
    d_1 = 0, d_last = -(rho, eta), the node polynomials sum to h_eta, and
    their supertrace Gram matrix equals the Cartan matrix of the roots."""
    with Budget("8 shuffle combinatorics", 10.0):
        for m in range(1, 6):
            for n in range(1, 7 - m):
                alg = gl(m, n)
                eta = eta_weight(m, n)
                target = h_of_weight(eta)
                rhs = -bilinear_form(rho(m, n), eta)
                for sh in enumerate_shuffles(m, n):
                    data = diagram_data(sh)
                    assert data.d[0] == 0
                    assert data.d[-1] == rhs
                    assert data.s[-1] == target
                    k = len(data.roots)
                    for a in range(k):
                        for b in range(k):
                            assert supertrace_pairing(
                                alg, data.h[a], data.h[b]
                            ) == bilinear_form(data.roots[a], data.roots[b])
