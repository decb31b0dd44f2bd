import json
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapovalov import exact_algebra
from shapovalov.construct import theta_borel
from shapovalov.exact_algebra import (
    Hyperplane,
    Poly,
    Weight,
    bilinear_form,
    eval_at,
    generic_point,
    h_of_weight,
    reduce_mod,
    rho,
    rho_pairing,
    sample_hyperplane,
)
from shapovalov.shuffles import enumerate_shuffles

rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)


def rand_weight(rng, m, n, span=12):
    return Weight(m, n, [Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(m + n)])


def rand_poly(rng, nvars=4, nterms=3, deg=2):
    p = Poly.zero()
    for _ in range(nterms):
        term = Poly.const(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        for _ in range(rng.randint(0, deg)):
            term = term * Poly.x(rng.randint(1, nvars))
        p = p + term
    return p


def all_roots(m, n):
    out = []
    for i in range(1, m + n + 1):
        for j in range(1, m + n + 1):
            if i != j:
                out.append(Weight.basis(m, n, i) - Weight.basis(m, n, j))
    return out


def reference_sample(hp, seed, count):
    """The sampler's earlier loop, kept as a reference: it builds a Fraction
    for each draw it needs and tells points apart by their Fraction
    coordinates.  The sampler must draw the same points and raise the same
    errors."""
    eta = hp.eta
    m, n = eta.m, eta.n
    coeffs = [eta.coords[i] for i in range(m)] + [-eta.coords[m + j] for j in range(n)]
    pivot = next(i for i, c in enumerate(coeffs) if c)
    others = [(i, c) for i, c in enumerate(coeffs) if c and i != pivot]
    target = hp.rhs() - bilinear_form(rho(m, n), eta)
    if abs(target) - 24 * sum(abs(c) for _, c in others) > 1000 * abs(coeffs[pivot]):
        raise ValueError(f"{hp} has no sample point with coordinates bounded by 1000")
    rng = random.Random(seed)
    points, seen, misses = [], set(), 0
    while len(points) < count:
        if misses == 10_000:
            raise ValueError(
                f"{hp}: found {len(points)} of {count} sample points with coordinates "
                f"bounded by 1000 before 10000 draws in a row added none"
            )
        misses += 1
        draws = [(rng.randint(-24, 24), rng.randint(1, 5)) for _ in range(m + n)]
        x = (target - sum(c * Fraction(*draws[i]) for i, c in others)) / coeffs[pivot]
        if abs(x.numerator) > 1000 or x.denominator > 1000:
            continue
        lam = Weight(m, n, [x if i == pivot else Fraction(p, q) for i, (p, q) in enumerate(draws)])
        if lam.coords in seen:
            continue
        seen.add(lam.coords)
        points.append(lam)
        misses = 0
    return points


SAMPLER_CASES = {
    "roots": lambda: [Hyperplane(eta) for N in range(2, 8) for m in range(1, N + 1)
                      for eta in all_roots(m, N - m)],
    "multiplicities": lambda: [
        Hyperplane(Weight.basis(m, 0, i) - Weight.basis(m, 0, j), mult)
        for m in range(3, 7) for i in range(1, m) for j in range(i + 1, m + 1) for mult in (2, 3)],
    "shuffles": lambda: [theta_borel(sh).hyperplane()
                         for m, n in ((2, 2), (2, 3), (3, 2), (3, 3)) for sh in enumerate_shuffles(m, n)],
    # lines whose 169 values a/b repeat within 100 points, a rational eta, an
    # unreachable hyperplane and one with a single point in the bound
    "edges": lambda: [Hyperplane(Weight.eps(2, 0, 1) - Weight.eps(2, 0, 2)),
                      Hyperplane(Weight.eps(1, 1, 1) - Weight.delta(1, 1, 1)),
                      Hyperplane(Weight(2, 2, [2, Fraction(1, 2), 0, -3])),
                      Hyperplane(Weight.eps(3, 0, 1) - Weight.eps(3, 0, 3), 3000),
                      Hyperplane(Weight.eps(2, 0, 1) - Weight.eps(2, 0, 2), 1025)],
}


class TestBilinearForm:
    def test_defining_values(self):
        assert bilinear_form(Weight.eps(2, 2, 1), Weight.eps(2, 2, 1)) == 1
        assert bilinear_form(Weight.delta(2, 2, 1), Weight.delta(2, 2, 1)) == -1
        assert bilinear_form(Weight.eps(2, 2, 1), Weight.delta(2, 2, 1)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bilinear_form(Weight.eps(2, 1, 1), Weight.eps(2, 2, 1))

    @given(st.lists(rationals, min_size=5, max_size=5),
           st.lists(rationals, min_size=5, max_size=5),
           st.lists(rationals, min_size=5, max_size=5),
           rationals)
    @settings(max_examples=60, deadline=None)
    def test_symmetric_and_bilinear(self, a, b, c, t):
        u, v, w = (Weight(3, 2, x) for x in (a, b, c))
        assert bilinear_form(u, v) == bilinear_form(v, u)
        assert bilinear_form(u + t * v, w) == bilinear_form(u, w) + t * bilinear_form(v, w)


    def test_matches_the_coordinate_sum(self):
        # weights with zero entries, against the signed sum over every coordinate
        rng = random.Random(4)
        for _ in range(200):
            m, n = rng.choice([(1, 0), (3, 0), (2, 2), (3, 2), (1, 3)])
            u, v = (
                Weight(m, n, [rng.choice([0, 0, Fraction(rng.randint(-9, 9), rng.randint(1, 4))])
                              for _ in range(m + n)])
                for _ in range(2)
            )
            expected = (sum(u.coords[i] * v.coords[i] for i in range(m))
                        - sum(u.coords[j] * v.coords[j] for j in range(m, m + n)))
            value = bilinear_form(u, v)
            assert isinstance(value, Fraction)
            assert value == expected

    def test_generic_point_matches_the_coordinate_sum(self):
        m, n = 2, 2
        eta = Weight.eps(m, n, 1) - Weight.delta(m, n, 2)
        lam = generic_point(m, n, [Hyperplane(eta).constraint_poly()])
        rng = random.Random(5)
        for _ in range(20):
            mu = Weight(m, n, [rng.choice([0, rng.randint(-5, 5)]) for _ in range(m + n)])
            expected = (sum(lam.coords[i] * mu.coords[i] for i in range(m))
                        - sum(lam.coords[j] * mu.coords[j] for j in range(m, m + n)))
            assert bilinear_form(lam, mu) == expected
            assert bilinear_form(mu, lam) == expected


class TestRho:
    def test_pairings_gl32(self):
        r = rho(3, 2)
        for k in range(1, 3):
            alpha = Weight.eps(3, 2, k) - Weight.eps(3, 2, k + 1)
            assert bilinear_form(r, alpha) == 1
        beta = Weight.eps(3, 2, 3) - Weight.delta(3, 2, 1)
        assert bilinear_form(r, beta) == 0
        gamma = Weight.delta(3, 2, 1) - Weight.delta(3, 2, 2)
        assert bilinear_form(r, gamma) == -1

    def test_pairings_gl4(self):
        r = rho(4, 0)
        for k in range(1, 4):
            alpha = Weight.eps(4, 0, k) - Weight.eps(4, 0, k + 1)
            assert bilinear_form(r, alpha) == 1

    def test_coordinate_sum_zero(self):
        for m, n in [(2, 0), (3, 2), (2, 2), (4, 1), (3, 3)]:
            assert sum(rho(m, n).coords, Fraction(0)) == 0

    def test_radical_invariance(self):
        # adding any multiple of the radical leaves pairings with roots alone
        m, n = 3, 2
        r = rho(m, n)
        zeta = Weight(m, n, [1] * m + [-1] * n)
        for t in [Fraction(1), Fraction(-7, 3), Fraction(5, 2)]:
            shifted = r + t * zeta
            for root in all_roots(m, n):
                assert bilinear_form(shifted, root) == bilinear_form(r, root)


class TestCartanPolynomials:
    def test_h_of_simple_roots(self):
        alpha = Weight.eps(2, 0, 1) - Weight.eps(2, 0, 2)
        assert h_of_weight(alpha) == Poly.x(1) - Poly.x(2)
        beta = Weight.eps(2, 2, 2) - Weight.delta(2, 2, 1)
        assert h_of_weight(beta) == Poly.x(2) + Poly.x(3)
        assert h_of_weight(Weight.zero(2, 2)) == Poly.zero()

    def test_h_reproduces_form(self):
        rng = random.Random(0)
        for _ in range(100):
            mu = rand_weight(rng, 3, 2)
            beta = rand_weight(rng, 3, 2)
            # beta(h_mu) computed by evaluating the diagonal polynomial at beta
            assert eval_at(h_of_weight(mu), beta) == bilinear_form(mu, beta)

    def test_eval_examples(self):
        lam = Weight(2, 0, [3, 1])
        assert eval_at(Poly.x(1) - Poly.x(2), lam) == 2
        assert eval_at(Poly.one(), lam) == 1
        # callers test isinstance(c, Fraction) on numeric evaluations
        assert isinstance(eval_at(Poly.zero(), lam), Fraction)
        assert isinstance(eval_at(Poly.const(3), lam), Fraction)

    def test_eval_sigma_coefficient(self):
        # h_{sigma_1} + (rho, sigma_1) - 1 evaluates to (lam+rho, sigma_1) - 1
        rng = random.Random(1)
        m, n = 3, 2
        sigma = Weight.eps(m, n, 1) - Weight.eps(m, n, 2)
        p = h_of_weight(sigma) + Poly.const(bilinear_form(rho(m, n), sigma) - 1)
        for _ in range(20):
            lam = rand_weight(rng, m, n)
            assert eval_at(p, lam) == bilinear_form(lam + rho(m, n), sigma) - 1

    @given(st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_eval_is_ring_morphism(self, seed):
        rng = random.Random(seed)
        p, q = rand_poly(rng), rand_poly(rng)
        lam = rand_weight(rng, 2, 2, span=6)
        assert eval_at(p * q, lam) == eval_at(p, lam) * eval_at(q, lam)
        assert eval_at(p + q, lam) == eval_at(p, lam) + eval_at(q, lam)

    @given(st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_eval_matches_subs(self, seed):
        # the integer kernel against Poly.subs at the coordinates, read as a Fraction
        rng = random.Random(seed)
        m, n = rng.choice([(2, 0), (2, 2), (3, 1)])
        lam = rand_weight(rng, m, n)
        mapping = {i + 1: c for i, c in enumerate(lam.coords)}
        constant = Poly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for p in (rand_poly(rng, nvars=m + n, nterms=4, deg=3), Poly.zero(), constant):
            value = eval_at(p, lam)
            assert isinstance(value, Fraction)
            assert value == Fraction(p.subs(mapping).constant_value())

    def test_eval_in_more_variables_than_the_weight(self):
        rng = random.Random(2)
        for _ in range(20):
            lam = rand_weight(rng, 2, 1)
            mapping = {i + 1: c for i, c in enumerate(lam.coords)}
            p = rand_poly(rng, nvars=3, nterms=3, deg=3) + Poly.x(5) * Poly.x(1)
            assert eval_at(p, lam) == p.subs(mapping)
        # x4 beyond the weight, killed by a zero coordinate: a Fraction again
        lam = Weight(2, 1, [0, 2, 3])
        value = eval_at(Poly.x(1) * Poly.x(4) + Poly.x(2) * Poly.x(3), lam)
        assert isinstance(value, Fraction) and value == 6
        assert eval_at(Poly.x(4) + Poly.x(3), lam) == Poly.x(4) + Poly.const(3)

    def test_eval_at_a_generic_point_matches_subs(self):
        m, n = 3, 1
        eta = Weight.eps(m, n, 1) - Weight.delta(m, n, 1)
        lam = generic_point(m, n, [Hyperplane(eta).constraint_poly()])
        mapping = {i + 1: c for i, c in enumerate(lam.coords)}
        rng = random.Random(3)
        for _ in range(10):
            p = rand_poly(rng, nvars=m + n, nterms=4, deg=3)
            assert eval_at(p, lam) == p.subs(mapping)
        for p in (Poly.zero(), Poly.const(5)):
            value = eval_at(p, lam)
            assert isinstance(value, Poly) and value == p

    def test_poly_pow_and_subs(self):
        p = Poly.x(1) + Poly.const(1)
        assert p ** 2 == Poly.x(1) * Poly.x(1) + 2 * Poly.x(1) + Poly.const(1)
        assert p.shifted({1: -1}) == Poly.x(1)

    def test_equal_values_hash_equally(self):
        # a constant Poly equals its value, so it must hash as the value does:
        # a dict keyed by one finds the other
        for c in (0, 1, -7, Fraction(1, 3), Fraction(6, 3)):
            p = Poly.const(c)
            assert p == c and hash(p) == hash(c)
            assert {p: "poly"}.get(c) == "poly" and {c: "value"}.get(p) == "value"
        assert hash(Poly.x(1) - Poly.x(1)) == hash(Poly.zero()) == hash(0)
        assert hash(Poly.x(1) + 2) == hash(2 + Poly.x(1)) and Poly.x(1) + 2 in {Poly.x(1) + 2}

    def test_hash_is_kept(self, monkeypatch):
        # the hash of a Poly is computed once: a second call builds no
        # frozenset of its terms
        p = (Poly.x(1) + Poly.x(2) * 3 - 1) ** 3
        built = []

        def counting(items):
            built.append(1)
            return frozenset(items)

        monkeypatch.setattr(exact_algebra, "frozenset", counting, raising=False)
        h = hash(p)
        assert hash(p) == h and hash(p) == h
        assert len(built) == 1
        monkeypatch.undo()
        assert h == hash((Poly.x(1) + Poly.x(2) * 3 - 1) ** 3)  # a fresh, equal Poly


class TestHyperplane:
    def test_isotropic_membership(self):
        eta = Weight.eps(2, 2, 1) - Weight.delta(2, 2, 2)
        hp = Hyperplane(eta)
        lam = -1 * rho(2, 2)
        assert hp.member(lam)  # (lam+rho, eta) = 0 = rhs

    def test_even_rhs_is_multiplicity(self):
        m = 4
        eta = Weight.eps(m, 0, 1) - Weight.eps(m, 0, m)
        for mult in (1, 2, 3):
            assert Hyperplane(eta, mult).rhs() == mult

    def test_minus_rho_membership(self):
        eta = Weight.eps(3, 0, 1) - Weight.eps(3, 0, 3)
        lam = -1 * rho(3, 0)
        assert not Hyperplane(eta, 1).member(lam)  # rhs = 1 != 0

    def test_isotropic_rejects_multiplicity(self):
        eta = Weight.eps(1, 1, 1) - Weight.delta(1, 1, 1)
        with pytest.raises(ValueError):
            Hyperplane(eta, 2)

    def test_zero_eta_is_refused(self):
        # (lam + rho, 0) = 0 for every lam: no hyperplane, and nothing to
        # sample (the sampler used to fail with a bare StopIteration)
        for mult in (1, 2):
            with pytest.raises(ValueError, match="eta = 0 defines no hyperplane"):
                Hyperplane(Weight(2, 1, [0, 0, 0]), mult)

    def test_rhs_is_computed_once(self, monkeypatch):
        import shapovalov.exact_algebra as ea

        eta = Weight.eps(4, 3, 1) - Weight.delta(4, 3, 3)
        hp = Hyperplane(eta, 1)
        lam = sample_hyperplane(hp, 0, 1)[0]
        calls = []
        form = ea.bilinear_form
        monkeypatch.setattr(ea, "bilinear_form", lambda a, b: calls.append((a, b)) or form(a, b))
        assert hp.member(lam) and hp.rhs() == 0
        # (rho, eta) is paired once, in __init__: member pairs only lam with eta
        assert calls == [(lam, eta)] and calls[0][0] is lam and calls[0][1] is eta

    def test_sampling(self):
        eta = Weight.eps(2, 2, 1) - Weight.delta(2, 2, 2)
        hp = Hyperplane(eta)
        pts = sample_hyperplane(hp, seed=3, count=3)
        assert pts == sample_hyperplane(hp, seed=3, count=3)
        assert len({p.coords for p in pts}) == 3
        for p in pts:
            assert hp.member(p)
            for c in p.coords:
                assert abs(c.numerator) <= 1000 and c.denominator <= 1000

    def test_sampling_unreachable_hyperplane_raises(self):
        # the pivot coordinate would always exceed 2974, beyond the bound
        eta = Weight.eps(3, 0, 1) - Weight.eps(3, 0, 3)
        with pytest.raises(ValueError, match="bounded by 1000"):
            sample_hyperplane(Hyperplane(eta, 3000), 0, 1)

    def test_sampling_too_few_points_raises(self, monkeypatch):
        # (1000, -24) is the only point of this line inside the bound: the
        # bound check lets it through, and the sampler gives up after
        # exactly 10^4 draws in a row without a new point.  One unit further
        # out the line has no point inside the bound, and is refused before
        # any draw.  A draw reads two coordinates through _drawn.
        import shapovalov.exact_algebra as ea

        eta = Weight.eps(2, 0, 1) - Weight.eps(2, 0, 2)
        hp = Hyperplane(eta, 1025)
        calls = []
        drawn = ea._drawn
        monkeypatch.setattr(ea, "_drawn", lambda a, b: calls.append(a) or drawn(a, b))
        assert [p.coords for p in sample_hyperplane(hp, 0, 1)] == [(1000, -24)]
        first = len(calls)
        calls.clear()
        start = time.perf_counter()
        with pytest.raises(ValueError, match="found 1 of 2 sample points .* before 10000 draws"):
            sample_hyperplane(hp, 0, 2)
        assert time.perf_counter() - start < 2
        assert len(calls) == first + 2 * 10_000
        calls.clear()
        with pytest.raises(ValueError, match="has no sample point with coordinates bounded by 1000"):
            sample_hyperplane(Hyperplane(eta, 1026), 0, 1)
        assert calls == []

    # points recorded before the sampler skipped zero coefficients; every seed must keep its points
    @pytest.mark.parametrize("m, n, eta, mult, seed, points", [
        (3, 0, [1, 0, -1], 1, 0,
         [["1", "-22/3", "2"], ["11/2", "2", "13/2"], ["23", "-3", "24"]]),
        (2, 2, [1, 0, 0, -1], 1, 7,
         [["6", "1", "-4", "-6"], ["-3/4", "4", "-22", "3/4"], ["-12", "-19/5", "3", "12"]]),
        (3, 0, [1, -1, 0], 2, 3, [["6", "5", "-1/5"], ["-3", "-4", "-6"]]),
        (2, 2, [2, Fraction(1, 2), 0, -3], 1, 11,
         [["61/8", "5/4", "8/5", "-6"], ["-309/80", "16/5", "-13", "4/3"]]),
        (3, 0, [0, 1, -1], 1, 5, [["5", "4", "4"], ["-23/4", "-14", "-14"]]),
        (4, 3, [1, 0, 0, 0, 0, 0, -1], 1, 1,
         [["-8", "24", "-8", "7/4", "3/2", "-11", "7"],
          ["22", "14", "5", "-7/2", "13", "-4", "-23"],
          ["-12/5", "-6", "19/2", "3", "9/2", "6", "7/5"]]),
    ])
    def test_sampled_points_are_pinned(self, m, n, eta, mult, seed, points):
        hp = Hyperplane(Weight(m, n, eta), mult)
        assert [p.to_json() for p in sample_hyperplane(hp, seed, len(points))] == points

    @pytest.mark.parametrize("family", sorted(SAMPLER_CASES))
    def test_sampler_draws_the_reference_points(self, family):
        count = 100 if family == "edges" else 3
        for hp in SAMPLER_CASES[family]():
            for seed in range(3):
                try:
                    expected = [p.to_json() for p in reference_sample(hp, seed, count)]
                except ValueError as e:
                    with pytest.raises(ValueError, match=re.escape(str(e))):
                        sample_hyperplane(hp, seed, count)
                    continue
                assert [p.to_json() for p in sample_hyperplane(hp, seed, count)] == expected, (hp, seed)

    @pytest.mark.parametrize("m, n, eta, mult", [
        (3, 0, [1, 0, -1], 2), (2, 2, [1, 0, 0, -1], 1), (2, 2, [0, 1, -1, 0], 1),
        (2, 2, [2, Fraction(1, 2), 0, -3], 1),
    ])
    def test_member_is_the_shifted_form(self, m, n, eta, mult):
        hp = Hyperplane(Weight(m, n, eta), mult)
        r = rho(m, n)
        # a step along a coordinate where eta is nonzero leaves the hyperplane
        step = Weight.basis(m, n, next(i for i, c in enumerate(eta, 1) if c))
        for lam in sample_hyperplane(hp, 2, 4):
            for mu in (lam, lam + step, lam - Fraction(2, 3) * step):
                expected = bilinear_form(mu + r, hp.eta) == hp.rhs()
                assert hp.member(mu) == expected
                assert expected == (mu == lam)
        on = generic_point(m, n, [hp.constraint_poly()])
        off = generic_point(m, n, [])
        for mu, inside in ((on, True), (off, False)):
            assert isinstance(mu.coords[0], Poly)
            assert (bilinear_form(mu + r, hp.eta) == hp.rhs()) is inside
            assert hp.member(mu) is inside

    def test_constraint_poly_vanishes_on_samples(self):
        eta = Weight.eps(3, 0, 1) - Weight.eps(3, 0, 3)
        hp = Hyperplane(eta, 2)
        c = hp.constraint_poly()
        for lam in sample_hyperplane(hp, 0, 4):
            assert eval_at(c, lam) == 0

    def test_rho_pairing_is_the_shifted_form(self):
        rng = random.Random(5)
        for m, n in [(3, 0), (2, 2), (1, 3)]:
            for _ in range(5):
                beta, lam = rand_weight(rng, m, n), rand_weight(rng, m, n)
                c = Fraction(rng.randint(-9, 9), rng.randint(1, 3))
                assert eval_at(rho_pairing(beta, c), lam) == bilinear_form(lam + rho(m, n), beta) + c


class TestSymbolicReduction:
    def test_reduce_mod_linear(self):
        # x1 + x2 - 3 = 0 makes x1^2 - (3 - x2)^2 vanish
        c = Poly.x(1) + Poly.x(2) - Poly.const(3)
        p = Poly.x(1) ** 2 - (Poly.const(3) - Poly.x(2)) ** 2
        assert reduce_mod(p, [c]).is_zero()
        assert not reduce_mod(Poly.x(1), [c]).is_zero()

    def test_param_block_is_disjoint(self):
        lam = generic_point(2, 2, [])
        p = eval_at(h_of_weight(Weight.eps(2, 2, 1)), lam)
        assert p == Poly.x(5)
        lam = generic_point(2, 2, [Poly.x(1) - Poly.const(2)])
        assert lam.coords[0] == Poly.const(2)
        assert (eval_at(h_of_weight(Weight.eps(2, 2, 1)), lam) - Poly.const(2)).is_zero()
        # without constraints the point is the plain parameter block
        for m, n in [(1, 0), (3, 0), (2, 2), (1, 3)]:
            N = m + n
            lam = generic_point(m, n, [])
            assert lam.coords == tuple(Poly.x(N + i) for i in range(1, N + 1))

    def test_generic_point_lies_on_the_constraints(self):
        cases = []
        for m, n in [(3, 0), (2, 2), (1, 3), (3, 2)]:
            alg_roots = [Weight.basis(m, n, i) - Weight.basis(m, n, j)
                         for i in range(1, m + n + 1) for j in range(i + 1, m + n + 1)]
            for eta in alg_roots:
                mults = (1,) if bilinear_form(eta, eta) == 0 else (1, 2)
                cases += [(m, n, [Hyperplane(eta, p).constraint_poly()]) for p in mults]
            # two constraints at once, as for the case decompositions
            cases.append((m, n, [Hyperplane(alg_roots[0]).constraint_poly(),
                                 Hyperplane(alg_roots[-1]).constraint_poly()]))
        for m, n, cons in cases:
            lam = generic_point(m, n, cons)
            N = m + n
            for c in cons:
                assert eval_at(c, lam) == Poly.zero(), (m, n, c)
            # every coordinate is a polynomial in the parameter block only
            free = {v for x in lam.coords for v in x.variables()}
            assert free <= set(range(N + 1, 2 * N + 1))
            assert len(free) == N - len(cons)

    def test_generic_point_inconsistent_constraints_raise(self):
        with pytest.raises(ValueError, match="inconsistent"):
            generic_point(2, 0, [Poly.x(1) - Poly.const(1), Poly.x(1) - Poly.const(2)])
        with pytest.raises(ValueError, match="inconsistent"):
            generic_point(2, 2, [Poly.const(3)])


class TestSerialization:
    def test_weight_roundtrip(self):
        w = Weight(2, 2, [Fraction(1, 2), -3, 0, Fraction(7, 5)])
        data = json.loads(json.dumps(w.to_json()))
        assert Weight.from_json(2, 2, data) == w

    def test_poly_roundtrip(self):
        p = Poly.x(1) * Poly.x(3) - Poly.const(Fraction(2, 3)) + Poly.x(2) ** 2
        data = json.loads(json.dumps(p.to_json()))
        assert Poly.from_json(data) == p


class TestPackedExponents:
    """A monomial is one int with an 8-bit field per variable, and total
    degree is capped at 255, so no field ever carries into the next."""

    LIMIT = "at most 255"

    def refused(self, make):
        with pytest.raises(ValueError, match=self.LIMIT) as exc:
            make()
        assert "\n" not in str(exc.value)

    def test_degree_255_reads_back(self):
        p = Poly.x(3) ** 255
        assert p.terms == {(0, 0, 255): 1}
        assert p.to_json() == {"monomials": [{"exps": [0, 0, 255], "coeff": "1"}]}
        assert Poly.from_json(json.loads(json.dumps(p.to_json()))) == p
        assert p.degree() == 255 and p.variables() == [3]

    def test_past_255_is_refused(self):
        x1 = Poly.x(1)
        top = x1 ** 255
        self.refused(lambda: x1 ** 256)
        self.refused(lambda: (x1 ** 200) * (x1 ** 56))
        self.refused(lambda: top * (Poly.x(2) + 1))  # the linear product
        self.refused(lambda: (x1 + 1) * top)
        self.refused(lambda: Poly({(256,): 1}))
        self.refused(lambda: Poly({(200, 56): 1}))  # the cap is on total degree
        self.refused(lambda: Poly.from_json({"monomials": [{"exps": [0, 256], "coeff": "1"}]}))

    def test_a_refusal_never_wraps(self):
        # a wrapped x1^256 would read as x2, and x1^255 * x1 as x2 as well
        x1 = Poly.x(1)
        for make in (lambda: x1 ** 256, lambda: (x1 ** 255) * x1, lambda: x1 * (x1 ** 255)):
            try:
                out = make()
            except ValueError:
                continue
            raise AssertionError(f"returned {out.terms}")

    def test_a_loose_bound_is_not_refused(self):
        # the sum keeps degree bound 200 after its top terms cancel; the product
        # is refused only if the exact degrees add up past 255
        x1, x2 = Poly.x(1), Poly.x(2)
        low = x1 ** 200 + x2 - x1 ** 200
        assert low == x2
        assert low * x1 ** 100 == x2 * x1 ** 100
        assert (low * (x1 ** 254)).terms == {(254, 1): 1}

    def test_a_loose_bound_evaluates_exactly(self):
        # evaluation scales the terms to the bound (3 here) and divides the
        # surplus power of D out once: int, Fraction and Poly values alike
        x1, x2, x3 = Poly.x(1), Poly.x(2), Poly.x(3)
        lam = Weight(1, 1, [Fraction(1, 2), Fraction(-2, 3)])
        for p in (x1 ** 3 + 2 * x2 - x1 ** 3 + 1,
                  x1 ** 3 + Fraction(1, 5) * x1 * x2 - x1 ** 3,
                  x1 ** 3 + x1 * x3 - x1 ** 3 + x2):
            assert p.degree() < 3
            want = p.subs({1: lam.coords[0], 2: lam.coords[1]})
            got = eval_at(p, lam)
            assert got == (want.constant_value() if want.is_constant() else want), p

    def test_one_evaluation_table_serves_many_polys(self):
        # one table per point serves many polynomials, in either order, and
        # agrees with subs: repeated monomials, a loose bound, a variable
        # beyond the point, x2^255, a rational, an integer and a generic point
        from shapovalov.exact_algebra import eval_table

        x1, x2, x3 = Poly.x(1), Poly.x(2), Poly.x(3)
        polys = [Poly.zero(), Poly.const(Fraction(3, 7)), x1 ** 3 * x2 - 4 * x2 + 1, x1 ** 3 * x2 + x1 * x2,
                 x1 ** 3 + 2 * x2 - x1 ** 3 + 1, Fraction(1, 5) * x1 * x2 + x3 ** 2, x2 ** 255]
        generic = generic_point(1, 1, [x1 + x2 - 2])
        for lam in (Weight(1, 1, [Fraction(1, 2), Fraction(-2, 3)]), Weight(1, 1, [4, -1]), generic):
            D, point = lam.scaled()
            evaluate = eval_table(point, D)
            for p in polys + polys[::-1]:
                num, d = evaluate(p)
                assert d == p.degree(), (lam, p)
                want = p.subs({1: lam.coords[0], 2: lam.coords[1]})
                got = num * Fraction(1, D ** d) if isinstance(num, Poly) else Poly.const(Fraction(num, D ** d))
                assert got == want, (lam, p)

    def test_exponents_must_be_non_negative_ints(self):
        for exps in [(-1,), (1.0,), ("2",)]:
            with pytest.raises(ValueError, match="non-negative int"):
                Poly({exps: 1})

    def test_tuples_in_and_out(self):
        # trailing zeros are accepted and trimmed, coinciding keys add up
        p = Poly({(1, 0, 0): 2, (1,): 3, (0, 2): -1, (): 0})
        assert p.terms == {(1,): 5, (0, 2): -1}
        assert Poly({(0, 0): 4}) == Poly.const(4)
        assert Poly({(1,): 1, (1, 0): -1}).is_zero()
        with pytest.raises(TypeError):
            p.terms[(1,)] = 1
