import random
from fractions import Fraction

import pytest

from shapovalov.exact_algebra import (
    Hyperplane,
    Weight,
    bilinear_form,
    eval_at,
    generic_point,
    rho,
    sample_hyperplane,
)
from shapovalov.pbw import UEAElement, gl
from shapovalov.verma import act, is_highest_weight, vacuum
from shapovalov.construct import (
    ShapovalovElement,
    b_lambda,
    bruhat_covers,
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
    theta_gl,
    theta_glmn_distinguished,
    theta_odd_alg,
    theta_power,
)


def eta_gl(m):
    return Weight.eps(m, 0, 1) - Weight.eps(m, 0, m)


class TestPowers:
    def test_sl2_square(self):
        th = theta_power(2, 2)
        assert th == UEAElement.gen(gl(2, 0), 2, 1) ** 2
        hp = Hyperplane(eta_gl(2), 2)
        for lam in sample_hyperplane(hp, 0, 3):
            v = act(th, vacuum(gl(2, 0), lam))
            assert is_highest_weight(v)

    @pytest.mark.parametrize("m,p", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_power_is_multiplicity_p_element(self, m, p):
        th = theta_power(m, p)
        hp = Hyperplane(eta_gl(m), p)
        for lam in sample_hyperplane(hp, 1, 5):
            v = act(th, vacuum(gl(m, 0), lam))
            assert not v.is_zero()
            assert is_highest_weight(v)

    def test_power_rejects_zero(self):
        with pytest.raises(ValueError):
            theta_power(3, 0)


class TestIsotropicSquare:
    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (5, 1), (1, 5)])
    def test_square_kills_vector(self, m, n):
        t = theta_glmn_distinguished(m, n)
        for lam in sample_hyperplane(t.hyperplane(), 9, 3):
            assert square_isotropic_check(m, n, lam)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_square_never_expands_body(self, m, n, monkeypatch):
        def expanded(self):
            raise AssertionError("the square check expanded theta")

        monkeypatch.setattr(ShapovalovElement, "body", property(expanded))
        t = theta_glmn_distinguished(m, n)
        for lam in sample_hyperplane(t.hyperplane(), 9, 2):
            assert square_isotropic_check(m, n, lam)

    def test_off_hyperplane_rejected(self):
        lam = Weight(2, 2, [17, 3, 1, 5])
        assert not Hyperplane(
            Weight.eps(2, 2, 1) - Weight.delta(2, 2, 2)
        ).member(lam)
        with pytest.raises(ValueError):
            square_isotropic_check(2, 2, lam)

    def test_subroot_square(self):
        # theta for eps_1 - delta_1 inside gl(2,2), squared, kills the vector
        alg = gl(2, 2)
        t = theta_odd_alg(alg, 1, 1, "middle")
        sq = t.body * t.body
        for lam in sample_hyperplane(t.hyperplane(), 2, 3):
            assert act(sq, vacuum(alg, lam)).is_zero()


class TestExchangeIdentity:
    def test_symbolic_gl3(self):
        assert lemma1768_check(3, 1, 1)
        assert lemma1768_check(3, 2, 1)

    def test_symbolic_gl4(self):
        assert lemma1768_check(4, 1, 1)
        assert lemma1768_check(4, 2, 1)

    def test_sampled_gl4(self):
        m = 4
        rng = random.Random(11)
        alg = gl(m, 0)
        for p in (1, 2):
            for _ in range(3):
                l4 = Fraction(rng.randint(-9, 9), 2)
                l2 = Fraction(rng.randint(-9, 9), 3)
                lam = Weight(m, 0, [l4 - 2, l2, l4 - 1 - p, l4])
                assert Hyperplane(eta_gl(m), 1).member(lam)
                assert bilinear_form(lam + alg.rho, Weight.eps(m, 0, 3) - Weight.eps(m, 0, 4)) == -p
                assert lemma1768_check(m, p, 1, lam)

    def test_degenerate_q_rejected(self):
        with pytest.raises(ValueError):
            lemma1768_check(3, 1, 0)
        with pytest.raises(ValueError):
            lemma1768_check(3, 0, 1)


def constrained_weight(alg, pairs, rng):
    """Random weight with (lam+rho, eps_r - delta_s) = 0 for the given (r, s).

    Each pair must use a distinct eps index; the eps coordinate is solved
    from the randomly chosen delta side.
    """
    m, n = alg.m, alg.n
    coords = [Fraction(rng.randint(-9, 9)) for _ in range(m + n)]
    r_w = alg.rho
    for r, s in pairs:
        # (lam+rho, eps_r - delta_s) = (l_r + rho_r) + (l_{m+s} + rho_{m+s})
        coords[r - 1] = -r_w.coords[r - 1] - coords[m + s - 1] - r_w.coords[m + s - 1]
    return Weight(m, n, coords)


class TestCase1:
    def test_gl22_exact(self):
        d = case1_decompose(1, 2, 2, 2, 2)
        assert d.pieces["main"] == d.pieces["product"]
        assert d.theta.body == d.pieces["main"] + d.pieces["remainder"].scale_central(
            d.indeterminates["T"]
        )

    def test_gl32_l3_exact(self):
        d = case1_decompose(1, 2, 3, 3, 2)
        assert d.pieces["main"] == d.pieces["product"]

    def test_gl32_l2_symbolic_on_constraints(self):
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
        # T vanishes on the constraint locus, mirroring the factorization
        assert eval_at(d.indeterminates["T"], lam).is_zero()

    def test_sampled_identity_and_T_zero(self):
        m, n = 3, 2
        alg = gl(m, n)
        d = case1_decompose(1, 2, 2, m, n)
        rng = random.Random(6)
        for _ in range(5):
            lam = constrained_weight(alg, [(1, 2), (2, 2)], rng)
            assert Hyperplane(d.gamma).member(lam)
            assert Hyperplane(d.factors["gamma_prime"].eta).member(lam)
            t_val = eval_at(d.indeterminates["T"], lam)
            assert t_val == 0
            v = vacuum(alg, lam)
            lhs = d.theta.verma_vector(lam)
            rhs = act(d.pieces["product"], v) + t_val * act(d.pieces["remainder"], v)
            assert lhs == rhs
            # the middle-ordering element gives the same vector here
            assert theta_odd_alg(alg, 1, 2, "middle").verma_vector(lam) == lhs

    def test_remainder_avoids_split_index(self):
        d = case1_decompose(1, 2, 2, 3, 2)
        assert d.index_sets["remainder"]
        for I in d.index_sets["remainder"]:
            assert 2 not in I

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            case1_decompose(2, 2, 2, 3, 2)


class TestCase2:
    def test_gl22_full_identity(self):
        d = case2_decompose(1, 2, 2, 1, 2, 2)
        assert d.pieces["both"] == d.pieces["product"]
        assert d.theta.body == case2_assembled(d)

    def test_gl32_full_identity(self):
        d = case2_decompose(1, 2, 3, 1, 3, 2)
        assert d.pieces["both"] == d.pieces["product"]
        assert d.theta.body == case2_assembled(d)

    def test_partition_counts(self):
        m, n, r, s = 3, 2, 1, 2
        d = case2_decompose(r, s, 3, 1, m, n)
        total = sum(len(v) for v in d.index_sets.values())
        assert total == 2 ** (m + s - r - 1)
        labels = [set(map(tuple, v)) for v in d.index_sets.values()]
        for a in range(len(labels)):
            for b in range(a + 1, len(labels)):
                assert not (labels[a] & labels[b])

    def test_interior_frame_needs_vanishing(self):
        # for l < m the triple product matches only where T = S = 0
        m, n = 3, 2
        alg = gl(m, n)
        d = case2_decompose(1, 2, 2, 1, m, n)
        assert d.pieces["both"] != d.pieces["product"]
        rng = random.Random(14)
        for _ in range(3):
            lam = constrained_weight(alg, [(1, 2)], rng)
            # impose T(lam) = S(lam) = 0 on top of the hyperplane
            coords = list(lam.coords)
            r_w = alg.rho
            # T = (lam+rho, eps1-eps2): set l2; S = (lam+rho, (d1-d2)^vee): set l4
            coords[1] = coords[0] + r_w.coords[0] - r_w.coords[1]
            coords[3] = coords[4] + r_w.coords[4] - r_w.coords[3]
            coords[0] = -r_w.coords[0] - coords[4] - r_w.coords[4]
            coords[1] = coords[0] + r_w.coords[0] - r_w.coords[1]
            lam = Weight(m, n, coords)
            assert Hyperplane(d.gamma).member(lam)
            assert eval_at(d.indeterminates["T"], lam) == 0
            assert eval_at(d.indeterminates["S"], lam) == 0
            v = vacuum(alg, lam)
            assert act(d.pieces["both"], v) == act(d.pieces["product"], v)

    def test_gl33_sampled_T_values(self):
        m, n = 3, 3
        d = case2_decompose(1, 3, 3, 1, m, n)
        assert d.theta.body == case2_assembled(d)  # exact here as well
        alg = gl(m, n)
        seen = set()
        for lam in sample_hyperplane(Hyperplane(d.gamma), 21, 5):
            t_val = eval_at(d.indeterminates["T"], lam)
            seen.add(t_val)
            v = vacuum(alg, lam)
            lhs = d.theta.verma_vector(lam)
            rhs = act(case2_assembled(d), v)
            assert lhs == rhs
        assert len(seen) >= 4  # genuinely distinct indeterminate values

    def test_indeterminate_evaluations(self):
        # T(lam) = (lam+rho, alpha_1) and S(lam) = (lam+rho, alpha_2^vee)
        m, n = 3, 2
        alg = gl(m, n)
        d = case2_decompose(1, 2, 2, 1, m, n)
        rng = random.Random(3)
        for _ in range(4):
            lam = Weight(m, n, [Fraction(rng.randint(-9, 9)) for _ in range(5)])
            lr = lam + alg.rho
            a1 = Weight.eps(m, n, 1) - Weight.eps(m, n, 2)
            a2 = Weight.delta(m, n, 1) - Weight.delta(m, n, 2)
            assert eval_at(d.indeterminates["T"], lam) == bilinear_form(lr, a1)
            assert eval_at(d.indeterminates["S"], lam) == -bilinear_form(lr, a2)


def seeded_vanishing_family(alg, count, seed):
    """Weights with at least two vanishing odd pairings, mixing patterns that
    do and do not create cover relations."""
    rng = random.Random(seed)
    out = []
    pairs_all = [(r, s) for r in range(1, alg.m + 1) for s in range(1, alg.n + 1)]
    max_k = min(alg.m, len(pairs_all))
    while len(out) < count:
        k = min(rng.choice([2, 2, 3]), max_k)
        pairs = rng.sample(pairs_all, k)
        if len({r for r, _ in pairs}) != len(pairs):
            continue  # one eps coordinate cannot satisfy two constraints
        lam = constrained_weight(alg, pairs, rng)
        if len(b_lambda(alg, lam)) >= 2:
            out.append(lam)
    return out


class TestIndependence:
    def test_generic_weight_has_empty_b(self):
        alg = gl(2, 2)
        lam = Weight(2, 2, [5, 1, Fraction(1, 3), 7])
        assert b_lambda(alg, lam) == []

    @pytest.mark.parametrize("m,n,seed", [(2, 2, 41), (3, 2, 42), (2, 1, 43)])
    def test_minimal_iff_independent(self, m, n, seed):
        alg = gl(m, n)
        found_nonminimal = False
        for lam in seeded_vanishing_family(alg, 10, seed):
            for gamma in b_lambda(alg, lam):
                mn = is_minimal(alg, gamma, lam)
                ind = is_independent(alg, gamma, lam)
                assert mn == ind, (lam, root_to_str(alg, gamma))
                found_nonminimal = found_nonminimal or not mn
        assert found_nonminimal  # the family exercises both directions

    def test_covers_stay_in_b_lambda(self):
        alg = gl(3, 2)
        for lam in seeded_vanishing_family(alg, 5, 7):
            blam = b_lambda(alg, lam)
            for gamma in blam:
                for gp in bruhat_covers(alg, gamma, lam):
                    assert gp in blam

    def test_requires_vanishing_root(self):
        alg = gl(2, 2)
        lam = Weight(2, 2, [5, 1, Fraction(1, 3), 7])
        with pytest.raises(ValueError):
            is_minimal(alg, Weight.eps(2, 2, 1) - Weight.delta(2, 2, 1), lam)

    def test_dimension_cap(self):
        alg = gl(4, 3)
        with pytest.raises(ValueError):
            is_independent(alg, Weight.eps(4, 3, 1) - Weight.delta(4, 3, 1), Weight.zero(4, 3))


class TestMinimalCoefficient:
    def test_nonvanishing_for_minimal(self):
        # the plain lowering generator appears with nonzero coefficient in the
        # odd-last basis whenever the root is minimal
        for m, n, seed in [(2, 2, 3), (3, 2, 4)]:
            alg = gl(m, n)
            checked = 0
            for lam in seeded_vanishing_family(alg, 5, seed):
                for gamma in b_lambda(alg, lam):
                    if not is_minimal(alg, gamma, lam):
                        continue
                    from shapovalov.construct import _gamma_indices

                    r, s = _gamma_indices(alg, gamma)
                    v = theta_odd_alg(alg, r, s, "odd-last").verma_vector(lam)
                    coeff = ordered_basis_coefficient(alg, gamma, v, "last")
                    assert coeff != 0
                    checked += 1
            assert checked


class TestKacCoefficient:
    def test_gl11_trivial(self):
        assert kac_coefficient(1, 1, 1, 1, Weight(1, 1, [3, 3])) == 1

    def test_gl22_formula(self):
        lam = Weight(2, 2, [4, 2, -1, 5])
        r_w = rho(2, 2)
        expected = (
            bilinear_form(lam + r_w, Weight.delta(2, 2, 1) - Weight.delta(2, 2, 2)) + 1
        )
        assert kac_coefficient(2, 2, 2, 2, lam) == expected
        # for (r,s) = (2,1) both products are empty
        assert kac_coefficient(2, 1, 2, 2, lam) == 1

    def test_matches_expansion_random(self):
        rng = random.Random(19)
        for m, n in [(2, 2), (3, 2)]:
            for _ in range(4):
                lam = Weight(m, n, [Fraction(rng.randint(-7, 7)) for _ in range(m + n)])
                r = rng.randint(1, m)
                s = rng.randint(1, n)
                kac_coefficient(r, s, m, n, lam)  # internal assertion is the test

    def test_dominant_instances_nonzero(self):
        # lambda and lambda - gamma dominant with (lam+rho, gamma) = 0 force a
        # nonzero coefficient
        instances = []
        for m, n in [(2, 2), (3, 2)]:
            alg = gl(m, n)
            r_w = alg.rho
            for r in range(1, m + 1):
                for s in range(1, n + 1):
                    gamma = Weight.eps(m, n, r) - Weight.delta(m, n, s)
                    for base in range(8, 16):
                        eps_part = [Fraction(base + 2 * (m - i)) for i in range(1, m + 1)]
                        del_part = [Fraction(-base + 2 * (n - j)) for j in range(1, n + 1)]
                        lam = Weight(m, n, eps_part + del_part)
                        # adjust the delta_s coordinate to land on the hyperplane
                        c = bilinear_form(lam + r_w, gamma)
                        coords = list(lam.coords)
                        coords[m + s - 1] -= c
                        lam = Weight(m, n, coords)
                        if not (
                            is_dominant_even(alg, lam)
                            and is_dominant_even(alg, lam - gamma)
                        ):
                            continue
                        assert bilinear_form(lam + r_w, gamma) == 0
                        instances.append((r, s, m, n, lam))
        assert len(instances) >= 10
        for r, s, m, n, lam in instances[:12]:
            assert kac_coefficient(r, s, m, n, lam) != 0
