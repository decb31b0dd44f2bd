import random
from fractions import Fraction
from itertools import combinations_with_replacement

from shapovalov.exact_algebra import Hyperplane, Poly, Weight, sample_hyperplane
from shapovalov.pbw import DISTINGUISHED, BorelOrder, gl, normal_order
from shapovalov.verma import (
    act,
    coefficients_in_word_basis,
    is_highest_weight,
    solve_in_span,
    vacuum,
    weight_basis,
)
from shapovalov.construct import theta_gl


def rand_weight(rng, m, n):
    return Weight(m, n, [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(m + n)])


class TestAct:
    def test_raising_kills_vacuum(self):
        alg = gl(2, 0)
        lam = Weight(2, 0, [3, 1])
        assert act([(1, 2)], vacuum(alg, lam)).is_zero()

    def test_sl2_eigenvalue(self):
        alg = gl(2, 0)
        lam = Weight(2, 0, [3, 1])
        v = act([(2, 1)], vacuum(alg, lam))
        w = act([(1, 2)], v)
        # (lam, alpha_1) = 2
        assert w.terms == {(): Fraction(2)}

    def test_single_bracket(self):
        alg = gl(3, 0)
        lam = Weight(3, 0, [0, 0, 0])
        v = act([(3, 1)], vacuum(alg, lam))
        w = act([(1, 2)], v)
        assert w.terms == {((3, 2, 1),): Fraction(-1)}

    def test_weight_respected(self):
        alg = gl(2, 2)
        rng = random.Random(3)
        gens = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
        lam = rand_weight(rng, 2, 2)
        for _ in range(30):
            word = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 4))]
            v = act(word, vacuum(alg, lam))
            if v.is_zero():
                continue
            expected = lam
            for g in word:
                expected = expected + alg.gen_weight(*g)
            assert v.weight() == expected

    def test_act_is_action(self):
        alg = gl(2, 2)
        rng = random.Random(5)
        gens = [(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]
        lam = rand_weight(rng, 2, 2)
        # Cartan atoms give x and y non-constant Cartan parts, which the
        # product and the action move by weight shifts
        carts = [Poly.x(k) for k in range(1, 5)] + [Poly.x(1) - Poly.x(3) + 2, Poly.x(2) + Poly.x(4)]
        for order in (DISTINGUISHED, BorelOrder((1, 3, 2, 4))):
            for _ in range(100):
                wx = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 2))]
                wy = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 2))]
                wv = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(0, 2))]
                for w in (wx, wy):
                    if rng.random() < 0.5:
                        w.insert(rng.randint(0, len(w)), rng.choice(carts))
                v = act(wv, vacuum(alg, lam, order))
                x = normal_order(alg, wx)
                y = normal_order(alg, wy)
                assert act(x, act(y, v)) == act(x * y, v)


def brute_force_partitions(alg, drop):
    """Multisets of positive roots summing to drop, counted directly."""
    roots = alg.positive_roots()
    count = 0
    max_mult = sum(abs(c) for c in drop.coords)

    def rec(idx, remaining):
        nonlocal count
        if remaining.is_zero():
            count += 1
            return
        if idx == len(roots):
            return
        w, (i, j) = roots[idx]
        cap = 1 if alg.gen_parity(i, j) else int(max_mult)
        cur = remaining
        rec(idx + 1, remaining)
        for _ in range(cap):
            cur = cur - w
            if any(c.denominator != 1 for c in cur.coords):
                break
            if sum(abs(c) for c in cur.coords) > sum(abs(c) for c in remaining.coords):
                break
            rec(idx + 1, cur)

    rec(0, drop)
    return count


class TestWeightBasis:
    def test_simple_root(self):
        alg = gl(3, 0)
        lam = Weight.zero(3, 0)
        alpha = Weight.eps(3, 0, 1) - Weight.eps(3, 0, 2)
        assert weight_basis(alg, lam, alpha) == [((2, 1, 1),)]

    def test_gl3_top_root(self):
        alg = gl(3, 0)
        drop = Weight.eps(3, 0, 1) - Weight.eps(3, 0, 3)
        basis = weight_basis(alg, Weight.zero(3, 0), drop)
        assert len(basis) == 2
        assert ((3, 1, 1),) in basis
        assert ((2, 1, 1), (3, 2, 1)) in basis

    def test_gl22_odd_drop(self):
        alg = gl(2, 2)
        drop = Weight.eps(2, 2, 1) - Weight.delta(2, 2, 2)
        assert len(weight_basis(alg, Weight.zero(2, 2), drop)) == 4

    def test_outside_cone(self):
        alg = gl(2, 2)
        assert weight_basis(alg, Weight.zero(2, 2), Weight.eps(2, 2, 1)) == []
        bad = Weight.eps(2, 2, 2) - Weight.eps(2, 2, 1)
        assert weight_basis(alg, Weight.zero(2, 2), bad) == []

    def test_counts_match_brute_force(self):
        for alg in (gl(3, 0), gl(2, 2)):
            simples = [w for w, _ in alg.simple_root_data()]
            lam = Weight.zero(alg.m, alg.n)
            seen = 0
            for ht in range(1, 6):
                for combo in combinations_with_replacement(range(len(simples)), ht):
                    drop = Weight.zero(alg.m, alg.n)
                    for k in combo:
                        drop = drop + simples[k]
                    assert len(weight_basis(alg, lam, drop)) == brute_force_partitions(alg, drop)
                    seen += 1
            assert seen > 0


class TestHighestWeight:
    def test_vacuum(self):
        alg = gl(2, 2)
        assert is_highest_weight(vacuum(alg, Weight(2, 2, [1, 2, 3, 4])))

    def test_lowered_vector(self):
        alg = gl(2, 0)
        lam = Weight(2, 0, [3, 1])  # (lam, alpha_1) = 2 != 0
        v = act([(2, 1)], vacuum(alg, lam))
        assert not is_highest_weight(v)

    def test_theta_gl4_on_hyperplane(self):
        theta = theta_gl(4)
        for lam in sample_hyperplane(theta.hyperplane(), seed=42, count=10):
            v = theta.verma_vector(lam)
            assert not v.is_zero()
            assert is_highest_weight(v)


class TestLinearAlgebra:
    def test_solve_in_span(self):
        vs = [[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]]
        sol = solve_in_span(vs, [Fraction(3), Fraction(2)])
        assert sol == [Fraction(1), Fraction(2)]
        assert solve_in_span([[Fraction(1), Fraction(0)]], [Fraction(0), Fraction(1)]) is None

    def test_coefficients_in_word_basis(self):
        alg = gl(3, 0)
        lam = Weight(3, 0, [2, 1, 0])
        words = [((3, 1),), ((3, 2), (2, 1))]
        target = act([(3, 1)], vacuum(alg, lam)) + Fraction(5) * act(
            [(3, 2), (2, 1)], vacuum(alg, lam)
        )
        assert coefficients_in_word_basis(target, words) == [Fraction(1), Fraction(5)]
