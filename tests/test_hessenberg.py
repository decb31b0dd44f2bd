import json
import random
from fractions import Fraction
from itertools import combinations

import pytest

from shapovalov.exact_algebra import (
    Hyperplane,
    Poly,
    Weight,
    bilinear_form,
    eval_at,
    h_of_weight,
    rho,
    sample_hyperplane,
)
from shapovalov.hessenberg import (
    HessenbergMatrix,
    build_A_rs,
    build_B_rs,
    build_D,
    build_E,
    build_F_j,
    build_G_j,
    det_lr,
    skip_coeff,
    split_at,
)
from shapovalov.pbw import UEAElement, gl, normal_order
from shapovalov.construct import theta_gl, theta_glmn_distinguished, theta_odd_alg


def oracle_det(B):
    """Independent oracle: recursive cofactor expansion down the first column.

    Only rows 1 and 2 can hit column 1 of a Hessenberg matrix; the chosen
    entry multiplies the minor determinant from the left, preserving the
    column order of the remaining factors.
    """
    alg = B.alg
    if B.order == 1:
        return B.entries.get((1, 1), UEAElement.zero(alg))
    out = UEAElement.zero(alg)
    top = B.entries.get((1, 1))
    if top is not None:
        out = out + top * oracle_det(_strip(B, 1, 1))
    sub = B.sub.get(1)
    if sub is not None:
        out = out - oracle_det(_strip(B, 2, 1)).scale_central(sub)
    return out


def subset_det(B):
    """Independent oracle: the sum over the sets S of subdiagonal columns,
    each term the ordered product of the chosen entries with the central
    product of the chosen subdiagonal entries and the sign (-1)^|S|."""
    n, alg = B.order, B.alg
    out = UEAElement.zero(alg)
    for size in range(n):
        for S in combinations(range(1, n), size):
            central = Poly.one()
            prod = UEAElement.one(alg)
            small_row = 1
            for col in range(1, n + 1):
                if col in S:
                    central = central * B.sub.get(col, Poly.zero())
                else:
                    prod = prod * B.entries.get((small_row, col), UEAElement.zero(alg))
                    small_row = col + 1
            out = out + prod.scale_central(central) * (-1) ** len(S)
    return out


def _strip(B, row, col):
    entries = {}
    sub = {}
    for (i, j), v in B.entries.items():
        if i == row or j == col:
            continue
        entries[(i - (i > row), j - (j > col))] = v
    for q, p in B.sub.items():
        i, j = q + 1, q
        if i == row or j == col:
            continue
        ni, nj = i - (i > row), j - (j > col)
        if ni == nj + 1:
            sub[nj] = p
        else:
            raise AssertionError("minor left the Hessenberg shape")
    return HessenbergMatrix(B.alg, B.order - 1, entries, sub)


def random_hessenberg(alg, order, rng, poly_sub=True):
    gens = [(i, j) for i in range(1, alg.N + 1) for j in range(1, alg.N + 1) if i > j]
    entries = {}
    for i in range(1, order + 1):
        for j in range(i, order + 1):
            a = normal_order(alg, [gens[rng.randrange(len(gens))]])
            b = normal_order(alg, [gens[rng.randrange(len(gens))]])
            entries[(i, j)] = a + b * Fraction(rng.randint(-3, 3))
    sub = {}
    for q in range(1, order):
        if poly_sub:
            sub[q] = Poly.x(rng.randint(1, alg.N)) + Poly.const(rng.randint(-4, 4))
        else:
            sub[q] = Poly.const(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
    return HessenbergMatrix(alg, order, entries, sub)


class TestDetBasics:
    def test_1x1(self):
        alg = gl(3, 0)
        a = normal_order(alg, [(2, 1)])
        B = HessenbergMatrix(alg, 1, {(1, 1): a}, {})
        assert det_lr(B) == a

    def test_2x2_sign_absorption(self):
        # [[a, b], [-c, d]] -> a d + c b
        alg = gl(4, 0)
        a, b, d = (normal_order(alg, [g]) for g in [(2, 1), (3, 1), (4, 3)])
        c = Poly.const(5)
        B = HessenbergMatrix(alg, 2, {(1, 1): a, (1, 2): b, (2, 2): d}, {1: -c})
        assert det_lr(B) == a * d + (b * Fraction(5))

    def test_gl3_shape(self):
        # [[e32, e31], [-a1, e21]] -> e32 e21 + a1 e31
        alg = gl(3, 0)
        a1 = Poly.x(1) - Poly.x(2)
        B = HessenbergMatrix(
            alg,
            2,
            {(1, 1): normal_order(alg, [(3, 2)]), (1, 2): normal_order(alg, [(3, 1)]),
             (2, 2): normal_order(alg, [(2, 1)])},
            {1: -a1},
        )
        expected = normal_order(alg, [(3, 2), (2, 1)]) + normal_order(alg, [(3, 1)]).scale_central(a1)
        assert det_lr(B) == expected

    def test_matches_cofactor_oracle(self):
        alg = gl(2, 2)
        rng = random.Random(17)
        for order in (2, 3, 4, 5):
            for _ in range(4):
                B = random_hessenberg(alg, order, rng)
                assert det_lr(B) == oracle_det(B)

    def test_matches_subset_sum(self):
        mats = [build_D(m) for m in range(2, 9)] + [build_E(m) for m in range(2, 7)]
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            for r in range(1, m + 1):
                for s in range(1, n + 1):
                    mats += [build_A_rs(r, s, m, n), build_B_rs(r, s, m, n)]
                    mats += [f(r, s, m, n, j) for f in (build_F_j, build_G_j) for j in range(1, s + 1)]
        rng = random.Random(5)
        mats += [random_hessenberg(gl(2, 2), order, rng, poly) for order in (1, 2, 3, 5) for poly in (True, False)]
        for B in mats:
            want = subset_det(B)
            assert det_lr(B) == want
            if B.order <= 6:
                assert oracle_det(B) == want

    def test_positive_entry_raises(self):
        alg = gl(2, 0)
        up = normal_order(alg, [(1, 2)])
        B = HessenbergMatrix(alg, 2, {(1, 1): up, (1, 2): up, (2, 2): up}, {1: Poly.x(1)})
        with pytest.raises(ValueError, match="positive parts"):
            det_lr(B)

    def test_dense_term_count(self):
        # a dense order-n Hessenberg determinant has 2^(n-1) supported terms;
        # pairwise-disjoint generator entries keep them from colliding
        order = 4
        alg = gl(20, 0)
        picks = iter((2 * k, 2 * k - 1) for k in range(1, 11))
        entries = {
            (i, j): normal_order(alg, [next(picks)])
            for i in range(1, order + 1)
            for j in range(i, order + 1)
        }
        sub = {q: Poly.const(q + 1) for q in range(1, order)}
        B = HessenbergMatrix(alg, order, entries, sub)
        assert len(det_lr(B).terms) == 2 ** (order - 1)


class TestSplit:
    def test_split_identity_random(self):
        alg = gl(2, 2)
        rng = random.Random(23)
        for _ in range(50):
            B = random_hessenberg(alg, 4, rng)
            q = rng.randint(1, 3)
            T, bpp, bp = split_at(B, q)
            assert det_lr(B) == det_lr(bpp).scale_central(T) + det_lr(bp)

    def test_split_triangular(self):
        alg = gl(2, 2)
        rng = random.Random(2)
        full = random_hessenberg(alg, 3, rng)
        sub = {q: p for q, p in full.sub.items() if q != 2}  # T = 0 at the last position
        B = HessenbergMatrix(alg, 3, full.entries, sub)
        T, bpp, bp = split_at(B, 2)
        assert T.is_zero()
        assert det_lr(B) == det_lr(bp)

    def test_split_2x2_example(self):
        alg = gl(4, 0)
        a, b, d = (normal_order(alg, [g]) for g in [(2, 1), (3, 1), (4, 3)])
        B = HessenbergMatrix(alg, 2, {(1, 1): a, (1, 2): b, (2, 2): d}, {1: Poly.const(-5)})
        T, bpp, bp = split_at(B, 1)
        assert T == Poly.const(5)
        assert det_lr(bpp) == b
        assert bpp.order == 1

    def test_split_range(self):
        alg = gl(2, 2)
        B = random_hessenberg(alg, 3, random.Random(0))
        with pytest.raises(ValueError):
            split_at(B, 3)


class TestBuilders:
    def test_D_first_row(self):
        m = 5
        D = build_D(m)
        for j in range(1, m):
            assert D.entries[(1, j)] == UEAElement.gen(gl(m, 0), m, m - j)

    def test_E_subdiagonal_values(self):
        m = 5
        mu = Weight(m, 0, [3, 1, 0, -2, 4])
        E = build_E(m).evaluate(mu)
        D = build_D(m).evaluate(mu)
        # E runs -c_1..-c_{m-2} downward, D runs -a_{m-2}..-a_1; c_q = a_q + 1
        for q in range(1, m - 1):
            assert E.sub[q] == D.sub[m - 1 - q] - Poly.one()

    def test_A_order_and_A_rs_top(self):
        m, n = 3, 2
        lam = Weight(m, n, [1, 0, 2, -1, 3])
        A = build_A_rs(1, n, m, n).evaluate(lam)
        assert A.order == m + n - 1
        Ars = build_A_rs(2, 2, m, n).evaluate(lam)
        from shapovalov.exact_algebra import bilinear_form, rho

        # top subdiagonal entry is -A_{m+s-2}
        top = Ars.sub[1]
        expected = -(bilinear_form(lam + rho(m, n), Weight.delta(m, n, 1) - Weight.delta(m, n, 2)))
        assert top == Poly.const(expected)

    def test_F_G_shapes(self):
        F = build_F_j(1, 2, 2, 2, 1)
        G = build_G_j(1, 2, 2, 2, 1)
        assert F.order == G.order == 2
        assert F.entries[(1, 1)] == UEAElement.gen(gl(2, 2), 3, 2)
        assert G.entries[(1, 2)] == UEAElement.gen(gl(2, 2), 3, 1)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            build_A_rs(3, 1, 2, 2)
        with pytest.raises(ValueError):
            build_F_j(1, 2, 2, 2, 3)
        with pytest.raises(ValueError):
            build_D(1)

    @pytest.mark.parametrize("i, j, p, ordering", [
        (1, 3, 0, "standard"), (1, 5, 6, "middle"),  # skipped index outside the interval
        (0, 5, 2, "odd-last"), (4, 6, 5, "bform"),   # interval outside gl(3,2)
    ])
    def test_coefficient_index_range(self, i, j, p, ordering):
        # an index outside its interval is refused, not read as another coordinate
        with pytest.raises(ValueError, match="out of range for gl"):
            skip_coeff(gl(3, 2), i, j, p, ordering)


def _skip_coeff(m, n, root, shift):
    """h_root + (rho, root) + shift, the paper's coefficient for a skipped index."""
    return h_of_weight(root) + Poly.const(bilinear_form(rho(m, n), root) + shift)


def _odd_skip(m, n, r, s, idx, shifts):
    """The coefficient of index idx for eps_r - delta_s: eps_r - eps_{idx+1}
    on the eps side, delta_{idx+1-m} - delta_s on the delta side."""
    if idx < m:
        return _skip_coeff(m, n, Weight.eps(m, n, r) - Weight.eps(m, n, idx + 1), shifts[0])
    return _skip_coeff(m, n, Weight.delta(m, n, idx + 1 - m) - Weight.delta(m, n, s), shifts[1])


MIDDLE, BFORM = (-1, 0), (0, 1)


def reference_matrix(m, n, order, entry, sub):
    """The matrix with b_{ij} = e_{entry(i, j)} for i <= j and b_{q+1,q} = sub(q)."""
    alg = gl(m, n)
    entries = {(i, j): UEAElement.gen(alg, *entry(i, j))
               for i in range(1, order + 1) for j in range(i, order + 1)}
    return HessenbergMatrix(alg, order, entries, {q: sub(q) for q in range(1, order)})


def reference_builders(max_rank):
    """Each builder with the matrix its explicit formulas give, for every
    valid r, s and j with m+n <= max_rank."""
    eps = lambda m, a, b: Weight.eps(m, 0, a) - Weight.eps(m, 0, b)
    for m in range(2, max_rank + 1):
        yield build_D(m), reference_matrix(
            m, 0, m - 1, lambda i, j: (m + 1 - i, m - j),
            lambda q: -_skip_coeff(m, 0, eps(m, 1, m - q), -1))
        yield build_E(m), reference_matrix(
            m, 0, m - 1, lambda i, j: (j + 1, i),
            lambda q: -_skip_coeff(m, 0, eps(m, 1, q + 1), 0))
    for m in range(1, max_rank):
        for n in range(1, max_rank - m + 1):
            for r in range(1, m + 1):
                for s in range(1, n + 1):
                    top = m + s
                    yield build_A_rs(r, s, m, n), reference_matrix(
                        m, n, top - r, lambda i, j: (top + 1 - i, top - j),
                        lambda q: -_odd_skip(m, n, r, s, top - 1 - q, MIDDLE))
                    yield build_B_rs(r, s, m, n), reference_matrix(
                        m, n, top - r, lambda i, j: (r + j, r + i - 1),
                        lambda q: -_odd_skip(m, n, r, s, r + q - 1, BFORM))
                    order = m - r + 1
                    for k in range(1, s + 1):
                        yield build_F_j(r, s, m, n, k), reference_matrix(
                            m, n, order, lambda i, col: (m + k if i == 1 else m + 2 - i, m + 1 - col),
                            lambda q: -_odd_skip(m, n, r, s, m - q, MIDDLE))
                        yield build_G_j(r, s, m, n, k), reference_matrix(
                            m, n, order, lambda i, col: (r + col if col < order else m + k, r + i - 1),
                            lambda q: -_odd_skip(m, n, r, s, r + q - 1, BFORM))


class TestReferenceBuilders:
    def test_builders_match_explicit_formulas(self):
        count = 0
        for B, ref in reference_builders(7):
            assert (B.alg, B.order) == (ref.alg, ref.order)
            assert B.entries == ref.entries
            assert B.sub == ref.sub
            count += 1
        assert count == 2 * 6 + 2 * 126 + 2 * 252


class TestEquivalences:
    def test_DE_m2(self):
        D, E = build_D(2), build_E(2)
        e21 = UEAElement.gen(gl(2, 0), 2, 1)
        assert det_lr(D) == det_lr(E) == e21

    def test_DE_symbolic_m4_and_lemma(self):
        m = 4
        D, E = build_D(m), build_E(m)
        assert det_lr(D) == det_lr(E)
        alg = D.alg
        order = E.order
        # cofactors of e_{m,m-1} (delete last row+col) and of -c_{m-2}
        e1_entries = {k: v for k, v in E.entries.items() if k[0] < order and k[1] < order}
        e1_sub = {q: p for q, p in E.sub.items() if q < order - 1}
        E1 = HessenbergMatrix(alg, order - 1, e1_entries, e1_sub)
        _, E2, _ = split_at(E, order - 1)
        last = UEAElement.gen(alg, m, m - 1)
        d1, d2 = det_lr(E1), det_lr(E2)
        assert d1 * last - last * d1 == -d2

    def test_DE_random_mu_m5(self):
        rng = random.Random(31)
        for _ in range(5):
            mu = Weight(5, 0, [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(5)])
            assert det_lr(build_D(5).evaluate(mu)) == det_lr(build_E(5).evaluate(mu))

    def test_FG_gl22_all_j(self):
        for j in (1, 2):
            F = build_F_j(1, 2, 2, 2, j)
            G = build_G_j(1, 2, 2, 2, j)
            assert det_lr(F) == det_lr(G)

    def test_FG_gl32(self):
        for j in (1, 2):
            F = build_F_j(1, 2, 3, 2, j)
            G = build_G_j(1, 2, 3, 2, j)
            assert det_lr(F) == det_lr(G)

    def test_evaluated_matrix(self):
        m = 4
        theta = theta_gl(m)
        for mu in sample_hyperplane(theta.hyperplane(), 11, 2):
            assert det_lr(build_D(m).evaluate(mu)) == theta.evaluate(mu)


class TestIO:
    def test_json_grid(self):
        B = build_D(3)
        data = json.loads(json.dumps(B.to_json()))
        assert data["order"] == 2
        assert data["grid"][1][0]["central"] is not None

    def test_latex(self):
        tex = build_E(3).latex()
        assert "begin{bmatrix}" in tex and "e_{2,1}" in tex
