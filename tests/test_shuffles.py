from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from shapovalov.exact_algebra import Poly, Weight, bilinear_form, eval_at, h_of_weight, rho
from shapovalov.pbw import gl, superbracket, UEAElement
from shapovalov.shuffles import (
    Shuffle,
    diagram_data,
    enumerate_shuffles,
    eta_weight,
    simple_roots,
    supertrace_pairing,
)


class TestShuffleWords:
    def test_parse_and_str(self):
        s = Shuffle.parse(2, 2, "1 1' 2 2'")
        assert s.word == (1, 3, 2, 4)
        assert str(s) == "1 1' 2 2'"
        assert Shuffle.parse(2, 2, str(s)) == s

    def test_shuffle_condition(self):
        with pytest.raises(ValueError):
            Shuffle(2, 2, (2, 1, 3, 4))  # 1..m out of order
        with pytest.raises(ValueError):
            Shuffle(2, 2, (1, 4, 2, 3))  # primed out of order

    def test_enumerate_gl22(self):
        words = enumerate_shuffles(2, 2)
        assert [str(s) for s in words] == ["1 2 1' 2'", "1 1' 2 2'"]

    def test_enumerate_counts(self):
        assert len(enumerate_shuffles(4, 3)) == comb(5, 3)
        for m, n in [(2, 2), (3, 2), (2, 3), (4, 2), (5, 1)]:
            assert len(enumerate_shuffles(m, n)) == comb(m + n - 2, m - 1)

    def test_enumeration_order(self):
        # the words of all unprimed position sets in lexicographic order,
        # filtered to the endpoint-fixed ones
        for m in range(1, 8):
            for n in range(1, 9 - m):
                every = []
                for positions in combinations(range(m + n), m):
                    unprimed, primed = iter(range(1, m + 1)), iter(range(m + 1, m + n + 1))
                    every.append(Shuffle(m, n, [next(unprimed) if k in positions else next(primed)
                                                for k in range(m + n)]))
                assert enumerate_shuffles(m, n, fixed_endpoints=False) == every
                assert enumerate_shuffles(m, n) == [w for w in every if w.word[0] == 1 and w.word[-1] == m + n]

    def test_n_equals_one(self):
        words = enumerate_shuffles(4, 1)
        assert words == [Shuffle.distinguished(4, 1)]


class TestSimpleRoots:
    def test_distinguished(self):
        s = Shuffle.distinguished(2, 2)
        roots = simple_roots(s)
        expected = [
            (Weight.eps(2, 2, 1) - Weight.eps(2, 2, 2), 0),
            (Weight.eps(2, 2, 2) - Weight.delta(2, 2, 1), 1),
            (Weight.delta(2, 2, 1) - Weight.delta(2, 2, 2), 0),
        ]
        assert [(r, p) for r, p, _ in roots] == expected

    def test_worked_example_gl43(self):
        s = Shuffle.parse(4, 3, "1 1' 2 3 4 2' 3'")
        roots = [r for r, _, _ in simple_roots(s)]
        W = lambda kind, i: Weight.eps(4, 3, i) if kind == "e" else Weight.delta(4, 3, i)
        expected = [
            W("e", 1) - W("d", 1),
            W("d", 1) - W("e", 2),
            W("e", 2) - W("e", 3),
            W("e", 3) - W("e", 4),
            W("e", 4) - W("d", 2),
            W("d", 2) - W("d", 3),
        ]
        assert roots == expected

    def test_roots_sum_to_eta(self):
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            for s in enumerate_shuffles(m, n):
                total = Weight.zero(m, n)
                for r, _, _ in simple_roots(s):
                    total = total + r
                assert total == eta_weight(m, n)


class TestDiagramData:
    def test_d_endpoints(self):
        for m, n in [(1, 1), (2, 2), (3, 2), (2, 3), (4, 2), (1, 5), (3, 3), (5, 1)]:
            eta = eta_weight(m, n)
            r = rho(m, n)
            for s in enumerate_shuffles(m, n):
                data = diagram_data(s)
                assert data.d[0] == 0
                assert data.d[-1] == -bilinear_form(r, eta)

    def test_d_recurrence(self):
        for s in enumerate_shuffles(3, 2) + enumerate_shuffles(2, 3):
            data = diagram_data(s)
            for k in range(1, len(data.d)):
                step = -1 if data.i_left[k + 1] % 2 else 1
                assert data.d[k] == data.d[k - 1] - step

    def test_h_sums_to_h_eta(self):
        for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            target = h_of_weight(eta_weight(m, n))
            for s in enumerate_shuffles(m, n):
                assert diagram_data(s).s[-1] == target

    def test_gram_matrix_matches_form(self):
        for m, n in [(2, 2), (3, 2)]:
            alg = gl(m, n)
            for s in enumerate_shuffles(m, n):
                data = diagram_data(s)
                for a in range(len(data.roots)):
                    for b in range(len(data.roots)):
                        assert supertrace_pairing(alg, data.h[a], data.h[b]) == bilinear_form(
                            data.roots[a], data.roots[b]
                        )

    def test_odd_bracket_sign(self):
        # [e_alpha, e_-alpha] = (-1)^{i(k)} h_k for odd nodes
        for m, n in [(2, 2), (3, 2)]:
            alg = gl(m, n)
            for s in enumerate_shuffles(m, n):
                data = diagram_data(s)
                for k, (parity, (a, b)) in enumerate(zip(data.parities, data.neighbors), start=1):
                    if not parity:
                        continue
                    br = superbracket(alg, (a, b), (b, a))
                    sign = -1 if data.i_left[k] % 2 else 1
                    assert br == UEAElement(alg, {((), ()): data.h[k - 1] * sign})

    def test_odd_node_count_is_odd(self):
        for m, n in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            for s in enumerate_shuffles(m, n):
                assert sum(p for _, p, _ in simple_roots(s)) % 2 == 1

    def test_t_defined_off_initial_entry(self):
        for s in enumerate_shuffles(3, 3):
            data = diagram_data(s)
            assert set(data.t) == set(s.word[1:])

    def test_rejects_unfixed_endpoints(self):
        s = Shuffle(2, 2, (3, 1, 2, 4))  # starts with 1'
        with pytest.raises(ValueError):
            diagram_data(s)

    def test_distinguished_t_values(self):
        # for the distinguished word the t-values recover the classical
        # coefficients on the eps side
        s = Shuffle.distinguished(3, 2)
        data = diagram_data(s)
        m, n = 3, 2
        r = rho(m, n)
        for p in range(2, m + 1):
            sigma = Weight.eps(m, n, 1) - Weight.eps(m, n, p)
            expected = h_of_weight(sigma) + Poly.const(bilinear_form(r, sigma) - 1)
            assert data.t[p] == expected
