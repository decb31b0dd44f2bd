import random
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shapovalov import pbw, verma
from shapovalov.exact_algebra import Hyperplane, Poly, Weight, eval_at, generic_point, sample_hyperplane
from shapovalov.pbw import DISTINGUISHED, PBWOrder, UEAElement, gl, normal_order
from shapovalov.verma import (
    VermaVector,
    act,
    coefficients_in_word_basis,
    is_highest_weight,
    solve_in_span,
    vacuum,
    weight_basis,
)
from shapovalov.construct import (
    theta_borel,
    theta_for_root,
    theta_gl,
    theta_glmn_distinguished,
    theta_odd_alg,
    theta_power,
)
from shapovalov.shuffles import Shuffle, enumerate_shuffles
from test_pbw import reference_straightener


def rand_weight(rng, m, n):
    return Weight(m, n, [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(m + n)])


COPRIME = (7, 11, 97)  # pairwise coprime, so common denominators grow to their products


def coprime_weight(rng, m, n):
    return Weight(m, n, [Fraction(rng.randint(-99, 99), rng.choice(COPRIME)) for _ in range(m + n)])


class TestAct:
    @pytest.mark.parametrize("g", [(4, 4), (0, 0), (4, 1), (1, 4), (0, 2), (4, 5)])
    def test_generator_outside_the_algebra_is_refused(self, g):
        """A generator outside gl(2,1), diagonal or not, raises ValueError
        naming it and the algebra, in the action and in normal ordering,
        also inside a longer word."""
        alg = gl(2, 1)
        v = act([(2, 1)], vacuum(alg, Weight(2, 1, [3, 1, 2])))
        message = rf"generator \({g[0]}, {g[1]}\) is not in gl\(2,1\)"
        for call in (lambda: act([g], v), lambda: act([(3, 1), g, (2, 1)], v),
                     lambda: normal_order(alg, [g]), lambda: normal_order(alg, [(1, 2), g])):
            with pytest.raises(ValueError, match=message):
                call()

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
        for order in (DISTINGUISHED, PBWOrder((1, 3, 2, 4))):
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


def product_route(x, v):
    """x v by the UEA product: each monomial's word is normal-ordered after x
    (a free word) or multiplied by x (a UEAElement, distinguished order);
    terms with a positive part die on v_lambda and Cartan parts are
    evaluated at lambda."""
    alg, lam, order = v.alg, v.lam, v.order
    out = {}
    for mono, c in v.terms.items():
        word = [(i, j) for i, j, e in mono for _ in range(e)]
        if isinstance(x, UEAElement):
            prod = x * normal_order(alg, word, order=order)
        else:
            prod = normal_order(alg, list(x) + word, order=order)
        for (neg, pos), h in prod.terms.items():
            if not pos:
                out[neg] = out.get(neg, 0) + eval_at(h, lam) * c
    return {k: c for k, c in out.items() if c}


def order_seq(alg, order):
    """The order's word: the indices 1..N in the order its Borel reads them."""
    return order.word or range(1, alg.N + 1)


def order_gens(alg, order):
    """The order's negative generators in its canonical factor order, from
    the word alone: e_ij with i after j, by (place of j, place of i),
    descending for a reverse order."""
    place = {v: k for k, v in enumerate(order_seq(alg, order))}
    return sorted(((i, j) for i in place for j in place if place[i] > place[j]),
                  key=lambda g: (place[g[1]], place[g[0]]), reverse=order.reverse)


def monomial(alg, combo):
    """The canonical monomial of a sorted multiset of negative generators,
    or None when an odd generator repeats."""
    mono = []
    for g in combo:
        if mono and mono[-1][:2] == g:
            mono[-1] = (g[0], g[1], mono[-1][2] + 1)
        else:
            mono.append((g[0], g[1], 1))
    if all(e == 1 or not alg.gen_parity(i, j) for i, j, e in mono):
        return tuple(mono)
    return None


def order_basis(alg, order, drop):
    """Canonical negative monomials of weight -drop for order, by brute force
    over multisets of the order's negative generators, listed by size and
    then lexicographically, as combinations_with_replacement gives them."""
    gens = order_gens(alg, order)
    # a factor e_ij lowers the partial sums of the coordinates, taken in
    # the order's index sequence, by posn(i) - posn(j) >= 1 in total
    seq = order_seq(alg, order)
    partial = [sum(drop.coords[t - 1] for t in seq[:k]) for k in range(1, alg.N)]
    height = int(sum(partial))
    target = [-int(c) for c in drop.coords]
    # final[g]: the coordinates no generator from gens[g] on touches
    final = [[k for k in range(alg.N) if all(k + 1 not in gens[h] for h in range(g, len(gens)))]
             for g in range(len(gens) + 1)]
    w = [0] * alg.N
    found = []

    def rec(start, combo):
        """Extend combo by letters from gens[start:] while target is in reach."""
        if w == target:
            found.append(combo)
            return
        if any(w[k] != target[k] for k in final[start]):
            return
        if sum(map(abs, map(sub, target, w))) > 2 * (height - len(combo)):
            return  # a letter moves two coordinates by one each
        for g in range(start, len(gens)):
            i, j = gens[g]
            w[i - 1] += 1
            w[j - 1] -= 1
            rec(g, combo + (g,))
            w[i - 1] -= 1
            w[j - 1] += 1

    rec(0, ())
    monos = (monomial(alg, [gens[g] for g in combo]) for combo in sorted(found, key=lambda c: (len(c), c)))
    return [mono for mono in monos if mono is not None]


class TestActOracle:
    """act against the UEA product route on random weight-space vectors."""

    @pytest.mark.parametrize("point", ["numeric", "generic", "coprime"])
    @pytest.mark.parametrize("shuffle", [False, True], ids=["distinguished", "shuffle"])
    @pytest.mark.parametrize("mn", [(4, 0), (2, 2), (3, 2), (2, 3)])
    def test_matches_product_route(self, mn, shuffle, point):
        """coprime draws lambda and the vector's coefficients over 7, 11 and
        97, so every letter of the action changes the common denominator."""
        m, n = mn
        alg = gl(m, n)
        N = alg.N
        generic = point == "generic"
        rng = random.Random(1000 * m + 100 * n + 10 * shuffle + ["numeric", "generic", "coprime"].index(point))
        order = PBWOrder(rng.sample(range(1, N + 1), N)) if shuffle else DISTINGUISHED
        if generic:
            lam = generic_point(m, n, [Hyperplane(alg.gen_weight(1, N)).constraint_poly()])
        elif point == "coprime":
            lam = coprime_weight(rng, m, n)
        else:
            lam = rand_weight(rng, m, n)
        dens = COPRIME if point == "coprime" else (1, 2, 3, 4)
        gens = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1) if i != j]
        negs = order_gens(alg, order)
        carts = [Poly.x(1) - Poly.x(N) + 3, Poly.x(2) * Poly.x(N - 1) - Poly.x(1)]
        # the order's highest root, whose weight space holds theta v_lambda,
        # and a sum of three random negative roots
        seq = order_seq(alg, order)
        drops = [alg.gen_weight(seq[0], seq[-1]),
                 -sum((alg.gen_weight(*rng.choice(negs)) for _ in range(3)), Weight.zero(m, n))]
        for drop in drops:
            basis = weight_basis(alg, drop) if not shuffle else order_basis(alg, order, drop)
            if not shuffle:
                assert sorted(basis) == sorted(order_basis(alg, order, drop))
            assert basis
            v = VermaVector(alg, lam, {mono: Fraction(rng.randint(-9, 9) or 1, rng.choice(dens))
                                       for mono in basis}, order)
            words = [[], [(2, 2)], [carts[0]]] + [[g] for g in gens]
            for _ in range(4 if generic else 12):
                word = [rng.choice(gens) for _ in range(rng.randint(2, 4))]
                word.insert(rng.randint(0, len(word)), rng.choice(carts))
                words.append(word)
            for word in words:
                expected = product_route(word, v)
                assert act(word, v).terms == expected, word
                x = normal_order(alg, word, order=order)
                assert act(x, v).terms == expected, word
                if not shuffle:  # the UEA product is the distinguished one
                    assert product_route(x, v) == expected, word


def letters(part):
    return [(i, j) for i, j, e in part for _ in range(e)]


def free_word_route(x, v):
    """x v as the sum, over the terms n h p of x, of the free word n h p
    acting on v one letter at a time."""
    out = VermaVector(v.alg, v.lam, order=v.order)
    for (n, p), h in x.terms.items():
        out = out + act(letters(n) + [h] + letters(p), v)
    return out


def element_cases():
    """(name, element, order, theta) cases: a power's body, an odd body, a
    shuffle Borel body on its own order, a distinguished body on that order
    (where some of its negative letters raise), and normal-ordered words
    with positive parts and Cartan atoms.  theta gives the vector
    theta v_lambda of the order."""
    rng = random.Random(29)
    borel = theta_borel(Shuffle.parse(2, 2, "1 1' 2 2'"))
    odd = theta_odd_alg(gl(3, 2), 1, 2, "odd-first")
    yield "power", theta_power(4, 2), DISTINGUISHED, theta_gl(4)
    yield "odd", odd.body, DISTINGUISHED, odd
    yield "borel", borel.body, borel.pbw_order(), borel
    yield "distinguished-on-borel", theta_glmn_distinguished(2, 2).body, borel.pbw_order(), borel
    for m, n in ((3, 0), (2, 1), (2, 2)):
        alg = gl(m, n)
        N = alg.N
        gens = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1) if i != j]
        carts = [Poly.x(1) - Poly.x(N) + 3, Poly.x(2) * Poly.x(N - 1) - Poly.x(1), Poly.x(1) ** 3]
        x = UEAElement.zero(alg)
        for _ in range(6):
            word = [rng.choice(gens) for _ in range(rng.randint(2, 5))]
            word.insert(rng.randint(0, len(word)), rng.choice(carts))
            x = x + normal_order(alg, word)
        yield f"words-{m}-{n}", x, DISTINGUISHED, theta_for_root(alg, alg.gen_weight(1, N))


class TestActOnElements:
    """act on a UEA element against its terms taken as free words: the
    element's path evaluates the Cartan parts through one table per point
    and applies a lowering negative part as one product, the free words go
    letter by letter."""

    @pytest.mark.parametrize("point", ["rational", "generic"])
    @pytest.mark.parametrize("case", list(element_cases()), ids=lambda c: c[0])
    def test_matches_free_words(self, case, point):
        _, x, order, theta = case
        alg = theta.alg
        rng = random.Random(len(x.terms))
        if point == "generic":
            lam = generic_point(alg.m, alg.n, [theta.hyperplane().constraint_poly()])
        else:
            lam = rand_weight(rng, alg.m, alg.n)
        results = pbw._codes(alg, order).results
        for v in (vacuum(alg, lam, order), theta.apply(vacuum(alg, lam, order))):
            want = free_word_route(x, v)
            assert act(x, v) == want
            assert act(x, v) == want  # the products now come from results
        assert all(type(c) is int for k, res in results.items() if type(k[0]) is tuple for _, c in res)

    def test_lowering_products_are_kept_once(self):
        # a negative part of two or more lowering letters is one results
        # entry per (word, monomial), the same at every weight
        pbw._codes.cache_clear()
        power = theta_power(4, 2)
        results = pbw._codes(gl(4), DISTINGUISHED).results
        rng = random.Random(3)
        act(power, vacuum(gl(4), rand_weight(rng, 4, 0)))
        words = {k: res for k, res in results.items() if type(k[0]) is tuple}
        assert words and all(len(k[0]) > 1 for k in words)
        act(power, vacuum(gl(4), rand_weight(rng, 4, 0)))
        assert {k: res for k, res in results.items() if type(k[0]) is tuple} == words


MONOS = [(), ((2, 1, 1),), ((3, 1, 1),), ((2, 1, 1), (3, 2, 1)), ((3, 2, 2),)]
scalars = st.one_of(
    st.integers(-30, 30),
    st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3) + COPRIME)),
)
linear_polys = st.builds(
    lambda c0, c1, c2: Poly.const(c0) + c1 * Poly.x(1) + c2 * Poly.x(2), scalars, scalars, scalars)
coefficients = st.one_of(scalars, linear_polys)
vectors = st.dictionaries(st.sampled_from(MONOS), coefficients, max_size=len(MONOS))


def ref_sum(a, b, sign=1):
    """a + sign * b on plain coefficient dicts, zeros dropped."""
    out = {k: c for k, c in a.items() if c}
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


class TestVectorArithmetic:
    """VermaVector keeps numerators over one denominator; every operation
    agrees with plain coefficient dicts (Fractions, and Polys for generic
    coefficients), including sums that cancel to zero."""

    LAM = Weight(3, 0, [Fraction(1, 7), Fraction(-2, 11), 5])

    def vec(self, terms):
        return VermaVector(gl(3), self.LAM, terms)

    @given(vectors, vectors, coefficients)
    @settings(max_examples=150, deadline=None)
    def test_matches_fraction_dicts(self, a, b, c):
        u, w = self.vec(a), self.vec(b)
        assert u.terms == ref_sum(a, {})
        assert u.is_zero() == (not ref_sum(a, {}))
        if all(not isinstance(x, Poly) for x in a.values()):
            assert all(type(n) is int for n in u.nums.values())
            assert all(type(x) is Fraction for x in u.terms.values())
        assert (u + w).terms == ref_sum(a, b)
        assert (u - w).terms == ref_sum(a, b, -1)
        assert (-u).terms == ref_sum({}, a, -1)
        assert (c * u).terms == {k: x for k, x in ((k, c * x) for k, x in a.items()) if x}
        assert (u * c) == (c * u)
        assert (u == w) == (ref_sum(a, b, -1) == {})
        assert (u + w - w) == u and (u + w - w).terms == u.terms
        assert (u - u).is_zero() and (u - u).terms == {}
        assert (u + w).is_zero() == (not ref_sum(a, b))

    @given(vectors)
    @settings(max_examples=50, deadline=None)
    def test_cancelling_sums(self, a):
        # the same vector over another denominator: scaled up and down again
        u = self.vec(a)
        scaled = Fraction(1, 97) * (97 * u)
        assert scaled == u and scaled.terms == u.terms
        assert (u + (-1) * scaled).is_zero()
        assert (Fraction(1, 7) * u + Fraction(-1, 7) * u).is_zero()

    def test_presentations_must_match(self):
        u = self.vec({(): 1})
        other = VermaVector(gl(3), Weight(3, 0, [0, 0, 0]), {(): 1})
        with pytest.raises(ValueError):
            u + other
        assert u != other


class TestActWork:
    def test_action_calls_no_kernel(self, monkeypatch):
        """Every letter of the action goes through the Leibniz recursion:
        lowering the chain of theta_gl(8), the raising check, and a body and
        a power with words of both signs reach no straightening kernel.
        The elements are built before the kernel is patched."""
        theta = theta_gl(8)
        lam = sample_hyperplane(theta.hyperplane(), seed=3, count=1)[0]
        odd = theta_glmn_distinguished(3, 2)
        body = odd.body
        mu = sample_hyperplane(odd.hyperplane(), seed=1, count=1)[0]
        power = theta_power(4, 2)

        def kernel(*args, **kwargs):
            raise AssertionError("the Verma action calls no straightening kernel")

        monkeypatch.setattr(verma, "_nf_atoms", kernel)
        monkeypatch.setattr(pbw, "_nf_atoms", kernel)
        assert is_highest_weight(theta.verma_vector(lam))
        v = odd.verma_vector(mu)
        assert act(body, vacuum(odd.alg, mu)) == v
        assert act(body, v).is_zero()  # theta^2 for an isotropic root
        assert not act(power, vacuum(gl(4), rand_weight(random.Random(2), 4, 0))).is_zero()

    def test_repeated_act_adds_no_cache_entry(self):
        """A (generator, monomial) result depends on neither lambda nor the
        vector, so the recursion's results hold it once: repeating an
        action, or acting at another weight, stores nothing new.  The
        straightening kernel's cache holds no action result."""
        pbw._codes.cache_clear()
        theta = theta_glmn_distinguished(3, 2)
        body = theta.body
        lam, mu = sample_hyperplane(theta.hyperplane(), seed=1, count=2)
        power = theta_power(4, 2)
        v = vacuum(gl(4), rand_weight(random.Random(2), 4, 0))

        def acts(lam):
            w = act(body, vacuum(theta.alg, lam))
            return [w, act(power, v)] + [act([g], w) for g in pbw._codes(theta.alg, DISTINGUISHED).raising]

        kernel = len(pbw._NF_CACHE)
        first = acts(lam)
        results = pbw._codes(theta.alg, DISTINGUISHED).results
        assert results
        size = len(results)
        assert acts(lam) == first
        acts(mu)
        assert len(results) == size
        assert len(pbw._NF_CACHE) == kernel

    def test_generic_raising_multiplies_no_poly_by_zero(self, monkeypatch):
        """At a generic point a raising value is a linear form in Polys; its
        zero coefficients are skipped, so no Poly is multiplied by int 0."""
        theta = theta_gl(6)
        lam = generic_point(6, 0, [theta.hyperplane().constraint_poly()])
        v = theta.verma_vector(lam)
        times = Poly.__mul__
        seen = []

        def checked(p, other):
            seen.append(other)
            assert not (type(other) is int and other == 0), "a Poly multiplied by int 0"
            return times(p, other)

        monkeypatch.setattr(Poly, "__mul__", checked)
        monkeypatch.setattr(Poly, "__rmul__", checked)
        for g in pbw._codes(theta.alg, DISTINGUISHED).raising:
            assert act([g], v).is_zero()
        assert seen


def prepend_cases(size_cap=5):
    """Every gl(m,n) with m+n <= size_cap in the distinguished order, and every
    shuffle Borel of gl(2,2) and, for size_cap 5, gl(3,2); then each of
    these with its negative factors in reverse order."""
    cases = [(gl(m, size - m), None, f"gl({m},{size - m})")
             for size in range(2, size_cap + 1) for m in range(1, size + 1)]
    cases += [(gl(m, n), sh.word, f"gl({m},{n})-{sh}") for m, n in [(2, 2), (3, 2)][:size_cap - 3]
              for sh in enumerate_shuffles(m, n, fixed_endpoints=False)]
    for reverse in (False, True):
        for alg, word, name in cases:
            yield pytest.param(alg, PBWOrder(word, reverse), id=name + ("-reverse" if reverse else ""))


def prepend(straighten, g, mono):
    """g mono as {negative monomial: int}, by straighten, a normal form of
    generator words."""
    return {neg: h.terms[()] for (neg, _), h in straighten((g,) + tuple(pbw._expand_key(mono))).items()}


def reference(alg, order):
    """The reference straightener of tests/test_pbw.py, which shares no code
    with pbw, for the order."""
    return reference_straightener(alg.m, tuple(order_seq(alg, order)), order.reverse)


def leibniz(alg, order, g, mono):
    """The recursion's result for g mono as a dict, each linear form
    (c0, c1, ..., cN) written as the Poly c0 + sum c_i x_i.  g and mono are
    encoded for the order, and the result's monomials decoded."""
    codes = pbw._codes(alg, order)
    out = {}
    for neg, v in codes.step(codes.code[g], codes.encode(mono)):
        if type(v) is not int:
            v = sum((c * Poly.x(i) for i, c in enumerate(v) if i and c), Poly.const(v[0]))
        out[codes.decode(neg)] = v
    return out


def monomials(alg, order, degree):
    """Canonical negative monomials of the order of total degree at most degree."""
    gens = order_gens(alg, order)
    for size in range(degree + 1):
        for combo in combinations_with_replacement(gens, size):
            mono = monomial(alg, combo)
            if mono is not None:
                yield mono


class TestPrepend:
    @pytest.mark.parametrize("alg, order", prepend_cases())
    def test_matches_kernel(self, alg, order):
        """g mono for every negative generator g and every canonical negative
        monomial of total degree at most 3, and at most 4 for m+n <= 4:
        exponents up to 4, and a generator that travels past three factors.
        The recursion, which pbw's word kernel runs on too, is checked
        against the reference straightener."""
        gens = order_gens(alg, order)
        straighten = reference(alg, order)
        for mono in monomials(alg, order, 4 if alg.N <= 4 else 3):
            for g in gens:
                expected = prepend(straighten, g, mono)
                assert leibniz(alg, order, g, mono) == expected, (g, mono)

    @pytest.mark.parametrize("alg, order, g, mono, expected", [
        # an odd square dies
        (gl(1, 1), DISTINGUISHED, (2, 1), ((2, 1, 1),), {}),
        (gl(2, 2), PBWOrder((1, 3, 2, 4)), (4, 1), ((4, 1, 1), (2, 3, 1)), {}),
        # an even factor's exponent is raised
        (gl(3), DISTINGUISHED, (2, 1), ((2, 1, 2), (3, 2, 1)), {((2, 1, 3), (3, 2, 1)): 1}),
        (gl(2, 2), PBWOrder((3, 1, 4, 2)), (4, 3), ((4, 3, 1),), {((4, 3, 2),): 1}),
        # g sorts first, and the empty monomial
        (gl(3), DISTINGUISHED, (2, 1), ((3, 1, 1),), {((2, 1, 1), (3, 1, 1)): 1}),
        (gl(2, 1), DISTINGUISHED, (3, 2), (), {((3, 2, 1),): 1}),
    ])
    def test_cheap_cases(self, alg, order, g, mono, expected):
        assert leibniz(alg, order, g, mono) == expected
        assert prepend(lambda word: pbw._nf_atoms(alg, word, order=order), g, mono) == expected
        assert prepend(reference(alg, order), g, mono) == expected


class TestRaising:
    @pytest.mark.parametrize("alg, order", prepend_cases(4))
    def test_matches_normal_order(self, alg, order):
        """g mono v_lambda for every positive generator g of the order,
        simple or not, and every canonical negative monomial of total degree
        at most 3: the recursion's linear forms are the Cartan parts of the
        word g mono, normal-ordered by the reference straightener, that have
        no positive factor."""
        place = {v: k for k, v in enumerate(order_seq(alg, order))}
        positive = [(i, j) for i in place for j in place if place[i] < place[j]]
        straighten = reference(alg, order)
        for mono in monomials(alg, order, 3):
            word = tuple(pbw._expand_key(mono))
            for g in positive:
                expected = {n: h for (n, p), h in straighten((g,) + word).items() if not p}
                assert leibniz(alg, order, g, mono) == expected, (g, mono)


class TestCodec:
    @pytest.mark.parametrize("alg, order", prepend_cases())
    def test_round_trip(self, alg, order):
        """A monomial is encoded for the order where a vector is built from
        it and decoded where the vector is read: terms gives it back
        unchanged, and weight() is lambda plus its weight."""
        lam = rand_weight(random.Random(alg.N), alg.m, alg.n)
        for mono in monomials(alg, order, 3):
            v = VermaVector(alg, lam, {mono: 1}, order)
            assert v.terms == {mono: 1}
            expected = lam
            for i, j, e in mono:
                expected = expected + e * alg.gen_weight(i, j)
            assert v.weight() == expected, mono

    def test_exponent_far_above_generator_count(self):
        """gl(3) has G = 6 generators; e_21^50 survives encoding, decoding
        and the action: e_21 raises its exponent, and e_12 e_21^50 v_lambda
        = 50 (lambda_1 - lambda_2 - 49) e_21^49 v_lambda."""
        alg = gl(3)
        lam = Weight(3, 0, [Fraction(7, 2), -1, 4])
        v = VermaVector(alg, lam, {((2, 1, 50),): 1})
        assert v.terms == {((2, 1, 50),): 1}
        assert v.weight() == lam + 50 * alg.gen_weight(2, 1)
        assert act([(2, 1)], v).terms == {((2, 1, 51),): 1}
        assert act([(1, 2)], v).terms == {((2, 1, 49),): 50 * (lam.coords[0] - lam.coords[1] - 49)}
        assert str(v) == "(1) e21^50"

    @pytest.mark.parametrize("mono, why", [
        (((1, 2, 1),), "a positive generator"),
        (((3, 2, 1), (2, 1, 1)), "factors out of order or repeated"),
        (((2, 1, 1), (2, 1, 1)), "factors out of order or repeated"),
        (((2, 1, 0),), "an exponent below 1"),
        (((2, 1, 1.5),), "not an int"),
        (((3, 1, 2),), "an odd factor with exponent above 1"),
    ])
    def test_non_canonical_monomial_is_refused(self, mono, why):
        """Only canonical negative monomials are encoded: a positive
        generator, factors out of the order's factor order or repeated, an
        exponent below 1 or not an int, and an odd square are each refused
        by name."""
        alg = gl(2, 1)
        lam = Weight(2, 1, [3, 1, 2])
        with pytest.raises(ValueError, match=why) as err:
            VermaVector(alg, lam, {mono: 1})
        assert str(tuple(mono)) in str(err.value)


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
        alpha = Weight.eps(3, 0, 1) - Weight.eps(3, 0, 2)
        assert weight_basis(alg, alpha) == [((2, 1, 1),)]

    def test_gl3_top_root(self):
        alg = gl(3, 0)
        drop = Weight.eps(3, 0, 1) - Weight.eps(3, 0, 3)
        basis = weight_basis(alg, drop)
        assert len(basis) == 2
        assert ((3, 1, 1),) in basis
        assert ((2, 1, 1), (3, 2, 1)) in basis

    def test_gl22_odd_drop(self):
        alg = gl(2, 2)
        drop = Weight.eps(2, 2, 1) - Weight.delta(2, 2, 2)
        assert len(weight_basis(alg, drop)) == 4

    def test_outside_cone(self):
        alg = gl(2, 2)
        assert weight_basis(alg, Weight.eps(2, 2, 1)) == []
        bad = Weight.eps(2, 2, 2) - Weight.eps(2, 2, 1)
        assert weight_basis(alg, bad) == []

    @pytest.mark.parametrize("m, n", [(4, 0), (2, 2), (3, 2), (2, 3)])
    def test_brute_force_set_and_lexicographic_order(self, m, n):
        """For every sum of at most four positive roots, the basis is the
        brute-force one as a set, and its exponent vectors over the factor
        order ascend lexicographically."""
        alg = gl(m, n)
        roots = [w for w, _ in alg.positive_roots()]
        factors = {g: k for k, g in enumerate(order_gens(alg, DISTINGUISHED))}
        drops = {sum((roots[k] for k in combo), Weight.zero(m, n)).coords
                 for size in range(5) for combo in combinations_with_replacement(range(len(roots)), size)}
        for coords in drops:
            drop = Weight(m, n, coords)
            basis = weight_basis(alg, drop)
            assert set(basis) == set(order_basis(alg, DISTINGUISHED, drop))
            vectors = []
            for mono in basis:
                exps = [0] * len(factors)
                for i, j, e in mono:
                    exps[factors[i, j]] = e
                vectors.append(exps)
            assert all(a < b for a, b in zip(vectors, vectors[1:]))

    def test_half_integral_coordinate(self):
        """A drop off the root lattice, here with a half-integral simple-root
        coordinate, has an empty weight space."""
        alg = gl(2, 2)
        half = Fraction(1, 2)
        drop = Weight(2, 2, [1 + half, -half, 0, -1])
        assert weight_basis(alg, drop) == []
        assert weight_basis(alg, Weight(2, 2, [half, 0, 0, -half])) == []

    def test_counts_match_brute_force(self):
        for alg in (gl(3, 0), gl(2, 2)):
            simples = [alg.gen_weight(*g) for g in pbw._codes(alg, DISTINGUISHED).raising]
            seen = 0
            for ht in range(1, 6):
                for combo in combinations_with_replacement(range(len(simples)), ht):
                    drop = Weight.zero(alg.m, alg.n)
                    for k in combo:
                        drop = drop + simples[k]
                    assert len(weight_basis(alg, drop)) == brute_force_partitions(alg, drop)
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

    def test_coefficients_apply_each_word_once(self, monkeypatch):
        alg = gl(3, 0)
        lam = Weight(3, 0, [2, 1, 0])
        words = [((3, 1),), ((3, 2), (2, 1))]
        target = act([(3, 2), (2, 1)], vacuum(alg, lam))
        calls = []

        def counting_act(x, v):
            calls.append(x)
            return act(x, v)

        monkeypatch.setattr(verma, "act", counting_act)
        assert coefficients_in_word_basis(target, words) == [Fraction(0), Fraction(1)]
        assert calls == [list(w) for w in words]
