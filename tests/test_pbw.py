import copy
import inspect
import json
import pickle
import random
from fractions import Fraction
from functools import lru_cache
from itertools import groupby, product

import pytest

from shapovalov import pbw
from shapovalov.construct import case2_decompose
from shapovalov.exact_algebra import Poly
from shapovalov.pbw import (
    DISTINGUISHED,
    PBWOrder,
    UEAElement,
    _codes,
    _nf_atoms,
    gl,
    normal_order,
    superbracket,
)
from shapovalov.shuffles import enumerate_shuffles


def gens_of(alg):
    return [(i, j) for i in range(1, alg.N + 1) for j in range(1, alg.N + 1) if i != j]


class TestSuperbracket:
    def test_even_simple(self):
        alg = gl(2, 0)
        out = superbracket(alg, (1, 2), (2, 1))
        assert out == UEAElement(alg, {((), ()): Poly.x(1) - Poly.x(2)})

    def test_odd_simple(self):
        alg = gl(2, 2)
        out = superbracket(alg, (2, 3), (3, 2))
        assert out == UEAElement(alg, {((), ()): Poly.x(2) + Poly.x(3)})

    def test_delta_side_sign(self):
        # [e_gamma, e_-gamma] = -(h_gamma) for the delta-side simple root
        alg = gl(2, 2)
        out = superbracket(alg, (3, 4), (4, 3))
        h_gamma = Poly.x(4) - Poly.x(3)
        assert out == UEAElement(alg, {((), ()): -h_gamma})

    def test_cartan_bracket(self):
        alg = gl(2, 0)
        h = Poly.x(1) - Poly.x(2)
        assert superbracket(alg, h, (2, 1)) == normal_order(alg, [(2, 1)]) * Fraction(-2)
        assert superbracket(alg, h, h).is_zero()


class TestNormalOrder:
    def test_even_pair(self):
        alg = gl(2, 0)
        nf = normal_order(alg, [(1, 2), (2, 1)])
        expected = normal_order(alg, [(2, 1), (1, 2)]) + UEAElement(alg, {((), ()): Poly.x(1) - Poly.x(2)})
        assert nf == expected

    def test_odd_pair(self):
        alg = gl(2, 2)
        nf = normal_order(alg, [(2, 3), (3, 2)])
        expected = normal_order(alg, [(3, 2), (2, 3)]) * Fraction(-1) + UEAElement(
            alg, {((), ()): Poly.x(2) + Poly.x(3)}
        )
        assert nf == expected

    def test_isotropic_square(self):
        alg = gl(2, 2)
        assert normal_order(alg, [(2, 3), (2, 3)]).is_zero()
        assert normal_order(alg, [(3, 2), (3, 2)]).is_zero()

    def test_diagonal_units_become_variables(self):
        alg = gl(2, 0)
        assert normal_order(alg, [(1, 1)]) == UEAElement(alg, {((), ()): Poly.x(1)})

    def test_idempotent(self):
        alg = gl(2, 2)
        rng = random.Random(4)
        gens = gens_of(alg)
        for _ in range(30):
            word = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 5))]
            nf = normal_order(alg, word)
            again = UEAElement.zero(alg)
            for (neg, pos), h in nf.terms.items():
                atoms = [g for i, j, e in neg for g in [(i, j)] * e]
                atoms.append(h)
                atoms += [g for i, j, e in pos for g in [(i, j)] * e]
                again = again + normal_order(alg, atoms)
            assert again == nf

    def test_parity_bookkeeping(self):
        # u a b v + u b a v = u [a,b] v for odd a, b: the swap flips exactly
        # the affected monomials
        alg = gl(2, 2)
        rng = random.Random(12)
        gens = gens_of(alg)
        odd = [g for g in gens if alg.gen_parity(*g)]
        for _ in range(40):
            a, b = rng.choice(odd), rng.choice(odd)
            u = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(0, 2))]
            v = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(0, 2))]
            lhs = normal_order(alg, u + [a, b] + v) + normal_order(alg, u + [b, a] + v)
            rhs = UEAElement.zero(alg)
            for (neg, pos), h in superbracket(alg, a, b).terms.items():
                mid = [g for i, j, e in neg for g in [(i, j)] * e]
                mid.append(h)
                mid += [g for i, j, e in pos for g in [(i, j)] * e]
                rhs = rhs + normal_order(alg, u + mid + v)
            assert lhs == rhs

    def test_borel_order_classification(self):
        # in the Borel of the shuffle 1 1' 2 2', e_23 is a lowering vector
        order = PBWOrder((1, 3, 2, 4))
        alg = gl(2, 2)
        nf = normal_order(alg, [(3, 2), (2, 3)], order=order)
        # e_32 e_23 = -e_23 e_32 + (x3 + x2), now with e_23 the negative factor
        assert nf.coefficient_of(((2, 3, 1),), ((3, 2, 1),)) == Poly.const(-1)
        assert nf.coefficient_of((), ()) == Poly.x(2) + Poly.x(3)

    def test_cached_normal_form_is_read_only(self):
        # the cache hands out its stored normal form; a caller that could
        # change it would change every later straightening of the word.
        # The cache is the module dict _NF_CACHE, one entry per word.
        alg = gl(2, 2)
        word = [(1, 2), (3, 1), (2, 1), (4, 2)]
        cache = pbw._NF_CACHE
        assert type(cache) is dict
        cache.clear()  # so the word is fresh
        nf = _nf_atoms(alg, word)
        assert len(cache) == 1
        assert _nf_atoms(alg, word) is nf
        assert len(cache) == 1
        expected = dict(nf)
        assert expected
        key = next(iter(nf))
        with pytest.raises(TypeError):
            nf[key] = Poly.zero()
        with pytest.raises(TypeError):
            del nf[key]
        again = _nf_atoms(alg, word)
        assert dict(again) == expected
        assert normal_order(alg, word) == UEAElement(alg, expected)

    def test_cartan_words_are_cached(self):
        # a Poly is a hashable value, so a word with Cartan atoms is cached
        # on the word like any other, and e_kk is x_k before the lookup
        alg = gl(2, 1)
        cache = pbw._NF_CACHE
        cache.clear()
        word = [(3, 1), Poly.x(1) - Poly.x(3), (1, 2)]
        nf = _nf_atoms(alg, word)
        assert _nf_atoms(alg, [(3, 1), Poly.x(1) - Poly.x(3), (1, 2)]) is nf
        assert len(cache) == 1
        cache.clear()
        unit = normal_order(alg, [(2, 1), (1, 1)])
        assert normal_order(alg, [(2, 1), Poly.x(1)]) == unit
        assert len(cache) == 1

    def test_repeated_decomposition_adds_no_entry(self):
        # the case decompositions normal-order path words with Cartan factors
        # (construct._sum_terms); a second call reads every word from the cache
        first = case2_decompose(1, 3, 3, 1, 3, 3)
        size = len(pbw._NF_CACHE)
        assert case2_decompose(1, 3, 3, 1, 3, 3).pieces == first.pieces
        assert len(pbw._NF_CACHE) == size


def reference_straightener(m, posword):
    """A normal-form function for free words of generator pairs and Cartan
    Polys in U(gl(m,n)), sharing no code with the pbw kernel.

    It applies the two rules of the pbw docstring to the first pair out of
    place and recurses on each word that results.  posword lists 1..m+n in
    the Borel's order: e_ij is negative iff i comes after j.  Ordered words
    are negatives by (place of j, place of i), one Cartan atom, then
    positives by (place of i, place of j).
    """
    place = {v: k for k, v in enumerate(posword)}

    def odd(g):
        return (g[0] > m) != (g[1] > m)

    def atom(i, j):  # a diagonal unit e_ii is x_i
        return Poly.x(i) if i == j else (i, j)

    def rank(a):
        if isinstance(a, Poly):
            return (1,)
        i, j = a
        return (0, place[j], place[i]) if place[i] > place[j] else (2, place[i], place[j])

    def shift(h, g, sign):  # h(x + sign wt e_ij), wt e_ij = +1 at i, -1 at j
        i, j = g
        return h.subs({i: Poly.x(i) + sign, j: Poly.x(j) - sign})

    def bracket(a, b):  # [e_pq, e_rs] = d_qr e_ps - (-1)^{|a||b|} d_sp e_rq
        (p, q), (r, s) = a, b
        out = [(atom(p, s), 1)] if q == r else []
        if s == p:
            out.append((atom(r, q), 1 if odd(a) and odd(b) else -1))
        return out

    def add(out, terms, c):
        for key, h in terms.items():
            v = out.get(key, Poly.zero()) + h * c
            if v.is_zero():
                out.pop(key, None)
            else:
                out[key] = v

    def exps(gens):
        return tuple((i, j, len(list(run))) for (i, j), run in groupby(gens))

    @lru_cache(maxsize=None)
    def nf(word):
        for k in range(len(word) - 1):
            a, b = word[k], word[k + 1]
            head, tail = word[:k], word[k + 2:]
            ra, rb = rank(a), rank(b)
            if ra == rb == (1,):
                return nf(head + (a * b,) + tail)
            if ra == (1,) and rb < ra:  # H e = e H(x + wt e)
                return nf(head + (b, shift(a, b, 1)) + tail)
            if rb == (1,) and ra > rb:  # e H = H(x - wt e) e
                return nf(head + (shift(b, a, -1), a) + tail)
            if ra == rb and odd(a):
                return {}
            if ra > rb:  # a b = (-1)^{|a||b|} b a + [a, b]
                out = {}
                add(out, nf(head + (b, a) + tail), -1 if odd(a) and odd(b) else 1)
                for x, c in bracket(a, b):
                    add(out, nf(head + (x,) + tail), c)
                return out
        h = next((a for a in word if isinstance(a, Poly)), Poly.one())
        neg = exps(a for a in word if rank(a)[0] == 0)
        pos = exps(a for a in word if rank(a)[0] == 2)
        return {(neg, pos): h} if h else {}

    return lambda word: dict(nf(tuple(a if isinstance(a, Poly) else atom(*a) for a in word)))


def order_cases():
    """The distinguished order of every gl(m,n) with m+n <= 5, and every
    shuffle Borel of gl(2,2) and gl(3,2), endpoint-fixed or not."""
    for size in range(1, 6):
        for m in range(1, size + 1):
            yield pytest.param(gl(m, size - m), None, id=f"gl({m},{size - m})")
    for m, n in [(2, 2), (3, 2)]:
        for sh in enumerate_shuffles(m, n, fixed_endpoints=False):
            yield pytest.param(gl(m, n), sh.word, id=f"gl({m},{n})-{sh}")


class TestOrder:
    @pytest.mark.parametrize("alg, word", order_cases())
    def test_rank_follows_word(self, alg, word):
        """e_ij is negative iff i comes after j in the word; negatives come
        first, by (place of j, place of i), then positives by (place of i,
        place of j)."""
        place = {v: k for k, v in enumerate(word or range(1, alg.N + 1))}
        gens = gens_of(alg)
        neg = sorted((g for g in gens if place[g[0]] > place[g[1]]), key=lambda g: (place[g[1]], place[g[0]]))
        pos = sorted((g for g in gens if place[g[0]] < place[g[1]]), key=lambda g: (place[g[0]], place[g[1]]))
        if word is None:
            assert neg == [(i, j) for j in range(1, alg.N + 1) for i in range(j + 1, alg.N + 1)]
        codes = _codes(alg, PBWOrder(word).word)
        assert sorted(codes.code) == sorted(gens)
        assert sorted(gens, key=codes.code.get) == neg + pos == codes.gens
        assert [g for g in gens if codes.code[g] < codes.G // 2] == [g for g in gens if g in neg]

    def test_identity_word_normalises(self):
        assert PBWOrder((1, 2, 3)) == DISTINGUISHED == PBWOrder()
        assert hash(PBWOrder([1, 2, 3])) == hash(DISTINGUISHED)
        assert PBWOrder((1, 2, 3)).word is None
        assert PBWOrder((1, 3, 2, 4)) != DISTINGUISHED
        assert PBWOrder((1, 3, 2, 4)) == PBWOrder([1, 3, 2, 4])

    def test_order_is_read_only(self):
        order = PBWOrder((1, 3, 2, 4))
        with pytest.raises(AttributeError):
            order.word = (1, 2, 3, 4)
        with pytest.raises(AttributeError):
            del order.word
        with pytest.raises(AttributeError):
            order.other = 1
        assert order.word == (1, 3, 2, 4) and order == PBWOrder([1, 3, 2, 4])
        for copied in (copy.copy(order), pickle.loads(pickle.dumps(order))):
            assert copied == order and hash(copied) == hash(order) and copied.word == (1, 3, 2, 4)
        assert repr(order) == "PBWOrder(word=(1, 3, 2, 4))" and repr(DISTINGUISHED) == "PBWOrder(word=None)"


class TestReference:
    @pytest.mark.parametrize("m, n, posword, pure", [
        pytest.param(m, n, w, False, id=f"gl({m},{n})-{''.join(map(str, w))}")
        for m, n, w in [(2, 2, (1, 2, 3, 4)), (3, 1, (1, 2, 3, 4)), (2, 1, (1, 2, 3)),
                        (2, 2, (1, 3, 2, 4)), (2, 1, (3, 1, 2)), (3, 2, (1, 4, 2, 5, 3)),
                        (2, 2, (1, 3, 4, 2)), (2, 2, (3, 1, 2, 4)), (2, 2, (3, 1, 4, 2)),
                        (2, 2, (3, 4, 1, 2)), (2, 1, (1, 3, 2))]
    ] + [pytest.param(3, 2, (1, 4, 2, 5, 3), True, id="gl(3,2)-14253-pure")])
    def test_matches_normal_order(self, m, n, posword, pure):
        """200 random words of length at most 6, about 40 % of them with a
        Cartan atom (a polynomial or a diagonal unit e_kk); every shuffle
        order of gl(2,1) and gl(2,2).  A pure case passes words of
        generators alone, of length at most 8, straight to _nf_atoms."""
        alg = gl(m, n)
        order = PBWOrder(posword)
        reference = reference_straightener(m, posword)
        rng = random.Random(f"{m},{n},{posword}" + (",pure" if pure else ""))
        gens = gens_of(alg)
        carts = [Poly.x(k) for k in range(1, alg.N + 1)] + [(k, k) for k in range(1, alg.N + 1)]
        carts += [Poly.x(1) * Poly.x(alg.N) - 2, Poly.x(2) ** 2 + Fraction(1, 3)]
        for _ in range(200):
            if pure:
                word = tuple(rng.choice(gens) for _ in range(rng.randint(1, 8)))
                assert dict(_nf_atoms(alg, word, order=order)) == reference(word), word
                continue
            word = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
            if rng.random() < 0.4:
                word[rng.randrange(len(word))] = rng.choice(carts)
            assert normal_order(alg, word, order=order).terms == reference(word), word

    def test_kernel_options_are_keyword_only(self):
        params = list(inspect.signature(_nf_atoms).parameters.values())
        assert [p.name for p in params[:2]] == ["alg", "atoms"]
        assert params[2:] and all(p.kind is p.KEYWORD_ONLY for p in params[2:])


class TestJacobi:
    def test_super_jacobi_gl22(self):
        # [a,[b,c]] = [[a,b],c] + (-1)^{p(a)p(b)} [b,[a,c]] on all generator triples
        alg = gl(2, 2)
        gens = gens_of(alg)
        elems = {g: normal_order(alg, [g]) for g in gens}
        par = {g: alg.gen_parity(*g) for g in gens}

        def sbr(x, px, y, py):
            sign = -1 if px and py else 1
            return x * y - sign * (y * x)

        for a, b, c in product(gens, repeat=3):
            pa, pb, pc = par[a], par[b], par[c]
            bc = sbr(elems[b], pb, elems[c], pc)
            ab = sbr(elems[a], pa, elems[b], pb)
            ac = sbr(elems[a], pa, elems[c], pc)
            left = sbr(elems[a], pa, bc, pb ^ pc)
            right = sbr(ab, pa ^ pb, elems[c], pc)
            inner = sbr(elems[b], pb, ac, pa ^ pc)
            if pa and pb:
                inner = inner * Fraction(-1)
            assert left == right + inner, (a, b, c)


class TestMultiply:
    def test_unit(self):
        alg = gl(2, 2)
        a = normal_order(alg, [(3, 1), (4, 2)])
        assert UEAElement.one(alg) * a == a
        assert a * UEAElement.one(alg) == a

    def test_weight_additivity(self):
        alg = gl(2, 2)
        rng = random.Random(7)
        gens = gens_of(alg)
        for _ in range(25):
            wa = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 3))]
            wb = [gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 3))]
            a, b = normal_order(alg, wa), normal_order(alg, wb)
            ab = a * b
            if a.weight() is not None and b.weight() is not None and not ab.is_zero():
                w = ab.weight()
                if w is not None:
                    assert w == a.weight() + b.weight()

    def test_associativity(self):
        alg = gl(2, 2)
        rng = random.Random(8)
        gens = gens_of(alg)
        # Cartan atoms inside the words give the factors non-constant Cartan parts
        carts = [Poly.x(k) for k in range(1, 5)] + [Poly.x(1) - Poly.x(3) + 2, Poly.x(2) + Poly.x(4)]
        for _ in range(40):
            words = [[gens[rng.randrange(len(gens))] for _ in range(rng.randint(1, 2))] for _ in range(3)]
            for w in words:
                if rng.random() < 0.5:
                    w.insert(rng.randint(0, len(w)), rng.choice(carts))
            ws = [normal_order(alg, w) for w in words]
            assert (ws[0] * ws[1]) * ws[2] == ws[0] * (ws[1] * ws[2])

    def test_power(self):
        alg = gl(2, 1)
        x = normal_order(alg, [(2, 1), Poly.x(1) - 2, (3, 2)]) + normal_order(alg, [(1, 3)])
        assert x ** 0 == UEAElement.one(alg)
        assert x ** 1 is x
        assert x ** 3 == x * x * x
        # as Poly.__pow__ does, a negative power is refused instead of read as 0
        with pytest.raises(ValueError, match="negative power"):
            x ** -1

    @pytest.mark.parametrize("m, n", [(3, 0), (2, 1), (2, 2), (3, 2)])
    def test_matches_reference(self, m, n):
        """x * y against the reference straightener of the two words put
        together, for random words with odd generators, positive letters,
        Cartan polynomials and diagonal units.  An operand is canonical,
        canonical for a shuffled order only, or a hand-built term with its
        negative (and positive) factors out of order; the product
        straightens such a term before it multiplies."""
        alg = gl(m, n)
        N = alg.N
        reference = reference_straightener(m, tuple(range(1, N + 1)))
        rng = random.Random(f"product {m},{n}")
        gens = gens_of(alg)
        carts = [Poly.x(k) for k in range(1, N + 1)] + [(k, k) for k in range(1, N + 1)]
        carts += [Poly.x(1) - Poly.x(N) + 2, Poly.x(2) ** 2 + Fraction(1, 3)]
        lowering = [g for g in gens if g[0] > g[1]]
        raising = [g for g in gens if g[0] < g[1]]

        def operand(kind):
            """(element, word): the element equals the free word in U(g)."""
            if kind == "hand-built":  # factors in descending order, so not canonical
                neg = sorted(rng.sample(lowering, 2), key=lambda g: (g[1], g[0]), reverse=True)
                pos = sorted(rng.sample(raising, rng.randint(0, 2)), reverse=True)
                h = rng.choice(carts[:N] + [Poly.one()])
                key = tuple((i, j, 1) for i, j in neg), tuple((i, j, 1) for i, j in pos)
                return UEAElement(alg, {key: h}), neg + [h] + pos
            word = [rng.choice(gens) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.5:
                word.insert(rng.randint(0, len(word)), rng.choice(carts))
            order = DISTINGUISHED
            if kind == "shuffled":
                order = PBWOrder(tuple(rng.sample(range(1, N + 1), N)))
            return normal_order(alg, word, order=order), word

        kinds = ["canonical", "shuffled", "hand-built"]
        for left, right in [(a, b) for a in kinds for b in kinds] * 6:
            (x, wx), (y, wy) = operand(left), operand(right)
            assert (x * y).terms == reference(wx + wy), (left, wx, right, wy)

    def test_left_cartan_part_must_be_a_poly(self):
        # an int Cartan part is refused on either side of *, not read as the
        # generator with that code on the left or shifted on the right
        alg = gl(2)
        with pytest.raises(TypeError, match="is not a Poly"):
            UEAElement(alg, {((), ()): 1}) * normal_order(alg, [(2, 1)])
        with pytest.raises(TypeError, match="is not a Poly"):
            normal_order(alg, [(1, 2)]) * UEAElement(alg, {((), ()): 1})


class TestQueriesAndIO:
    def test_coefficient_of_absent(self):
        alg = gl(2, 2)
        el = normal_order(alg, [(2, 1)])
        assert el.coefficient_of(((3, 1, 1),)).is_zero()
        assert el.coefficient_of(((2, 1, 1),)) == Poly.one()

    def test_parts(self):
        alg = gl(2, 0)
        nf = normal_order(alg, [(1, 2), (2, 1)])
        # e12 e21 = e21 e12 + (x1 - x2)
        assert nf.terms == {
            (((2, 1, 1),), ((1, 2, 1),)): Poly.one(),
            ((), ()): Poly.x(1) - Poly.x(2),
        }
        assert nf - normal_order(alg, [(2, 1), (1, 2)]) == UEAElement(alg, {((), ()): Poly.x(1) - Poly.x(2)})

    def test_json_roundtrip(self):
        alg = gl(2, 2)
        el = normal_order(alg, [(1, 2), (2, 1), (3, 1)]) + normal_order(alg, [(4, 2)])
        data = json.loads(json.dumps(el.to_json()))
        assert UEAElement.from_json(alg, data) == el

    def test_latex(self):
        alg = gl(2, 0)
        el = normal_order(alg, [(2, 1)])
        assert el.latex() == "e_{2,1}"
