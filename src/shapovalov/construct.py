"""Construction of Shapovalov elements for gl(m) and gl(m,n).

Every constructor returns a subset-sum expansion: terms are indexed by the
subsets of an index interval containing both endpoints, each contributing a
product of lowering generators (in an order fixed by the chosen convention)
times a product of linear Cartan coefficients attached to the skipped
indices.  The conventions are:

    middle     descending chains, the odd generator sits where the chain
               crosses from the delta side to the eps side
    odd-last   the unique odd generator is the last factor
    odd-first  the unique odd generator is the first factor
    bform      ascending chains (the column-matrix expansion)

For even roots "standard" (descending chains) and "bform" coincide as
elements of U(g); for odd roots the conventions agree after applying to a
highest weight vector on the defining hyperplane, and in small ranks even as
elements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .exact_algebra import (
    Hyperplane,
    Poly,
    Weight,
    bilinear_form,
    eval_at,
    generic_point,
    h_of_weight,
    sample_hyperplane,
)
from .hessenberg import delta_block_coeff, gl_block_coeff, _odd_index_coeff
from .pbw import BorelOrder, DISTINGUISHED, GLAlgebra, UEAElement, _accumulate, gl, normal_order
from .shuffles import Shuffle, diagram_data, eta_weight
from .verma import (
    VermaVector,
    act,
    coefficients_in_word_basis,
    solve_in_span,
    vacuum,
    weight_basis,
)

ODD_ORDERINGS = ("middle", "odd-last", "odd-first", "bform")


@dataclass
class ShapovalovElement:
    """A constructed lowering element together with its expansion data.

    terms holds the expansion exactly as built: one (generator word,
    Cartan factors) pair per index subset, the word not yet normal-ordered.
    body is the canonical normal form of the full sum.
    """

    alg: GLAlgebra
    eta: Weight
    mult: int
    ordering: str
    terms: list
    borel: Shuffle | None = None
    _body: UEAElement | None = field(default=None, repr=False)

    @property
    def body(self) -> UEAElement:
        if self._body is None:
            self._body = _sum_terms(self.alg, self.terms)
        return self._body

    def hyperplane(self) -> Hyperplane:
        return Hyperplane(self.eta, self.mult)

    def _evaluated_terms(self, lam: Weight):
        """(word, product of the term's Cartan factors at lam), zero products skipped."""
        for word, factors in self.terms:
            c = Fraction(1)
            for f in factors:
                c = c * eval_at(f, lam)
            if c:
                yield list(word), c

    def evaluate(self, lam: Weight) -> UEAElement:
        """Evaluate each term's Cartan factors at lam (term-wise, so this is
        meaningful for non-distinguished Borels as well)."""
        out: dict = {}
        for word, c in self._evaluated_terms(lam):
            for key, h in normal_order(self.alg, word).terms.items():
                _accumulate(out, key, h * c)
        return UEAElement(self.alg, out)

    def pbw_order(self):
        if self.borel is None or self.borel.is_distinguished():
            return DISTINGUISHED
        return BorelOrder(self.borel.word)

    def verma_vector(self, lam: Weight) -> VermaVector:
        """Image of the highest weight vector, in the Verma module for the
        element's own Borel subalgebra."""
        order = self.pbw_order()
        vac = vacuum(self.alg, lam, order)
        out: dict = {}
        for word, c in self._evaluated_terms(lam):
            for neg, val in act(word, vac).terms.items():
                _accumulate(out, neg, c * val)
        return VermaVector(self.alg, lam, out, order)

    def latex(self) -> str:
        bits = []
        for word, factors in self.terms:
            s = "".join(f"e_{{{i},{j}}}" for i, j in word)
            s += "".join(f"\\left({f.latex()}\\right)" for f in factors)
            bits.append(s)
        return " + ".join(bits)

    def to_json(self):
        return {
            "eta": self.eta.to_json(),
            "mult": self.mult,
            "ordering": self.ordering,
            "borel": str(self.borel) if self.borel else "distinguished",
            "terms": [
                {
                    "word": [list(g) for g in word],
                    "coefficients": [f.to_json() for f in factors],
                }
                for word, factors in self.terms
            ],
            "body": self.body.to_json(),
        }


def _interval_subsets(lo: int, hi: int):
    """Subsets of [lo, hi] containing both endpoints, smallest first."""
    interior = list(range(lo + 1, hi))
    for size in range(len(interior) + 1):
        for combo in combinations(interior, size):
            yield (lo,) + combo + (hi,)


def _desc_chain(entries):
    return tuple((entries[k], entries[k + 1]) for k in range(len(entries) - 1))


def _asc_chain(entries):
    return tuple((entries[k + 1], entries[k]) for k in range(len(entries) - 1))


# ---------------------------------------------------------------------------
# even blocks

def theta_even_eps(alg: GLAlgebra, a: int, b: int, ordering: str = "standard") -> ShapovalovElement:
    """Element for the even root eps_a - eps_b, built inside rows a..b."""
    if not 1 <= a < b <= alg.m:
        raise ValueError(f"need 1 <= a < b <= m for an eps root, got ({a},{b})")
    shift = -1 if ordering == "standard" else 0
    terms = []
    for I in _interval_subsets(a, b):
        word = (
            _desc_chain(tuple(sorted(I, reverse=True)))
            if ordering == "standard"
            else _asc_chain(I)
        )
        factors = tuple(
            gl_block_coeff(alg, a, p, shift)
            for p in range(a + 1, b)
            if p not in I
        )
        terms.append((word, factors))
    eta = Weight.eps(alg.m, alg.n, a) - Weight.eps(alg.m, alg.n, b)
    return ShapovalovElement(alg, eta, 1, ordering, terms)


def theta_even_delta(alg: GLAlgebra, a: int, b: int, ordering: str = "standard") -> ShapovalovElement:
    """Element for the even root delta_a - delta_b (rows m+a..m+b)."""
    if not 1 <= a < b <= alg.n:
        raise ValueError(f"need 1 <= a < b <= n for a delta root, got ({a},{b})")
    shift = 0 if ordering == "standard" else 1
    lo, hi = alg.m + a, alg.m + b
    terms = []
    for I in _interval_subsets(lo, hi):
        word = (
            _desc_chain(tuple(sorted(I, reverse=True)))
            if ordering == "standard"
            else _asc_chain(I)
        )
        factors = tuple(
            delta_block_coeff(alg, p - alg.m, b, shift)
            for p in range(lo + 1, hi)
            if p not in I
        )
        terms.append((word, factors))
    eta = Weight.delta(alg.m, alg.n, a) - Weight.delta(alg.m, alg.n, b)
    return ShapovalovElement(alg, eta, 1, ordering, terms)


def theta_gl(m: int) -> ShapovalovElement:
    """The classical element for the highest root of gl(m)."""
    if m < 2:
        raise ValueError("need m >= 2")
    return theta_even_eps(gl(m, 0), 1, m)


# ---------------------------------------------------------------------------
# odd roots

def _odd_word(I, r, s, m, ordering):
    P = tuple(sorted((p for p in I if p > m), reverse=True))
    Q = tuple(sorted(p for p in I if p <= m))
    if ordering == "middle":
        return _desc_chain(tuple(sorted(I, reverse=True)))
    if ordering == "bform":
        return _asc_chain(tuple(sorted(I)))
    odd = (P[-1], Q[-1])
    q_chain = tuple((Q[k + 1], Q[k]) for k in range(len(Q) - 1))
    p_chain = _desc_chain(P)
    if ordering == "odd-last":
        return p_chain + q_chain + (odd,)
    if ordering == "odd-first":
        # the exact reversal of the odd-last factor sequence; this is the
        # unique arrangement whose coefficients stay products of the skipped
        # indices' linear factors
        return tuple(reversed(p_chain + q_chain + (odd,)))
    raise ValueError(f"unknown ordering {ordering!r}")


def theta_odd_alg(alg: GLAlgebra, r: int, s: int, ordering: str = "middle") -> ShapovalovElement:
    """Element for the odd root eps_r - delta_s of gl(m,n)."""
    m, n = alg.m, alg.n
    if not (1 <= r <= m and 1 <= s <= n):
        raise ValueError(f"odd root indices r={r}, s={s} out of range for gl({m},{n})")
    if ordering == "standard":
        ordering = "middle"
    if ordering not in ODD_ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    terms = []
    for I in _interval_subsets(r, m + s):
        word = _odd_word(I, r, s, m, ordering)
        factors = tuple(
            _odd_index_coeff(alg, r, s, p - 1, ordering)
            for p in range(r + 1, m + s)
            if p not in I
        )
        terms.append((word, factors))
    eta = Weight.eps(m, n, r) - Weight.delta(m, n, s)
    return ShapovalovElement(alg, eta, 1, ordering, terms)


def theta_odd(r: int, s: int, m: int, n: int, ordering: str = "middle") -> ShapovalovElement:
    return theta_odd_alg(gl(m, n), r, s, ordering)


def theta_glmn_distinguished(m: int, n: int) -> ShapovalovElement:
    """Element for the highest odd root eps_1 - delta_n, distinguished Borel."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    el = theta_odd_alg(gl(m, n), 1, n, "middle")
    el.ordering = "standard"
    return el


def theta_for_root(alg: GLAlgebra, root: Weight, ordering: str = "standard") -> ShapovalovElement:
    """Dispatch on the type of the positive root."""
    ij = alg.root_from_weight(root)
    if ij is None:
        raise ValueError(f"{root} is not a root of {alg}")
    i, j = ij
    if j <= alg.m:
        if ordering not in ("standard", "bform"):
            raise ValueError("even roots support the standard and bform orderings")
        return theta_even_eps(alg, i, j, ordering)
    if i > alg.m:
        if ordering not in ("standard", "bform"):
            raise ValueError("even roots support the standard and bform orderings")
        return theta_even_delta(alg, i - alg.m, j - alg.m, ordering)
    return theta_odd_alg(alg, i, j - alg.m, ordering)


# ---------------------------------------------------------------------------
# arbitrary Borel subalgebras

def theta_borel(s: Shuffle) -> ShapovalovElement:
    """Element for eps_1 - delta_n with respect to the Borel of a shuffle.

    Terms are indexed by subsets of the word entries containing the first
    and last entry; factor order is the reverse word order and coefficients
    are products of the diagram's t-values over the skipped entries.
    """
    if not s.endpoint_fixed():
        raise ValueError("the shuffle must fix 1 first and n' last")
    data = diagram_data(s)
    alg = gl(s.m, s.n)
    N = s.m + s.n
    terms = []
    for pos_set in _interval_subsets(0, N - 1):
        I = [s.word[k] for k in sorted(pos_set, reverse=True)]  # decreasing order
        word = _desc_chain(tuple(I))
        skipped = [e for k, e in enumerate(s.word) if k not in pos_set]
        for e in skipped:
            assert e in data.t, "every skipped entry has a diagram coefficient"
        factors = tuple(data.t[e] for e in skipped)
        terms.append((word, factors))
    return ShapovalovElement(alg, eta_weight(s.m, s.n), 1, "borel", terms, borel=s)


# ---------------------------------------------------------------------------
# partial expansions

@dataclass
class CaseDecomposition:
    """Partial expansion of an odd-root element around distinguished indices."""

    alg: GLAlgebra
    gamma: Weight
    theta: ShapovalovElement
    pieces: dict          # label -> UEAElement (sums over the index classes)
    indeterminates: dict  # label -> Poly
    factors: dict         # label -> ShapovalovElement of the sub-roots
    index_sets: dict      # label -> list of subsets


def _sum_terms(alg, terms) -> UEAElement:
    total = UEAElement.zero(alg)
    for word, factors in terms:
        # the Cartan factors sit to the right of the whole word, so they go
        # through the straightener (for non-distinguished Borels the word's
        # normal form has positive parts)
        total = total + normal_order(alg, list(word) + list(factors))
    return total


def case1_decompose(r: int, s: int, l: int, m: int, n: int) -> CaseDecomposition:
    """Split the bform expansion of eps_r - delta_s at the eps index l.

    Writes theta_gamma = (sum over subsets containing l) + (sum over subsets
    omitting l) * T with T the coefficient attached to skipping l.  On
    weights where the constraints (lam+rho, gamma) = (lam+rho, gamma') = 0
    hold, the first part acts as theta_alpha * theta_gamma' does.
    """
    if not 1 <= r < l <= m:
        raise ValueError("need r < l <= m")
    alg = gl(m, n)
    theta = theta_odd_alg(alg, r, s, "bform")
    T = _odd_index_coeff(alg, r, s, l - 1, "bform")
    with_l, without_l = [], []
    for (word, factors), I in zip(theta.terms, _interval_subsets(r, m + s)):
        if l in I:
            with_l.append((word, factors))
        else:
            reduced = list(factors)
            reduced.remove(T)
            without_l.append((word, tuple(reduced)))
    theta_alpha = theta_even_eps(alg, r, l, "bform")
    theta_gamma_p = theta_odd_alg(alg, l, s, "bform")
    pieces = {
        "main": _sum_terms(alg, with_l),
        "remainder": _sum_terms(alg, without_l),
        "product": theta_alpha.body * theta_gamma_p.body,
    }
    return CaseDecomposition(
        alg=alg,
        gamma=theta.eta,
        theta=theta,
        pieces=pieces,
        indeterminates={"T": T},
        factors={"alpha": theta_alpha, "gamma_prime": theta_gamma_p},
        index_sets={
            "main": [w for w, _ in with_l],
            "remainder": [w for w, _ in without_l],
        },
    )


def case2_decompose(r: int, s: int, l: int, k: int, m: int, n: int) -> CaseDecomposition:
    """Four-way split of the odd-last expansion of eps_r - delta_s.

    The classes are indexed by whether the subset contains l and m+k; the
    indeterminates are T (for skipping l) and S = -(coefficient for skipping
    m+k).  The class containing both indices matches the triple product
    theta_{eps_r-eps_l} theta_{delta_k-delta_s} theta_{eps_l-delta_k} when
    the middle factor's block has no interior skips (l = m, k = 1); in
    general the match holds where both indeterminates vanish.
    """
    if not (1 <= r < l <= m and 1 <= k < s <= n):
        raise ValueError("need r < l <= m and k < s <= n")
    alg = gl(m, n)
    theta = theta_odd_alg(alg, r, s, "odd-last")
    T = _odd_index_coeff(alg, r, s, l - 1, "odd-last")
    S = -_odd_index_coeff(alg, r, s, m + k - 1, "odd-last")
    classes = {"both": [], "no_mk": [], "no_l": [], "neither": []}
    subsets = {lab: [] for lab in classes}
    for (word, factors), I in zip(theta.terms, _interval_subsets(r, m + s)):
        has_l, has_mk = l in I, (m + k) in I
        label = {
            (True, True): "both",
            (True, False): "no_mk",
            (False, True): "no_l",
            (False, False): "neither",
        }[(has_l, has_mk)]
        reduced = list(factors)
        if not has_l:
            reduced.remove(T)
        if not has_mk:
            reduced.remove(-S)
        classes[label].append((word, tuple(reduced)))
        subsets[label].append(I)
    theta_a1 = theta_even_eps(alg, r, l)
    theta_a2 = theta_even_delta(alg, k, s)
    theta_g1 = theta_odd_alg(alg, l, k, "odd-last")
    pieces = {lab: _sum_terms(alg, terms) for lab, terms in classes.items()}
    pieces["product"] = theta_a1.body * theta_a2.body * theta_g1.body
    return CaseDecomposition(
        alg=alg,
        gamma=theta.eta,
        theta=theta,
        pieces=pieces,
        indeterminates={"T": T, "S": S},
        factors={"alpha1": theta_a1, "alpha2": theta_a2, "gamma1": theta_g1},
        index_sets=subsets,
    )


def case2_assembled(dec: CaseDecomposition) -> UEAElement:
    """Right side of the four-sum identity, assembled from the pieces."""
    T, S = dec.indeterminates["T"], dec.indeterminates["S"]
    return (
        dec.pieces["product"]
        - dec.pieces["no_mk"].scale_central(S)
        + dec.pieces["no_l"].scale_central(T)
        - dec.pieces["neither"].scale_central(S * T)
    )


# ---------------------------------------------------------------------------
# powers

def theta_power(m: int, p: int) -> UEAElement:
    """p-th power of the gl(m) element; a lowering element for multiplicity p."""
    if p < 1:
        raise ValueError("need p >= 1")
    return theta_gl(m).body ** p


def square_isotropic_check(m: int, n: int, lam: Weight) -> bool:
    """theta^2 kills the highest weight vector for isotropic highest root."""
    theta = theta_glmn_distinguished(m, n)
    if not theta.hyperplane().member(lam):
        raise ValueError("lambda must lie on the root hyperplane")
    v = theta.verma_vector(lam)
    return act(theta.body, v).is_zero()


# ---------------------------------------------------------------------------
# the exchange identity between adjacent root lengths

def lemma1768_check(m: int, p: int, q_val: int, lam: Weight | None = None) -> bool:
    """Exchange identity e^{p+q} theta'(mu) = theta(lam) e^p for gl(m).

    Here alpha is the last simple root, eta = eps_1 - eps_m, eta' = s_alpha
    eta and mu = s_alpha . lam.  With lam omitted the check is symbolic over
    the two defining constraints.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    if p < 1:
        raise ValueError("need p >= 1")
    alg = gl(m, 0)
    alpha = Weight.eps(m, 0, m - 1) - Weight.eps(m, 0, m)
    eta = Weight.eps(m, 0, 1) - Weight.eps(m, 0, m)
    q = int(bilinear_form(eta, alpha))  # alpha^vee = alpha here
    if q_val != q or q == 0:
        raise ValueError(f"(eta, alpha^vee) = {q}; degenerate or mismatched q")
    if lam is None:
        # (lam + rho, alpha) = -p
        pair_c = h_of_weight(alpha) + Poly.const(bilinear_form(alg.rho, alpha) + p)
        lam = generic_point(m, 0, [Hyperplane(eta, 1).constraint_poly(), pair_c])
    else:
        if not Hyperplane(eta, 1).member(lam):
            raise ValueError("lambda must lie on the multiplicity-1 hyperplane")
        if bilinear_form(lam + alg.rho, alpha) != -p:
            raise ValueError("need (lam+rho, alpha^vee) = -p")
    mu = _dot_reflection(alg, alpha, lam)
    theta_small = theta_even_eps(alg, 1, m - 1)
    theta_big = theta_even_eps(alg, 1, m)
    e_neg = UEAElement.gen(alg, m, m - 1)
    lhs = (e_neg ** (p + q)) * theta_small.evaluate(mu)
    rhs = theta_big.evaluate(lam) * (e_neg ** p)
    return (lhs - rhs).is_zero()


def _dot_reflection(alg: GLAlgebra, alpha: Weight, lam: Weight) -> Weight:
    """s_alpha . lam = s_alpha(lam + rho) - rho for an even root alpha."""
    aa = bilinear_form(alpha, alpha)
    shifted = lam + alg.rho
    c = bilinear_form(shifted, alpha) * (Fraction(2) / aa)
    return shifted - c * alpha - alg.rho


# ---------------------------------------------------------------------------
# independence and minimality of odd-root elements

def odd_positive_roots(alg: GLAlgebra):
    return [
        (r, s, Weight.eps(alg.m, alg.n, r) - Weight.delta(alg.m, alg.n, s))
        for r in range(1, alg.m + 1)
        for s in range(1, alg.n + 1)
    ]


def b_lambda(alg: GLAlgebra, lam: Weight):
    """Isotropic positive roots gamma with (lam + rho, gamma) = 0."""
    out = []
    for r, s, gamma in odd_positive_roots(alg):
        if bilinear_form(lam + alg.rho, gamma) == 0:
            out.append(gamma)
    return out


def _gamma_indices(alg, gamma):
    ij = alg.root_from_weight(gamma)
    if ij is None or not (ij[0] <= alg.m < ij[1]):
        raise ValueError(f"{gamma} is not a positive odd root")
    return ij[0], ij[1] - alg.m


def bruhat_covers(alg: GLAlgebra, gamma: Weight, lam: Weight):
    """Roots gamma' covered by gamma: gamma - gamma' an even root alpha with
    (gamma, alpha^vee) = 1 and (lam + rho, alpha^vee) = 0."""
    r, s = _gamma_indices(alg, gamma)
    lr = lam + alg.rho
    out = []
    for j in range(r + 1, alg.m + 1):
        alpha = Weight.eps(alg.m, alg.n, r) - Weight.eps(alg.m, alg.n, j)
        if bilinear_form(lr, alpha) == 0:
            out.append(gamma - alpha)
    for i in range(1, s):
        alpha = Weight.delta(alg.m, alg.n, i) - Weight.delta(alg.m, alg.n, s)
        if -bilinear_form(lr, alpha) == 0:
            out.append(gamma - alpha)
    return out


def is_minimal(alg: GLAlgebra, gamma: Weight, lam: Weight) -> bool:
    if gamma not in b_lambda(alg, lam):
        raise ValueError("gamma must belong to B(lambda)")
    return not bruhat_covers(alg, gamma, lam)


def is_independent(alg: GLAlgebra, gamma: Weight, lam: Weight) -> bool:
    """Brute-force: is theta_gamma v outside the span of U(n^-) theta_gamma' v?"""
    if alg.N > 6:
        raise ValueError("independence check is capped at m + n <= 6")
    blam = b_lambda(alg, lam)
    if gamma not in blam:
        raise ValueError("gamma must belong to B(lambda)")
    r, s = _gamma_indices(alg, gamma)
    basis = weight_basis(alg, lam, gamma)
    order = {mono: i for i, mono in enumerate(basis)}
    target_vec = _vec_in(order, theta_odd_alg(alg, r, s, "odd-last").verma_vector(lam))
    columns = []
    for gamma_p in blam:
        if gamma_p == gamma:
            continue
        diff = gamma - gamma_p
        monos = weight_basis(alg, lam, diff)
        if not monos:
            continue
        rp, sp = _gamma_indices(alg, gamma_p)
        base = theta_odd_alg(alg, rp, sp, "odd-last").verma_vector(lam)
        for mono in monos:
            word = [g for i, j, e in mono for g in [(i, j)] * e]
            columns.append(_vec_in(order, act(word, base)))
    return solve_in_span(columns, target_vec) is None


def _vec_in(order, v: VermaVector):
    out = [Fraction(0)] * len(order)
    for mono, c in v.terms.items():
        out[order[mono]] = c
    return out


def ordered_basis_coefficient(alg, gamma: Weight, v: VermaVector, odd_position: str):
    """Coefficient of the plain lowering generator e_{-gamma} in v, expanded
    in the PBW-like basis whose monomials put their odd factor first or last."""
    monos = weight_basis(alg, v.lam, gamma)
    words = []
    pure_index = None
    for idx, mono in enumerate(monos):
        evens = [g for i, j, e in mono if not alg.gen_parity(i, j) for g in [(i, j)] * e]
        odds = [(i, j) for i, j, e in mono if alg.gen_parity(i, j)]
        if len(odds) != 1:
            raise ValueError("weight space is not linear in the odd generators")
        word = tuple(odds + evens) if odd_position == "first" else tuple(evens + odds)
        if not evens:
            pure_index = idx
        words.append(word)
    coeffs = coefficients_in_word_basis(v, words)
    return coeffs[pure_index]


def kac_coefficient(r: int, s: int, m: int, n: int, lam: Weight) -> Fraction:
    """Product formula for the e_{-gamma} coefficient of theta_gamma v_lambda
    in the odd-first basis, gamma = eps_r - delta_s."""
    alg = gl(m, n)
    lr = lam + alg.rho
    out = Fraction(1)
    for kk in range(1, m - r + 1):
        out *= bilinear_form(lr, Weight.eps(m, n, r) - Weight.eps(m, n, r + kk)) - 1
    for j in range(1, s):
        out *= bilinear_form(lr, Weight.delta(m, n, j) - Weight.delta(m, n, s)) + 1
    v = theta_odd_alg(alg, r, s, "odd-first").verma_vector(lam)
    gamma = Weight.eps(m, n, r) - Weight.delta(m, n, s)
    expanded = ordered_basis_coefficient(alg, gamma, v, "first")
    if expanded != out:
        raise AssertionError(
            f"product formula {out} disagrees with the expanded coefficient {expanded}"
        )
    return out


def is_dominant_even(alg: GLAlgebra, lam: Weight) -> bool:
    """(lam, alpha^vee) a non-negative integer for every even simple root."""
    for i in range(1, alg.m):
        c = lam.coords[i - 1] - lam.coords[i]
        if c.denominator != 1 or c < 0:
            return False
    for j in range(1, alg.n):
        c = lam.coords[alg.m + j - 1] - lam.coords[alg.m + j]
        if c.denominator != 1 or c < 0:
            return False
    return True


# ---------------------------------------------------------------------------
# verification harness

def root_to_str(alg: GLAlgebra, root: Weight) -> str:
    ij = alg.root_from_weight(root)
    if ij is None:
        raise ValueError(f"{root} is not a root")
    i, j = ij
    a = f"e{i}" if i <= alg.m else f"d{i - alg.m}"
    b = f"e{j}" if j <= alg.m else f"d{j - alg.m}"
    return f"{a}-{b}"


def parse_root(alg: GLAlgebra, text: str) -> Weight:
    try:
        left, right = text.split("-")
        out = []
        for tok in (left, right):
            kind, idx = tok[0], int(tok[1:])
            if kind == "e":
                out.append(Weight.eps(alg.m, alg.n, idx))
            elif kind == "d":
                out.append(Weight.delta(alg.m, alg.n, idx))
            else:
                raise ValueError
        return out[0] - out[1]
    except (ValueError, IndexError):
        raise ValueError(
            f"cannot parse root {text!r}; use e<i>-e<j>, e<i>-d<j> or d<i>-d<j>"
        ) from None


def raising_vectors(theta: ShapovalovElement):
    if theta.borel is None:
        return [g for _, g in theta.alg.simple_root_data()]
    from .shuffles import simple_roots as shuffle_simple_roots

    return [ab for _, _, ab in shuffle_simple_roots(theta.borel)]


def verify_highest_weight(
    theta: ShapovalovElement, samples: int = 5, seed: int = 0
) -> dict:
    """Sampled defining-property check; returns a machine-readable report."""
    hp = theta.hyperplane()
    raising = raising_vectors(theta)
    points = sample_hyperplane(hp, seed, samples)
    results = []
    for lam in points:
        v = theta.verma_vector(lam)
        ok = not v.is_zero() and all(act([g], v).is_zero() for g in raising)
        results.append({"lambda": lam.to_json(), "passed": ok})
    report = {
        "constructor": theta.ordering,
        "root": root_to_str(theta.alg, theta.eta),
        "borel": str(theta.borel) if theta.borel else "distinguished",
        "multiplicity": theta.mult,
        "samples": samples,
        "seed": seed,
        "degree_note": "coefficients are polynomial in lambda of degree <= "
        + str(theta.alg.N),
        "all_passed": all(r["passed"] for r in results),
        "results": results,
    }
    return report


def verify_highest_weight_symbolic(theta: ShapovalovElement) -> bool:
    """Exact check on the whole hyperplane: every simple raising operator
    kills theta v at a generic point of the hyperplane."""
    alg = theta.alg
    lam = generic_point(alg.m, alg.n, [theta.hyperplane().constraint_poly()])
    v = theta.verma_vector(lam)
    return all(act([g], v).is_zero() for g in raising_vectors(theta))
