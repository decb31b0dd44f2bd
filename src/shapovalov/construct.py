"""Construction of Shapovalov elements for gl(m) and gl(m,n).

An element is its chain: a small graph whose paths are the terms of the
paper's subset-sum expansion.  A path takes the indices of one subset of an
index interval holding both endpoints; its word is a product of lowering
generators, in an order fixed by the chosen convention, and its Cartan
product has one linear factor per index it skips.  Every element is built
from its root's index interval i..j and an ordering, whose constants the one
table hessenberg.ORDERINGS holds (hessenberg.skip_coeff gives the factors).
The conventions are:

    standard   descending chains; for odd roots the same as middle
    middle     descending chains, the odd generator sits where the chain
               crosses from the delta side to the eps side
    odd-last   the unique odd generator is the last factor
    odd-first  the unique odd generator is the first factor
    bform      ascending chains (the column-matrix expansion)

Even roots take standard and bform only, which coincide as elements of
U(g); for odd roots the conventions agree after applying to a highest
weight vector on the defining hyperplane, and in small ranks even as
elements.

body, evaluate and apply sum over the paths by the Hessenberg column
recurrence instead of term by term.  In the standard ordering, with
u_a = v,

    u_q = sum over a <= p < q of (prod over p < t < q of c_t) e_{q,p} u_p,

and theta v = u_b: one generator action per pair p < q, the sum over p in
Horner form, so each step attaches a single linear factor.  The descending
chains (standard, middle and arbitrary Borels) and the ascending ones
(bform) are such lines of indices.  odd-last words are (delta chain)(eps
chain)(odd generator) and odd-first words their reverses; their chains
take the odd generator, the eps walk and the delta walk in acting order.

Every generator of a chain is lowering for the element's own order, and a
path's Cartan factors sit at the right end of its word.  So body and
evaluate sum in U(n-) (x) U(h) over the order's int codes, each monomial's
Cartan part a packed term dict that the sum owns: a step adds int
multiples of it, by the Verma action's lowering step, in place
(_lower_into), a linear factor makes one new dict, a scalar one scales it,
each Poly is built once at the end, and a Borel element's terms are
normal-ordered then.
hessenberg.det_lr, on UEA products, is an independent route to them.  As
theta y = sum over the paths X H of X y H(x + wt y), theta_power starts the
chain from y = theta^k and shifts each factor by wt y = -k eta.  apply
starts from any Verma vector v (verma_vector(lam) is apply on v_lambda);
for v of weight mu the factors are the scalars c_t(mu), as
H X = X H(x + wt X), and an inhomogeneous v goes through the chain once
per weight.  Like the action, apply is fraction-free: a factor multiplies
the integer numerators by c_t at the integer point D * mu (D the common
denominator of lambda) and puts D on the denominator, and sums meet over
the least common denominator.  terms lists the paths one by one, for
printing and the partial expansions.
"""

from __future__ import annotations

from fractions import Fraction

from .exact_algebra import (
    Hyperplane,
    Poly,
    Weight,
    _coeff,
    _packed,
    _times_linear,
    bilinear_form,
    eval_at,
    eval_table,
    generic_point,
    rho_pairing,
    sample_hyperplane,
)
from .hessenberg import ORDERINGS, skip_coeff
from .pbw import GLAlgebra, PBWOrder, UEAElement, _accumulate, _codes, _expand_key, gl, normal_order
from .shuffles import Shuffle, diagram_data, eta_weight
from .verma import (
    VermaVector,
    _merge,
    act,
    coefficients_in_word_basis,
    coords_in_basis,
    is_highest_weight,
    solve_in_span,
    vacuum,
    weight_basis,
)

EVEN_ORDERINGS = ("standard", "bform")
ODD_ORDERINGS = tuple(o for o in ORDERINGS if o != "standard")
INDEPENDENCE_CAP = 6  # largest m + n whose independence is decided by brute force


class ShapovalovElement:
    """A constructed lowering element, given by its chain.

    chain is a small graph with one path per term of the expansion, which
    _chain_sum sums over (see the note above _paths).  terms lists the paths
    as (generator word, Cartan factors) pairs, the word not yet
    normal-ordered.  body is the canonical normal form of the full sum,
    built on first use.  Two elements are equal when their six defining
    fields are, whether or not either has built its body; an element is
    mutable and so unhashable.
    """

    def __init__(self, alg: GLAlgebra, eta: Weight, mult: int, ordering: str, chain: tuple,
                 borel: Shuffle | None = None):
        self.alg, self.eta, self.mult, self.ordering = alg, eta, mult, ordering
        self.chain, self.borel = chain, borel
        self._body: UEAElement | None = None

    def _fields(self) -> tuple:
        return self.alg, self.eta, self.mult, self.ordering, self.chain, self.borel

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return (f"ShapovalovElement(alg={self.alg!r}, eta={self.eta!r}, mult={self.mult!r}, "
                f"ordering={self.ordering!r}, borel={self.borel!r})")

    @property
    def body(self) -> UEAElement:
        if self._body is None:
            self._body = self._element(lambda f: f)
        return self._body

    @property
    def terms(self) -> list:
        """One (word, factors) pair per index subset: the smallest subsets
        first, then in lexicographic order, the factors in label order."""
        return [(word, tuple(f for _, f in skipped)) for word, skipped in _paths(self.chain)]

    def hyperplane(self) -> Hyperplane:
        return Hyperplane(self.eta, self.mult)

    def _element(self, factor, start: UEAElement | None = None) -> UEAElement:
        """Sum over the chain's paths from start (1 by default, no positive
        part), each Cartan factor f attached as factor(f); see the top note.
        A monomial's Cartan part is [packed terms, degree bound] until the
        Polys are built at the end."""
        alg, word = self.alg, self.pbw_order().word
        codes = _codes(alg, word)
        start = {(): [{0: 1}, 0]} if start is None else {
            codes.encode(n + p): [dict(h._t), h._deg] for (n, p), h in start.terms.items()}

        def add(gen, terms, _, acc, den):
            _lower_into(codes, None if gen is None else codes.code[gen], terms, acc)
            return den

        def scale(acc, den, f):
            c = factor(f)
            if isinstance(c, Poly):
                if not c.is_constant():
                    for part in acc.values():
                        part[:] = _times_linear(*part, c)
                    return acc, den
                c = c.constant_value()
            if not c:
                return {}, den
            if c != 1:
                for t, _ in acc.values():
                    for k, x in t.items():
                        t[k] = _coeff(x * c)
            return acc, den

        terms, _ = _chain_sum(self.chain, start, add, scale)
        terms = {k: _packed(t, deg) for k, (t, deg) in terms.items()}
        if word is None:
            return UEAElement(alg, {(codes.decode(k), ()): h for k, h in terms.items()})
        return _sum_terms(alg, [(_expand_key(codes.decode(k)), (h,)) for k, h in terms.items()])

    def evaluate(self, lam: Weight) -> UEAElement:
        """The element with its Cartan factors evaluated at lam; they are
        scalars there, so this is meaningful for non-distinguished Borels as
        well."""
        return self._element(lambda f: eval_at(f, lam))

    def pbw_order(self) -> PBWOrder:
        return PBWOrder(self.borel.word if self.borel else None)

    def apply(self, v: VermaVector) -> VermaVector:
        """theta v for any Verma vector v: one generator action per step of
        the chain, started from each weight part of v, whose weight mu the
        Cartan factors are evaluated at (see the note at the top).  Like the
        action, it is fraction-free: a factor f multiplies the numerators
        by f at the integer point D * mu and puts D^deg f on the
        denominator (Weight.scaled gives D and D * lambda)."""
        alg, lam, order = v.alg, v.lam, v.order
        D, point = lam.scaled()

        def add(gen, nums, d, acc, den):
            if gen is not None:
                w = act([gen], VermaVector.over(alg, lam, nums, d, order))
                nums, d = w.nums, w.den
            return _merge(acc, den, nums, d)

        def scale_at(at):
            evaluate = eval_table(at, D)

            def scale(nums, den, f):
                c, d = evaluate(f)
                return ({k: x * c for k, x in nums.items()} if c else {}), den * D ** d
            return scale

        offsets = _codes(alg, order.word).offsets
        parts: dict = {}
        for mono, c in v.nums.items():
            parts.setdefault(offsets(mono), {})[mono] = c
        out: dict = {}
        den = 1
        for off, part in parts.items():
            at = tuple(x + D * k for x, k in zip(point, off)) if any(off) else point
            nums, d = _chain_sum(self.chain, part, add, scale_at(at), v.den)
            den = _merge(out, den, nums, d)
        return VermaVector.over(alg, lam, out, den, order)

    def verma_vector(self, lam: Weight) -> VermaVector:
        """Image of the highest weight vector, in the Verma module for the
        element's own Borel subalgebra."""
        return self.apply(vacuum(self.alg, lam, self.pbw_order()))

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


def _chain_sum(chain, start: dict, add, scale, den: int = 1):
    """Terms of the sum over the chain's paths, in Horner form, as
    (terms, denominator): a value is its terms over an int denominator,
    which the Verma action needs and U(g) leaves at 1.

    Node 0 holds start over den.  Each later node runs through its sources
    (p, gen, factors) in order: add(gen, terms, d, acc, den) adds gen times
    the value terms / d at p (the value itself when gen is None) into the
    node's terms acc over den, in place, and returns the new denominator;
    then scale multiplies all the node holds by each factor.  The last
    node's value is returned.  Attaching one linear factor at a time to a
    partial sum keeps the Cartan products small.
    """
    vals = [(start, den)]
    for sources in chain:
        acc: dict = {}
        den = 1
        for p, gen, factors in sources:
            if vals[p][0]:
                den = add(gen, *vals[p], acc, den)
            for _, f in factors:
                if acc:
                    acc, den = scale(acc, den, f)
        vals.append((acc, den))
    return vals[-1]


def _lower_into(codes, g, terms, acc):
    """Add g times terms into acc in place, for the code g of a lowering
    generator (None for 1) and maps from monomials to [terms, degree bound]
    Cartan parts (ShapovalovElement._element).  g mono is the Verma action's
    lowering step, int multiples of monomials, read from the numbering's
    results by pbw._Codes.steps, as verma._letter reads it.  A part enters
    acc as a copy, so acc owns every dict it holds, and a part that cancels
    to zero leaves it."""
    steps = (((mono, 1),) for mono in terms) if g is None else codes.steps(g, terms)
    for (t, deg), res in zip(terms.values(), steps):
        for neg, v in res:
            part = acc.get(neg)
            if part is None:
                acc[neg] = [dict(t) if v == 1 else {k: c * v for k, c in t.items()}, deg]
                continue
            s = part[0]
            for k, c in t.items():
                c = s.get(k, 0) + c * v
                if c:
                    s[k] = c
                else:
                    del s[k]
            if not s:
                del acc[neg]
            elif deg > part[1]:
                part[1] = deg


# A chain lists, for each node after node 0, its sources (p, generator or
# None, factors): p is an earlier node, a path's word is the generators of
# its steps with the first step's rightmost, and its Cartan product is the
# factors met after each step it takes, up to its last node.  So a factor
# listed with source p is skipped by every path into the node through p or
# an earlier source.  Each factor is a (label, Cartan polynomial) pair, the
# label naming the index it skips.

def _paths(chain) -> list:
    """The chain's paths as (word, skipped) pairs, skipped holding the
    (label, factor) pairs the path skips, in label order.

    A path's index subset is its interval minus its skipped labels, and
    complements in one interval reverse the lexicographic order of subsets
    of one size.  So the paths are sorted with the most skipped labels
    first, then in reverse lexicographic order of those labels: their
    subsets come smallest first, then in lexicographic order.
    """
    into = [[((), ())]]  # the paths into each node
    for sources in chain:
        here = []
        for i, (p, gen, _) in enumerate(sources):
            head = (gen,) if gen else ()
            after = tuple(f for _, _, factors in sources[i:] for f in factors)
            here += [(head + word, skipped + after) for word, skipped in into[p]]
        into.append(here)
    paths = [(word, tuple(sorted(skipped, key=lambda f: f[0]))) for word, skipped in into[-1]]
    paths.sort(key=lambda path: (len(path[1]), [label for label, _ in path[1]]), reverse=True)
    return paths


def _line(indices, coeff, descending=True, labels=None) -> tuple:
    """Chains over indices, one path per subset holding the first and the
    last index.  Descending chains e_{i_k, i_{k-1}} ... e_{i_1, i_0}, for
    i_0 .. i_k in index order, are walked from the first index; ascending
    chains, their reverses, from the last.  A step skips the indices between
    its ends, whose factors coeff gives and labels name (by default the
    indices themselves)."""
    labels = indices if labels is None else labels
    if not descending:
        indices, labels = indices[::-1], labels[::-1]
    return tuple(
        tuple(
            (p, (indices[q], indices[p]) if descending else (indices[p], indices[q]),
             ((labels[p + 1], coeff(indices[p + 1])),) if p + 1 < q else ())
            for p in range(q)
        )
        for q in range(1, len(indices))
    )


def _odd_ends(m, r, s, coeff, odd_first) -> tuple:
    """odd-last or odd-first chains for eps_r - delta_s.

    An odd-last word p_chain q_chain e_{y,x}, with x the top index of its
    eps part and y the bottom index of its delta part, acts as e_{y,x},
    then walks the eps side from x down to r and the delta side from y up
    to m+s.  It skips the eps indices above x and the delta indices below
    y, so each y has its own eps walk, node (y, q).  An odd-first word is
    the reverse: delta side down, eps side up, e_{y,x} last.
    """
    eps, delta = range(r, m + 1), range(m + 1, m + s + 1)
    index = {m + s if odd_first else "start": 0}
    nodes = []

    def node(name, sources):
        # sources: (source node, generator or None, labels skipped after it)
        nodes.append(tuple((index[a], gen, tuple((k, coeff(k)) for k in skips)) for a, gen, skips in sources))
        index[name] = len(nodes)

    def upto(label, end):  # the next label of a Horner sum, skipped unless it is the end
        return [label] if label != end else []

    if not odd_first:
        for y in delta:
            for x in reversed(eps):
                node((y, x), [("start", (y, x), upto(m, x))]
                     + [((y, a), (a, x), upto(a - 1, x)) for a in range(m, x, -1)])
        for p in delta:
            node(p, [((p, r), None, upto(m + 1, p))] + [(q, (p, q), upto(q + 1, p)) for q in range(m + 1, p)])
        return tuple(nodes)
    for p in reversed(delta[:-1]):
        node(p, [(q, (q, p), upto(q - 1, p)) for q in range(m + s, p, -1)])
    for y in delta:
        node((y, r), [(y, None, range(m + 1, y))])
        for x in eps[1:]:
            node((y, x), [((y, q), (x, q), upto(q + 1, x)) for q in range(r, x)])
        node(("end", y), [((y, x), (y, x), upto(x + 1, m + 1)) for x in eps])
    node("end", [(("end", y), None, ()) for y in delta])
    return tuple(nodes)


# ---------------------------------------------------------------------------
# positive roots

def _root_element(alg: GLAlgebra, i: int, j: int, ordering: str) -> ShapovalovElement:
    """Element for the positive root with index interval i..j in a checked
    ordering: a line over i..j, descending unless bform, or the odd-last and
    odd-first chains of an odd root."""

    def coeff(p):
        return skip_coeff(alg, i, j, p, ordering)

    if ordering in ("odd-last", "odd-first"):
        chain = _odd_ends(alg.m, i, j - alg.m, coeff, ordering == "odd-first")
    else:
        chain = _line(range(i, j + 1), coeff, ordering != "bform")
    return ShapovalovElement(alg, alg.gen_weight(i, j), 1, ordering, chain)


def _check_even(ordering):
    if ordering not in EVEN_ORDERINGS:
        raise ValueError("even roots support the standard and bform orderings")


def theta_even_eps(alg: GLAlgebra, a: int, b: int, ordering: str = "standard") -> ShapovalovElement:
    """Element for the even root eps_a - eps_b, built inside rows a..b."""
    if not 1 <= a < b <= alg.m:
        raise ValueError(f"need 1 <= a < b <= m for an eps root, got ({a},{b})")
    _check_even(ordering)
    return _root_element(alg, a, b, ordering)


def theta_even_delta(alg: GLAlgebra, a: int, b: int, ordering: str = "standard") -> ShapovalovElement:
    """Element for the even root delta_a - delta_b (rows m+a..m+b)."""
    if not 1 <= a < b <= alg.n:
        raise ValueError(f"need 1 <= a < b <= n for a delta root, got ({a},{b})")
    _check_even(ordering)
    return _root_element(alg, alg.m + a, alg.m + b, ordering)


def theta_gl(m: int) -> ShapovalovElement:
    """The classical element for the highest root of gl(m)."""
    if m < 2:
        raise ValueError("need m >= 2")
    return theta_even_eps(gl(m, 0), 1, m)


def theta_odd_alg(alg: GLAlgebra, r: int, s: int, ordering: str = "middle") -> ShapovalovElement:
    """Element for the odd root eps_r - delta_s of gl(m,n)."""
    m, n = alg.m, alg.n
    if not (1 <= r <= m and 1 <= s <= n):
        raise ValueError(f"odd root indices r={r}, s={s} out of range for gl({m},{n})")
    if ordering == "standard":
        ordering = "middle"
    if ordering not in ODD_ORDERINGS:
        raise ValueError(f"unknown ordering {ordering!r}")
    return _root_element(alg, r, m + s, ordering)


def theta_odd(r: int, s: int, m: int, n: int, ordering: str = "middle") -> ShapovalovElement:
    return theta_odd_alg(gl(m, n), r, s, ordering)


def theta_glmn_distinguished(m: int, n: int) -> ShapovalovElement:
    """Element for the highest odd root eps_1 - delta_n, distinguished Borel."""
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    return _root_element(gl(m, n), 1, m + n, "standard")


def theta_for_root(alg: GLAlgebra, root: Weight, ordering: str = "standard") -> ShapovalovElement:
    """Dispatch on the type of the positive root."""
    ij = alg.root_from_weight(root)
    if ij is None:
        raise ValueError(f"{root} is not a root of {alg}")
    i, j = ij
    if i > j:
        raise ValueError(f"{root_to_str(alg, root)} is not a positive root of {alg}")
    if j <= alg.m:
        return theta_even_eps(alg, i, j, ordering)
    if i > alg.m:
        return theta_even_delta(alg, i - alg.m, j - alg.m, ordering)
    return theta_odd_alg(alg, i, j - alg.m, ordering)


# ---------------------------------------------------------------------------
# arbitrary Borel subalgebras

def theta_borel(s: Shuffle) -> ShapovalovElement:
    """Element for eps_1 - delta_n with respect to the Borel of a shuffle.

    Terms are indexed by subsets of the word entries containing the first
    and last entry; factor order is the reverse word order and coefficients
    are products of the diagram's t-values over the skipped entries, which
    are labelled by their positions in the word.
    """
    if s.n < 1:
        raise ValueError("shuffle Borels need n >= 1")
    if not s.endpoint_fixed():
        raise ValueError("the shuffle must fix 1 first and n' last")
    data = diagram_data(s)

    def coeff(e):
        assert e in data.t, "every skipped entry has a diagram coefficient"
        return data.t[e]

    chain = _line(s.word, coeff, labels=range(len(s.word)))
    return ShapovalovElement(gl(s.m, s.n), eta_weight(s.m, s.n), 1, "borel", chain, borel=s)


# ---------------------------------------------------------------------------
# partial expansions

class CaseDecomposition:
    """Partial expansion of an odd-root element around distinguished indices."""

    def __init__(self, alg: GLAlgebra, gamma: Weight, theta: ShapovalovElement, pieces: dict,
                 indeterminates: dict, factors: dict, index_sets: dict):
        self.alg, self.gamma, self.theta = alg, gamma, theta
        self.pieces = pieces                  # label -> UEAElement (sums over the index classes)
        self.indeterminates = indeterminates  # label -> Poly
        self.factors = factors                # label -> ShapovalovElement of the sub-roots
        self.index_sets = index_sets          # label -> list of subsets


def _sum_terms(alg, terms) -> UEAElement:
    """Sum of the normal forms of (word, factors) pairs, added into one dict:
    the decompositions below sum classes of terms that are not the paths of
    a chain, and a Borel element's body is normal-ordered with it."""
    total: dict = {}
    for word, factors in terms:
        # the factors sit right of the word and may move past positive parts
        for key, h in normal_order(alg, list(word) + list(factors)).terms.items():
            _accumulate(total, key, h)
    return UEAElement(alg, total)


def _split_paths(theta, lo, hi, split) -> dict:
    """The paths of theta grouped by which of the split indices their index
    subsets of [lo, hi] hold: for each group, the paths as (word, factors)
    pairs without the split indices' factors, and their subsets."""
    groups = {}
    for word, skipped in _paths(theta.chain):
        skips = dict(skipped)
        I = tuple(p for p in range(lo, hi + 1) if p not in skips)
        terms, subsets = groups.setdefault(tuple(p in I for p in split), ([], []))
        terms.append((word, tuple(f for p, f in skipped if p not in split)))
        subsets.append(I)
    return groups


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
    T = skip_coeff(alg, r, m + s, l, "bform")
    groups = _split_paths(theta, r, m + s, (l,))
    (with_l, main), (without_l, remainder) = groups[(True,)], groups[(False,)]
    theta_alpha = theta_even_eps(alg, r, l, "bform")
    theta_gamma_p = theta_odd_alg(alg, l, s, "bform")
    pieces = {
        "main": _sum_terms(alg, with_l),
        "remainder": _sum_terms(alg, without_l),
        "product": theta_alpha.body * theta_gamma_p.body,
    }
    return CaseDecomposition(
        alg=alg, gamma=theta.eta, theta=theta, pieces=pieces, indeterminates={"T": T},
        factors={"alpha": theta_alpha, "gamma_prime": theta_gamma_p},
        index_sets={"main": main, "remainder": remainder})


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
    T = skip_coeff(alg, r, m + s, l, "odd-last")
    S = -skip_coeff(alg, r, m + s, m + k, "odd-last")
    groups = _split_paths(theta, r, m + s, (l, m + k))
    names = {(True, True): "both", (True, False): "no_mk", (False, True): "no_l", (False, False): "neither"}
    theta_a1 = theta_even_eps(alg, r, l)
    theta_a2 = theta_even_delta(alg, k, s)
    theta_g1 = theta_odd_alg(alg, l, k, "odd-last")
    pieces = {name: _sum_terms(alg, groups[key][0]) for key, name in names.items()}
    pieces["product"] = theta_a1.body * theta_a2.body * theta_g1.body
    return CaseDecomposition(
        alg=alg, gamma=theta.eta, theta=theta, pieces=pieces, indeterminates={"T": T, "S": S},
        factors={"alpha1": theta_a1, "alpha2": theta_a2, "gamma1": theta_g1},
        index_sets={name: groups[key][1] for key, name in names.items()})


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
    """p-th power of the gl(m) element; a lowering element for multiplicity p.

    theta^(k+1) = theta y for y = theta^k is one pass of theta's chain
    started from y: a path X H of theta gives X H y = X y H(x + wt y), and
    y has weight -k eta, eta = eps_1 - eps_m, so each factor is shifted by
    {1: -k, m: +k} and multiplies the coefficients, which sit on the right
    of theta^k's lowering monomials.
    """
    if p < 1:
        raise ValueError("need p >= 1")
    theta, y = theta_gl(m), None
    for k in range(p):
        wt = {1: -k, m: k}
        y = theta._element(lambda f: f.shifted(wt), y)
    return y


def square_isotropic_check(m: int, n: int, lam: Weight) -> bool:
    """theta^2 kills the highest weight vector for isotropic highest root.

    theta^2 v_lambda goes through the chain twice, theta.apply on
    theta v_lambda, so the expanded body is never built.
    """
    theta = theta_glmn_distinguished(m, n)
    if not theta.hyperplane().member(lam):
        raise ValueError("lambda must lie on the root hyperplane")
    return theta.apply(theta.verma_vector(lam)).is_zero()


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
        lam = generic_point(m, 0, [Hyperplane(eta, 1).constraint_poly(), rho_pairing(alpha, p)])
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
    if alg.N > INDEPENDENCE_CAP:
        raise ValueError(f"independence check is capped at m + n <= {INDEPENDENCE_CAP}")
    blam = b_lambda(alg, lam)
    if gamma not in blam:
        raise ValueError("gamma must belong to B(lambda)")
    r, s = _gamma_indices(alg, gamma)
    basis = weight_basis(alg, gamma)
    target_vec = coords_in_basis(theta_odd_alg(alg, r, s, "odd-last").verma_vector(lam), basis)
    columns = []
    for gamma_p in blam:
        if gamma_p == gamma:
            continue
        diff = gamma - gamma_p
        monos = weight_basis(alg, diff)
        if not monos:
            continue
        rp, sp = _gamma_indices(alg, gamma_p)
        base = theta_odd_alg(alg, rp, sp, "odd-last").verma_vector(lam)
        for mono in monos:
            columns.append(coords_in_basis(act(_expand_key(mono), base), basis))
    return solve_in_span(columns, target_vec) is None


def ordered_basis_coefficient(alg, gamma: Weight, v: VermaVector, odd_position: str):
    """Coefficient of the plain lowering generator e_{-gamma} in v, expanded
    in the PBW-like basis whose monomials put their odd factor first or last."""
    monos = weight_basis(alg, gamma)
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
    except (ValueError, IndexError):
        raise ValueError(
            f"cannot parse root {text!r}; use e<i>-e<j>, e<i>-d<j> or d<i>-d<j>"
        ) from None
    if out[0] == out[1]:
        raise ValueError(f"{text} is not a root of {alg}")
    return out[0] - out[1]


def raising_vectors(theta: ShapovalovElement):
    return list(_codes(theta.alg, theta.pbw_order().word).raising)


def _is_singular(theta: ShapovalovElement, lam: Weight) -> bool:
    """theta v_lambda is nonzero and every simple raising operator of its
    order kills it."""
    v = theta.verma_vector(lam)
    return not v.is_zero() and is_highest_weight(v)


def verify_highest_weight(
    theta: ShapovalovElement, samples: int = 5, seed: int = 0
) -> dict:
    """Sampled defining-property check; returns a machine-readable report."""
    hp = theta.hyperplane()
    points = sample_hyperplane(hp, seed, samples)
    results = []
    for lam in points:
        results.append({"lambda": lam.to_json(), "passed": _is_singular(theta, lam)})
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
    """Exact check on the whole hyperplane: theta v is nonzero and every
    simple raising operator kills it at a generic point of the hyperplane."""
    alg = theta.alg
    lam = generic_point(alg.m, alg.n, [theta.hyperplane().constraint_poly()])
    return _is_singular(theta, lam)
