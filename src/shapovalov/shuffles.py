"""Borel subalgebras of gl(m,n) with the standard even part, encoded as
shuffles of {1..m, 1'..n'}, and the diagram combinatorics attached to them.

A shuffle is stored as a word of encoded entries: the unprimed entry i is
the integer i, the primed entry j' is m + j.  The encoded value of an entry
is also its row index in the defining representation, so the lowering
vector between consecutive entries a, b of a subset is simply e_{ab}.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, combinations

from .exact_algebra import Poly, Weight
from .pbw import GLAlgebra


class Shuffle:
    """One-line word interleaving 1..m and 1'..n' (both as subsequences)."""

    __slots__ = ("m", "n", "word")

    def __init__(self, m: int, n: int, word):
        word = tuple(word)
        if sorted(word) != list(range(1, m + n + 1)):
            text = " ".join(_entry(m, w) for w in word)
            again = [w for k, w in enumerate(word) if w in word[:k]]
            raise ValueError(f"shuffle entry {_entry(m, again[0])} repeats in \"{text}\"" if again else
                             f"shuffle word \"{text}\" must hold each of 1..{m} and 1'..{n}' once")
        unprimed = [w for w in word if w <= m]
        primed = [w for w in word if w > m]
        if unprimed != sorted(unprimed) or primed != sorted(primed):
            raise ValueError("shuffle condition violated: 1..m and 1'..n' must be subsequences")
        self.m = m
        self.n = n
        self.word = word

    def endpoint_fixed(self) -> bool:
        """Starts with 1 and ends with n' (the normalization for eta = eps_1 - delta_n)."""
        return self.word[0] == 1 and self.word[-1] == self.m + self.n

    def is_primed(self, entry: int) -> bool:
        return entry > self.m

    @staticmethod
    def distinguished(m, n) -> "Shuffle":
        return Shuffle(m, n, range(1, m + n + 1))

    @staticmethod
    def parse(m, n, text: str) -> "Shuffle":
        word = []
        for tok in text.replace(",", " ").split():
            primed = tok.endswith("'")
            digits = tok[:-1] if primed else tok
            if not digits.isdecimal():
                raise ValueError(
                    f"bad shuffle entry {tok!r}; expected a word of entries i and j' like \"1 1' 2 2'\""
                )
            k = int(digits)
            if not 1 <= k <= (n if primed else m):
                raise ValueError(f"shuffle entry {tok} is out of range; gl({m},{n}) has 1..{m} and 1'..{n}'")
            word.append(m + k if primed else k)
        return Shuffle(m, n, word)

    def __str__(self):
        return " ".join(_entry(self.m, w) for w in self.word)

    __repr__ = __str__

    def __eq__(self, other):
        return isinstance(other, Shuffle) and (self.m, self.n, self.word) == (
            other.m,
            other.n,
            other.word,
        )

    def __hash__(self):
        return hash((self.m, self.n, self.word))


def _entry(m: int, w: int) -> str:
    """The encoded entry w in i / j' notation."""
    return f"{w - m}'" if w > m else str(w)


def enumerate_shuffles(m: int, n: int, fixed_endpoints: bool = True):
    """All shuffle words, in the lexicographic order of unprimed position sets.

    Endpoint-fixed words put 1 first and n' last, so only the other m-1
    unprimed positions, among the m+n-2 middle slots, are enumerated.
    """
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    if fixed_endpoints:
        position_sets = ((0, *c) for c in combinations(range(1, m + n - 1), m - 1))
    else:
        position_sets = combinations(range(m + n), m)
    out = []
    for positions in position_sets:
        unprimed, primed = iter(range(1, m + 1)), iter(range(m + 1, m + n + 1))
        pos = set(positions)
        out.append(Shuffle(m, n, [next(unprimed) if k in pos else next(primed) for k in range(m + n)]))
    return out


def simple_roots(s: Shuffle):
    """Simple roots of the shuffle's Borel: list of (Weight, parity, (a, b)).

    Node k sits between word entries a = word[k-1] and b = word[k]; its root
    is the coordinate weight of a minus that of b and it is odd iff the
    entries have mixed primedness.
    """
    m, n = s.m, s.n
    out = []
    for k in range(1, m + n):
        a, b = s.word[k - 1], s.word[k]
        root = Weight.basis(m, n, a) - Weight.basis(m, n, b)
        parity = 1 if s.is_primed(a) != s.is_primed(b) else 0
        out.append((root, parity, (a, b)))
    return out


class DiagramData:
    """Per-node data of the augmented diagram of a shuffle Borel, nodes
    k = 1..m+n-1: roots, the simple roots as Weights, with their parities and
    the (a, b) encoded entries around each (neighbors); i_left[k] = i(k), the
    odd nodes strictly left of node k (k up to m+n); h, the h_k as Cartan
    polynomials, and s, their partial sums s_k = h_1 + ... + h_k;
    d_k = l(k) + parity bit of i(k); and t, which maps each entry e but the
    first to the Cartan polynomial t_e.
    """

    def __init__(self, shuffle, roots, parities, neighbors, i_left, h, s, d, t):
        self.shuffle, self.roots, self.parities, self.neighbors = shuffle, roots, parities, neighbors
        self.i_left, self.h, self.s, self.d, self.t = i_left, h, s, d, t


def diagram_data(s: Shuffle) -> DiagramData:
    if not s.endpoint_fixed():
        raise ValueError("diagram data requires word fixing 1 first and n' last")
    m, n = s.m, s.n
    N = m + n
    roots, parities, neighbors = map(list, zip(*simple_roots(s)))

    # i(k) for k = 1..N (position N is "right of the last node")
    i_left = [0] * (N + 1)
    for k in range(2, N + 1):
        i_left[k] = i_left[k - 1] + parities[k - 2]

    h = []
    for k in range(1, N):
        a, b = neighbors[k - 1]
        x = Poly.x(a) + Poly.x(b) if parities[k - 1] else Poly.x(a) - Poly.x(b)
        h.append(x * (-1 if i_left[k] % 2 else 1))
    spart = list(accumulate(h))

    d = []
    for k in range(1, N):
        ell = 0
        for idx in range(k - 1):
            if parities[idx]:
                continue
            # even node: gl(n)-side iff an odd number of grey nodes precede it
            ell += 1 if i_left[idx + 1] % 2 else -1
        d.append(ell + (i_left[k] % 2))

    t = {}
    for k in range(1, N):  # entry at position k+1 is the right neighbor of node k
        e = s.word[k]
        sign = -1 if i_left[k + 1] % 2 else 1
        t[e] = (spart[k - 1] - Poly.const(d[k - 1])) * sign

    return DiagramData(s, roots, parities, neighbors, i_left, h, spart, d, t)


def supertrace_pairing(alg: GLAlgebra, p: Poly, q: Poly) -> Fraction:
    """Str(h h') for two linear diagonal polynomials h, h'."""
    out = Fraction(0)
    for i in range(1, alg.N + 1):
        a = p.terms.get(_unit_exps(i), Fraction(0))
        b = q.terms.get(_unit_exps(i), Fraction(0))
        out += a * b if i <= alg.m else -a * b
    return out


def _unit_exps(i: int):
    return tuple([0] * (i - 1) + [1])


def eta_weight(m: int, n: int) -> Weight:
    """The highest odd root eps_1 - delta_n."""
    return Weight.eps(m, n, 1) - Weight.delta(m, n, n)
