"""Non-commutative determinants of upper Hessenberg matrices whose
subdiagonal entries are central, plus the concrete matrix builders used for
lowering-operator constructions in gl(m) and gl(m,n).

The determinant multiplies one entry from each column, left to right.  A
Hessenberg-supported permutation is determined by the set S of columns where
the subdiagonal entry is chosen, and its sign is (-1)^|S|; the subdiagonal
entries are by assumption central, so each expansion term is the ordered
product of the chosen above-diagonal entries with the product of chosen
subdiagonal scalars attached on the right.  det_lr sums the 2^(n-1) terms by
the recurrence over trailing principal submatrices, one UEA product per
entry, instead of one product per term.

Every builder is an index line l_0 .. l_k inside a root interval plus an
ordering: in row form (standard and middle, descending lines)
b_{ij} = e_{l_{i-1}, l_j} for i <= j, in column form (bform, ascending lines)
the transpose e_{l_j, l_{i-1}}, and in both b_{q+1,q} = -skip_coeff(l_q) for
the skipped l_q.  skip_coeff is the coefficient of the element constructors
too, and ORDERINGS the one table of the orderings' constants.
"""

from __future__ import annotations

from functools import lru_cache

from .exact_algebra import Poly, Weight, eval_at, rho_pairing
from .pbw import GLAlgebra, UEAElement, gl


def _as_poly(v) -> Poly:
    if isinstance(v, Poly):
        return v
    return Poly.const(v)


class HessenbergMatrix:
    """Square matrix with b_{ij} = 0 unless i <= j+1 and central subdiagonal.

    entries maps (i, j) with i <= j to UEAElements; sub maps the column
    index q to the entry b_{q+1,q} as a Poly (stored with its sign, i.e.
    sub[q] is literally the matrix entry).
    """

    def __init__(self, alg: GLAlgebra, order: int, entries, sub):
        self.alg = alg
        self.order = order
        self.entries = {}
        for (i, j), v in entries.items():
            if not (1 <= i <= j <= order):
                raise ValueError(f"entry ({i},{j}) is not on or above the diagonal")
            if not v.is_zero():
                self.entries[(i, j)] = v
        self.sub = {}
        for q, v in sub.items():
            if not 1 <= q <= order - 1:
                raise ValueError(f"subdiagonal column {q} out of range")
            v = _as_poly(v)
            if not v.is_zero():
                self.sub[q] = v

    def evaluate(self, lam: Weight) -> "HessenbergMatrix":
        """The matrix with its central subdiagonal evaluated at lam."""
        sub = {q: Poly.const(eval_at(p, lam)) for q, p in self.sub.items()}
        return HessenbergMatrix(self.alg, self.order, self.entries, sub)

    def to_json(self):
        grid = []
        for i in range(1, self.order + 1):
            row = []
            for j in range(1, self.order + 1):
                if i == j + 1:
                    row.append({"central": self.sub.get(j, Poly.zero()).to_json()})
                elif i <= j:
                    row.append(self.entries.get((i, j), UEAElement.zero(self.alg)).to_json())
                else:
                    row.append(None)
            grid.append(row)
        return {"order": self.order, "grid": grid}

    def latex(self) -> str:
        rows = []
        for i in range(1, self.order + 1):
            cells = []
            for j in range(1, self.order + 1):
                if i == j + 1:
                    cells.append(self.sub.get(j, Poly.zero()).latex())
                elif i <= j:
                    cells.append(self.entries.get((i, j), UEAElement.zero(self.alg)).latex())
                else:
                    cells.append("0")
            rows.append(" & ".join(cells))
        body = " \\\\\n".join(rows)
        return "\\begin{bmatrix}\n" + body + "\n\\end{bmatrix}"


def det_lr(B: HessenbergMatrix) -> UEAElement:
    """Left-to-right determinant of the 2^(n-1) supported permutations.

    E_j, the determinant of the trailing submatrix on rows and columns
    j..n, is the sum over k >= j of b_{jk} E_{k+1} times the central
    product of -b_{q+1,q} for q = j..k-1, with E_{n+1} = 1 and det = E_1.
    The sum over k runs in Horner form, from k = n down, so each step
    attaches one subdiagonal entry.  Attaching it by scale_central to a
    product taken on the left is exact only when no entry has a positive
    part: then no product moves a Cartan part to the right of anything.
    Every builder's entries are lowering generators; other matrices raise
    ValueError.
    """
    alg, n = B.alg, B.order
    if any(pos for e in B.entries.values() for _, pos in e.terms):
        raise ValueError("det_lr needs matrix entries without positive parts")
    dets = {n + 1: UEAElement.one(alg)}
    for j in range(n, 0, -1):
        acc = UEAElement.zero(alg)
        for k in range(n, j - 1, -1):
            if k < n:
                sub = B.sub.get(k)
                acc = acc.scale_central(-sub) if sub is not None else UEAElement.zero(alg)
            e = B.entries.get((j, k))
            if e is not None:
                acc = acc + e * dets[k + 1]
        dets[j] = acc
    return dets[1]


def split_at(B: HessenbergMatrix, q: int):
    """Separate det B at the subdiagonal entry in column q.

    Returns (T, B'', B') with T = -b_{q+1,q} central, B'' the matrix with
    the row and column of that entry deleted, and B' the matrix with the
    entry replaced by zero, so that det B = T det B'' + det B'.
    """
    if not 1 <= q <= B.order - 1:
        raise ValueError("split position out of range")
    T = -B.sub.get(q, Poly.zero())
    prime = HessenbergMatrix(
        B.alg, B.order, B.entries, {c: p for c, p in B.sub.items() if c != q}
    )
    # delete row q+1 and column q
    entries = {}
    for (i, j), v in B.entries.items():
        if i == q + 1 or j == q:
            continue
        entries[(i - (i > q + 1), j - (j > q))] = v
    sub = {c - (c > q): p for c, p in B.sub.items() if c != q}
    dprime = HessenbergMatrix(B.alg, B.order - 1, entries, sub)
    return T, dprime, prime


# ---------------------------------------------------------------------------
# builders

# The ordering fixes the constant added to each skipped index's coefficient,
# one on the eps side and one on the delta side.
ORDERINGS = {
    "standard": (-1, 0),
    "middle": (-1, 0),
    "odd-last": (0, 0),
    "odd-first": (-1, 1),
    "bform": (0, 1),
}


# An expansion with 2^k terms asks for the same few coefficients in every
# term, so each is built once.  An algebra of rank N has C(N, 3) of them per
# ordering, 220 at rank 12; the Polys handed out are shared, which is safe
# because Polys are immutable.
@lru_cache(maxsize=1024)
def skip_coeff(alg: GLAlgebra, i: int, j: int, p: int, ordering: str) -> Poly:
    """Coefficient of skipping index p inside the root interval i..j:
    h_root + (rho, root) + shift, with root eps_i - eps_p for an eps index p
    and delta_{p-m} - delta_{j-m} for a delta index, and the shift that
    ORDERINGS[ordering] gives for that side."""
    m, n = alg.m, alg.n
    if not 1 <= i < p < j <= m + n:
        raise ValueError(f"skipped index {p} of {i}..{j} out of range for {alg}")
    eps_shift, delta_shift = ORDERINGS[ordering]
    if p <= m:
        return rho_pairing(Weight.eps(m, n, i) - Weight.eps(m, n, p), eps_shift)
    return rho_pairing(Weight.delta(m, n, p - m) - Weight.delta(m, n, j - m), delta_shift)


def _line_matrix(alg: GLAlgebra, line, i: int, j: int, ordering: str) -> HessenbergMatrix:
    """The matrix of the index line l_0 .. l_k inside the root interval i..j:
    b_{ab} = e_{l_{a-1}, l_b} for a <= b, in column form (bform) e_{l_b, l_{a-1}},
    and b_{q+1,q} = -skip_coeff(l_q)."""
    order = len(line) - 1
    entries = {}
    for a in range(1, order + 1):
        for b in range(a, order + 1):
            x, y = line[a - 1], line[b]
            entries[(a, b)] = UEAElement.gen(alg, y, x) if ordering == "bform" else UEAElement.gen(alg, x, y)
    sub = {q: -skip_coeff(alg, i, j, line[q], ordering) for q in range(1, order)}
    return HessenbergMatrix(alg, order, entries, sub)


def build_D(m: int) -> HessenbergMatrix:
    """Row-form matrix for the highest root of gl(m): rows e_{i,*}, subdiagonal -a_i."""
    if m < 2:
        raise ValueError("need m >= 2")
    return _line_matrix(gl(m, 0), range(m, 0, -1), 1, m, "standard")


def build_E(m: int) -> HessenbergMatrix:
    """Column-form matrix: rows e_{*,i}, subdiagonal -c_i with c_i = a_i + 1."""
    if m < 2:
        raise ValueError("need m >= 2")
    return _line_matrix(gl(m, 0), range(1, m + 1), 1, m, "bform")


def build_A_rs(r: int, s: int, m: int, n: int) -> HessenbergMatrix:
    """Descending-row matrix for the odd root eps_r - delta_s, order m+s-r."""
    _check_rs(r, s, m, n)
    return _line_matrix(gl(m, n), range(m + s, r - 1, -1), r, m + s, "middle")


def build_B_rs(r: int, s: int, m: int, n: int) -> HessenbergMatrix:
    """Ascending-row matrix for eps_r - delta_s with subdiagonal -C_i."""
    _check_rs(r, s, m, n)
    return _line_matrix(gl(m, n), range(r, m + s + 1), r, m + s, "bform")


def build_F_j(r: int, s: int, m: int, n: int, j: int) -> HessenbergMatrix:
    """Row-form minor with an adjoined odd first row e_{m+j,*}, order m-r+1."""
    _check_rs(r, s, m, n)
    if not 1 <= j <= s:
        raise ValueError("need 1 <= j <= s")
    return _line_matrix(gl(m, n), (m + j, *range(m, r - 1, -1)), r, m + s, "middle")


def build_G_j(r: int, s: int, m: int, n: int, j: int) -> HessenbergMatrix:
    """Column-form counterpart of the adjoined minor, subdiagonal -C_i."""
    _check_rs(r, s, m, n)
    if not 1 <= j <= s:
        raise ValueError("need 1 <= j <= s")
    return _line_matrix(gl(m, n), (*range(r, m + 1), m + j), r, m + s, "bform")


def _check_rs(r, s, m, n):
    if not (1 <= r <= m and 1 <= s <= n):
        raise ValueError(f"root indices r={r}, s={s} out of range for gl({m},{n})")
