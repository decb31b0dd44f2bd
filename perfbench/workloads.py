"""Seeded workload generation for the benchmark.

This module never imports the package under test: it only produces the
inputs (command lines, weights, algebra sizes) and the benchmark's own
reference arithmetic used to check answers.  Operations are plain dicts so
that a child process can regenerate exactly the same schedule from
(workload, seed) and pick one operation out of it.

A run is a sequence of rounds.  Every round of a workload holds the same
kinds of operation in the same size classes; the seed only picks the
concrete root, ordering, sample seed and weights inside each class and the
order of the round.  Runs stop at a round boundary, so the mix of work is the
same whatever the number of rounds, which keeps throughput and percentiles
comparable between runs and seeds.
"""

from __future__ import annotations

import random
from fractions import Fraction

ODD_ORDERS = ("middle", "odd-last", "odd-first", "bform")
EVEN_ORDERS = ("standard", "bform")


# ---------------------------------------------------------------------------
# reference arithmetic (independent of the package)

def rho(m, n):
    """Weyl vector with coordinate sum zero, eps coordinates first."""
    return [Fraction(m - n + 1 - 2 * i, 2) for i in range(1, m + 1)] + [
        Fraction(m + n + 1 - 2 * j, 2) for j in range(1, n + 1)
    ]


def form(m, mu, nu):
    """(eps_i, eps_j) = delta_ij, (delta_i, delta_j) = -delta_ij."""
    return sum(a * b for a, b in zip(mu[:m], nu[:m])) - sum(
        a * b for a, b in zip(mu[m:], nu[m:])
    )


def root_vector(N, i, j):
    """Coordinates of the positive root with row indices i < j (1-based)."""
    v = [0] * N
    v[i - 1], v[j - 1] = 1, -1
    return v


def root_str(m, i, j):
    name = lambda k: f"e{k}" if k <= m else f"d{k - m}"
    return f"{name(i)}-{name(j)}"


def pairing(m, n, lam, eta):
    """(lam + rho, eta)."""
    return form(m, [a + b for a, b in zip(lam, rho(m, n))], eta)


def on_hyperplane(m, n, lam, eta, mult=1):
    return pairing(m, n, lam, eta) == Fraction(mult) * form(m, eta, eta) / 2


DENOMINATORS = (1, 2, 3, 5)
NUMERATORS = (7, 11, 13, 17, 19, 23)


def random_weight(rng, N):
    """Rational coordinates of a fixed arithmetic size.

    Exact arithmetic costs grow with the sizes of numerators and
    denominators, so the denominators follow a fixed pattern and the
    numerators are primes of similar size with a random sign: every seed
    gets points of the same size and runs stay comparable.
    """
    return [Fraction(rng.choice(NUMERATORS) * rng.choice((1, -1)),
                     DENOMINATORS[k % len(DENOMINATORS)]) for k in range(N)]


def hyperplane_point(rng, m, n, eta, mult=1):
    """A rational point with (lam + rho, eta) = mult (eta, eta) / 2.

    Returns (lam, pivot): pivot is a coordinate with a nonzero coefficient in
    the constraint, so adding 1 there moves the point one unit off.
    """
    N = m + n
    coef = [eta[k] if k < m else -eta[k] for k in range(N)]
    pivot = next(k for k, c in enumerate(coef) if c)
    target = Fraction(mult) * form(m, eta, eta) / 2 - form(m, rho(m, n), eta)
    lam = random_weight(rng, N)
    lam[pivot] = (target - sum(coef[k] * lam[k] for k in range(N) if k != pivot)) / coef[pivot]
    assert on_hyperplane(m, n, lam, eta, mult)
    return lam, pivot


def off_point(lam, pivot):
    out = list(lam)
    out[pivot] += 1
    return out


def kac_product(m, n, r, s, lam):
    """Product formula for the e_{-gamma} coefficient, gamma = eps_r - delta_s."""
    N = m + n
    lr = [a + b for a, b in zip(lam, rho(m, n))]
    out = Fraction(1)
    for k in range(1, m - r + 1):
        out *= form(m, lr, root_vector(N, r, r + k)) - 1
    for j in range(1, s):
        out *= form(m, lr, root_vector(N, m + j, m + s)) + 1
    return out


def weight_text(lam):
    return ",".join(str(c) for c in lam)


def shuffle_words(m, n):
    """Endpoint-fixed shuffles of 1..m and 1'..n' as CLI words."""
    out = []

    def rec(i, j, acc):
        if i == m and j == n:
            out.append(acc)
            return
        if i < m:
            rec(i + 1, j, acc + [str(i + 1)])
        if j < n:
            rec(i, j + 1, acc + [f"{j + 1}'"])

    rec(0, 0, [])
    return [" ".join(w) for w in out if w[0] == "1" and w[-1] == f"{n}'"]


# ---------------------------------------------------------------------------
# the gl(2,2) golden expansions for eps_1 - delta_2, in all four orderings
#
# Written out by hand from the paper.  A coefficient is a linear form in the
# Cartan variables x_1..x_4 given as {variable: coefficient}, key 0 being the
# constant; h_alpha = x_1 - x_2 and h_gamma = x_4 - x_3.

H_ALPHA = {1: 1, 2: -1}
H_ALPHA_1 = {1: 1, 2: -1, 0: 1}
H_GAMMA = {4: 1, 3: -1}
H_GAMMA_1 = {4: 1, 3: -1, 0: -1}

GOLDEN_GL22 = {
    "middle": [
        ([(4, 3), (3, 2), (2, 1)], []),
        ([(4, 3), (3, 1)], [H_ALPHA]),
        ([(4, 2), (2, 1)], [H_GAMMA_1]),
        ([(4, 1)], [H_ALPHA, H_GAMMA_1]),
    ],
    "odd-last": [
        ([(4, 3), (2, 1), (3, 2)], []),
        ([(4, 3), (3, 1)], [H_ALPHA_1]),
        ([(2, 1), (4, 2)], [H_GAMMA_1]),
        ([(4, 1)], [H_ALPHA_1, H_GAMMA_1]),
    ],
    "odd-first": [
        ([(3, 2), (2, 1), (4, 3)], []),
        ([(3, 1), (4, 3)], [H_ALPHA]),
        ([(4, 2), (2, 1)], [H_GAMMA]),
        ([(4, 1)], [H_ALPHA, H_GAMMA]),
    ],
    "bform": [
        ([(2, 1), (3, 2), (4, 3)], []),
        ([(3, 1), (4, 3)], [H_ALPHA_1]),
        ([(2, 1), (4, 2)], [H_GAMMA]),
        ([(4, 1)], [H_ALPHA_1, H_GAMMA]),
    ],
}


# ---------------------------------------------------------------------------
# case spaces

def algebras(N):
    """(m, n) with m + n = N, m >= 1."""
    return [(m, N - m) for m in range(1, N + 1)]


def root_cases(N):
    """Every (m, n, i, j, ordering) with m + n = N."""
    out = []
    for m, n in algebras(N):
        for i in range(1, N + 1):
            for j in range(i + 1, N + 1):
                odd = i <= m < j
                for order in ODD_ORDERS if odd else EVEN_ORDERS:
                    out.append((m, n, i, j, order))
    return out


def borel_cases(N):
    return [(m, n, w) for m, n in algebras(N) if n >= 1 for w in shuffle_words(m, n)]


def _verify_op(case, seed, symbolic=False):
    m, n, i, j, order = case
    argv = ["verify", "--algebra", f"{m},{n}", "--root", root_str(m, i, j),
            "--order", order, "--samples", "5", "--seed", str(seed)]
    if symbolic:
        argv.append("--symbolic")
    return {"kind": "cli-verify", "argv": argv + ["--format", "json"],
            "m": m, "n": n, "eta": root_vector(m + n, i, j)}


def _control_op(rng, case):
    """Theta of a root case at a point one unit off its hyperplane."""
    m, n, i, j, order = case
    eta = root_vector(m + n, i, j)
    lam, pivot = hyperplane_point(rng, m, n, eta)
    return {"kind": "control-root", "control": True, "m": m, "n": n,
            "root": root_str(m, i, j), "order": order,
            "lam": [str(c) for c in off_point(lam, pivot)]}


def _by_length(rng, N, lengths=None, variants=3):
    """Root cases of gl(m, N-m), `variants` per interval length j - i.

    The length fixes the element's term count 2^(j-i-1), so every seed gets
    the same spread of sizes; the seed picks m, the position and the order,
    and several variants per length average out what those choices cost.
    """
    cases = root_cases(N)
    return [rng.choice([c for c in cases if c[3] - c[2] == L])
            for _ in range(variants) for L in (lengths or range(1, N))]


# ---------------------------------------------------------------------------
# workloads

def verify_mix_rounds(rng):
    """Everyday CLI traffic over small elements at repeated sample points.

    The seed fixes a working set (cases, sample seeds, weights); round r
    takes entry r of each list, cycling, so elements recur and most
    straightening calls hit the cache once the set has been seen.
    """
    verify = {N: [(c, rng.randint(0, 3)) for c in _by_length(rng, N)] for N in range(2, 8)}
    symbolic = [(c, rng.randint(0, 3)) for N in (3, 4, 5) for c in _by_length(rng, N, (1, N - 1))]
    borel = [(rng.choice(borel_cases(N)), rng.randint(0, 3)) for N in (3, 4, 5, 4, 5)]
    compare = {N: [(c, rng.randint(0, 3)) for c in _by_length(rng, N)] for N in (4, 6)}
    golden = list(ODD_ORDERS)
    rng.shuffle(golden)
    theta = [c for N in (3, 4, 5, 6) for c in _by_length(rng, N, (1, N - 1))]
    dets = list(range(3, 8))
    rng.shuffle(dets)
    kac = []
    for N in (3, 4, 5, 3, 4, 5):
        m, n = rng.choice([a for a in algebras(N) if a[1] >= 1])
        lam = random_weight(rng, m + n)
        kac.append((m, n, rng.randint(1, m), rng.randint(1, n), lam))
    r = 0
    while True:
        pick = lambda xs: xs[r % len(xs)]
        ops = []
        for N in range(2, 8):
            case, seed = pick(verify[N])
            ops.append(_verify_op(case, seed))
            if 3 <= N <= 5:
                ops.append(_control_op(rng, case))
        ops.append(_verify_op(*pick(symbolic), symbolic=True))

        (m, n, word), seed = pick(borel)
        ops.append({"kind": "cli-verify", "m": m, "n": n, "eta": root_vector(m + n, 1, m + n),
                    "argv": ["verify", "--algebra", f"{m},{n}", "--borel", word,
                             "--samples", "5", "--seed", str(seed), "--format", "json"]})
        lam, pivot = hyperplane_point(rng, m, n, root_vector(m + n, 1, m + n))
        ops.append({"kind": "control-borel", "control": True, "m": m, "n": n, "word": word,
                    "lam": [str(c) for c in off_point(lam, pivot)]})

        for N in (4, 6):
            (m, n, i, j, _), seed = pick(compare[N])
            orders = ODD_ORDERS if i <= m < j else EVEN_ORDERS
            ops.append({"kind": "cli-compare", "argv": [
                "compare", "--algebra", f"{m},{n}", "--root", root_str(m, i, j),
                "--orders", ",".join(orders), "--samples", "5", "--seed", str(seed),
                "--format", "json"]})

        order = pick(golden)
        ops.append({"kind": "cli-theta-golden", "order": order, "argv": [
            "theta", "--algebra", "2,2", "--root", "e1-d2", "--order", order, "--format", "json"]})
        m, n, i, j, order = pick(theta)
        ops.append({"kind": "cli-theta", "m": m, "n": n, "i": i, "j": j, "argv": [
            "theta", "--algebra", f"{m},{n}", "--root", root_str(m, i, j),
            "--order", order, "--format", "json"]})

        m = pick(dets)
        ops.append({"kind": "cli-det", "argv": [
            "det", "--algebra", f"{m},0", "--matrix", "D", "--expand", "--format", "json"],
            "theta_argv": ["theta", "--algebra", f"{m},0", "--root", f"e1-e{m}",
                           "--format", "json"]})

        m, n, r_, s_, lam = pick(kac)
        ops.append({"kind": "cli-kac", "m": m, "n": n, "r": r_, "s": s_,
                    "lam": [str(c) for c in lam], "argv": [
                        "kac-coeff", "--algebra", f"{m},{n}", "--root", root_str(m, r_, m + s_),
                        f"--weight={weight_text(lam)}", "--format", "json"]})
        rng.shuffle(ops)
        yield ops
        r += 1


POWERS = [(4, 1), (4, 2), (4, 3), (5, 1), (5, 2), (5, 3)]
ISOTROPIC = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (5, 1), (1, 5)]
# Controls for m + n = 6 would put five 8-12 ms operations whose cost moves
# with the seed's points right at the median, and make op_s.p50 unsteady.
ISOTROPIC_CONTROLS = [(2, 2), (3, 2), (2, 3)]


def cartan_products_rounds(rng):
    """UEA products whose words carry Cartan polynomials."""
    while True:
        groups = []
        for m, p in POWERS:
            lam, pivot = hyperplane_point(rng, m, 0, root_vector(m, 1, m), p)
            key = f"power-{m}-{p}"
            groups.append([
                {"kind": "power", "m": m, "p": p, "lam": [str(c) for c in lam], "memo": key},
                {"kind": "power-control", "control": True, "m": m, "p": p, "memo": key,
                 "lam": [str(c) for c in off_point(lam, pivot)]},
            ])
        for m, n in ISOTROPIC:
            lam, pivot = hyperplane_point(rng, m, n, root_vector(m + n, 1, m + n))
            groups.append([{"kind": "iso-square", "m": m, "n": n, "lam": [str(c) for c in lam]}])
            if (m, n) in ISOTROPIC_CONTROLS:
                groups.append([{"kind": "iso-control", "control": True, "m": m, "n": n,
                                "lam": [str(c) for c in off_point(lam, pivot)]}])
        groups.append([{"kind": "case1", "args": [1, 2, 2, 2, 2], "full": True}])
        for args in ([1, 2, 3, 3, 2], [1, 3, 3, 3, 3]):
            groups.append([{"kind": "case1", "args": args, "full": False}])
        for args in ([1, 2, 2, 1, 2, 2], [1, 2, 3, 1, 3, 2], [1, 3, 2, 1, 2, 3],
                     [1, 3, 3, 1, 3, 3]):
            groups.append([{"kind": "case2", "args": args}])
        lam, _ = hyperplane_point(rng, 3, 3, root_vector(6, 1, 6))
        groups.append([{"kind": "case2-point", "args": [1, 3, 3, 1, 3, 3],
                        "lam": [str(c) for c in lam]}])
        for m, p in ((3, 1), (3, 2), (4, 1), (4, 2)):
            groups.append([{"kind": "lemma-symbolic", "m": m, "p": p}])
        for p in (1, 2):
            l4 = Fraction(rng.randint(-9, 9), 2)
            l2 = Fraction(rng.randint(-9, 9), 3)
            lam = [l4 - 2, l2, l4 - 1 - p, l4]
            groups.append([{"kind": "lemma-point", "m": 4, "p": p,
                            "lam": [str(c) for c in lam]}])
        # a power's control stays right after the power, whose element it reuses
        rng.shuffle(groups)
        yield [op for group in groups for op in group]


LARGE = [(10, 0), (11, 0), (5, 5), (6, 4)]


def large_rank_rounds(rng):
    """A few single large elements, each run in its own cold process.

    The package's own sampler picks the verification point, with sample
    seed 0: its points differ in arithmetic size from seed to seed, which
    moves the time and memory of one gl(11) check by 10 %.  The control is
    gl(5,5) one unit off its hyperplane.
    """
    while True:
        ops = [{"kind": "large-verify", "m": m, "n": n, "seed": 0} for m, n in LARGE]
        lam, pivot = hyperplane_point(rng, 5, 5, root_vector(10, 1, 10))
        ops.append({"kind": "large-control", "control": True, "m": 5, "n": 5,
                    "lam": [str(c) for c in off_point(lam, pivot)]})
        ops.append({"kind": "det-vs-theta", "m": 9})
        rng.shuffle(ops)
        yield ops


def label(op):
    """Short description of an operation for result files."""
    if "argv" in op:
        return " ".join(op["argv"][:5])
    return " ".join(f"{k}={op[k]}" for k in ("m", "n", "p", "args", "root", "word") if k in op)


class Workload:
    def __init__(self, name, make_rounds, tail_pct, trace_rounds, cold_per_op, layers):
        self.name = name
        self.make_rounds = make_rounds
        self.tail_pct = tail_pct          # fixed so percentiles compare between runs
        self.trace_rounds = trace_rounds  # traced runs do fixed work so counts repeat
        self.cold_per_op = cold_per_op    # one fresh process per operation
        self.layers = layers              # spans that must record calls when traced

    def rounds(self, seed):
        """Infinite deterministic sequence of rounds for a seed."""
        return self.make_rounds(random.Random(f"{self.name}:{seed}"))


_COMMON = ["construct.build", "construct.verma_vector", "construct.check", "verma.act",
           "pbw.nf", "pbw.uea_mul", "exact_algebra"]

WORKLOADS = {
    w.name: w
    for w in [
        Workload("verify-mix", verify_mix_rounds, 90, 30, False,
                 _COMMON + ["cli.run", "construct.body", "pbw.normal_order",
                            "hessenberg.det_lr", "verma.solve"]),
        Workload("cartan-products", cartan_products_rounds, 90, 2, False,
                 _COMMON + ["construct.body", "pbw.normal_order"]),
        Workload("large-rank", large_rank_rounds, 95, 1, True,
                 _COMMON + ["hessenberg.det_lr"]),
    ]
}
