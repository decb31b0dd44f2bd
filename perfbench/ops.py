"""Execute one generated operation against the package and check its answer.

Each executor returns (call, check): call() is the timed work and makes only
package calls; check(result) runs afterwards, untimed, and returns None when
the answer is right or a short reason when it is wrong.  Package functions
are looked up through their modules at call time, so trace wrappers and test
stubs installed on those modules take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from fractions import Fraction

from shapovalov import cli, construct, exact_algebra, hessenberg, pbw, shuffles, verma

import workloads as wl


def _weight(m, n, coords):
    return exact_algebra.Weight(m, n, [Fraction(c) for c in coords])


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(argv))
    return code, out.getvalue()


def _json(code, text):
    if code != 0:
        raise ValueError(f"exit code {code}")
    return json.loads(text)


def _is_singular(v, raising=None):
    """The verdict under test: v is a nonzero highest weight vector."""
    return not v.is_zero() and verma.is_highest_weight(v, raising)


def _expect(flag, reason):
    return None if flag else reason


# ---------------------------------------------------------------------------
# verify-mix

def cli_verify(op, memo):
    def check(res):
        rep = _json(*res)
        if not rep["all_passed"] or not rep.get("symbolic_passed", True):
            return "verification failed on the hyperplane"
        if len(rep["results"]) != 5 or not all(r["passed"] for r in rep["results"]):
            return "missing or failed sample"
        for r in rep["results"]:
            lam = [Fraction(c) for c in r["lambda"]]
            if not wl.on_hyperplane(op["m"], op["n"], lam, op["eta"]):
                return f"sample {r['lambda']} is off the hyperplane"
        return None

    return lambda: _cli(op["argv"]), check


def cli_compare(op, memo):
    return lambda: _cli(op["argv"]), lambda res: _expect(
        _json(*res)["equal_on_hyperplane"], "orderings disagree on the hyperplane")


def _poly_key(poly):
    """Poly JSON -> {variable: coefficient} for linear forms (0 = constant)."""
    out = {}
    for mono in poly["monomials"]:
        exps = [e for e in mono["exps"]]
        nz = [k for k, e in enumerate(exps) if e]
        if len(nz) > 1 or (nz and exps[nz[0]] != 1):
            raise ValueError("coefficient is not linear")
        out[nz[0] + 1 if nz else 0] = Fraction(mono["coeff"])
    return out


def cli_theta_golden(op, memo):
    def check(res):
        got = sorted(
            (tuple(tuple(g) for g in t["word"]),
             tuple(sorted(sorted(_poly_key(c).items()) for c in t["coefficients"])))
            for t in _json(*res)["terms"])
        want = sorted(
            (tuple(word), tuple(sorted(sorted((k, Fraction(v)) for k, v in c.items())
                                       for c in coefs)))
            for word, coefs in wl.GOLDEN_GL22[op["order"]])
        return _expect(got == want, f"gl(2,2) {op['order']} expansion differs from the paper")

    return lambda: _cli(op["argv"]), check


def _monomial_weight(N, factors):
    w = [0] * N
    for i, j, *e in factors:
        k = e[0] if e else 1
        w[i - 1] += k
        w[j - 1] -= k
    return w


def cli_theta(op, memo):
    """Subset-sum structure: 2^(j-i-1) terms of weight -eta, one linear
    coefficient per skipped index, and a body of weight -eta."""
    m, n, i, j = op["m"], op["n"], op["i"], op["j"]
    N = m + n
    neg_eta = [-c for c in wl.root_vector(N, i, j)]

    def check(res):
        data = _json(*res)
        terms = data["terms"]
        if len(terms) != 2 ** (j - i - 1):
            return f"{len(terms)} terms, expected {2 ** (j - i - 1)}"
        for t in terms:
            if _monomial_weight(N, t["word"]) != neg_eta:
                return "term of the wrong weight"
            if len(t["coefficients"]) != (j - i) - len(t["word"]):
                return "coefficient count does not match the skipped indices"
            for c in t["coefficients"]:
                _poly_key(c)
        for t in data["body"]["terms"]:
            if t["positive"] or _monomial_weight(N, t["factors"]) != neg_eta:
                return "body monomial outside U(n^-) of weight -eta"
        return None

    return lambda: _cli(op["argv"]), check


def cli_det(op, memo):
    def call():
        return _cli(op["argv"]), _cli(op["theta_argv"])

    def check(res):
        det, theta = res
        return _expect(_json(*det) == _json(*theta)["body"],
                       "det D differs from the subset-sum element")

    return call, check


def cli_kac(op, memo):
    m, n, r, s = op["m"], op["n"], op["r"], op["s"]
    lam = [Fraction(c) for c in op["lam"]]

    def check(res):
        out = _json(*res)
        if Fraction(out["coefficient"]) != wl.kac_product(m, n, r, s, lam):
            return "coefficient differs from the product formula"
        on = wl.pairing(m, n, lam, wl.root_vector(m + n, r, m + s)) == 0
        return _expect(out["on_hyperplane"] == on, "wrong hyperplane flag")

    return lambda: _cli(op["argv"]), check


def control_root(op, memo):
    def call():
        alg = pbw.gl(op["m"], op["n"])
        theta = construct.theta_for_root(alg, construct.parse_root(alg, op["root"]), op["order"])
        v = theta.verma_vector(_weight(op["m"], op["n"], op["lam"]))
        return _is_singular(v, construct.raising_vectors(theta))

    return call, lambda passed: _expect(not passed, "passed one unit off the hyperplane")


def control_borel(op, memo):
    def call():
        theta = construct.theta_borel(shuffles.Shuffle.parse(op["m"], op["n"], op["word"]))
        v = theta.verma_vector(_weight(op["m"], op["n"], op["lam"]))
        return _is_singular(v, construct.raising_vectors(theta))

    return call, lambda passed: _expect(not passed, "passed one unit off the hyperplane")


# ---------------------------------------------------------------------------
# cartan-products

def power(op, memo):
    m = op["m"]

    def call():
        th = construct.theta_power(m, op["p"])
        memo[op["memo"]] = th
        alg = pbw.gl(m, 0)
        return _is_singular(verma.act(th, verma.vacuum(alg, _weight(m, 0, op["lam"]))))

    return call, lambda ok: _expect(ok, "power is not singular on its hyperplane")


def power_control(op, memo):
    m = op["m"]

    def call():
        th = memo.pop(op["memo"])
        alg = pbw.gl(m, 0)
        return _is_singular(verma.act(th, verma.vacuum(alg, _weight(m, 0, op["lam"]))))

    return call, lambda passed: _expect(not passed, "power singular one unit off its hyperplane")


def iso_square(op, memo):
    m, n = op["m"], op["n"]
    return (lambda: construct.square_isotropic_check(m, n, _weight(m, n, op["lam"])),
            lambda ok: _expect(ok, "theta^2 v is not zero"))


def iso_control(op, memo):
    m, n = op["m"], op["n"]

    def call():
        theta = construct.theta_glmn_distinguished(m, n)
        return _is_singular(theta.verma_vector(_weight(m, n, op["lam"])))

    return call, lambda passed: _expect(not passed, "theta v singular one unit off the hyperplane")


def case1(op, memo):
    def call():
        d = construct.case1_decompose(*op["args"])
        ok = d.pieces["main"] == d.pieces["product"]
        if op["full"]:
            rest = d.pieces["remainder"].scale_central(d.indeterminates["T"])
            ok = ok and d.theta.body == d.pieces["main"] + rest
        return ok

    return call, lambda ok: _expect(ok, "case 1 decomposition does not hold")


def case2(op, memo):
    def call():
        d = construct.case2_decompose(*op["args"])
        return d.pieces["both"] == d.pieces["product"] and d.theta.body == construct.case2_assembled(d)

    return call, lambda ok: _expect(ok, "case 2 decomposition does not hold")


def case2_point(op, memo):
    def call():
        d = construct.case2_decompose(*op["args"])
        lam = _weight(d.alg.m, d.alg.n, op["lam"])
        rhs = verma.act(construct.case2_assembled(d), verma.vacuum(d.alg, lam))
        return d.theta.verma_vector(lam) == rhs

    return call, lambda ok: _expect(ok, "case 2 identity fails at a hyperplane point")


def lemma_symbolic(op, memo):
    return (lambda: construct.lemma1768_check(op["m"], op["p"], 1),
            lambda ok: _expect(ok, "exchange identity fails symbolically"))


def lemma_point(op, memo):
    return (lambda: construct.lemma1768_check(op["m"], op["p"], 1, _weight(op["m"], 0, op["lam"])),
            lambda ok: _expect(ok, "exchange identity fails at a point"))


# ---------------------------------------------------------------------------
# large-rank

def _top_root_theta(m, n):
    alg = pbw.gl(m, n)
    return construct.theta_for_root(alg, alg.gen_weight(1, m + n))


def large_verify(op, memo):
    def call():
        return construct.verify_highest_weight(_top_root_theta(op["m"], op["n"]), 1, op["seed"])

    return call, lambda rep: _expect(rep["all_passed"] and len(rep["results"]) == 1,
                                     "top root element fails on its hyperplane")


def large_control(op, memo):
    def call():
        theta = _top_root_theta(op["m"], op["n"])
        v = theta.verma_vector(_weight(op["m"], op["n"], op["lam"]))
        return _is_singular(v, construct.raising_vectors(theta))

    return call, lambda passed: _expect(not passed, "passed one unit off the hyperplane")


def det_vs_theta(op, memo):
    m = op["m"]
    return (lambda: hessenberg.det_lr(hessenberg.build_D(m)) == construct.theta_gl(m).body,
            lambda ok: _expect(ok, f"det D({m}) differs from theta_gl({m})"))


EXECUTORS = {
    "cli-verify": cli_verify,
    "cli-compare": cli_compare,
    "cli-theta-golden": cli_theta_golden,
    "cli-theta": cli_theta,
    "cli-det": cli_det,
    "cli-kac": cli_kac,
    "control-root": control_root,
    "control-borel": control_borel,
    "power": power,
    "power-control": power_control,
    "iso-square": iso_square,
    "iso-control": iso_control,
    "case1": case1,
    "case2": case2,
    "case2-point": case2_point,
    "lemma-symbolic": lemma_symbolic,
    "lemma-point": lemma_point,
    "large-verify": large_verify,
    "large-control": large_control,
    "det-vs-theta": det_vs_theta,
}


def execute(op, memo):
    """Run one operation; returns (start, seconds, error or None).

    A wrong answer and an exception both count as a failure; the error text
    says which.
    """
    call, check = EXECUTORS[op["kind"]](op, memo)
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # the run must go on and count it
        return start, time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    try:
        return start, elapsed, check(result)
    except Exception as exc:
        return start, elapsed, f"check raised {type(exc).__name__}: {exc}"
