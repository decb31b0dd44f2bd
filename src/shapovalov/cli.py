"""Command-line front end: compute, compare and verify lowering elements.

Exit codes: 0 on success or verification pass, 2 on verification failure,
1 on usage errors.  All output is deterministic for a fixed seed.

The argument parser is built once per process, on the first `run`, and
reused by every later call; `SHAPOVALOV_SAMPLES` is read on every call, so
each sees the environment as it is then.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii
from math import comb

from .exact_algebra import Weight, bilinear_form, sample_hyperplane
from .hessenberg import (
    ORDERINGS,
    build_A_rs,
    build_B_rs,
    build_D,
    build_E,
    build_F_j,
    build_G_j,
    det_lr,
)
from .pbw import gl
from .shuffles import Shuffle, enumerate_shuffles
from .construct import (
    EVEN_ORDERINGS,
    INDEPENDENCE_CAP,
    ODD_ORDERINGS,
    b_lambda,
    is_dominant_even,
    is_independent,
    is_minimal,
    kac_coefficient,
    parse_root,
    root_to_str,
    theta_borel,
    theta_for_root,
    verify_highest_weight,
    verify_highest_weight_symbolic,
)

TERM_CAP = 2**9  # largest expansion theta, verify, compare and det --expand will build
SHUFFLE_CAP = 10**5  # most words the shuffles command will list
RANK_CAP = 100  # largest m+n any command accepts
SAMPLES_CAP = 100  # most sample points verify and compare will check
KAC_CAP = 2**8  # largest weight space, in monomials, kac-coeff will solve in
# largest |exponent| of a weight coordinate such as 1e3: Fraction builds
# 10^|exponent|, in a time that grows without bound, and Python prints no
# int of more than 4300 digits
EXPONENT_CAP = 1000


def _parse_algebra(text):
    try:
        parts = [int(t) for t in text.split(",")]
        if len(parts) == 1:
            parts.append(0)
        m, n = parts
        if m < 1 or n < 0:
            raise ValueError
    except (ValueError, TypeError):
        raise SystemExit(_usage_error(f"bad algebra spec {text!r}; expected m,n"))
    if m + n > RANK_CAP:
        raise SystemExit(_usage_error(f"rank m+n = {m + n} is more than the cap of {RANK_CAP}"))
    return gl(m, n)


def _parse_weight(alg, text):
    try:
        coords = text.split(",")
        for t in coords:
            exponent = re.search(r"[eE]([-+]?[\d_]+)\s*$", t)
            if exponent and abs(int(exponent[1])) > EXPONENT_CAP:
                raise SystemExit(_usage_error(
                    f"weight coordinate {t!r} has an exponent beyond {EXPONENT_CAP} in size"))
        return Weight(alg.m, alg.n, [Fraction(t) for t in coords])
    except (ValueError, ZeroDivisionError):
        raise SystemExit(_usage_error(f"bad weight {text!r}"))


def _usage_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    return 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one stderr line, like every other usage error
        raise SystemExit(_usage_error(message))


def _emit(obj, fmt):
    if fmt == "json":
        print(_json_text(obj))
    else:
        print(obj)


def _json_text(obj, pad=""):
    """obj as `json.dumps(obj, indent=2, sort_keys=True)` writes it, at indent pad.

    The standard library indents only with its pure-Python encoder; this
    writer emits the same text with C string escaping and one join per
    list of plain ints (such as the `exps` of `Poly.to_json`).
    """
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = pad + "  "
        items = []
        for k, v in sorted(obj.items()):
            if not isinstance(k, str):
                raise TypeError(f"JSON keys must be str, not {type(k).__name__}")
            items.append(f"{encode_basestring_ascii(k)}: {_json_text(v, inner)}")
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = pad + "  "
        sep = ",\n" + inner
        if all(type(v) is int for v in obj):  # bools print as true/false, not 1/0
            body = sep.join(map(str, obj))
        else:
            body = sep.join([_json_text(v, inner) for v in obj])
        return "[\n" + inner + body + "\n" + pad + "]"
    return json.dumps(obj)  # a number, bool or None; anything else raises TypeError


def _check_terms(count):
    """Refuse an expansion of more than TERM_CAP terms before building it."""
    if count > TERM_CAP:
        raise ValueError(f"the expansion has {count} terms, more than the cap of {TERM_CAP}")


def _check_samples(count):
    if not 1 <= count <= SAMPLES_CAP:
        raise ValueError(f"the sample count must be between 1 and {SAMPLES_CAP}, got {count}")


def _check_root_terms(alg, root):
    ij = alg.root_from_weight(root)
    if ij is not None and ij[1] > ij[0]:
        _check_terms(2 ** (ij[1] - ij[0] - 1))


def _theta_from_args(alg, args):
    if args.borel and args.borel != "distinguished":
        if alg.n < 1:
            raise ValueError("shuffle Borels need n >= 1")
        _check_terms(2 ** (alg.N - 2))
        shuffle = Shuffle.parse(alg.m, alg.n, args.borel)
        return theta_borel(shuffle)
    if not args.root:
        raise ValueError("need --root (or --borel with a shuffle word)")
    root = parse_root(alg, args.root)
    _check_root_terms(alg, root)
    return theta_for_root(alg, root, args.order)


def cmd_theta(args):
    alg = _parse_algebra(args.algebra)
    theta = _theta_from_args(alg, args)
    if args.format == "latex":
        print(theta.latex())
    elif args.format == "json":
        _emit(theta.to_json(), "json")
    else:
        for word, factors in theta.terms:
            mono = " ".join(f"e{i},{j}" for i, j in word)
            coefs = " ".join(f"({f})" for f in factors)
            print(f"{mono} {coefs}".strip())
    return 0


def cmd_verify(args):
    alg = _parse_algebra(args.algebra)
    _check_samples(args.samples)
    theta = _theta_from_args(alg, args)
    report = verify_highest_weight(theta, samples=args.samples, seed=args.seed)
    if args.symbolic:
        report["symbolic_passed"] = verify_highest_weight_symbolic(theta)
    _emit(report if args.format == "json" else _report_text(report), args.format)
    ok = report["all_passed"] and report.get("symbolic_passed", True)
    return 0 if ok else 2


def _report_text(report):
    lines = [
        f"constructor: {report['constructor']}  root: {report['root']}  "
        f"borel: {report['borel']}",
        f"samples: {report['samples']}  seed: {report['seed']}",
        report["degree_note"],
    ]
    for r in report["results"]:
        lines.append(f"  lambda={r['lambda']}  {'ok' if r['passed'] else 'FAIL'}")
    if "symbolic_passed" in report:
        lines.append(f"symbolic: {'ok' if report['symbolic_passed'] else 'FAIL'}")
    lines.append("all passed" if report["all_passed"] else "FAILED")
    return "\n".join(lines)


def cmd_det(args):
    alg = _parse_algebra(args.algebra)
    m, n = alg.m, alg.n
    lam = _parse_weight(alg, args.weight) if args.weight else None
    builders = {
        "D": lambda: build_D(m),
        "E": lambda: build_E(m),
        "A": lambda: build_A_rs(1, n, m, n),
        "Ars": lambda: build_A_rs(args.r, args.s, m, n),
        "Brs": lambda: build_B_rs(args.r, args.s, m, n),
        "Fj": lambda: build_F_j(args.r, args.s, m, n, args.j),
        "Gj": lambda: build_G_j(args.r, args.s, m, n, args.j),
    }
    if args.matrix not in builders:
        return _usage_error(f"unknown matrix {args.matrix!r}")
    B = builders[args.matrix]()
    if lam is not None:
        B = B.evaluate(lam)
    if args.expand:
        # the matrix has order^2 entries, its determinant 2^(order-1) terms
        _check_terms(2 ** (B.order - 1))
        val = det_lr(B)
        if args.format == "latex":
            print(val.latex())
        elif args.format == "json":
            _emit(val.to_json(), "json")
        else:
            print(val)
    else:
        if args.format == "json":
            _emit(B.to_json(), "json")
        else:
            print(B.latex())
    return 0


def cmd_compare(args):
    alg = _parse_algebra(args.algebra)
    _check_samples(args.samples)
    root = parse_root(alg, args.root)
    _check_root_terms(alg, root)
    ij = alg.root_from_weight(root)
    if args.orders is None:
        orders = list(ODD_ORDERINGS if ij is not None and alg.gen_parity(*ij) else EVEN_ORDERINGS)
    else:
        orders = args.orders.split(",")
    repeated = sorted(o for o, k in Counter(orders).items() if k > 1)
    if repeated:
        return _usage_error(f"--orders repeats {', '.join(map(repr, repeated))}")
    thetas = [theta_for_root(alg, root, o) for o in orders]
    hp = thetas[0].hyperplane()
    points = sample_hyperplane(hp, args.seed, args.samples)
    same_element = all(t.body == thetas[0].body for t in thetas)
    vector_match = all(_same_vector(thetas, lam) for lam in points)
    out = {
        "root": args.root,
        "orders": orders,
        "equal_as_elements": same_element,
        "equal_on_hyperplane": vector_match,
        "samples": args.samples,
        "seed": args.seed,
    }
    _emit(
        out
        if args.format == "json"
        else "\n".join(f"{k}: {v}" for k, v in out.items()),
        args.format,
    )
    return 0 if vector_match else 2


def _same_vector(thetas, lam):
    """Whether every element gives the first one's theta v_lam; stops at the first mismatch."""
    first = thetas[0].verma_vector(lam)
    return all(t.verma_vector(lam) == first for t in thetas[1:])


def cmd_shuffles(args):
    alg = _parse_algebra(args.algebra)
    if alg.n < 1:
        return _usage_error("shuffles need n >= 1")
    count = comb(alg.N, alg.m) if args.all else comb(alg.N - 2, alg.m - 1)
    if count > SHUFFLE_CAP:
        return _usage_error(f"there are {count} shuffles, more than the cap of {SHUFFLE_CAP}")
    words = enumerate_shuffles(alg.m, alg.n, fixed_endpoints=not args.all)
    if args.format == "json":
        _emit([str(s) for s in words], "json")
    else:
        for s in words:
            print(s)
        print(f"count: {len(words)}")
    return 0


def cmd_minimal(args):
    alg = _parse_algebra(args.algebra)
    if alg.N > INDEPENDENCE_CAP:
        return _usage_error(
            f"independence is decided by brute force and is capped at m+n <= {INDEPENDENCE_CAP}"
        )
    lam = _parse_weight(alg, args.weight)
    roots = b_lambda(alg, lam)
    rows = []
    for gamma in roots:
        rows.append(
            {
                "root": root_to_str(alg, gamma),
                "minimal": is_minimal(alg, gamma, lam),
                "independent": is_independent(alg, gamma, lam),
            }
        )
    out = {"lambda": lam.to_json(), "vanishing_odd_roots": rows}
    if args.format == "json":
        _emit(out, "json")
    else:
        print(f"lambda = {lam}")
        if not rows:
            print("B(lambda) is empty")
        for r in rows:
            print(
                f"  {r['root']}: minimal={r['minimal']} independent={r['independent']}"
            )
    return 0


def cmd_kac_coeff(args):
    alg = _parse_algebra(args.algebra)
    root = parse_root(alg, args.root)
    ij = alg.root_from_weight(root)
    if ij is None or not (ij[0] <= alg.m < ij[1]):
        return _usage_error("kac-coeff needs an odd root e<r>-d<s>")
    _check_root_terms(alg, root)
    monomials = 2 ** (ij[1] - ij[0] - 1)
    if monomials > KAC_CAP:
        return _usage_error(
            f"the weight space has {monomials} monomials, more than the kac-coeff cap of {KAC_CAP}"
        )
    lam = _parse_weight(alg, args.weight)
    r, s = ij[0], ij[1] - alg.m
    value = kac_coefficient(r, s, alg.m, alg.n, lam)
    out = {
        "root": args.root,
        "lambda": lam.to_json(),
        "coefficient": str(value),
        "dominant": is_dominant_even(alg, lam)
        and is_dominant_even(alg, lam - root),
        "on_hyperplane": bilinear_form(lam + alg.rho, root) == 0,
    }
    if args.format == "json":
        _emit(out, "json")
    else:
        print(f"coefficient of e_(-gamma) v: {value}")
    return 0


@cache
def build_parser():
    """The parser of every command, built on the first call and then shared.

    `--samples` defaults to None: `run` fills in `SHAPOVALOV_SAMPLES` at
    each call, so the cached parser holds nothing read from the environment.
    """
    parser = _Parser(
        prog="shapovalov",
        description="compute, compare and verify Shapovalov elements for gl(m) and gl(m,n)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True, help="dimensions m,n (n may be 0)")
        p.add_argument("--format", choices=["text", "json", "latex"], default="text")
        return p

    p = common(sub.add_parser("theta", help="print a constructed element"))
    p.add_argument("--root", help="e<i>-e<j>, e<i>-d<j> or d<i>-d<j>")
    p.add_argument("--order", default="standard", choices=list(ORDERINGS))
    p.add_argument("--borel", help='shuffle word like "1 1\' 2 2\'" or "distinguished"')
    p.set_defaults(func=cmd_theta)

    p = common(sub.add_parser("verify", help="check the defining property at sampled weights"))
    p.add_argument("--root")
    p.add_argument("--order", default="standard", choices=list(ORDERINGS))
    p.add_argument("--borel")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--symbolic", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = common(sub.add_parser("det", help="print a Hessenberg matrix or its determinant"))
    p.add_argument("--matrix", required=True, help="D, E, A, Ars, Brs, Fj or Gj")
    p.add_argument("--expand", action="store_true", help="print the determinant")
    p.add_argument("--weight", help="evaluate coefficients at this weight")
    p.add_argument("-r", type=int, default=1)
    p.add_argument("-s", type=int, default=1)
    p.add_argument("-j", type=int, default=1)
    p.set_defaults(func=cmd_det)

    p = common(sub.add_parser("compare", help="compare factor orderings of one element"))
    p.add_argument("--root", required=True)
    p.add_argument("--orders", help="comma-separated orderings (default: "
                   f"{','.join(EVEN_ORDERINGS)} for an even root, {','.join(ODD_ORDERINGS)} for an odd one)")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_compare)

    p = common(sub.add_parser("shuffles", help="list Borel-defining shuffles"))
    p.add_argument("--all", action="store_true", help="include non-endpoint-fixed words")
    p.set_defaults(func=cmd_shuffles)

    p = common(sub.add_parser("minimal", help="minimality/independence of vanishing odd roots"))
    p.add_argument("--weight", required=True, help="comma-separated coordinates")
    p.set_defaults(func=cmd_minimal)

    p = common(sub.add_parser("kac-coeff", help="product formula for the e_(-gamma) coefficient"))
    p.add_argument("--root", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=cmd_kac_coeff)

    return parser


def run(argv=None) -> int:
    env_samples = os.environ.get("SHAPOVALOV_SAMPLES", "5")
    try:
        default_samples = int(env_samples)
    except ValueError:
        return _usage_error(f"SHAPOVALOV_SAMPLES must be an integer, got {env_samples!r}")
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    if getattr(args, "samples", 0) is None:  # verify or compare without --samples
        args.samples = default_samples
    try:
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except ValueError as exc:
        return _usage_error(str(exc))


def main():
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early; silence the flush at exit as well
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
