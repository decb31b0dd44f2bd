"""Fuzzing the CLI with argv drawn from the parser's own commands, options
and choices, plus hostile values: huge, negative, zero, rational and
malformed ranks, sample counts and indices, repeated orderings and
kac-coeff roots beyond the term cap.

Every invocation must return 0, or 1 with exactly one stderr line and no
stdout, and finish within a few seconds.  Valid algebra shapes stay at
m+n <= 5, so no valid invocation is slow.
"""

import argparse
import contextlib
import io
import signal

from hypothesis import given, settings
from hypothesis import strategies as st

from shapovalov.cli import RANK_CAP, SAMPLES_CAP, build_parser, run

SECONDS = 5  # the most one invocation may take

COMMANDS = next(
    a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
).choices
ORDER_NAMES = COMMANDS["theta"]._option_string_actions["--order"].choices

huge = st.integers(RANK_CAP + 1, 10**40)
malformed = st.sampled_from(["", ",", "2,,2", "1,2,3", "x", "1e3", "3,-1", "0x3", "½"])
rational = st.builds(lambda a, b: f"{a}/{b}", st.integers(-9, 9), st.integers(2, 9))


def shapes():
    return st.integers(2, 5).flatmap(
        lambda size: st.integers(1, size).map(lambda m: (m, size - m)))


@st.composite
def algebra(draw):
    """(m, n) for a valid shape with m+n <= 5, else None, and the spec text."""
    if draw(st.integers(0, 3)):
        m, n = draw(shapes())
        return (m, n), draw(st.sampled_from([f"{m},{n}"] + ([str(m)] if n == 0 else [])))
    bad = draw(st.one_of(
        huge.map(str),
        st.tuples(huge, st.integers(0, 3)).map(lambda p: f"{p[0]},{p[1]}"),
        st.integers(-10**6, 0).map(str),
        st.integers(-3, 3).map(lambda k: f"1,{k - 4}"),
        rational,
        malformed,
    ))
    return None, bad


def root(shape):
    """Positive roots of the algebra, and roots at its edge and far outside."""
    N = sum(shape) if shape else 5
    index = st.one_of(st.integers(-1, N + 1), st.integers(10**6, 10**30))
    text = st.tuples(st.sampled_from("ed"), index, st.sampled_from("ed"), index).map(
        lambda t: f"{t[0]}{t[1]}-{t[2]}{t[3]}")
    junk = st.one_of(text, st.sampled_from(["", "e1", "e1-", "q1-q2", "e1-e2-e3", "e-1-d1"]))
    if not shape:
        return junk
    m = shape[0]
    name = [None] + [f"e{i}" for i in range(1, m + 1)] + [f"d{j}" for j in range(1, N - m + 1)]
    positive = st.sampled_from([f"{name[i]}-{name[j]}" for i in range(1, N) for j in range(i + 1, N + 1)])
    return st.one_of(positive, positive, positive, junk)


def weight(shape):
    N = sum(shape) if shape else 4
    coord = st.one_of(st.integers(-9, 9).map(str), rational, st.integers(-10**30, 10**30).map(str),
                      st.sampled_from(["1/0", "x", "", "1e30000000", "1e-30000000"]))
    size = st.one_of(st.just(N), st.just(N), st.just(N), st.integers(0, N + 2))
    return size.flatmap(lambda k: st.lists(coord, min_size=k, max_size=k)).map(",".join)


def borel(shape):
    """Shuffle words (interleavings of 1..m and 1'..n'), permutations that
    are not shuffles, and junk."""
    m, n = shape if shape else (2, 2)
    tokens = [str(i) for i in range(1, m + 1)] + [f"{j}'" for j in range(1, n + 1)]

    def interleave(sides):
        evens, odds = iter(tokens[:m]), iter(tokens[m:])
        return " ".join(next(odds if side else evens) for side in sides)

    shuffle = st.permutations([0] * m + [1] * n).map(interleave)
    return st.one_of(shuffle, shuffle, st.permutations(tokens).map(" ".join),
                     st.sampled_from(["distinguished", "", "1 1' x", "0 1'", "99999999999'"]))


def orders():
    valid = st.lists(st.sampled_from(ORDER_NAMES), min_size=1, max_size=5, unique=True)
    names = st.lists(st.sampled_from(ORDER_NAMES + ["", "foo"]), min_size=1, max_size=6)
    return st.one_of(valid.map(",".join), names.map(",".join),
                     st.integers(2, 3000).map(lambda k: ",".join(["bform"] * k)))


def count():
    valid = st.integers(1, 3).map(str)
    hostile = st.one_of(st.sampled_from([0, -1, SAMPLES_CAP + 1, 10**8]).map(str),
                        st.integers(10**9, 10**30).map(str), rational,
                        st.sampled_from(["2.5", "x", ""]))
    return st.one_of(valid, valid, hostile)


def small_int():
    return st.one_of(st.integers(1, 3), st.integers(-2, 6), st.integers(10**6, 10**30)).map(str)


@st.composite
def argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    shape, spec = draw(algebra())
    if command == "kac-coeff" and draw(st.booleans()):
        # an odd root of 2^(2k-2) terms, over the term cap
        k = draw(st.integers(6, RANK_CAP // 2))
        shape, spec = None, f"{k},{k}"
        values = {"--root": st.just(f"e1-d{k}"), "--weight": st.just(",".join(["0"] * 2 * k))}
    else:
        values = {"--root": root(shape), "--weight": weight(shape)}
    values.update({
        "--borel": borel(shape), "--orders": orders(), "--samples": count(),
        "--seed": st.integers(-10**20, 10**20).map(str),
        "--matrix": st.sampled_from(["D", "E", "A", "Ars", "Brs", "Fj", "Gj", "Q"]),
        "-r": small_int(), "-s": small_int(), "-j": small_int(),
    })
    out = [command, f"--algebra={spec}"]
    for action in COMMANDS[command]._actions:
        opt = action.option_strings[-1] if action.option_strings else None
        if opt in (None, "-h", "--help", "--algebra"):
            continue
        if not action.required and opt != "--root" and not draw(st.booleans()):
            continue
        if action.nargs == 0:
            out.append(opt)
        elif action.choices:
            out.append(f"{opt}={draw(st.sampled_from(list(action.choices)))}")
        else:
            out.append(f"{opt}={draw(values[opt])}")
    return out


@settings(max_examples=300, deadline=None)
@given(argv())
def test_every_invocation_exits_cleanly(args):
    def overrun(signum, frame):
        raise TimeoutError(f"{args} ran for more than {SECONDS} s")

    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (args, lines)
        assert out.getvalue() == "", args
    else:
        assert code == 0, (args, code, err.getvalue())
        assert err.getvalue() == "", args
