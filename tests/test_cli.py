import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import shapovalov
from shapovalov import cli
from shapovalov.cli import (EXPONENT_CAP, KAC_CAP, RANK_CAP, SAMPLES_CAP, SHUFFLE_CAP, TERM_CAP,
                            _json_text, run)
from shapovalov.construct import ShapovalovElement, parse_root

GOLDEN = Path(__file__).with_name("cli_golden.json")

# a child process imports the package from where this one found it
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(shapovalov.__file__).resolve().parents[1])}


def capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    return code, out.out


class TestTheta:
    def test_latex_odd_last_line(self, capsys):
        code, out = capture(
            capsys,
            ["theta", "--algebra", "2,2", "--root", "e1-d2", "--order", "odd-last",
             "--format", "latex"],
        )
        assert code == 0
        # the leading subset term of the odd-last expansion
        assert "e_{4,3}e_{2,1}e_{3,2}" in out

    def test_text_lists_terms(self, capsys):
        code, out = capture(capsys, ["theta", "--algebra", "3,0", "--root", "e1-e3"])
        assert code == 0
        assert "e3,2 e2,1" in out

    def test_json_roundtrips(self, capsys):
        code, out = capture(
            capsys,
            ["theta", "--algebra", "2,2", "--root", "e1-d2", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["ordering"] in ("standard", "middle")
        assert len(data["terms"]) == 4
        from shapovalov.pbw import UEAElement, gl
        el = UEAElement.from_json(gl(2, 2), data["body"])
        assert not el.is_zero()

    def test_borel_word(self, capsys):
        code, out = capture(
            capsys,
            ["theta", "--algebra", "2,2", "--borel", "1 1' 2 2'", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["borel"] == "1 1' 2 2'"


class TestVerify:
    def test_verify_passes(self, capsys):
        code, out = capture(
            capsys,
            ["verify", "--algebra", "3,0", "--root", "e1-e3", "--samples", "5",
             "--seed", "7"],
        )
        assert code == 0
        assert "all passed" in out

    def test_verify_symbolic_json(self, capsys):
        code, out = capture(
            capsys,
            ["verify", "--algebra", "2,2", "--root", "e1-d2", "--symbolic",
             "--format", "json"],
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["all_passed"] and rep["symbolic_passed"]
        assert rep["samples"] == 5 and rep["seed"] == 0

    def test_deterministic_output(self, capsys):
        args = ["verify", "--algebra", "2,2", "--root", "e1-d1", "--seed", "3",
                "--format", "json"]
        _, out1 = capture(capsys, args)
        _, out2 = capture(capsys, args)
        assert out1 == out2

    def test_sample_count_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("SHAPOVALOV_SAMPLES", "2")
        code, out = capture(
            capsys,
            ["verify", "--algebra", "2,0", "--root", "e1-e2", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["samples"] == 2

    def test_sample_count_env_not_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("SHAPOVALOV_SAMPLES", "abc")
        code = run(["verify", "--algebra", "3,0", "--root", "e1-e3"])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: SHAPOVALOV_SAMPLES must be an integer, got 'abc'\n"


class TestParserCache:
    """The parser is built once per process; SHAPOVALOV_SAMPLES is read per call."""

    VERIFY = ["verify", "--algebra", "2,0", "--root", "e1-e2", "--format", "json"]

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []

        class CountingParser(cli._Parser):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", CountingParser)
        cli.build_parser.cache_clear()
        try:
            assert run(self.VERIFY) == 0
            first = list(built)
            assert run(["theta", "--algebra", "3", "--root", "e1-e3"]) == 0
            assert run(["shuffles", "--algebra", "2,2"]) == 0
        finally:
            cli.build_parser.cache_clear()
        # the top-level parser and its subcommand parsers, all from the first call
        assert built.count("shapovalov") == 1
        assert built == first

    def test_sample_count_env_is_read_on_every_call(self, capsys, monkeypatch):
        for value in (2, 3):
            monkeypatch.setenv("SHAPOVALOV_SAMPLES", str(value))
            for argv in (self.VERIFY, ["compare", "--algebra", "3", "--root", "e1-e3",
                                       "--format", "json"]):
                code, out = capture(capsys, argv)
                assert code == 0
                assert json.loads(out)["samples"] == value
        code, out = capture(capsys, self.VERIFY + ["--samples", "1"])
        assert code == 0
        assert json.loads(out)["samples"] == 1

    @pytest.mark.parametrize("argv", [VERIFY, ["theta", "--algebra", "3", "--root", "e1-e3"]])
    def test_bad_env_after_a_good_one(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("SHAPOVALOV_SAMPLES", "2")
        assert run(argv) == 0
        capsys.readouterr()
        monkeypatch.setenv("SHAPOVALOV_SAMPLES", "abc")
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: SHAPOVALOV_SAMPLES must be an integer, got 'abc'\n"

    def test_usage_error_then_a_good_call(self, capsys):
        code, before = capture(capsys, self.VERIFY)
        assert code == 0
        assert run(self.VERIFY + ["--samples", "7", "--bogus"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == ["error: unrecognized arguments: --bogus"]
        # nothing of the failed call stays in the shared parser
        code, after = capture(capsys, self.VERIFY)
        assert code == 0
        assert after == before
        assert json.loads(after)["samples"] == 5


texts = st.text(st.sampled_from('ab"\\/\n\t\x00\x1f\x7fé€\U0001f600 ') | st.characters())
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**200), max_value=2**200)
    | st.floats()
    | texts
)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.lists(st.integers() | st.booleans())  # plain int lists, some with bools mixed in
    | st.dictionaries(texts, inner),
    max_leaves=40,
)


class TestJsonText:
    """`_json_text` writes what json.dumps(indent=2, sort_keys=True) writes."""

    @given(json_values)
    @example({"b": [1, True, 0], "a": {"\u00e9\"\\\x01": -0.0}, "c": (), "d": {}, "e": []})
    @example([float("nan"), float("inf"), -float("inf"), None, False, -(2**100), "\ud800"])
    @example({"exps": [0, 2, 1], "coeff": "-3/2"})
    def test_matches_the_standard_library(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2, sort_keys=True)

    def test_golden_json_outputs_reencode(self):
        cases = [r for r in json.loads(GOLDEN.read_text()) if "json" in r["argv"] and r["code"] == 0]
        assert len(cases) >= 10
        for r in cases:
            obj = json.loads(r["stdout"])
            assert _json_text(obj) + "\n" == r["stdout"]
            assert json.dumps(obj, indent=2, sort_keys=True) + "\n" == r["stdout"]

    @pytest.mark.parametrize("obj", [{1: "a"}, {"a": {None: 1}}, [{"a": 1, 2: "b"}]])
    def test_non_str_key_raises(self, obj):
        with pytest.raises(TypeError):
            _json_text(obj)

    def test_other_objects_raise(self):
        with pytest.raises(TypeError):
            _json_text({"a": [object()]})


class TestCompare:
    ARGV = ["compare", "--algebra", "2,3", "--root", "e1-d3", "--format", "json"]

    @staticmethod
    def count_verma_vector(monkeypatch):
        calls = []
        original = ShapovalovElement.verma_vector

        def counted(self, lam):
            calls.append(self.ordering)
            return original(self, lam)

        monkeypatch.setattr(ShapovalovElement, "verma_vector", counted)
        return calls

    def test_one_verma_vector_per_ordering_and_point(self, capsys, monkeypatch):
        monkeypatch.delenv("SHAPOVALOV_SAMPLES", raising=False)
        calls = self.count_verma_vector(monkeypatch)
        code, out = capture(capsys, self.ARGV)
        assert code == 0
        rep = json.loads(out)
        assert rep["equal_on_hyperplane"] and rep["samples"] == 5
        assert len(rep["orders"]) == 4
        assert len(calls) == 4 * 5

    def test_a_differing_ordering_fails(self, capsys, monkeypatch):
        # bform hands back the element of another root, so theta v_lam differs at every point
        real = cli.theta_for_root

        def theta_for_root(alg, root, order):
            if order == "bform":
                root = parse_root(alg, "e1-e2")
            return real(alg, root, order)

        monkeypatch.setattr(cli, "theta_for_root", theta_for_root)
        calls = self.count_verma_vector(monkeypatch)
        code, out = capture(capsys, ["compare", "--algebra", "3", "--root", "e1-e3",
                                     "--format", "json"])
        assert code == 2
        rep = json.loads(out)
        assert rep["orders"] == ["standard", "bform"]
        assert rep["equal_on_hyperplane"] is False
        assert rep["equal_as_elements"] is False
        assert '"equal_on_hyperplane": false' in out
        assert len(calls) == 2  # the first point already differs


class TestOtherCommands:
    def test_shuffles(self, capsys):
        code, out = capture(capsys, ["shuffles", "--algebra", "2,2"])
        assert code == 0
        assert "count: 2" in out
        assert "1 1' 2 2'" in out

    def test_compare(self, capsys):
        code, out = capture(
            capsys,
            ["compare", "--algebra", "2,2", "--root", "e1-d2", "--format", "json"],
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["equal_on_hyperplane"]

    @pytest.mark.parametrize("algebra, root, orders", [
        ("3", "e1-e3", ["standard", "bform"]),
        ("2,3", "d1-d3", ["standard", "bform"]),
        ("2,2", "e1-d2", ["middle", "odd-last", "odd-first", "bform"]),
    ])
    def test_compare_default_orders_follow_the_root(self, capsys, algebra, root, orders):
        code, out = capture(capsys, ["compare", "--algebra", algebra, "--root", root,
                                     "--samples", "1", "--format", "json"])
        assert code == 0
        assert json.loads(out)["orders"] == orders

    def test_det_latex(self, capsys):
        code, out = capture(capsys, ["det", "--algebra", "4,0", "--matrix", "D"])
        assert code == 0
        assert "begin{bmatrix}" in out

    def test_det_expand_json(self, capsys):
        code, out = capture(
            capsys,
            ["det", "--algebra", "3,0", "--matrix", "D", "--expand", "--format", "json"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["terms"]

    def test_det_weight_expand_json(self, capsys):
        from shapovalov.exact_algebra import Weight
        from shapovalov.hessenberg import build_A_rs, det_lr

        code, out = capture(
            capsys,
            ["det", "--algebra", "3,2", "--matrix", "Ars", "-r", "1", "-s", "2",
             "--weight", "1,2,3,4,5", "--expand", "--format", "json"],
        )
        assert code == 0
        lam = Weight(3, 2, [1, 2, 3, 4, 5])
        expected = det_lr(build_A_rs(1, 2, 3, 2).evaluate(lam)).to_json()
        assert json.loads(out) == json.loads(json.dumps(expected))

    def test_det_expand_text(self, capsys):
        from shapovalov.hessenberg import build_E, det_lr

        code, out = capture(capsys, ["det", "--algebra", "3", "--matrix", "E", "--expand"])
        assert code == 0
        assert out == f"{det_lr(build_E(3))}\n"

    def test_minimal(self, capsys):
        code, out = capture(
            capsys,
            ["minimal", "--algebra", "2,2", "--weight=-3,1,2,0", "--format", "json"],
        )
        assert code == 0
        rep = json.loads(out)
        assert "vanishing_odd_roots" in rep

    def test_kac_coeff(self, capsys):
        code, out = capture(
            capsys,
            ["kac-coeff", "--algebra", "2,2", "--root", "e2-d2",
             "--weight", "4,2,-1,5", "--format", "json"],
        )
        assert code == 0
        assert json.loads(out)["coefficient"] == "6"


class TestErrors:
    def test_unknown_root_syntax(self, capsys):
        assert run(["theta", "--algebra", "2,2", "--root", "q1-q2"]) == 1

    def test_bad_algebra(self):
        assert run(["theta", "--algebra", "zero", "--root", "e1-e2"]) == 1

    def test_dimension_cap(self):
        assert run(["minimal", "--algebra", "4,3", "--weight", "0,0,0,0,0,0,0"]) == 1

    def test_missing_subcommand(self):
        assert run([]) == 1

    def test_kac_requires_odd_root(self):
        assert run(
            ["kac-coeff", "--algebra", "2,2", "--root", "e1-e2", "--weight", "0,0,0,0"]
        ) == 1

    @pytest.mark.parametrize("root", ["d2-e1", "e3-e1", "d2-d1"])
    def test_negative_root(self, capsys, root):
        assert run(["verify", "--algebra", "3,2", "--root", root]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {root} is not a positive root of gl(3,2)"]

    def test_root_of_equal_indices(self, capsys):
        assert run(["theta", "--algebra", "2,2", "--root", "e1-e1"]) == 1
        assert capsys.readouterr().err.splitlines() == ["error: e1-e1 is not a root of gl(2,2)"]

    def test_bad_shuffle_entry(self, capsys):
        assert run(["theta", "--algebra", "2,2", "--borel", "1 1' x"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: bad shuffle entry 'x'; expected a word of entries i and j' like \"1 1' 2 2'\""
        ]

    @pytest.mark.parametrize("argv, message", [
        # an unprimed entry above m is not read as a primed one
        (["theta", "--borel", "1 3 2 2'"], "shuffle entry 3 is out of range; gl(2,2) has 1..2 and 1'..2'"),
        (["verify", "--borel", "1 3 2 4"], "shuffle entry 3 is out of range; gl(2,2) has 1..2 and 1'..2'"),
        (["theta", "--borel", "1 1' 1' 2'"], "shuffle entry 1' repeats in \"1 1' 1' 2'\""),
        (["theta", "--borel", "1 1' 2 2' 3'"], "shuffle entry 3' is out of range; gl(2,2) has 1..2 and 1'..2'"),
    ])
    def test_bad_shuffle_word(self, capsys, argv, message):
        assert run(argv + ["--algebra", "2,2"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("command", ["theta", "verify"])
    def test_shuffle_borel_needs_odd_part(self, capsys, command):
        assert run([command, "--algebra", "3", "--borel", "1,2,3"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: shuffle Borels need n >= 1"]

    @pytest.mark.parametrize("argv, count", [
        (["shuffles", "--algebra", "12,12"], 705432),
        (["shuffles", "--algebra", "10,10", "--all"], 184756),
    ])
    def test_shuffle_cap(self, capsys, argv, count):
        # refused from the count alone, before any word is enumerated
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"error: there are {count} shuffles, more than the cap of {SHUFFLE_CAP}"
        ]

    @pytest.mark.parametrize("argv, terms", [
        (["verify", "--algebra", "30,30", "--root", "e1-d30"], 2**58),
        (["theta", "--algebra", "20", "--root", "e1-e20"], 2**18),
        (["theta", "--algebra", "8,8", "--borel", "1 1' 2 2'"], 2**14),
        (["compare", "--algebra", "10,5", "--root", "e1-d5"], 2**13),
        (["det", "--algebra", "16", "--matrix", "D", "--expand"], 2**14),
        (["theta", "--algebra", "12", "--root", "e1-e12"], 2**10),
    ])
    def test_term_cap(self, capsys, argv, terms):
        # refused before anything of the expansion is built
        assert run(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: the expansion has {terms} terms, more than the cap of {TERM_CAP}"]

    @pytest.mark.parametrize("argv, env, message", [
        (["verify", "--algebra", "400", "--root", "e1-e2"], None,
         f"rank m+n = 400 is more than the cap of {RANK_CAP}"),
        (["det", "--algebra", "10" + "0" * 30 + ",1", "--matrix", "D"], None,
         f"rank m+n = {10**31 + 1} is more than the cap of {RANK_CAP}"),
        (["theta", "--algebra", "0", "--root", "e1-e2"], None, "bad algebra spec '0'; expected m,n"),
        (["theta", "--algebra=-3", "--root", "e1-e2"], None, "bad algebra spec '-3'; expected m,n"),
        (["verify", "--algebra", "5/2", "--root", "e1-e2"], None,
         "bad algebra spec '5/2'; expected m,n"),
        (["shuffles", "--algebra", "2,,2"], None, "bad algebra spec '2,,2'; expected m,n"),
        (["verify", "--algebra", "3", "--root", "e1-e3", "--samples", "100000000"], None,
         f"the sample count must be between 1 and {SAMPLES_CAP}, got 100000000"),
        (["compare", "--algebra", "2,2", "--root", "e1-d2", "--samples", "0"], None,
         f"the sample count must be between 1 and {SAMPLES_CAP}, got 0"),
        (["verify", "--algebra", "3", "--root", "e1-e3"], "100000000",
         f"the sample count must be between 1 and {SAMPLES_CAP}, got 100000000"),
        (["kac-coeff", "--algebra", "20,20", "--root", "e1-d20", "--weight", ",".join(["0"] * 40)],
         None, f"the expansion has {2**38} terms, more than the cap of {TERM_CAP}"),
        (["compare", "--algebra", "6", "--root", "e1-e6", "--orders", ",".join(["bform"] * 3000)],
         None, "--orders repeats 'bform'"),
        (["kac-coeff", "--algebra", "6,5", "--root", "e1-d5", "--weight", ",".join(["0"] * 11)],
         None, f"the weight space has {2**9} monomials, more than the kac-coeff cap of {KAC_CAP}"),
        (["kac-coeff", "--algebra", "2,1", "--root", "e1-d1", "--weight", "1e30000000,0,0"], None,
         f"weight coordinate '1e30000000' has an exponent beyond {EXPONENT_CAP} in size"),
        (["det", "--algebra", "3", "--matrix", "D", "--weight", "0,1e-30000000,0"], None,
         f"weight coordinate '1e-30000000' has an exponent beyond {EXPONENT_CAP} in size"),
        (["minimal", "--algebra", "2,1", "--weight", f"0,0,1E+{EXPONENT_CAP + 1}"], None,
         f"weight coordinate '1E+{EXPONENT_CAP + 1}' has an exponent beyond {EXPONENT_CAP} in size"),
        (["theta", "--algebra", "3"], None, "need --root (or --borel with a shuffle word)"),
        (["det", "--algebra", "3", "--matrix", "X"], None, "unknown matrix 'X'"),
    ])
    def test_input_caps(self, capsys, monkeypatch, argv, env, message):
        # refused from the arguments alone, before anything is built
        if env is not None:
            monkeypatch.setenv("SHAPOVALOV_SAMPLES", env)
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {message}"]

    def test_weight_coordinates_in_every_notation(self, capsys):
        """Fractions, decimals and exponents up to the cap are read exactly."""
        argv = ["kac-coeff", "--algebra", "2,1", "--root", "e1-d1", "--format", "json", "--weight"]
        assert run(argv + [f"1e3,3/4,-1.5e-{EXPONENT_CAP}"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert run(argv + [f"1000,0.75,-15/1{'0' * (EXPONENT_CAP + 1)}"]) == 0
        assert json.loads(capsys.readouterr().out) == first

    def test_rank_cap_admits_its_bound(self, capsys):
        assert run(["verify", "--algebra", f"{RANK_CAP - 1},1", "--root", "e1-e2",
                    "--samples", "1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["all_passed"]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "shapovalov.cli", "shuffles", "--algebra", "2,2"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "count: 2" in proc.stdout


def test_package_runs_as_a_module():
    def child(*argv):
        return subprocess.run([sys.executable, "-m", "shapovalov", *argv],
                              capture_output=True, text=True, env=CHILD_ENV)

    proc = child("theta", "--algebra", "3", "--root", "e1-e3")
    assert proc.returncode == 0
    assert "e3,2 e2,1" in proc.stdout
    proc = child("theta", "--algebra", "3", "--root", "e1-e9")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1


def test_closed_stdout_exits_quietly():
    # the json of e1-e7 is larger than a pipe buffer, so a write fails after the reader leaves
    proc = subprocess.Popen(
        [sys.executable, "-m", "shapovalov.cli", "theta", "--algebra", "7,0", "--root", "e1-e7",
         "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=CHILD_ENV,
    )
    assert proc.stdout.read(16)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert err == b""
