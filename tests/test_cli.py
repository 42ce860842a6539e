"""Problem-file parsing, dispatch, report format and exit codes."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sl2z_semigroups.cli import (
    EXIT_INPUT, EXIT_INTERNAL, EXIT_NO, EXIT_UNKNOWN, EXIT_YES, ProblemError,
    dump_json, emit_problem, emit_report, main, parse_problem, problem_json,
)
from sl2z_semigroups.algebra import GeneratorSet
from sl2z_semigroups.decisions import Count, Verdict


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


S_MATRIX = [["0", "-1"], ["1", "0"]]


class TestParse:
    def test_matrix_generators(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": S_MATRIX},
                           {"matrix": [["0", "-1"], ["1", "1"]]}]})
        p = parse_problem(path)
        assert len(p.generators) == 2

    def test_word_generators_normalized(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {
            "generators": [{"word": {"sign": 1, "sr": "ss"}}]})
        p = parse_problem(path)
        assert p.generators.matrix(1).entries() == (-1, 0, 0, -1)
        assert "normalized" in capsys.readouterr().err

    def test_fractional_entry_names_field(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": [["2.5", "0"], ["0", "1"]]}]})
        with pytest.raises(ProblemError, match=r"generators\[0\].matrix\[0\]\[0\]"):
            parse_problem(path)

    def test_determinant_checked(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": [["1", "0"], ["0", "2"]]}]})
        with pytest.raises(ProblemError, match="determinant must be 1"):
            parse_problem(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": S_MATRIX}], "extra": 1})
        with pytest.raises(ProblemError, match="unknown keys"):
            parse_problem(path)

    def test_big_integers_survive(self, tmp_path):
        # Fibonacci-type product: ~30-digit entries, short normal form
        from sl2z_semigroups.algebra import Mat2
        upper, lower = Mat2(1, 1, 0, 1), Mat2(1, 0, 1, 1)
        m = Mat2(1, 0, 0, 1)
        for _ in range(70):
            m = m * upper * lower
        assert len(str(m.a)) > 25
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": [[str(m.a), str(m.b)],
                                       [str(m.c), str(m.d)]]}]})
        p = parse_problem(path)
        assert p.generators.matrix(1) == m


    @pytest.mark.parametrize("entry", ["", "  ", "-", "+", "\u00b2", "-\u00b2", "\u0663"])
    def test_entry_that_is_no_integer_names_field(self, tmp_path, capsys, entry):
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": [[entry, "0"], ["0", "1"]]}]})
        with pytest.raises(ProblemError, match=r"generators\[0\].matrix\[0\]\[0\]: not an integer"):
            parse_problem(path)
        assert main(["identity", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: generators[0].matrix[0][0]: ")
        assert "Traceback" not in captured.err


def fibonacci_power(k):
    """[[2, 1], [1, 1]]^k; its entries have about 0.418 k digits."""
    from sl2z_semigroups.algebra import IDENTITY, Mat2
    result, base = IDENTITY, Mat2(2, 1, 1, 1)
    while k:
        if k & 1:
            result = result * base
        base, k = base * base, k >> 1
    return result


def int_digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


class TestEntriesPastTheDigitLimit:
    """Python >= 3.11 refuses int/str conversions of more than 4,300 digits
    by default; the program converts such entries without changing that
    limit."""

    def test_identity_on_a_4425_digit_target(self, tmp_path, capsys):
        m = fibonacci_power(10587)
        limit = int_digit_limit()
        doc = problem_json(GeneratorSet.from_matrices([fibonacci_power(1)]), target=m)
        assert len(doc["target"]["matrix"][0][0]) == 4425
        path = tmp_path / "big.json"
        path.write_text(emit_problem(doc))
        assert main(["identity", str(path)]) in (EXIT_YES, EXIT_NO)
        assert "Traceback" not in capsys.readouterr().err
        assert int_digit_limit() == limit

    def test_problem_round_trip(self, tmp_path):
        m = fibonacci_power(10587)
        text = emit_problem(problem_json(GeneratorSet.from_matrices([m])))
        path = tmp_path / "big.json"
        path.write_text(text)
        parsed = parse_problem(str(path))
        assert parsed.generators.matrix(1) == m
        assert emit_problem(problem_json(parsed.generators)) == text

    @pytest.mark.parametrize("digits", [4200, 5000])
    def test_shear_past_the_word_limit_exits_3(self, tmp_path, capsys, digits):
        # T^q with q = 10^(digits - 1): its normal form is too long to build,
        # and q itself has too many digits to print
        path = write(tmp_path, "p.json", {"generators": [
            {"matrix": [["1", "0"], ["1" + "0" * (digits - 1), "1"]]}]})
        assert main(["identity", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert len(captured.err) < 200

    def test_product_past_the_word_limit_exits_3(self, tmp_path, capsys):
        # (T^1000000 S)^4: each shear is within the word limit, the whole
        # normal form (about 8,000,000 letters) is not
        path = write(tmp_path, "p.json", {"generators": [{"matrix": [
            ["999999999997000000000001", "-999999999998000000"],
            ["999999999998000000", "-999999999999"]]}]})
        start = time.perf_counter()
        assert main(["identity", path]) == EXIT_INPUT
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "past the word limit" in captured.err

    @pytest.mark.parametrize("cmd", ["identity", "check-free", "check-finite-free", "member"])
    def test_problem_past_the_letter_budget_exits_3(self, tmp_path, capsys, cmd):
        # the free pair of shears 200,001: each word is within the word
        # limit and the descent leaves both as they are, but together they
        # have 1,000,005 letters, one budget's worth and 5 more; `member`
        # adds its target's
        q = "200001"
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": [["1", q], ["0", "1"]]},
                           {"matrix": [["1", "0"], [q, "1"]]}],
            "target": {"matrix": [["1", "2"], ["0", "1"]]}})
        start = time.perf_counter()
        assert main([cmd, path]) == EXIT_INPUT
        assert time.perf_counter() - start < 2.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "past the letter budget" in captured.err and "1000000 letters" in captured.err

    def test_problem_past_twice_the_letter_budget_is_refused_before_the_descent(
            self, tmp_path, capsys, monkeypatch):
        # T^-q S T^q with q = 400,001 has 2,000,004 letters and the
        # conjugate s, but the descent would hold them all in a deque
        from sl2z_semigroups import algebra
        monkeypatch.setattr(algebra, "shortest_conjugate",
                            lambda words: pytest.fail("the descent ran"))
        q = 400001
        path = write(tmp_path, "p.json", {"generators": [
            {"matrix": [[str(-q), str(-q * q - 1)], ["1", str(q)]]}]})
        assert main(["identity", path]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "past the letter budget" in captured.err and "2000000 letters" in captured.err

    @pytest.mark.parametrize("argv", [["identity"], ["oracle", "--depth", "2"]])
    def test_words_past_twice_the_letter_budget_are_refused_before_they_are_built(
            self, tmp_path, capsys, monkeypatch, argv):
        # six upper shears by 1,600,000: each word, 3,200,000 letters, is
        # within the word limit, but the first alone is past twice the
        # budget, so no shear's letters are built
        from sl2z_semigroups import algebra
        built = []
        monkeypatch.setattr(algebra, "_t_letters", built.append)
        shear = {"matrix": [["1", "1600000"], ["0", "1"]]}
        path = write(tmp_path, "p.json", {"generators": [shear] * 6})
        assert main([argv[0], path, *argv[1:]]) == EXIT_INPUT
        assert built == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "past the letter budget" in captured.err and "2000000 letters" in captured.err

    def test_json_number_entry(self, tmp_path):
        m = fibonacci_power(10587)
        rows = problem_json(GeneratorSet.from_matrices([m]))["generators"][0]["matrix"]
        path = tmp_path / "big.json"
        path.write_text('{"generators": [{"matrix": [[%s, %s], [%s, %s]]}]}'
                        % tuple(x for row in rows for x in row))
        assert parse_problem(str(path)).generators.matrix(1) == m


class TestCachedParser:
    """`main` builds its parser once per process and reuses it."""

    def count_problem(self, tmp_path):
        # a, b, ab, ba over a free pair: aba has the three factorizations
        # [a, b, a], [ab, a], [a, ba]
        from sl2z_semigroups.algebra import Mat2
        a, b = Mat2(1, 2, 0, 1), Mat2(1, 0, 2, 1)
        gens = GeneratorSet.from_matrices([a, b, a * b, b * a])
        path = tmp_path / "count.json"
        path.write_text(emit_problem(problem_json(gens, target=a * b * a)))
        return str(path)

    def test_one_parser_per_process(self, tmp_path, capsys, monkeypatch):
        from sl2z_semigroups import cli
        built = []

        def build_parser():
            built.append(1)
            return original()
        original = cli.build_parser
        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", build_parser)
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        for _ in range(3):
            assert main(["identity", path]) == EXIT_YES
        assert built == [1]

    def test_flag_does_not_stick(self, tmp_path, capsys):
        path = self.count_problem(tmp_path)
        assert main(["count", path, "--cap", "2"]) == EXIT_YES
        assert json.loads(capsys.readouterr().out)["count"] == {"more_than": 2}
        assert main(["count", path]) == EXIT_YES
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 3
        assert doc["witness"]["sequences"] == [[1, 4], [3, 1], [1, 2, 1]]

    def test_usage_error_after_a_call(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        assert main(["identity", path]) == EXIT_YES
        capsys.readouterr()
        assert main(["identity"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "usage: sl2z" in captured.err
        assert main(["identity", path]) == EXIT_YES

    def test_help_before_and_after_calls(self, tmp_path, capsys, monkeypatch):
        from sl2z_semigroups import cli
        monkeypatch.setattr(cli, "_parser", None)
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        helps = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["--help"])
            assert exc.value.code == 0
            helps.append(capsys.readouterr().out)
            assert main(["identity", path]) == EXIT_YES
            assert main(["check-finite-free", path, "--depth", "x"]) == EXIT_INPUT
            capsys.readouterr()
        assert "usage: sl2z" in helps[0] and helps[0] == helps[1]

    def test_identical_calls_print_identical_output(self, tmp_path, capsys):
        path = self.count_problem(tmp_path)
        outputs = []
        for _ in range(2):
            assert main(["check-finite-free", path, "--depth", "2"]) == EXIT_UNKNOWN
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0]


# what a report may hold: nested dicts, lists and tuples, empty ones too,
# strings with non-ASCII characters, quotes and control characters, negative
# and large ints, bools and None
report_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10 ** 40, 10 ** 40)
    | st.text() | st.sampled_from(['"', "\\", "\n\t\x00\x1f", "é€😀", "\ud800"]),
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=25)


class TestReports:
    def test_writer_formats_tuples_as_lists(self):
        value = {"collision": ([1], (2, 3)), "empty": ((), {}, []), "none": None}
        assert dump_json(value) == json.dumps(value, indent=2)
        assert dump_json((1, "a")) == '[\n  1,\n  "a"\n]'

    @settings(max_examples=300, deadline=None)
    @given(report_values)
    def test_writer_equals_json_dumps(self, value):
        assert dump_json(value) == json.dumps(value, indent=2)

    def test_exit_codes(self):
        assert emit_report(Verdict("identity", "YES"), "json")[1] == EXIT_YES
        assert emit_report(Verdict("identity", "NO"), "json")[1] == EXIT_NO
        v = Verdict("finite_freeness", "UNKNOWN_UP_TO", depth_bound=4)
        text, code = emit_report(v, "json")
        assert code == EXIT_UNKNOWN
        assert json.loads(text)["depth_bound"] == 4

    def test_count_serialization(self):
        v = Verdict("count", "YES", count=Count("more_than", 8))
        doc = json.loads(emit_report(v, "json")[0])
        assert doc["count"] == {"more_than": 8}
        v2 = Verdict("count", "YES", count=Count("infinite"))
        assert json.loads(emit_report(v2, "json")[0])["count"] == "infinite"

    def test_text_format(self):
        v = Verdict("identity", "YES",
                    witness={"kind": "sequences", "sequences": [[1, 1]]})
        text, _ = emit_report(v, "text")
        assert "identity: YES" in text and "[1, 1]" in text


class TestCommands:
    def test_identity_yes(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        code = main(["identity", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_YES
        assert doc["witness"]["sequences"] == [[1, 1, 1, 1]]

    def test_check_free_not_free(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        code = main(["check-free", path])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_NO
        assert doc["witness"]["sequences"] == [[1], [1, 1, 1, 1, 1]]

    def test_member_requires_target(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        assert main(["member", path]) == EXIT_INPUT
        assert "target" in capsys.readouterr().err

    def test_member_with_target(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": S_MATRIX}],
            "target": {"matrix": [["-1", "0"], ["0", "-1"]]}})
        assert main(["member", path]) == EXIT_YES
        assert json.loads(capsys.readouterr().out)["answer"] == "YES"

    def test_check_finite_free_unknown(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {
            "generators": [{"word": {"sign": 1, "sr": "srsr"}},
                           {"word": {"sign": 1, "sr": "srrsrr"}}]})
        code = main(["check-finite-free", path, "--depth", "2"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_UNKNOWN
        assert doc["depth_bound"] == 2

    def test_free_set_past_the_oracle_budget(self, tmp_path, capsys):
        # a free set has no recurrent element, so no product is enumerated
        path = write(tmp_path, "p.json", {
            "generators": [{"word": {"sign": 1, "sr": "srsr"}},
                           {"word": {"sign": 1, "sr": "srrsrr"}}]})
        assert main(["check-finite-free", path, "--depth", "25"]) == EXIT_UNKNOWN
        assert json.loads(capsys.readouterr().out)["depth_bound"] == 25

    def test_non_free_set_past_the_oracle_budget_is_unknown(self, tmp_path, capsys):
        # the same generator twice: not free, no product is the identity and
        # none is recurrent; no product is enumerated, so the depth costs nothing
        path = write(tmp_path, "p.json", {
            "generators": [{"word": {"sign": 1, "sr": "srsr"}}] * 2})
        assert main(["check-finite-free", path, "--depth", "25"]) == EXIT_UNKNOWN
        assert json.loads(capsys.readouterr().out)["depth_bound"] == 25

    def test_count_command(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {
            "generators": [{"word": {"sign": 1, "sr": "srsr"}}],
            "target": {"word": {"sign": 1, "sr": "srsrsrsr"}}})
        code = main(["count", path, "--cap", "4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_YES and doc["count"] == 1

    def test_recurrent_command(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": S_MATRIX}],
            "target": {"matrix": [["-1", "0"], ["0", "-1"]]}})
        assert main(["recurrent", path]) == EXIT_YES

    def test_recurrent_on_fixture_target(self, tmp_path, capsys):
        # the recurrent-without-identity set: target YES, identity NO
        from sl2z_semigroups.encodings import recurrent_without_identity_fixture
        fx = recurrent_without_identity_fixture()
        target = fx.expected["recurrent_target"]
        doc = problem_json(fx.generators, target=target)
        path = tmp_path / "rec.json"
        path.write_text(emit_problem(doc))
        assert main(["recurrent", str(path)]) == EXIT_YES
        capsys.readouterr()
        assert main(["identity", str(path)]) == EXIT_NO

    def test_reports_repeat_across_hash_seeds(self, tmp_path):
        # the growth-cycle search follows production order, so nothing in a
        # report may depend on the process's string hashing
        from sl2z_semigroups.encodings import recurrent_without_identity_fixture
        fx = recurrent_without_identity_fixture()
        path = tmp_path / "rec.json"
        path.write_text(emit_problem(problem_json(
            fx.generators, target=fx.expected["recurrent_target"])))
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = {}
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(
                           [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            outputs[seed] = [
                subprocess.run([sys.executable, "-m", "sl2z_semigroups.cli", cmd,
                                str(path), *flags],
                               env=env, capture_output=True, timeout=120).stdout
                for cmd, flags in (("recurrent", ()), ("count", ("--cap", "4")),
                                   ("check-finite-free", ("--depth", "2")))]
        assert all(outputs["1"])
        assert outputs["1"] == outputs["2"]

    def test_oracle_command(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        code = main(["oracle", path, "--depth", "5"])
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert code == EXIT_YES
        assert doc["collision"] == [[1], [1, 1, 1, 1, 1]]
        # the collision is a tuple, which the report writes as `json` does
        assert out == json.dumps(doc, indent=2) + "\n"
        assert doc["distinct_products"] == 4

    def test_oracle_depth_zero_exits_3(self, tmp_path, capsys):
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        assert main(["oracle", path, "--depth", "0"]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: --depth: must be at least 1" in captured.err
        assert "Traceback" not in captured.err

    def test_internal_error_is_not_a_verdict(self, tmp_path, capsys, monkeypatch):
        from sl2z_semigroups import decisions

        def crash(gens):
            raise RuntimeError("boom")
        monkeypatch.setattr(decisions, "identity_in_semigroup", crash)
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}]})
        assert main(["identity", path]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RuntimeError: boom" in captured.err

    def test_failed_conjugation_self_check_is_internal(self, tmp_path, capsys, monkeypatch):
        # a descent that claims M = S but leaves the words as they are: a
        # fault of the program, so exit 4 with a traceback, not an input error
        from sl2z_semigroups import algebra
        monkeypatch.setattr(algebra, "shortest_conjugate", lambda words: (algebra.S, list(words)))
        path = write(tmp_path, "p.json", {"generators": [{"word": {"sign": 1, "sr": "r"}}]})
        assert main(["identity", path]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SelfCheckError: conjugated word 1 failed its self-check" in captured.err

    def test_failed_decomposition_self_check_is_internal(self, tmp_path, capsys, monkeypatch):
        # a reduction that flips every sign: `decompose`'s own check fails,
        # a fault of the program, so exit 4 with a traceback, not an input error
        from sl2z_semigroups import algebra
        honest = algebra.reduce
        monkeypatch.setattr(algebra, "reduce", lambda raw, sign=1: honest(raw, -sign))
        path = write(tmp_path, "p.json", {"generators": [{"matrix": [["1", "2"], ["0", "1"]]}]})
        assert main(["identity", path]) == EXIT_INTERNAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "SelfCheckError: decomposition self-check failed" in captured.err

    # runs the command with its address space capped at its size after the
    # imports plus 64 MB; the free pair of shears 80000 needs about 180 MB
    MEMORY_CAPPED = """
import resource, sys
from sl2z_semigroups import cli
with open("/proc/self/status") as fh:
    kb = next(int(line.split()[1]) for line in fh if line.startswith("VmSize:"))
cap = kb * 1024 + 64 * 2**20
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
sys.exit(cli.main(sys.argv[1:]))
"""

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the process's size from /proc")
    @pytest.mark.parametrize("cmd", ["identity", "check-finite-free"])
    def test_memory_exhaustion_exits_3(self, tmp_path, cmd):
        path = write(tmp_path, "p.json", {"generators": [
            {"matrix": [["1", "80000"], ["0", "1"]]},
            {"matrix": [["1", "0"], ["80000", "1"]]}]})
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        run = subprocess.run([sys.executable, "-c", self.MEMORY_CAPPED, cmd, path],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == EXIT_INPUT
        assert run.stdout == ""
        assert run.stderr.startswith("error: memory ran out")
        assert "Traceback" not in run.stderr

    def test_malformed_input_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        assert main(["identity", str(path)]) == EXIT_INPUT
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("content, message", [
        (b"[" * 100_000, "JSON nested too deeply"),
        (b"\xff\xfe[\x00]\x00", "not UTF-8 text"),
    ], ids=["deeply-nested", "utf-16-bom"])
    @pytest.mark.parametrize("argv", [["identity"], ["encode-dfa", "--dfas"]],
                             ids=["identity", "encode-dfa"])
    def test_unreadable_file_exits_3_naming_it(self, tmp_path, capsys, argv,
                                               content, message):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(argv + [str(path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: {message}")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv", [["identity"],
                                      ["check-finite-free", "p.json", "--depth", "x"],
                                      [], ["bogus"], ["identity", "p.json", "--bogus"]])
    def test_usage_error_exits_3(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage: sl2z" in captured.err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: sl2z" in capsys.readouterr().out

    def test_command_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check-finite-free", "--help"])
        assert exc.value.code == 0
        assert "usage: sl2z check-finite-free" in capsys.readouterr().out

    def test_known_command_skips_the_top_level_parser(self, tmp_path, capsys,
                                                      monkeypatch):
        from sl2z_semigroups import cli
        path = write(tmp_path, "p.json", {"generators": [{"matrix": S_MATRIX}],
                                          "target": {"matrix": S_MATRIX}})
        assert main(["identity", path]) == EXIT_YES  # builds the parsers

        def refuse(*args, **kwargs):
            raise AssertionError("the top-level parser parsed a known command")
        monkeypatch.setattr(cli._parser, "parse_args", refuse)
        assert main(["identity", path, "--format", "text"]) == EXIT_YES
        assert main(["count", path, "--cap", "2"]) == EXIT_YES
        assert main(["check-finite-free", path, "--depth", "2"]) == EXIT_NO
        assert main(["check-finite-free", path, "--depth", "x"]) == EXIT_INPUT

    @pytest.mark.parametrize("argv, parameters, field", [
        (["check-finite-free", "--depth", "0"], {}, "--depth"),
        (["count", "--cap", "0"], {}, "--cap"),
        (["count"], {"cap": -1}, "parameters.cap"),
    ])
    def test_setting_below_one_exits_3(self, tmp_path, capsys, argv, parameters, field):
        path = write(tmp_path, "p.json", {
            "generators": [{"matrix": S_MATRIX}],
            "target": {"matrix": S_MATRIX}, "parameters": parameters})
        assert main(argv[:1] + [path] + argv[1:]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {field}: must be at least 1" in captured.err
        assert "Traceback" not in captured.err


class TestEncodeCommands:
    def test_encode_ssp_round_trip(self, tmp_path, capsys):
        assert main(["encode-ssp", "--set", "1,2", "--x", "3"]) == EXIT_YES
        out = capsys.readouterr().out
        path = tmp_path / "ssp.json"
        path.write_text(out)
        p = parse_problem(str(path))
        assert emit_problem(problem_json(p.generators, target=p.target)) == out
        assert len(p.generators) == 10

    def test_encode_essp(self, tmp_path, capsys):
        assert main(["encode-essp", "--set", "1,2,3"]) == EXIT_YES
        out = capsys.readouterr().out
        path = tmp_path / "essp.json"
        path.write_text(out)
        assert len(parse_problem(str(path)).generators) == 6

    def test_encoded_instance_feeds_decisions(self, tmp_path, capsys):
        main(["encode-ssp", "--set", "1,2", "--x", "3"])
        out = capsys.readouterr().out
        path = tmp_path / "ssp.json"
        path.write_text(out)
        assert main(["identity", str(path)]) == EXIT_YES
        capsys.readouterr()

    def test_deep_subset_sum_witness(self, tmp_path, capsys):
        # solvable, with a witness derivation deeper than the default
        # recursion limit
        assert main(["encode-ssp", "--set", "150,250", "--x", "400"]) == EXIT_YES
        path = tmp_path / "ssp.json"
        path.write_text(capsys.readouterr().out)
        assert main(["identity", str(path)]) == EXIT_YES
        doc = json.loads(capsys.readouterr().out)
        (seq,) = doc["witness"]["sequences"]
        gens = parse_problem(str(path)).generators
        assert gens.product(seq).entries() == (1, 0, 0, 1)

    def test_encode_dfa(self, tmp_path, capsys):
        dfa_docs = [{"states": 1, "alphabet": ["a"],
                     "transitions": {"0": {"a": 0}}, "finals": [0]}]
        dfa_path = tmp_path / "dfas.json"
        dfa_path.write_text(json.dumps(dfa_docs))
        assert main(["encode-dfa", "--dfas", str(dfa_path)]) == EXIT_YES
        out = capsys.readouterr().out
        path = tmp_path / "enc.json"
        path.write_text(out)
        assert len(parse_problem(str(path)).generators) == 3

    @pytest.mark.parametrize("argv", [
        ["encode-ssp", "--set", "1,2", "--x", "-3"],
        ["encode-essp", "--set", "0,0"],
    ])
    def test_encode_out_of_family_exits_3(self, argv, capsys):
        assert main(argv) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("argv, field", [
        (["encode-ssp", "--set", "1,2", "--x", "99999999999999999999999"], "--x"),
        (["encode-essp", "--set", "99999999999999999999999"], "--set entry 1"),
        (["encode-essp", "--set", "1,99999999999999999999999"], "--set entry 2"),
    ])
    def test_oversized_encoding_exits_3_naming_field(self, argv, field, capsys):
        # refused from the letter count, before any word is built
        started = time.perf_counter()
        assert main(argv) == EXIT_INPUT
        assert time.perf_counter() - started < 3.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field} is too large: ")
        assert "Traceback" not in captured.err

    def test_oversized_dfa_state_count_exits_3(self, tmp_path, capsys):
        dfa_path = tmp_path / "dfas.json"
        dfa_path.write_text(json.dumps([
            {"states": 10 ** 20, "alphabet": ["a"], "transitions": {}, "finals": []}]))
        started = time.perf_counter()
        assert main(["encode-dfa", "--dfas", str(dfa_path)]) == EXIT_INPUT
        assert time.perf_counter() - started < 3.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: DFA state count and alphabet ({10 ** 20} states in all, 1 symbols) "
            "is too large: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("dfa", [
        {"states": 2, "alphabet": ["#"], "transitions": {"0": {"#": 1}, "1": {"#": 1}},
         "finals": [0]},
        {"states": 2, "alphabet": ["d0_0"],
         "transitions": {"0": {"d0_0": 0}, "1": {"d0_0": 0}}, "finals": [1]},
    ], ids=["hash", "border-letter"])
    def test_alphabet_of_the_encodings_own_letters_exits_3(self, tmp_path, capsys, dfa):
        dfa_path = tmp_path / "dfas.json"
        dfa_path.write_text(json.dumps([dfa]))
        assert main(["encode-dfa", "--dfas", str(dfa_path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: alphabet: ")
        assert "Traceback" not in captured.err

    def test_encode_bad_set(self, capsys):
        assert main(["encode-essp", "--set", "1,x"]) == EXIT_INPUT
        assert "comma-separated" in capsys.readouterr().err

    @pytest.mark.parametrize("change, field", [
        ({"transitions": [[0, "a", 0]]}, "dfas[0].transitions"),
        ({"transitions": {"0": ["a", 0]}}, "dfas[0].transitions"),
        ({"transitions": {"0": {"a": 5}}}, "dfas[0].transitions"),
        ({"transitions": {"5": {"a": 0}}}, "dfas[0].transitions"),
        ({"finals": [5]}, "dfas[0].finals"),
        ({"finals": 0}, "dfas[0].finals"),
        ({"states": 0, "transitions": {}, "finals": []}, "dfas[0].states"),
        ({"transitions": {"0": {"b": 0}}}, "dfas[0].transitions"),
        ({"alphabet": 5}, "dfas[0].alphabet"),
        ({"alphabet": "a"}, "dfas[0].alphabet"),
        ({"alphabet": [["a"]]}, "dfas[0].alphabet"),
    ], ids=["transitions-array", "transition-row-array", "target-state-out-of-range",
            "source-state-out-of-range", "final-out-of-range", "finals-not-array",
            "no-states", "symbol-outside-alphabet", "alphabet-number",
            "alphabet-string", "alphabet-nested"])
    def test_malformed_dfa_names_field(self, tmp_path, capsys, change, field):
        dfa = {"states": 1, "alphabet": ["a"], "transitions": {"0": {"a": 0}},
               "finals": [0]}
        dfa.update(change)
        dfa_path = tmp_path / "dfas.json"
        dfa_path.write_text(json.dumps([dfa]))
        assert main(["encode-dfa", "--dfas", str(dfa_path)]) == EXIT_INPUT
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {field}: ")
        assert "Traceback" not in captured.err
