"""Seeded fuzzing of the command line's exit-code contract.

    PYTHONPATH=src python3 tests/cli_fuzz.py --seed 1 --seconds 60

`random_case` draws one argument list for `cli.main` and writes the
problem or DFA file it names: determinant-1 generators and targets built
from random words, malformed entries and files, bad `parameters` and
flags, shears whose entries have more than 4,300 digits, `oracle` runs and
`encode-*` arguments, products of T^q S factors whose shears each
pass the word limit of `algebra.decompose` but together do not, and
problems whose words have just more letters than the budget that
`GeneratorSet.conjugated` allows.  Sizes stay small, so every case but
those last ones runs in milliseconds; they take about 0.2 s each.  A
case is its argument list and the exit code it must give, if the draw
fixes one.
`check_case` runs a case twice in this process and names the first broken
property, if any:

- the exit code is one of 0, 1, 2 and 3 (4 is an internal error);
- a product past the word limit, and a problem past the letter budget,
  exit 3 within `LONG_PRODUCT_S`;
- exit 1 (NO) comes only with a NO report on stdout;
- exit 3 (input error) comes with an `error:` line on stderr;
- a JSON report or problem on stdout is what `json.dumps(..., indent=2)`
  writes for it;
- the second run prints byte-identical stdout with the same exit code.

`tests/test_cli_fuzz.py` runs a fixed seed and case count; the script runs
cases until its time is up and exits 1 on the first broken property.
"""

import argparse
import contextlib
import io
import json
import os
import random
import sys
import tempfile
import time
from typing import NamedTuple

from sl2z_semigroups.algebra import (
    IDENTITY, MAX_PROBLEM_LETTERS, MAX_WORD_LETTERS, S, Mat2, SignedWord, evaluate, reduce,
)
from sl2z_semigroups.cli import main

PROBLEM_COMMANDS = ("identity", "member", "count", "recurrent", "check-free",
                    "check-finite-free")
MALFORMED_ELEMENTS = (
    {"matrix": [["2.5", "0"], ["0", "1"]]},
    {"matrix": [["1", "0"], ["0", "2"]]},
    {"matrix": [["1", "0"]]},
    {"matrix": [["1", "0"], ["0", "1", "0"]]},
    {"matrix": "1 0 0 1"},
    {"matrix": [[True, 0], [0, 1]]},
    {"matrix": [["1", "0"], ["²", "1"]]},
    {"matrix": [[None, 0], [0, 1]]},
    {"word": {"sign": 2, "sr": "s"}},
    {"word": {"sign": 1, "sr": "sx"}},
    {"word": {"sign": 1, "sr": 5}},
    {"word": {"sign": 1, "sr": "s", "len": 1}},
    {"word": "sr"},
    {"matrix": [["1", "0"], ["0", "1"]], "word": {"sign": 1, "sr": ""}},
    {},
    [],
    None,
)
BAD_SETTINGS = (0, -1, "3", 1.5, True, None, [2], {"depth": 2})
BAD_FLAGS = ("0", "-2", "x", "1.5", "")
# a product past the word limit is refused before any letter is built, and
# a problem past the letter budget before any automaton is
LONG_PRODUCT_S = 1.0


class Case(NamedTuple):
    argv: list
    expect: int = None   # the exit code the draw fixes, if any


def random_word(rng, max_len=6) -> SignedWord:
    letters = "".join(rng.choice("sr") for _ in range(rng.randint(0, max_len)))
    return reduce(letters, rng.choice((1, -1)))


def matrix_doc(m) -> dict:
    return {"matrix": [[str(m.a), str(m.b)], [str(m.c), str(m.d)]]}


def shear_doc(rng) -> dict:
    """A shear by +-10^k with k + 1 > 4,300 digits, written without str(int)."""
    q = rng.choice(("", "-")) + "1" + "0" * rng.randint(4300, 5000)
    rows = [["1", "0"], [q, "1"]] if rng.random() < 0.5 else [["1", q], ["0", "1"]]
    return {"matrix": rows}


def long_product_doc(rng) -> dict:
    """(T^q1 S)...(T^qk S) with each 3|q| within `MAX_WORD_LETTERS` and
    k (2|q| + 1) past it: the normal form T^q1 s ... T^qk s is too long."""
    k = rng.randint(2, 4)
    low = MAX_WORD_LETTERS // (2 * k) + 1
    m = IDENTITY
    for _ in range(k):
        q = rng.choice((1, -1)) * rng.randint(low, min(2 * low, MAX_WORD_LETTERS // 3))
        m = m * Mat2(1, q, 0, 1) * S
    return matrix_doc(m)


def past_budget_doc(rng) -> dict:
    """The free pair T^q, its transpose, q of either sign: words of 2|q| and
    3|q| letters, which the descent leaves as they are, and 5|q| just past
    `MAX_PROBLEM_LETTERS`, by more than the few letters that a random short
    generator or target could take off.  Sometimes with such a generator,
    and with a target."""
    q = rng.choice(("", "-")) + str(MAX_PROBLEM_LETTERS // 5 + rng.randint(4, 20))
    gens = [{"matrix": [["1", q], ["0", "1"]]}, {"matrix": [["1", "0"], [q, "1"]]}]
    if rng.random() < 0.5:
        gens.insert(rng.randint(0, 2), matrix_doc(evaluate(random_word(rng))))
    return {"generators": gens, "target": matrix_doc(evaluate(random_word(rng)))}


def random_problem(rng) -> object:
    """A problem file's document, mostly valid."""
    words = [random_word(rng) for _ in range(rng.randint(1, 3))]
    gens = []
    for w in words:
        roll = rng.random()
        if roll < 0.45:
            gens.append(matrix_doc(evaluate(w)))
        elif roll < 0.85:
            # the word as given, reduced or not
            tail = rng.choice(("", "", "ss", "rrr"))
            gens.append({"word": {"sign": w.sign, "sr": w.word + tail}})
        elif roll < 0.93:
            gens.append(rng.choice(MALFORMED_ELEMENTS))
        else:
            gens.append(shear_doc(rng))
    doc = {"generators": gens}
    roll = rng.random()
    if roll < 0.5:
        # a product of the generators, so that member and count often say YES
        seq = [rng.randrange(len(words)) for _ in range(rng.randint(1, 4))]
        sign = 1
        for i in seq:
            sign *= words[i].sign
        target = evaluate(reduce("".join(words[i].word for i in seq), sign))
        doc["target"] = matrix_doc(target)
    elif roll < 0.75:
        doc["target"] = matrix_doc(evaluate(random_word(rng)))
    elif roll < 0.8:
        doc["target"] = rng.choice(MALFORMED_ELEMENTS + (shear_doc(rng),))
    roll = rng.random()
    if roll < 0.2:
        doc["parameters"] = {rng.choice(("depth", "cap")): rng.randint(1, 4)}
    elif roll < 0.3:
        doc["parameters"] = {rng.choice(("depth", "cap", "other")): rng.choice(BAD_SETTINGS)}
    elif roll < 0.33:
        doc["parameters"] = rng.choice(([], "depth", 3))
    roll = rng.random()
    if roll < 0.03:
        return rng.choice(([], "generators", None, {"generators": []},
                           {"generators": gens[:1], "extra": 1}))
    return doc


def random_dfas(rng) -> object:
    """A DFA file's document for encode-dfa, mostly valid."""
    dfas = []
    for _ in range(rng.randint(1, 2)):
        n = rng.randint(1, 3)
        alphabet = ["a", "b"] + (["#"] if rng.random() < 0.1 else [])
        rows = {str(q): {a: str(rng.randrange(n)) for a in alphabet if rng.random() < 0.8}
                for q in range(n)}
        dfa = {"states": n, "alphabet": alphabet, "transitions": rows,
               "finals": [q for q in range(n) if rng.random() < 0.5]}
        if rng.random() < 0.1:
            dfa[rng.choice(("states", "finals", "alphabet", "extra"))] = rng.choice(
                ("x", -1, [None], {"a": 1}))
        dfas.append(dfa)
    return dfas if rng.random() < 0.95 else rng.choice(([], {}, "dfa"))


def random_values(rng) -> str:
    if rng.random() < 0.85:
        return ",".join(str(rng.randint(-1, 12)) for _ in range(rng.randint(1, 4)))
    return rng.choice(("", ",", "1,,2", "a,b", "1.5", "10000000", " 3 "))


def random_case(rng, workdir: str) -> Case:
    """A case; the file its arguments name is written into workdir, over
    the previous case's."""
    path = os.path.join(workdir, "case.json")
    roll = rng.random()
    if roll < 0.03:
        gens = [long_product_doc(rng)]
        if rng.random() < 0.5:
            gens.insert(rng.randint(0, 1), matrix_doc(evaluate(random_word(rng))))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"generators": gens}, fh)
        return Case([rng.choice(PROBLEM_COMMANDS + ("oracle",)), path], 3)
    if roll < 0.0325:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(past_budget_doc(rng), fh)
        return Case([rng.choice(PROBLEM_COMMANDS), path], 3)
    if roll < 0.75:
        cmd = rng.choice(PROBLEM_COMMANDS)
        argv = [cmd, path]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(random_problem(rng), fh)
        if rng.random() < 0.2:
            argv += ["--format", rng.choice(("text", "json", "xml"))]
        flag = {"count": "--cap", "check-finite-free": "--depth"}.get(cmd)
        if flag and rng.random() < 0.4:
            value = str(rng.randint(1, 5)) if rng.random() < 0.7 else rng.choice(BAD_FLAGS)
            argv += [flag, value]
        return Case(argv)
    if roll < 0.85:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(random_problem(rng), fh)
        argv = ["oracle", path, "--depth", str(rng.randint(0, 4))]
        if rng.random() < 0.3:
            argv += ["--budget", str(rng.choice((5, 50, 1000)))]
        return Case(argv)
    if roll < 0.93:
        argv = [rng.choice(("encode-ssp", "encode-essp")), "--set", random_values(rng)]
        if argv[0] == "encode-ssp" and rng.random() < 0.95:
            argv += ["--x", str(rng.randint(-2, 30))]
        return Case(argv)
    if roll < 0.99:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(random_dfas(rng), fh)
        return Case(["encode-dfa", "--dfas", path])
    return Case([rng.choice(PROBLEM_COMMANDS), os.path.join(workdir, "missing.json")])


def run(argv) -> tuple:
    """(exit code, stdout, stderr) of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _is_no_report(text: str) -> bool:
    if text.startswith("{"):
        return json.loads(text).get("answer") == "NO"
    return text.split("\n", 1)[0].endswith(": NO")


def check_case(case: Case) -> tuple:
    """(exit code, the first property the case breaks as a message, or None)."""
    argv = case.argv
    start = time.perf_counter()
    code, out, err = run(argv)
    elapsed = time.perf_counter() - start
    if code not in (0, 1, 2, 3):
        return code, f"exit {code}: {err[-400:]}"
    if case.expect is not None and code != case.expect:
        return code, f"exit {code}, expected {case.expect}: {err[-400:]}"
    if case.expect is not None and elapsed > LONG_PRODUCT_S:
        return code, f"exit {code} after {elapsed:.2f} s"
    if code == 1 and not _is_no_report(out):
        return code, f"exit 1 without a NO report: {out[:200]!r}"
    if code == 3 and not any("error:" in line for line in err.splitlines()):
        return code, f"exit 3 without an error line: {err[:200]!r}"
    # stdout holds a JSON document unless it is empty or a text report
    if out and "text" not in argv and out != json.dumps(json.loads(out), indent=2) + "\n":
        return code, f"stdout is not json.dumps(..., indent=2) of itself: {out[:200]!r}"
    if run(argv)[:2] != (code, out):
        return code, "a second run printed another report"
    return code, None


def main_fuzz(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=60.0)
    args = ap.parse_args(argv)
    rng = random.Random(args.seed)
    end = time.monotonic() + args.seconds
    codes = {}
    with tempfile.TemporaryDirectory(prefix="cli-fuzz-") as workdir:
        while time.monotonic() < end:
            case = random_case(rng, workdir)
            code, fault = check_case(case)
            if fault is not None:
                print(f"case {sum(codes.values())} {case}: {fault}")
                return 1
            codes[code] = codes.get(code, 0) + 1
    print(f"{sum(codes.values())} cases, seed {args.seed}, exit codes "
          f"{dict(sorted(codes.items()))}: every case kept the contract")
    return 0


if __name__ == "__main__":
    sys.exit(main_fuzz())
