"""Batch front-end: problem files in, verdict reports out.

Exit codes: 0 the property holds / YES, 1 NO, 2 bounded-unknown, 3 input
error or memory exhaustion, 4 internal error (so a crash never reads as a
verdict).  Matrix entries travel as decimal strings because JSON numbers
are lossy past 2^53.
"""

import argparse
import json
import sys

from .algebra import (
    AlgebraError, GeneratorSet, Mat2, SignedWord, decimal_int, evaluate, matrix_json,
    reduce,
)
from . import decisions
from . import encodings
from . import oracle as oracle_mod


class ProblemError(ValueError):
    pass


EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


def _int_value(value):
    """The integer that a JSON int or decimal string denotes, else None."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        text = value.strip()
        sign = -1 if text.startswith("-") else 1
        digits = text[1:] if text[:1] in ("+", "-") else text
        if digits.isascii() and digits.isdigit():  # int() rejects "²"
            return sign * decimal_int(digits)
    return None


def _parse_int(value, path: str) -> int:
    n = _int_value(value)
    if n is None:
        raise ProblemError(f"{path}: not an integer: {value!r}")
    return n


def _parse_matrix(value, path: str) -> Mat2:
    """The `matrix` field of the element at `path`; the field paths of the
    error messages are built only when one is raised."""
    if (not isinstance(value, list) or len(value) != 2
            or any(not isinstance(row, list) or len(row) != 2 for row in value)):
        raise ProblemError(f"{path}.matrix: expected a 2x2 array")
    entries = [_int_value(x) for row in value for x in row]
    if None in entries:
        i, j = divmod(entries.index(None), 2)
        raise ProblemError(f"{path}.matrix[{i}][{j}]: not an integer: {value[i][j]!r}")
    a, b, c, d = entries
    if a * d - b * c != 1:
        raise ProblemError(f"{path}.matrix: determinant must be 1")
    return Mat2(a, b, c, d)


def _parse_word(value, path: str) -> SignedWord:
    """The `word` field of the element at `path`."""
    path = f"{path}.word"
    if not isinstance(value, dict):
        raise ProblemError(f"{path}: expected an object with sign and sr")
    unknown = set(value) - {"sign", "sr"}
    if unknown:
        raise ProblemError(f"{path}: unknown keys {sorted(unknown)}")
    sign = _parse_int(value.get("sign", 1), f"{path}.sign")
    if sign not in (1, -1):
        raise ProblemError(f"{path}.sign: must be 1 or -1")
    sr = value.get("sr", "")
    if not isinstance(sr, str) or sr.strip("sr"):
        raise ProblemError(f"{path}.sr: must be a string over 's' and 'r'")
    w = SignedWord(sign, sr)
    if not w.is_reduced():
        normalized = reduce(sr, sign)
        print(f"warning: {path}: word not reduced, normalized to {normalized}",
              file=sys.stderr)
        return normalized
    return w


def _parse_element(value, path: str) -> Mat2:
    """A generator or target: an object with one of matrix / word."""
    if not isinstance(value, dict):
        raise ProblemError(f"{path}: expected an object")
    if len(value) == 1 and "matrix" in value:
        return _parse_matrix(value["matrix"], path)
    if len(value) == 1 and "word" in value:
        return evaluate(_parse_word(value["word"], path))
    unknown = set(value) - {"matrix", "word"}
    if unknown:
        raise ProblemError(f"{path}: unknown keys {sorted(unknown)}")
    raise ProblemError(f"{path}: give exactly one of matrix / word")


class Problem:
    def __init__(self, generators, target, parameters):
        self.generators = generators
        self.target = target
        self.parameters = parameters


def _load_json(path: str):
    # JSON text is UTF-8 whatever the locale says; the bytes are decoded once
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"), parse_int=decimal_int)
    except OSError as exc:
        raise ProblemError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise ProblemError(f"{path}: not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise ProblemError(f"{path}: malformed JSON: {exc}")
    except RecursionError:
        raise ProblemError(f"{path}: JSON nested too deeply")


def parse_problem(path: str) -> Problem:
    """Validated problem file; errors carry the offending field path."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise ProblemError("problem file must be a JSON object")
    unknown = set(data) - {"generators", "target", "parameters"}
    if unknown:
        raise ProblemError(f"unknown keys {sorted(unknown)}")
    raw_gens = data.get("generators")
    if not isinstance(raw_gens, list) or not raw_gens:
        raise ProblemError("generators: expected a nonempty array")
    generators = GeneratorSet.from_matrices(
        _parse_element(item, f"generators[{i}]") for i, item in enumerate(raw_gens))
    target = None
    if "target" in data:
        target = _parse_element(data["target"], "target")
    parameters = data.get("parameters", {})
    if not isinstance(parameters, dict):
        raise ProblemError("parameters: expected an object")
    return Problem(generators, target, parameters)


_encode_str = json.encoder.encode_basestring_ascii


def _write_json(value, newline: str, parts: list) -> None:
    """Append the indent-2 JSON text of value, nested at `newline`."""
    if isinstance(value, str):
        parts.append(_encode_str(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            parts.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key, item in value.items():
            parts.append(sep)
            parts.append(_encode_str(key))
            parts.append(": ")
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            parts.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for item in value:
            parts.append(sep)
            _write_json(item, inner, parts)
            sep = "," + inner
        parts.append(newline + "]")
    else:
        # a float, or a value json refuses as well
        parts.append(json.dumps(value))


def dump_json(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for the values a report
    holds: dicts with string keys, lists, tuples (written as lists),
    strings, ints, bools, None and floats.  With an indent, `json` takes its
    pure-Python encoder, which is several times slower."""
    parts = []
    _write_json(value, "\n", parts)
    return "".join(parts)


def problem_json(gens: GeneratorSet, target: Mat2 = None, parameters: dict = None) -> dict:
    doc = {"generators": [{"matrix": matrix_json(g.matrix)} for g in gens]}
    if target is not None:
        doc["target"] = {"matrix": matrix_json(target)}
    if parameters:
        doc["parameters"] = parameters
    return doc


def emit_problem(doc: dict) -> str:
    """Canonical serialization; parsing and re-emitting is byte-identical."""
    return dump_json(doc) + "\n"


def _count_json(count: decisions.Count):
    if count.kind == "exact":
        return count.value
    if count.kind == "more_than":
        return {"more_than": count.value}
    return "infinite"


def emit_report(verdict: decisions.Verdict, fmt: str) -> tuple:
    """(report text, exit code)."""
    doc = {"problem": verdict.problem, "answer": verdict.answer}
    if verdict.depth_bound is not None:
        doc["depth_bound"] = verdict.depth_bound
    if verdict.count is not None:
        doc["count"] = _count_json(verdict.count)
    if verdict.witness is not None:
        doc["witness"] = verdict.witness
    if verdict.answer == decisions.UNKNOWN:
        code = EXIT_UNKNOWN
    elif verdict.answer == decisions.YES:
        code = EXIT_YES
    else:
        code = EXIT_NO
    if fmt == "json":
        return dump_json(doc) + "\n", code
    lines = [f"{verdict.problem}: {verdict.answer}"]
    if verdict.depth_bound is not None:
        lines.append(f"  searched depth: {verdict.depth_bound}")
    if verdict.count is not None:
        lines.append(f"  count: {_count_json(verdict.count)}")
    if verdict.witness is not None:
        lines.append(f"  witness: {json.dumps(verdict.witness)}")
    return "\n".join(lines) + "\n", code


def _require_target(problem: Problem, cmd: str) -> Mat2:
    if problem.target is None:
        raise ProblemError(f"{cmd} needs a target matrix or word in the problem file")
    return problem.target


def _setting(args, problem: Problem, name: str, fallback):
    """Command-line flag, else the problem file's parameters, else default;
    a positive integer."""
    value = getattr(args, name, None)
    field = f"--{name}"
    if value is None:
        value = problem.parameters.get(name, fallback)
        field = f"parameters.{name}"
        if not isinstance(value, int) or isinstance(value, bool):
            raise ProblemError(f"{field}: expected an integer")
    if value < 1:
        raise ProblemError(f"{field}: must be at least 1, got {value}")
    return value


def _cmd_verdict(args, problem: Problem) -> decisions.Verdict:
    gens = problem.generators
    if args.command == "identity":
        return decisions.identity_in_semigroup(gens)
    if args.command == "member":
        return decisions.membership(gens, _require_target(problem, "member"))
    if args.command == "check-free":
        return decisions.is_free(gens)
    if args.command == "check-finite-free":
        return decisions.finite_freeness(gens, _setting(args, problem, "depth", 4))
    if args.command == "count":
        return decisions.count_factorizations(
            gens, _require_target(problem, "count"),
            _setting(args, problem, "cap", 8))
    if args.command == "recurrent":
        return decisions.is_recurrent(gens, _require_target(problem, "recurrent"))
    raise ProblemError(f"unknown command {args.command}")


def _run_oracle(args) -> int:
    if args.depth < 1:
        raise ProblemError(f"--depth: must be at least 1, got {args.depth}")
    problem = parse_problem(args.problem)
    gens = problem.generators
    table = oracle_mod.enumerate_products(gens, args.depth, args.budget)
    doc = {
        "problem": "oracle",
        "depth": args.depth,
        "distinct_products": len(table.matrices()),
        "total_sequences": table.total_sequences(),
        "collision": table.collision(),
    }
    if problem.target is not None:
        doc["target_count"] = table.count(problem.target)
        doc["target_sequences"] = [list(s) for s in
                                   table.sequences(problem.target)[:10]]
    sys.stdout.write(dump_json(doc) + "\n")
    return EXIT_YES


def _parse_values(text: str) -> list:
    try:
        values = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ProblemError(f"--set must be comma-separated integers: {text!r}")
    if not values:
        raise ProblemError("--set must be nonempty")
    return values


def _load_dfas(path: str) -> list:
    data = _load_json(path)
    if not isinstance(data, list) or not data:
        raise ProblemError("DFA file must be a nonempty JSON array")
    dfas = []
    for i, item in enumerate(data):
        loc = f"dfas[{i}]"
        if not isinstance(item, dict):
            raise ProblemError(f"{loc}: expected an object")
        unknown = set(item) - {"states", "alphabet", "transitions", "finals"}
        if unknown:
            raise ProblemError(f"{loc}: unknown keys {sorted(unknown)}")
        n = _parse_int(item.get("states"), f"{loc}.states")
        alphabet, rows = item.get("alphabet", []), item.get("transitions", {})
        if not isinstance(alphabet, list) or not all(isinstance(a, str) for a in alphabet):
            raise ProblemError(f"{loc}.alphabet: expected an array of strings")
        if not isinstance(rows, dict) or not all(isinstance(row, dict) for row in rows.values()):
            raise ProblemError(f"{loc}.transitions: expected an object of objects")
        transitions = []
        for src, row in sorted(rows.items()):
            for sym, dst in sorted(row.items()):
                transitions.append((_parse_int(src, f"{loc}.transitions"), sym,
                                    _parse_int(dst, f"{loc}.transitions")))
        finals = item.get("finals", [])
        if not isinstance(finals, list):
            raise ProblemError(f"{loc}.finals: expected an array")
        finals = frozenset(_parse_int(x, f"{loc}.finals") for x in finals)
        dfas.append(encodings.DfaSpec(n, tuple(alphabet), tuple(transitions), finals))
    return dfas


def _run_encode(args) -> int:
    try:
        if args.command == "encode-essp":
            fixture = encodings.encode_equal_subset_sum(_parse_values(args.values))
            doc = problem_json(fixture.generators)
        elif args.command == "encode-ssp":
            fixture = encodings.encode_subset_sum(_parse_values(args.values), args.x)
            doc = problem_json(fixture.generators,
                               target=fixture.expected["count_target"])
        else:
            fixture = encodings.encode_dfa_intersection(_load_dfas(args.dfas))
            doc = problem_json(fixture.generators)
    except encodings.EncodingError as exc:
        # the builders reject values outside their instance family
        raise ProblemError(str(exc))
    sys.stdout.write(emit_problem(doc))
    return EXIT_YES


def build_parser() -> tuple:
    """(top-level parser, {command name: its subparser})."""
    parser = argparse.ArgumentParser(
        prog="sl2z",
        description="Decision procedures for matrix semigroups in SL(2,Z)")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def add_command(name, **kwargs):
        commands[name] = sub.add_parser(name, **kwargs)
        return commands[name]

    def add_problem_command(name, help_text):
        p = add_command(name, help=help_text)
        p.add_argument("problem", help="problem JSON file")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    add_problem_command("identity", "is the identity matrix a nonempty product?")
    add_problem_command("member", "is the target matrix a nonempty product?")
    p = add_problem_command("count", "count factorizations of the target")
    p.add_argument("--cap", type=int, default=None)
    add_problem_command("recurrent", "does the target have infinitely many factorizations?")
    add_problem_command("check-free", "is the generator set a code?")
    p = add_problem_command("check-finite-free",
                            "does every element have finitely many factorizations?")
    p.add_argument("--depth", type=int, default=None)

    p = add_command("oracle", help="brute-force product table report")
    p.add_argument("problem")
    p.add_argument("--depth", type=int, default=4)
    p.add_argument("--budget", type=int, default=oracle_mod.DEFAULT_BUDGET)

    p = add_command("encode-essp", help="equal-subset-sum instance generators")
    p.add_argument("--set", dest="values", required=True,
                   help="comma-separated positive integers")
    p = add_command("encode-ssp", help="subset-sum instance generators")
    p.add_argument("--set", dest="values", required=True)
    p.add_argument("--x", type=int, required=True, help="target sum")
    p = add_command("encode-dfa", help="DFA-intersection instance generators")
    p.add_argument("--dfas", required=True, help="JSON array of DFAs")
    return parser, commands


_parser = None
_commands = None


def _parse_args(argv: list) -> argparse.Namespace:
    """A known command's arguments go straight to its subparser, in one
    argparse pass; the top-level parser handles the rest (help, no command,
    an unknown command)."""
    command = _commands.get(argv[0]) if argv else None
    if command is None:
        return _parser.parse_args(argv)
    args = command.parse_args(argv[1:])
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    # argparse parsers keep no state between parse_args calls, so they are
    # built once per process, on the first call
    global _parser, _commands
    if _parser is None:
        _parser, _commands = build_parser()
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        # argparse exits 2 on a usage error, which would read as UNKNOWN_UP_TO
        if exc.code == 0:
            raise
        return EXIT_INPUT
    try:
        if args.command == "oracle":
            return _run_oracle(args)
        if args.command.startswith("encode-"):
            return _run_encode(args)
        problem = parse_problem(args.problem)
        verdict = _cmd_verdict(args, problem)
        text, code = emit_report(verdict, args.format)
        sys.stdout.write(text)
        return code
    except (ProblemError, AlgebraError, oracle_mod.OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        # a valid problem too large for this process is not a crash
        print("error: memory ran out before a verdict", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        # imported here, so that a process that never fails does not hold it
        import traceback
        traceback.print_exc()
        print("internal error: no verdict", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
