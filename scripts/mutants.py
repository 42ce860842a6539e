#!/usr/bin/env python3
"""Mutation gate for the exactness guards.

    python3 scripts/mutants.py

Each entry of `MUTANTS` names a file, a text in it that must occur exactly
once, the text that replaces it, and the tests that must fail with the
change.  The script first runs every named test on an unmutated copy, where
all must pass.  Then each mutant gets a fresh temporary copy of `src/`,
`tests/` and `pyproject.toml`, and pytest runs only its named tests there,
with `-x`.  A mutant is killed when pytest reports a failed test (exit 1).
The script exits 1 if a mutant survives, and 2 if an entry does not apply
or its tests do not run cleanly on the unmutated copy.

The list only grows.  A survivor gets a test that kills it, or a recorded
reason why it is equivalent; removing an entry is listed in CHANGES.md.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "pyproject.toml")


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple


MUTANTS = (
    Mutant("saturate seeds no empty gap between r edges",
           "src/sl2z_semigroups/automata.py",
           "if s_in[x] and s_out[x] or r_in[x] and r_out[x]:",
           "if s_in[x] and s_out[x]:",
           ("tests/test_randomized.py::"
            "test_saturation_derivations_match_reference_on_random_automata",)),
    Mutant("saturate pops in offer order only, the FIFO order",
           "src/sl2z_semigroups/automata.py",
           """queue = buckets.get(ms)
        if queue is None:
            buckets[ms] = queue = []
            heappush(weights, (len(ms), ms))""",
           """queue = buckets.get(())
        if queue is None:
            buckets[()] = queue = []
            heappush(weights, (0, ()))""",
           ("tests/test_randomized.py::"
            "test_saturation_derivations_match_reference_on_subset_sum_ladder",
            "tests/test_randomized.py::test_saturation_witnesses_are_the_lightest_paths",
            "tests/test_decisions.py::TestPinnedWitnesses")),
    Mutant("saturate finalizes a superseded agenda entry",
           "src/sl2z_semigroups/automata.py",
           """entry = best.pop(t, None)
            if entry is None:
                continue    # superseded by a lighter offer, which popped first""",
           "entry = best[t]",
           ("tests/test_randomized.py::"
            "test_saturation_derivations_match_reference_on_marked_random_automata",)),
    Mutant("saturate's goal bound compares lengths only",
           "src/sl2z_semigroups/automata.py",
           "return (len(q_lead) + w[0], q_lead + w[1]) >= bound",
           "return len(q_lead) + w[0] >= bound[0]",
           ("tests/test_randomized.py::test_goal_stop_is_a_prefix_on_marked_random_automata",)),
    Mutant("_hub_loops records the last generator through a shared state, not the first",
           "src/sl2z_semigroups/automata.py",
           "runs.append(run)",
           "runs.append(range(node, run.stop))",
           ("tests/test_randomized.py::test_lead_bounds_every_path_into_a_state",)),
    Mutant("target-chain states get lead (1,)",
           "src/sl2z_semigroups/automata.py",
           "    auto.final = prev\n",
           "    auto.final = prev\n    auto.first_loop[0] = range(n, auto.n_states)\n",
           ("tests/test_randomized.py::test_lead_bounds_every_path_into_a_state",)),
    Mutant("saturate's goal bound ignores the lead",
           "src/sl2z_semigroups/automata.py",
           "q_lead = lead[t[0]]",
           "q_lead = ()",
           ("tests/test_randomized.py::test_goal_stop_is_a_prefix_on_subset_sum_ladder",)),
    Mutant("saturate keeps every triple it offered before the goal's bound fell",
           "src/sl2z_semigroups/automata.py",
           "if bound is not None and lead[t[0]] and past_goal(t, w):",
           "if False:",
           ("tests/test_randomized.py::test_goal_stop_is_a_prefix_on_subset_sum_ladder",)),
    Mutant("saturate's pop-time test also drops triples off states of lead ()",
           "src/sl2z_semigroups/automata.py",
           "if bound is not None and lead[t[0]] and past_goal(t, w):",
           "if bound is not None and t != goal and past_goal(t, w):",
           ("tests/test_randomized.py::test_goal_stop_is_a_prefix_on_random_automata",)),
    Mutant("saturate accepts a goal that starts at a state with a lead",
           "src/sl2z_semigroups/automata.py",
           "if goal is not None and lead[goal[0]]:",
           "if False:",
           ("tests/test_automata.py::TestSaturation::test_goal_from_a_state_with_a_lead_raises",)),
    Mutant("saturate lets an offer as heavy as the pending one replace it",
           "src/sl2z_semigroups/automata.py",
           "len(ms) == len(om) and ms >= om",
           "len(ms) == len(om) and ms > om",
           ("tests/test_randomized.py::"
            "test_saturation_derivations_match_reference_on_marked_random_automata",)),
    Mutant("saturate without rule (i)",
           "src/sl2z_semigroups/automata.py",
           """offer(t3, head + marks[e2], ("ss", e1, t, e2))""",
           "pass",
           ("tests/test_randomized.py::test_closure_referee_certifies_random_saturations",
            "tests/test_randomized.py::test_closure_referee_certifies_ladder_saturations")),
    Mutant("saturate without rule (ii) around a final second gap",
           "src/sl2z_semigroups/automata.py",
           """offer(t3, marks[e1] + m1, ("rrr", e1, t1, e2, t, e3))""",
           "pass",
           ("tests/test_randomized.py::test_closure_referee_certifies_random_saturations",
            "tests/test_randomized.py::test_closure_referee_certifies_ladder_saturations")),
    Mutant("saturate composes a popped triple only as the left part",
           "src/sl2z_semigroups/automata.py",
           """offer(t3, final[t0] + gm, ("compose", t0, t))""",
           "pass",
           ("tests/test_randomized.py::test_closure_referee_certifies_random_saturations",
            "tests/test_randomized.py::test_closure_referee_certifies_ladder_saturations")),
    Mutant("saturate restarts a state's gap list at a later triple",
           "src/sl2z_semigroups/automata.py",
           "gaps_from[x].append(t)",
           "gaps_from[x] = [t]",
           ("tests/test_randomized.py::"
            "test_saturation_derivations_match_reference_on_random_automata",)),
    Mutant("_hub_loops lays every loop without sharing a suffix or prefix",
           "src/sl2z_semigroups/automata.py",
           "hit = branch.get((node, ch))",
           "hit = None",
           ("tests/test_automata.py::TestLoopLayoutReferee::"
            "test_builders_match_the_letter_by_letter_layout",)),
    Mutant("reduce flips the sign once per round, not once per deletion",
           "src/sl2z_semigroups/algebra.py",
           "if (ss + rrr) % 2:",
           "if ss + rrr:",
           ("tests/test_algebra.py::TestReduce::test_equals_the_stack_pass_on_random_raw_words",)),
    Mutant("reduce returns after one round",
           "src/sl2z_semigroups/algebra.py",
           """        if not rrr:
            return SignedWord(sign, raw)""",
           "        return SignedWord(sign, raw)",
           ("tests/test_algebra.py::TestReduce::test_equals_the_stack_pass_on_random_raw_words",)),
    Mutant("evaluate multiplies each chunk on the left",
           "src/sl2z_semigroups/algebra.py",
           "a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s",
           "a, b, c, d = p * a + q * c, p * b + q * d, r * a + s * c, r * b + s * d",
           ("tests/test_algebra.py::TestEvaluate::test_equals_the_letter_loop_at_every_length_to_25",)),
    Mutant("report writer formats tuples as scalars",
           "src/sl2z_semigroups/cli.py",
           "elif isinstance(value, (list, tuple)):",
           "elif isinstance(value, list):",
           ("tests/test_cli.py::TestReports::test_writer_formats_tuples_as_lists",
            "tests/test_cli.py::TestReports::test_writer_equals_json_dumps",
            "tests/test_cli.py::TestCommands::test_oracle_command")),
    Mutant("decompose without the whole-word limit",
           "src/sl2z_semigroups/algebra.py",
           "    if letters > MAX_WORD_LETTERS:",
           "    if False:",
           ("tests/test_algebra.py::TestDecompose::"
            "test_whole_word_limit_counts_shears_and_separators",
            "tests/test_algebra.py::TestDecompose::"
            "test_whole_word_limit_fires_before_any_letter_is_built")),
    Mutant("derivation_grammar lists no `r gap r gap r` bodies",
           "src/sl2z_semigroups/automata.py",
           "bodies[q, p, -w1 * sg1 * sg2].append((e1, *piece1, *piece2))",
           "pass",
           ("tests/test_randomized.py::test_derivation_grammar_on_random_automata",)),
    Mutant("derivation_grammar lists no compose bodies",
           "src/sl2z_semigroups/automata.py",
           "bodies[q, t2[1], sg1 * t2[2]].append((t1, t2))",
           "pass",
           ("tests/test_randomized.py::test_derivation_grammar_on_random_automata",)),
    Mutant("derivation_grammar lists no empty gap",
           "src/sl2z_semigroups/automata.py",
           "chain([(x, 1, ())], ((t[1], t[2], (t,)) for t in gaps_from[x]))",
           "((t[1], t[2], (t,)) for t in gaps_from[x])",
           ("tests/test_randomized.py::test_derivation_grammar_on_random_automata",)),
    Mutant("derivation_grammar lists no `s gap s` bodies",
           "src/sl2z_semigroups/automata.py",
           "bodies[q, p, -w1 * sg].append((e1, *piece))",
           "pass",
           ("tests/test_randomized.py::test_derivation_grammar_on_random_automata",)),
    Mutant("enumerate_words builds the word sets in reversed finish order",
           "src/sl2z_semigroups/grammars.py",
           "for head in done:",
           "for head in reversed(done):",
           ("tests/test_grammars.py::TestEnumerate::test_shared_nonterminals_enumerate_once",)),
    Mutant("path_value drops an edge's weight",
           "src/sl2z_semigroups/automata.py",
           "            sign *= weight",
           "            pass",
           ("tests/test_automata.py::TestSaturation::test_soundness_every_triple_extracts",)),
    Mutant("_around swaps a step's left and right pieces",
           "src/sl2z_semigroups/decisions.py",
           """left += _fill(auto, sat, body[:i])
        rights.append(_fill(auto, sat, body[i + 1:]))""",
           """left += _fill(auto, sat, body[i + 1:])
        rights.append(_fill(auto, sat, body[:i]))""",
           ("tests/test_decisions.py::TestRecurrence::test_around_is_linear_in_the_steps",
            "tests/test_decisions.py::TestRecurrence::"
            "test_witness_sequences_multiply_to_the_target")),
    Mutant("path_sequence accepts a path that names no generator",
           "src/sl2z_semigroups/automata.py",
           "    if not seq:",
           "    if False:",
           ("tests/test_automata.py::TestWitnessDecodingRejects::"
            "test_membership_path_of_the_target_chain_alone",)),
    Mutant("path_sequence accepts a path that does not end at the final state",
           "src/sl2z_semigroups/automata.py",
           "and edges[path[-1]][1] == auto.final and _joined(edges, path)):",
           "and _joined(edges, path)):",
           ("tests/test_automata.py::TestWitnessDecodingRejects::"
            "test_membership_path_without_the_target_chain",)),
    Mutant("decode_pattern_witness without its joined-edges check",
           "src/sl2z_semigroups/automata.py",
           "and _joined(auto.edges, path)):",
           "):",
           ("tests/test_automata.py::TestWitnessDecodingRejects::"
            "test_pattern_path_that_breaks_off",)),
    Mutant("_check_pumped accepts equal sequences",
           "src/sl2z_semigroups/decisions.py",
           "if len({tuple(seq) for seq in sequences}) != len(sequences):",
           "if False:",
           ("tests/test_decisions.py::TestWrongWitnessRefused::"
            "test_recurrence_refuses_equal_pumped_sequences",
            "tests/test_decisions.py::TestWrongWitnessRefused::"
            "test_finite_freeness_refuses_equal_pumped_sequences")),
    Mutant("decode_pattern_witness accepts alpha == beta",
           "src/sl2z_semigroups/automata.py",
           "if alpha == beta:",
           "if False:",
           ("tests/test_automata.py::TestWitnessDecodingRejects::"
            "test_freeness_path_from_initial_i_to_final_i",)),
    Mutant("_check_product accepts any product",
           "src/sl2z_semigroups/decisions.py",
           "if got != expected:",
           "if False:",
           ("tests/test_decisions.py::TestWrongWitnessRefused::test_identity_refuses",
            "tests/test_decisions.py::TestWrongWitnessRefused::test_membership_refuses",
            "tests/test_decisions.py::TestWrongWitnessRefused::"
            "test_is_free_refuses_unequal_products")),
    Mutant("path_sequence without its joined-edges check",
           "src/sl2z_semigroups/automata.py",
           "and edges[path[-1]][1] == auto.final and _joined(edges, path)):",
           "and edges[path[-1]][1] == auto.final):",
           ("tests/test_automata.py::TestWitnessDecodingRejects::test_path_starting_mid_chain",
            "tests/test_automata.py::TestWitnessDecodingRejects::test_path_cut_inside_a_chain",
            "tests/test_automata.py::TestWitnessDecodingRejects::"
            "test_first_edge_of_one_chain_then_the_rest_of_another",
            "tests/test_automata.py::TestWitnessDecodingRejects::"
            "test_membership_path_without_the_target_chain")),
    Mutant("the hub automaton's goal ignores the target's sign",
           "src/sl2z_semigroups/automata.py",
           "auto.goal = (0, prev, weight)",
           "auto.goal = (0, prev, 1)",
           ("tests/test_decisions.py::TestMembership::test_neg_identity_member",
            "tests/test_decisions.py::TestCounting::test_infinite_for_torsion")),
    Mutant("_recurrent_matrix without its empty-side guard",
           "src/sl2z_semigroups/decisions.py",
           "    if not (x and y):",
           "    if False:",
           ("tests/test_decisions.py::TestWrongWitnessRefused::"
            "test_finite_freeness_refuses_equal_pumped_sequences",)),
    Mutant("cli.main without its MemoryError branch",
           "src/sl2z_semigroups/cli.py",
           """    except MemoryError:
        # a valid problem too large for this process is not a crash
        print("error: memory ran out before a verdict", file=sys.stderr)
        return EXIT_INPUT
""",
           "",
           ("tests/test_cli.py::TestCommands::test_memory_exhaustion_exits_3",)),
    Mutant("the descent's end-update drops the sign of x^-1",
           "src/sl2z_semigroups/algebra.py",
           "return pl, bl, pr, br, -fl * fr",
           "return pl, bl, pr, br, fl * fr",
           ("tests/test_algebra.py::TestShortestConjugate::"
            "test_end_update_is_the_reduced_conjugate_exhaustively",)),
    Mutant("the descent's end-update reads an end run rr as r, so r joins it as rr",
           "src/sl2z_semigroups/algebra.py",
           'return "s" if first == "s" else "rr" if second == "r" else "r"',
           'return "s" if first == "s" else "r"',
           ("tests/test_algebra.py::TestShortestConjugate::"
            "test_end_update_is_the_reduced_conjugate_exhaustively",)),
    Mutant("the descent keeps each word's end key from before the step",
           "src/sl2z_semigroups/algebra.py",
           "keys[i] = _end_key(d)",
           "pass",
           ("tests/test_algebra.py::TestShortestConjugate::"
            "test_end_update_is_the_reduced_conjugate_exhaustively",
            "tests/test_algebra.py::TestShortestConjugate::"
            "test_words_are_the_decompositions_of_the_conjugates")),
    Mutant("the descent without its bound on word updates",
           "src/sl2z_semigroups/algebra.py",
           "if totals[best] >= 0 or (len(steps) + 1) * len(words) > work:",
           "if totals[best] >= 0:",
           ("tests/test_algebra.py::TestShortestConjugate::"
            "test_work_stays_within_twice_the_letters",)),
    Mutant("decompose's self-check reports an input error",
           "src/sl2z_semigroups/algebra.py",
           'raise SelfCheckError(f"decomposition self-check failed for {m}")',
           'raise AlgebraError(f"decomposition self-check failed for {m}")',
           ("tests/test_algebra.py::TestDecompose::test_self_check_fires_on_the_from_matrices_path",
            "tests/test_cli.py::TestCommands::test_failed_decomposition_self_check_is_internal")),
    Mutant("decompose refuses a word by its letters before the reduction",
           "src/sl2z_semigroups/algebra.py",
           "letters - 5 * len(quotients) > letters_left",
           "letters > letters_left",
           ("tests/test_algebra.py::TestDecompose::"
            "test_letters_left_refuses_exactly_the_longer_words",)),
    Mutant("decompose builds a word past the letters left before refusing it",
           "src/sl2z_semigroups/algebra.py",
           "if letters_left is not None and letters - 5 * len(quotients) > letters_left:",
           "if False:",
           ("tests/test_algebra.py::TestDecompose::"
            "test_letters_left_fires_before_any_letter_is_built",)),
    Mutant("GeneratorSet.from_matrices without the letter budget",
           "src/sl2z_semigroups/algebra.py",
           "w = decompose(m, left)",
           "w = decompose(m)",
           ("tests/test_cli.py::TestEntriesPastTheDigitLimit::"
            "test_words_past_twice_the_letter_budget_are_refused_before_they_are_built",)),
    Mutant("GeneratorSet.conjugated without its self-check",
           "src/sl2z_semigroups/algebra.py",
           "if not w.is_reduced() or evaluate(w) != g:",
           "if False:",
           ("tests/test_algebra.py::TestShortestConjugate::"
            "test_self_check_fires_on_a_wrong_conjugate",)),
    Mutant("GeneratorSet.conjugated runs the descent on words past twice the budget",
           "src/sl2z_semigroups/algebra.py",
           "if left < 0:",
           "if False:",
           ("tests/test_algebra.py::TestShortestConjugate::"
            "test_words_past_twice_the_budget_are_refused_before_the_descent",)),
    Mutant("GeneratorSet.conjugated without the letter budget",
           "src/sl2z_semigroups/algebra.py",
           "if sum(map(len, conjugates)) > budget:",
           "if False:",
           ("tests/test_algebra.py::TestShortestConjugate::"
            "test_letter_budget_counts_the_conjugated_words_and_the_target",
            "tests/test_cli.py::TestEntriesPastTheDigitLimit::"
            "test_problem_past_the_letter_budget_exits_3")),
)


def make_copy(workdir: str) -> str:
    copy = os.path.join(workdir, "repo")
    os.mkdir(copy)
    for name in COPIED:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(copy, name),
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        else:
            shutil.copy(src, copy)
    return copy


def apply(copy: str, mutant: Mutant) -> None:
    path = os.path.join(copy, mutant.file)
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"{mutant.name}: {mutant.old!r} occurs {found} times "
                         f"in {mutant.file}, not once")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text.replace(mutant.old, mutant.new))


def run_tests(copy: str, tests) -> int:
    """pytest's exit code for the tests, run from the copy on its own src/."""
    env = dict(os.environ, PYTHONPATH=os.path.join(copy, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    ).returncode


def main() -> int:
    every_test = sorted({t for m in MUTANTS for t in m.tests})
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        code = run_tests(make_copy(workdir), every_test)
    if code != 0:
        print(f"the named tests exit {code} on the unmutated copy")
        return 2
    survivors = 0
    for mutant in MUTANTS:
        start = time.monotonic()
        with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
            copy = make_copy(workdir)
            try:
                apply(copy, mutant)
            except ValueError as exc:
                print(exc)
                return 2
            code = run_tests(copy, mutant.tests)
        took = time.monotonic() - start
        if code == 1:
            print(f"killed    {mutant.name} ({took:.1f} s)")
        elif code == 0:
            print(f"SURVIVED  {mutant.name} ({took:.1f} s)")
            survivors += 1
        else:
            print(f"pytest exited {code} on {mutant.name}: its tests did not run cleanly")
            return 2
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
