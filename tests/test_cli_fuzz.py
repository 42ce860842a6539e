"""The exit-code contract of `cli.main` under a seeded fuzzer (`cli_fuzz`)."""

import random

from cli_fuzz import check_case, random_case

SEED = 20261019
CASES = 1500


def test_every_case_keeps_the_exit_code_contract(tmp_path):
    rng = random.Random(SEED)
    codes = {}
    for k in range(CASES):
        case = random_case(rng, str(tmp_path))
        code, fault = check_case(case)
        assert fault is None, f"case {k} {case}: {fault}"
        codes[code] = codes.get(code, 0) + 1
    # the generator reaches every verdict and the input errors
    assert set(codes) == {0, 1, 2, 3}
