"""Acceptance suite: every shipped reference value, exact, with a stated
runtime budget per criterion. Run with -s to see the per-criterion PASS
lines.

The criteria themselves live in fusscat.selftest.CHECKS; this file adds
one named test per criterion with its time budget, so the pytest run and
`fusscat selftest` check the same things.
"""

import time
from contextlib import contextmanager

import pytest

from fusscat import selftest

# criterion number -> (test name suffix, budget in seconds, keyword arguments)
CRITERIA = {
    1: ("bracket_313_all_methods", 1.0, {}),
    2: ("bracket_323_all_methods", 1.0, {}),
    3: ("symmetry_and_method_agreement", 20.0, {}),
    4: ("specializations", 2.0, {}),
    5: ("generator_lists_match_transcription", 1.0, {}),
    6: ("krull_dimensions", 1.0, {}),
    7: ("cone_certificates", 10.0, {}),
    # a second seed, so the suite samples other bounds than the selftest
    8: ("path_counter_agreement", 30.0, {"seed": 987654321}),
    9: ("minimal_generator_search", 10.0, {}),
    10: ("hilbert_numerators", 10.0, {}),
    11: ("inner_minor_identity", 10.0, {}),
}


@contextmanager
def criterion(number, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE criterion {number:2d}: FAIL "
              f"({time.perf_counter() - start:.2f}s)", flush=True)
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE criterion {number:2d}: PASS ({elapsed:.2f}s)", flush=True)
    assert elapsed < budget_seconds, (
        f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    )


def _acceptance_test(number, check, budget_seconds, kwargs):
    def test():
        with criterion(number, budget_seconds):
            passed, detail = check(**kwargs)
            assert passed, detail

    return test


# A criterion added to CHECKS without an entry above fails collection.
for _number, _, _check in selftest.CHECKS:
    _suffix, _budget, _kwargs = CRITERIA[_number]
    globals()[f"test_criterion_{_number}_{_suffix}"] = _acceptance_test(
        _number, _check, _budget, _kwargs)


def test_criterion_12_cli_selftest(selftest_probe):
    code, out, _ = selftest_probe
    print("ACCEPTANCE criterion 12: " + ("PASS" if code == 0 else "FAIL"),
          flush=True)
    assert code == 0
    for number in range(1, 12):
        assert f"PASS criterion {number}:" in out
    assert "selftest passed all 11 criteria" in out


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
