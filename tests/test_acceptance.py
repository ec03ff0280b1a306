"""Acceptance suite: every shipped reference value, exact, with a stated
runtime budget per criterion. Run with -s to see the per-criterion PASS
lines.

The criteria themselves live in fusscat.selftest.CHECKS; this file adds
one named test per criterion with its time budget, so the pytest run and
`fusscat selftest` check the same things, and shows that each criterion
fails when a fault is planted in the code it checks.
"""

import time
from contextlib import contextmanager

import pytest

from fusscat import brackets, canonical, cone, paths, polyomino, selftest

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


def _without_first_step_normal(real):
    def normals(spec):
        found, nu = real(spec)
        return found[spec.p > 1:], nu
    return normals


def _first_two_runs_merged(real):
    def count(bounds, *args):
        # _replace skips the constructor's checks, as a fault would
        (x, y, m), *rest = bounds.runs
        if rest:
            bounds = bounds._replace(runs=((x, y, m + rest[0][2]), *rest[1:]))
        return real(bounds, *args)
    return count


# criterion -> (module, name, a fault planted in the function of that
# name); criteria 3 and 11 have their own failing tests
FAULTS = {
    # the path matrix transposed
    1: (paths, "path_count_matrix", lambda real: lambda bounds: tuple(zip(*real(bounds)))),
    # the canonical route off by one
    2: (brackets, "cm_type_stair", lambda real: lambda *args: real(*args) + 1),
    # the det's binomials taken one row short, binom(N, k - 1) for binom(N, k)
    4: (paths, "comb", lambda real: lambda top, k: real(top, k - 1)),
    # one closed-form generator lost
    5: (canonical, "stair_generators", lambda real: lambda *args: list(real(*args))[1:]),
    6: (polyomino, "krull_dim", lambda real: lambda P: real(P) + 1),
    # the first step normal dropped from every staircase cone
    7: (cone, "stair_normals", _without_first_step_normal),
    # the det's second run merged into its first; dp and det then differ
    # before the enumeration runs
    8: (paths, "count_paths_det", _first_two_runs_merged),
    # the search drops one generator
    9: (canonical, "minimal_generators_search", lambda real: lambda *args: real(*args)[1:]),
    # the top numerator coefficient lost
    10: (canonical, "hilbert_numerator", lambda real: lambda *args: real(*args)[:-1] + [0]),
}


@pytest.mark.parametrize("number", sorted(FAULTS))
def test_criterion_can_fail(monkeypatch, number):
    module, name, fault = FAULTS[number]
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    check = {num: fn for num, _, fn in selftest.CHECKS}[number]
    passed, detail = check()
    assert passed is False, detail


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
