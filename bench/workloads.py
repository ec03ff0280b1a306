"""Seeded job streams, job execution and answer checks for the benchmark.

A job is one user request, a plain tuple whose first entry is its kind:

* ``("bracket", n, t, p, methods)`` -- ``[n t]_p`` by each named method;
* ``("census", u, r)`` -- certify the staircase cone of ``(u, r)``;
* ``("search", u, r, dmax)`` -- minimal canonical generators up to ``dmax``;
* ``("hilbert", u, r, dmax)`` -- Hilbert numerator up to ``dmax``;
* ``("closed", n, t, p)`` -- closed-form generators of the uniform staircase;
* ``("cli", argv, expected_exit, tag)`` -- one ``python -m fusscat.cli`` run.

Jobs come in rounds. A round draws one input from each of several cost
strata, so every round costs about the same and a run's throughput does
not hinge on which seed picked which inputs. Library calls go through the
module attributes (``brackets.gfc``, ``cone.verify_h_representation`` ...)
at call time, so the tracer's wrappers and the tests' monkeypatches see
them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from importlib import resources
from itertools import product
from pathlib import Path

from fusscat import brackets, canonical, cli, cone, polyomino
from fusscat.polyomino import StairSpec

WORKLOADS = ("brackets", "cone-census", "canonical-hilbert", "cli")

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
GOLDEN_MIXED = BENCH_DIR / "golden_mixed.json"

ALL_METHODS = brackets.GFC_METHODS
LARGE_METHODS = ("dp", "det")
# Path-matrix orders p*t of the large bracket queries, one stratum per band.
LARGE_ORDER_BANDS = tuple(range(8, 88, 8))
LARGE_N_MAX = 80
# Stars-and-bars volume binom(p*n, p*t) of the small queries, which all
# four methods answer; the bound keeps one such job to tens of ms.
SMALL_VOLUME_MAX = 20_000
SMALL_STRATA = 5
CENSUS_STRATA = 60
UNIFORM_SPECS = ((2, 1, 2), (3, 1, 2), (2, 1, 3), (3, 1, 3),
                 (3, 2, 2), (3, 2, 3), (4, 1, 2), (4, 2, 2))
MIXED_STRATA = 8
CLOSED_PER_ROUND = 4
CLOSED_VOLUME_MAX = 5_000


def job_key(job: tuple) -> tuple:
    """The input a job shares with other jobs: its spec, triple or argv."""
    kind = job[0]
    if kind in ("census", "search", "hilbert"):
        return (job[1], job[2])
    if kind == "closed":
        n, t, p = job[1:]
        return ((n,) * p, (t,) * p)
    if kind == "bracket":
        return job[1:4]
    return job[1]


def _strata(items: list, count: int) -> list[list]:
    """Split a cost-sorted list into `count` consecutive, near-equal parts."""
    size = len(items)
    return [items[k * size // count:(k + 1) * size // count] for k in range(count)]


def small_triples(volume_max: int, n_max: int = 9, p_max: int = 5) -> list[tuple]:
    """(n, t, p) whose enumeration volume binom(p*n, p*t) is at most
    volume_max, sorted by that volume."""
    out = []
    for n in range(2, n_max + 1):
        for p in range(1, p_max + 1):
            for t in range(1, n):
                vol = math.comb(p * n, p * t)
                if vol <= volume_max:
                    out.append((vol, n, t, p))
    return [x[1:] for x in sorted(out)]


def census_specs() -> list[StairSpec]:
    """The acceptance sweep: every staircase with p <= 4 and entries <= 3."""
    entries = range(1, 4)
    return [StairSpec(u, r) for p in range(1, 5)
            for u in product(entries, repeat=p) for r in product(entries, repeat=p)]


def search_dmax(spec: StairSpec) -> int:
    """One degree past the lowest degree with relative-interior points;
    for a uniform spec this is exactly the generators' degree p*n + 1."""
    m, ny = spec.breaks()[-1], spec.heights()[-1]
    return max(m, ny) + (0 if _is_uniform(spec) else 1)


def hilbert_dmax(spec: StairSpec) -> int:
    """min(sum u, sum r) + 1, which is p*t + 1 on a uniform spec."""
    return min(sum(spec.u), sum(spec.r)) + 1


def _is_uniform(spec: StairSpec) -> bool:
    return len(set(spec.u)) == 1 and len(set(spec.r)) == 1


def mixed_specs() -> list[StairSpec]:
    """Non-uniform staircases with p in {2, 3}, entries <= 3 and at most
    12 cone coordinates, sorted by the search and Hilbert volume."""
    def cost(spec):
        m, ny = spec.breaks()[-1], spec.heights()[-1]
        search = sum(math.comb(d - 1, m - 1) * math.comb(d - 1, ny - 1)
                     for d in range(max(m, ny), search_dmax(spec) + 1))
        hilb = sum(math.comb(d + m - 1, m - 1) for d in range(hilbert_dmax(spec) + 1))
        return search + hilb * ny

    out = []
    for p in (2, 3):
        for u in product(range(1, 4), repeat=p):
            for r in product(range(1, 4), repeat=p):
                spec = StairSpec(u, r)
                if not _is_uniform(spec) and sum(u) + sum(r) + 2 <= 12:
                    out.append(spec)
    return sorted(out, key=lambda s: (cost(s), s.u, s.r))


def _bracket_rounds(rng: random.Random, rounds: int) -> list[tuple]:
    small = _strata(small_triples(SMALL_VOLUME_MAX), SMALL_STRATA)
    jobs = []
    ps = []
    for _ in range(rounds):
        # every band sees each p in 2..6 once per five rounds
        if not ps:
            ps = [rng.sample(range(2, 7), 5) for _ in LARGE_ORDER_BANDS]
        batch = []
        for lo, band_ps in zip(LARGE_ORDER_BANDS, ps):
            p = band_ps.pop()
            t = rng.randint(-(-lo // p), (lo + 7) // p)
            n = rng.randint(max(t + 1, LARGE_N_MAX // 2), LARGE_N_MAX)
            batch.append(("bracket", n, t, p, LARGE_METHODS))
        for stratum in small:
            n, t, p = rng.choice(stratum)
            batch.append(("bracket", n, t, p, ALL_METHODS))
        rng.shuffle(batch)
        jobs.extend(batch)
        if not ps[0]:
            ps = []
    return jobs


def _census_rounds(rng: random.Random) -> list[tuple]:
    specs = sorted(census_specs(), key=lambda s: (sum(s.u) + sum(s.r), s.p, s.u, s.r))
    strata = _strata(specs, CENSUS_STRATA)
    for stratum in strata:
        rng.shuffle(stratum)
    jobs = []
    for k in range(min(len(s) for s in strata)):
        batch = [("census", s[k].u, s[k].r) for s in strata]
        rng.shuffle(batch)
        jobs.extend(batch)
    return jobs


def _canonical_rounds(rng: random.Random, rounds: int) -> list[tuple]:
    mixed = _strata(mixed_specs(), MIXED_STRATA)
    closed = small_triples(CLOSED_VOLUME_MAX, n_max=6, p_max=4)
    jobs = []
    for _ in range(rounds):
        specs = [StairSpec.uniform(*ntp) for ntp in UNIFORM_SPECS]
        specs += [rng.choice(stratum) for stratum in mixed]
        batch = []
        for spec in specs:
            batch.append(("search", spec.u, spec.r, search_dmax(spec)))
            batch.append(("hilbert", spec.u, spec.r, hilbert_dmax(spec)))
        batch += [("closed",) + rng.choice(closed) for _ in range(CLOSED_PER_ROUND)]
        rng.shuffle(batch)
        jobs.extend(batch)
    return jobs


def _csv(values) -> str:
    return ",".join(map(str, values))


def _random_spec(rng: random.Random, p_max: int = 3) -> StairSpec:
    p = rng.randint(1, p_max)
    return StairSpec(tuple(rng.randint(1, 3) for _ in range(p)),
                     tuple(rng.randint(1, 3) for _ in range(p)))


def _cli_round(rng: random.Random) -> list[tuple]:
    """The README examples, and two draws each of their seeded variants and
    of requests that must be refused (exit 2) or rejected (exit 1).

    The README's generator search and cone certificate are the only jobs
    with tens of ms of compute; at 2 of 34 jobs they stay below the 90th
    percentile, which then lies inside the start-up-bound bulk instead of
    on the step between the two groups.
    """
    batch = _cli_readme() + _cli_drawn(rng) + _cli_drawn(rng)
    rng.shuffle(batch)
    return batch


def _cli_job(argv, code, tag):
    return ("cli", tuple(argv), code, tag)


def _cli_readme() -> list[tuple]:
    job = _cli_job
    return [
        job(["gfc", "--n", "3", "--t", "1", "--p", "3", "--method", "all"], 0, "gfc"),
        job(["paths", "--a", "2,4,6"], 0, "paths"),
        job(["paths", "--a", "0,5", "--b", "0,3", "--method", "enumerate"], 0, "paths"),
        job(["polyomino", "--u", "3,3,3", "--r", "1,1,1", "--render"], 0, "polyomino"),
        job(["cone-verify", "--u", "3,3,3", "--r", "2,2,2"], 0, "cone"),
        job(["canonical", "--n", "3", "--t", "1", "--p", "3"], 0, "closed"),
        job(["canonical", "--u", "2,1", "--r", "1,2", "--dmax", "8"], 0, "search"),
        job(["hilbert", "--u", "3,3,3", "--r", "1,1,1", "--dmax", "3"], 0, "hilbert"),
    ]


def _cli_drawn(rng: random.Random) -> list[tuple]:
    job = _cli_job
    n, t, p = rng.choice(small_triples(2_000))
    heights = sorted(rng.randint(0, 6) for _ in range(rng.randint(1, 5)))
    spec1, spec2 = _random_spec(rng), _random_spec(rng, p_max=2)
    un, ut, up = rng.choice(UNIFORM_SPECS[:5])
    varied = [
        job(["gfc", "--n", str(n), "--t", str(t), "--p", str(p)], 0, "gfc"),
        job(["paths", "--a", _csv(heights), "--method",
             rng.choice(("dp", "det", "enumerate"))], 0, "paths"),
        job(["polyomino", "--u", _csv(spec1.u), "--r", _csv(spec1.r)], 0, "polyomino"),
        job(["cone-verify", "--u", _csv(spec2.u), "--r", _csv(spec2.r)], 0, "cone"),
        job(["hilbert", "--u", _csv((un,) * up), "--r", _csv((ut,) * up),
             "--dmax", str(up * ut + 1)], 0, "hilbert"),
    ]
    k = rng.randint(3, 9)
    refused = [
        job(["gfc", "--n", "7", "--t", "3", "--p", "4", "--method", "enum"], 2, "refused"),
        job(["--max-volume", "10", "gfc", "--n", str(k), "--t", "2", "--p", "2",
             "--method", "canonical"], 2, "refused"),
        job(["--max-volume", "100", "paths", "--a", _csv([k] * 4),
             "--method", "enumerate"], 2, "refused"),
    ]
    invalid = [
        job(["gfc", "--n", str(k), "--t", str(k), "--p", "1"], 1, "invalid"),
        job(["paths", "--a", f"{k},{k - 1}"], 1, "invalid"),
        job(["polyomino", "--u", "0", "--r", "1"], 1, "invalid"),
        job(["canonical", "--n", str(k), "--t", "1"], 1, "invalid"),
        job(["hilbert", "--u", "1,2", "--r", "1", "--dmax", str(k)], 1, "invalid"),
    ]
    return varied + refused + invalid


def make_jobs(workload: str, seed: int) -> list[tuple]:
    """The job list of one run; the same seed gives the same list.

    Each list is several times longer than a run of the seed commit gets
    through; a run that exhausts it starts over from the beginning.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "brackets":
        return _bracket_rounds(rng, 200)
    if workload == "cone-census":
        return _census_rounds(rng)
    if workload == "canonical-hilbert":
        return _canonical_rounds(rng, 200)
    if workload == "cli":
        return [j for _ in range(40) for j in _cli_round(rng)]
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


# ---------------------------------------------------------------- execution

def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def execute(job: tuple, env: dict | None = None):
    """Run one job and return its raw answer; exceptions propagate."""
    kind = job[0]
    if kind == "bracket":
        n, t, p, methods = job[1:]
        return {m: brackets.gfc(n, t, p, m) for m in methods}
    if kind == "census":
        return cone.verify_h_representation(StairSpec(job[1], job[2]))
    if kind == "search":
        return canonical.minimal_generators_search(StairSpec(job[1], job[2]), job[3])
    if kind == "hilbert":
        return canonical.hilbert_numerator(StairSpec(job[1], job[2]), job[3])
    if kind == "closed":
        return canonical.stair_generators(*job[1:])
    if kind == "cli":
        proc = subprocess.run([sys.executable, "-m", "fusscat.cli", *job[1]],
                              capture_output=True, text=True, timeout=120,
                              env=env if env is not None else cli_env(),
                              cwd=BENCH_DIR.parent)
        return proc.returncode, proc.stdout, proc.stderr
    raise ValueError(f"unknown job kind {kind!r}")


def cli_in_process(argv) -> tuple[int, str, str]:
    """`fusscat.cli.main` on argv in this process, with captured output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ------------------------------------------------------------------- checks

def digest(value) -> str:
    return hashlib.sha256(json.dumps(value, separators=(",", ":")).encode()).hexdigest()


def mixed_expectation(spec: StairSpec) -> dict:
    """The outputs a mixed-spec job is checked against."""
    gens = canonical.minimal_generators_search(spec, search_dmax(spec))
    return {
        "search_dmax": search_dmax(spec),
        "search_count": len(gens),
        "search_sha256": digest([list(z) for z in gens]),
        "hilbert_dmax": hilbert_dmax(spec),
        "numerator": canonical.hilbert_numerator(spec, hilbert_dmax(spec)),
    }


def load_golden_mixed() -> dict:
    return json.loads(GOLDEN_MIXED.read_text())["specs"]


def golden_generators(n: int, t: int, p: int) -> list[tuple[int, ...]]:
    """The reference generator list shipped in fusscat/data, as full
    exponent vectors (alpha followed by p*n + 1 ones)."""
    name = f"omega_generators_n{n}_t{t}_p{p}.txt"
    text = resources.files("fusscat.data").joinpath(name).read_text()
    rows = [line.split() for line in text.splitlines()
            if line.strip() and not line.lstrip().startswith("#")]
    return sorted(tuple(map(int, row)) + (1,) * (p * n + 1) for row in rows)


def _bracket_oracle(n: int, t: int, p: int) -> int:
    """[n t]_p by the DP on the mirrored triple (n, n - t, p)."""
    return brackets.gfc(n, n - t, p, "dp")


def _check_bracket(job, values) -> str | None:
    n, t, p, methods = job[1:]
    if set(values) != set(methods):
        return f"methods answered {sorted(values)}, asked {sorted(methods)}"
    if len(set(values.values())) != 1:
        return f"methods disagree: {values}"
    value = next(iter(values.values()))
    if t == 1:
        q = p + 1
        fc, rem = divmod(math.comb(n * q, q), (n - 1) * q + 1)
        if rem or value != fc:
            return f"[n 1]_p = {value}, Fuss-Catalan C_{q}({n}) = {fc}"
    if p == 1 and value != math.comb(n, t):
        return f"[n t]_1 = {value}, binom = {math.comb(n, t)}"
    mirror = _bracket_oracle(n, t, p)
    if value != mirror:
        return f"[n t]_p = {value} but [n n-t]_p = {mirror}"
    return None


def _check_census(job, report) -> str | None:
    spec = StairSpec(job[1], job[2])
    P = polyomino.stair(spec)
    ambient = spec.breaks()[-1] + spec.heights()[-1]
    if not report["all_passed"]:
        return f"certificate failed: {report['checks']}"
    if report["checks"]["dimension"]["rank"] != polyomino.krull_dim(P):
        return (f"dimension rank {report['checks']['dimension']['rank']} != "
                f"krull_dim {polyomino.krull_dim(P)}")
    if report["ambient_dim"] != ambient:
        return f"ambient_dim {report['ambient_dim']} != {ambient}"
    # p - 1 step normals plus one unit normal per coordinate
    if report["normal_count"] != spec.p - 1 + ambient:
        return f"normal_count {report['normal_count']} != {spec.p - 1 + ambient}"
    if report["generator_count"] != len(polyomino.vertex_set(P)):
        return f"generator_count {report['generator_count']} != vertex count"
    return None


def _uniform_ntp(spec: StairSpec):
    return (spec.u[0], spec.r[0], spec.p) if _is_uniform(spec) else None


def _check_search(job, gens, golden) -> str | None:
    spec = StairSpec(job[1], job[2])
    ntp = _uniform_ntp(spec)
    if ntp is None:
        want = golden.get(polyomino.format_stair_spec(spec))
        if want is None:
            return "no recorded expectation for this mixed spec"
        got = (len(gens), digest([list(z) for z in gens]))
        if got != (want["search_count"], want["search_sha256"]) or job[3] != want["search_dmax"]:
            return f"search result {got} differs from the recorded one"
        return None
    closed = sorted(g.exponent_vector() for g in canonical.stair_generators(*ntp))
    if list(gens) != closed:
        return f"search found {len(gens)} generators, closed form has {len(closed)}"
    if ntp in ((3, 1, 3), (3, 2, 3)) and list(gens) != golden_generators(*ntp):
        return "search differs from the reference generator list in fusscat/data"
    return None


def _check_hilbert(job, h, golden) -> str | None:
    spec = StairSpec(job[1], job[2])
    dmax = job[3]
    ntp = _uniform_ntp(spec)
    if ntp is None:
        want = golden.get(polyomino.format_stair_spec(spec))
        if want is None or job[3] != want["hilbert_dmax"] or h != want["numerator"]:
            return f"numerator {h} differs from the recorded one"
        return None
    n, t, p = ntp
    top = p * t
    if len(h) != dmax + 1 or h[0] != 1:
        return f"numerator {h} has the wrong length or h_0 != 1"
    if h[top] != _bracket_oracle(n, t, p):
        return f"h_{top} = {h[top]} != [{n} {t}]_{p}"
    if any(h[top + 1:]):
        return f"numerator {h} nonzero above degree {top}"
    return None


def _check_closed(job, gens) -> str | None:
    n, t, p = job[1:]
    alphas = [tuple(g.alpha) for g in gens]
    if alphas != sorted(set(alphas)):
        return "generators not strictly sorted"
    for a in alphas:
        if len(a) != p * t + 1 or min(a) < 1 or sum(a) != p * n + 1:
            return f"alpha {a} has the wrong shape"
        if any(sum(a[:k * t]) > k * n for k in range(1, p)):
            return f"alpha {a} breaks a prefix bound"
    if len(alphas) != _bracket_oracle(n, t, p):
        return f"{len(alphas)} generators, bracket says {_bracket_oracle(n, t, p)}"
    return None


def _count_paths_brute(a, b) -> int:
    return sum(1 for ys in product(*(range(lo, hi + 1) for lo, hi in zip(b, a)))
               if all(x <= y for x, y in zip(ys, ys[1:])))


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


def _check_cli_doc(job, doc) -> str | None:
    argv, tag = job[1], job[3]
    opt = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
    if tag == "gfc":
        n, t, p = int(opt["--n"]), int(opt["--t"]), int(opt["--p"])
        values = set(doc["per_method"].values()) | {doc["value"]}
        if not doc["methods_agree"] or values != {str(_bracket_oracle(n, t, p))}:
            return f"gfc reported {doc}"
    elif tag == "paths":
        a = _int_list(opt["--a"])
        b = _int_list(opt["--b"]) if "--b" in opt else [0] * len(a)
        if doc["count"] != str(_count_paths_brute(a, b)):
            return f"paths count {doc['count']} != brute force"
    elif tag == "polyomino":
        spec = StairSpec(_int_list(opt["--u"]), _int_list(opt["--r"]))
        cells = sum(r * (h - 1) for r, h in zip(spec.r, spec.heights()))
        if doc["cell_count"] != cells or doc["krull_dim"] != doc["vertex_count"] - cells:
            return f"polyomino counts {doc['cell_count']}, {doc['krull_dim']}"
    elif tag == "cone":
        if not doc["all_passed"]:
            return "cone certificate failed"
    elif tag == "closed":
        n, t, p = int(opt["--n"]), int(opt["--t"]), int(opt["--p"])
        if doc["cm_type"] != str(_bracket_oracle(n, t, p)) or len(doc["generators"]) != int(doc["cm_type"]):
            return f"cm_type {doc['cm_type']}"
    elif tag == "search":
        if int(doc["count"]) != len(doc["generators"]) or not doc["generators"]:
            return f"search count {doc['count']}"
    elif tag == "hilbert":
        u, r = _int_list(opt["--u"]), _int_list(opt["--r"])
        top = sum(r)
        if doc["numerator"][top] != _bracket_oracle(u[0], r[0], len(u)) or any(doc["numerator"][top + 1:]):
            return f"numerator {doc['numerator']}"
    return None


def _check_cli(job, answer) -> str | None:
    code, stdout, stderr = answer
    expected = job[2]
    if "Traceback" in stderr:
        return f"traceback on stderr: {stderr[-200:]!r}"
    if code != expected:
        return f"exit {code}, expected {expected}: {stderr[-200:]!r}"
    local = cli_in_process(job[1])
    if (code, stdout) != local[:2]:
        return "subprocess output differs from fusscat.cli.main in process"
    if expected == 0:
        return _check_cli_doc(job, json.loads(stdout))
    prefix = "refused:" if expected == 2 else "error:"
    if stdout or not stderr.startswith(prefix):
        return f"exit {code} without a {prefix!r} diagnostic"
    return None


class Checker:
    """Decides whether one job's answer is correct."""

    def __init__(self):
        self._golden = None

    @property
    def golden(self) -> dict:
        if self._golden is None:
            self._golden = load_golden_mixed()
        return self._golden

    def failure(self, job, answer, error) -> str | None:
        """None when the job succeeded, else the reason it failed."""
        if error is not None:
            return f"{type(error).__name__}: {error}"
        kind = job[0]
        if kind == "bracket":
            return _check_bracket(job, answer)
        if kind == "census":
            return _check_census(job, answer)
        if kind == "search":
            return _check_search(job, answer, self.golden)
        if kind == "hilbert":
            return _check_hilbert(job, answer, self.golden)
        if kind == "closed":
            return _check_closed(job, answer)
        return _check_cli(job, answer)
