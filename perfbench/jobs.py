"""Seeded job lists for the benchmark workloads.

A job is the argv list one `partition-gf` invocation receives.  Each workload
is a fixed list of slots; the seed chooses the inputs inside every slot (the
distance vector, n, order and the like) and the order in which the jobs run.
Slots fix what sets a job's cost, so every seed asks for about the same work
and run-to-run spread reflects the program, not the draw:

* a slot fixes the number of distances k and their total t, and the seed
  draws the vector itself;
* a numeric input is drawn as a systematic sample: one random offset shared
  by all of a group's slots, so each slot stays in its own stratum and the
  slow and fast ends of every group are the same size for every seed;
* a job whose cost grows like N**p comes in a pair whose values of N**p lie
  u and 1-u of the way across [lo**p, hi**p]: the pair costs the same for
  every seed while N still covers the whole range.

Every workload also runs a few small jobs (`_light`) in the layers its mix
leaves idle, so each per-layer time is measured on every workload and is
never a structural 0; they take well under 5% of a batch.  No argv repeats
within a list.
"""

from __future__ import annotations

import math
import random

JOBS_PER_WORKLOAD = 40


def _distances(values) -> str:
    return ",".join(str(v) for v in values)


def _composition(rng: random.Random, total: int, k: int) -> tuple[int, ...]:
    """A uniformly drawn vector of k positive integers summing to total."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return tuple(b - a for a, b in zip([0, *cuts], [*cuts, total]))


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers in [lo, hi], one in each of count equal strata."""
    offset = rng.random()
    width = (hi - lo) / count
    return [round(lo + (i + offset) * width) for i in range(count)]


def _paired(rng: random.Random, lo: int, hi: int, power: int, pairs: int) -> list[int]:
    """2*pairs integers in [lo, hi], pair by pair, each pair's power-th powers
    summing to lo**p + hi**p (see the module docstring)."""
    offset = rng.random()
    out = []
    for i in range(pairs):
        u = (i + offset) / (2 * pairs)
        low, high = (
            min(hi, max(lo, round((lo**power + share * (hi**power - lo**power)) ** (1 / power))))
            for share in (u, 1 - u)
        )
        # Near u = 1/2 both round alike; keep the pair's two jobs distinct.
        out += [low - 1 if low == high else low, high]
    return out


def _compute(n: int, distances, method: str) -> list[str]:
    return ["compute", "--n", str(n), "--distances", _distances(distances), "--method", method]


def _series(order: int, distances) -> list[str]:
    return ["series", "--distances", _distances(distances), "--order", str(order)]


def _closed_form_spec(rng: random.Random, t_max: int) -> tuple[int, ...]:
    """A vector with t > max(1, k), the specs that have a closed form."""
    k = rng.randint(1, 3)
    return _composition(rng, rng.randint(max(2, k + 1), t_max), k)


def _light(rng: random.Random, *commands: str) -> list[list[str]]:
    """One small job for each named command, in layers the mix leaves idle."""
    make = {
        # counting tables, oeis calibration and cross-check
        "oeis": lambda: ["oeis", "--id", "A008805", "--n-max", str(rng.randint(40, 60))],
        # a direct series (t <= max(1, k) has no closed form)
        "series": lambda: _compute(rng.randint(40, 60), (1, 1), "series"),
        # q-series identities
        "identities": lambda: [
            "verify", "--suite", "identities", "--t-max", "2", "--order", str(rng.randint(15, 25))
        ],
        # one fit of period 2 or 6, written as a document
        "fit": lambda: ["fit", "--distances", _distances(rng.choice(((2,), (1, 2), (2, 1))))],
    }
    return [make[command]() for command in commands]


def _qp_fit(rng: random.Random) -> list[list[str]]:
    vectors = []
    # Period lcm(1..7) = 420: the slow end.  t stops at 7 so that no single
    # job runs past about 2 s on the seed code.
    for k in (1, rng.choice((2, 3))):
        vectors.append(_composition(rng, 7, k))
    # Periods 6 and 12 (t = 3, 4) are the bulk, periods 60 (t = 5, 6) the middle.
    for k, total, count in (
        (1, 3, 4), (1, 4, 5), (1, 5, 1), (1, 6, 1),
        (2, 4, 9), (2, 5, 1), (2, 6, 1),
        (3, 4, 9), (3, 5, 1), (3, 6, 1),
    ):
        vectors += [_composition(rng, total, k) for _ in range(count)]
    jobs = []
    for i, vector in enumerate(vectors):
        job = ["fit", "--distances", _distances(vector)]
        # A vector drawn again is fitted through a longer prefix: its required
        # order (the CLI default) plus one per earlier draw.
        repeats = vectors[:i].count(vector)
        if repeats:
            t = sum(vector)
            period = math.lcm(*range(1, t + 1))
            weighted = sum((len(vector) + 1 - j) * d for j, d in enumerate(vector, start=1))
            required = len(vector) + 1 + weighted + period * (t + 1)
            job += ["--order", str(required + repeats)]
        jobs.append(job)
    for t_max in (5, 6):
        jobs.append(["verify", "--suite", "asymptotics", "--t-max", str(t_max)])
    return jobs + _light(rng, "oeis", "series", "identities")


def _point_query(rng: random.Random) -> list[list[str]]:
    jobs = []
    # Difference 0 is a divisor count: the cheap end of the latency range.
    for n in _spread(rng, 500, 2000, 2):
        jobs.append(_compute(n, (0,), "enumerate"))
    # One counting table of N+1 cells (enumerate) or a direct series of N+1
    # coefficients per query, cost ~ N**2.  t <= max(1, k) has no closed form.
    quadratic = iter(_paired(rng, 500, 2000, 2, 10))
    slots = [(lambda n, d: _compute(n, d, "enumerate"), (k, total))
             for k, total in ((1, 3), (1, 5), (2, 4), (3, 5), (1, 1), (2, 2))]
    slots += [(lambda n, d: _compute(n, d, "series"), (k, k)) for k in (1, 2)]
    slots += [(_series, (k, k)) for k in (1, 3)]
    for make, (k, total) in slots:
        distances = _composition(rng, total, k)
        for _ in range(2):
            jobs.append(make(next(quadratic), distances))
    # t > max(1, k): one closed-form expansion, near-linear in N.
    for n in _spread(rng, 500, 2000, 4):
        jobs.append(_compute(n, _closed_form_spec(rng, 6), "series"))
    for n in _spread(rng, 500, 2000, 3):
        jobs.append(_series(n, _closed_form_spec(rng, 6)))
    # One value read from a fit of every class; total <= 6 keeps P <= 60.
    for total, n in zip((3, 4, 5, 6, 5, 6, 4, 6), _spread(rng, 500, 2000, 8)):
        k = rng.randint(1, min(3, total - 1))
        jobs.append(_compute(n, _composition(rng, total, k), "quasipoly"))
    return jobs + _light(rng, "oeis", "fit", "identities")


def _check_sweep(rng: random.Random) -> list[list[str]]:
    jobs = []
    # Per-n oracles rebuild a table for every n: cost ~ N**3.  The range
    # straddles the fixtures' coverage of n <= 400; the dearer A128508 oracle
    # always takes the larger N of the pair.
    for sequence_id, n in zip(("A008805", "A128508"), _paired(rng, 150, 450, 3, 1)):
        jobs.append(["oeis", "--id", sequence_id, "--n-max", str(n)])
    for i, n in enumerate(_spread(rng, 150, 450, 14)):
        jobs.append(["oeis", "--id", ("A000005", "A049820")[i % 2], "--n-max", str(n)])
    for t_max, n_max in zip((3, 5, 4, 4), _paired(rng, 60, 150, 2, 2)):
        jobs.append(
            ["verify", "--suite", "routes", "--t-max", str(t_max), "--n-max", str(n_max)]
        )
    for n_max in _paired(rng, 40, 120, 3, 3):
        jobs.append(["verify", "--suite", "oeis", "--n-max", str(n_max)])
    for t_max, order in zip((3, 4, 5, 6) * 4, _spread(rng, 30, 80, 13)):
        jobs.append(
            ["verify", "--suite", "identities", "--t-max", str(t_max), "--order", str(order)]
        )
    return jobs + _light(rng, "fit")


WORKLOADS = {"qp-fit": _qp_fit, "point-query": _point_query, "check-sweep": _check_sweep}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The job list for one workload and seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = WORKLOADS[workload](rng)
    rng.shuffle(jobs)
    if len(jobs) != JOBS_PER_WORKLOAD:
        raise AssertionError(f"{workload} built {len(jobs)} jobs, expected {JOBS_PER_WORKLOAD}")
    if len({tuple(argv) for argv in jobs}) != len(jobs):
        raise AssertionError(f"{workload} seed {seed} repeats a job")
    return jobs
