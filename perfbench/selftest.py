"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py    (or: python3 perfbench/selftest.py)

The file is not named test_*.py so that the package's own test run does not
pick it up: it runs every workload's jobs and takes a few minutes.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from partition_gf import oeis  # noqa: E402

import checks  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def test_same_seed_gives_same_jobs_and_no_job_repeats():
    for workload in jobs.WORKLOADS:
        first = jobs.generate(workload, 7)
        assert first == jobs.generate(workload, 7)
        assert first != jobs.generate(workload, 8)
        assert len(first) == jobs.JOBS_PER_WORKLOAD
        for seed in range(500):
            job_list = jobs.generate(workload, seed)
            assert len({tuple(argv) for argv in job_list}) == len(job_list), (workload, seed)


def _corrupt(stdout: str) -> str:
    """The output with one value changed: the last digit, or an oeis pass."""
    if ", pass" in stdout:
        return stdout.replace(", pass", ", FAIL (1 mismatches)", 1)
    last = max(i for i, c in enumerate(stdout) if c.isdigit())
    return stdout[:last] + str((int(stdout[last]) + 1) % 10) + stdout[last + 1 :]


def _rejected(argv, stdout) -> bool:
    try:
        return checks.check(argv, 0, stdout) is not None
    except Exception:  # a malformed output counts as failed in count_failures too
        return True


def test_every_job_exits_zero_and_passes_its_check_and_a_corrupted_output_fails_it():
    for workload in jobs.WORKLOADS:
        job_list = jobs.generate(workload, 1)
        batch = run.Batch(job_list, keep_output=True)
        assert batch.codes == [0] * len(job_list), workload
        attempted, failed, problems = run.count_failures(job_list, [batch])
        assert (attempted, failed, problems) == (len(job_list), 0, []), workload
        for argv, stdout in zip(job_list, batch.outputs):
            assert _rejected(argv, _corrupt(stdout)), argv


def test_count_metrics_repeat_and_jobs_leave_the_parent_untraced():
    before = {name: dict(vars(module)) for name, module in tracing.LAYERS.items()}
    known = dict(oeis.KNOWN_SEQUENCES)
    for workload in jobs.WORKLOADS:
        job_list = jobs.generate(workload, 2)
        counts = []
        for _ in range(2):
            batch = run.Batch(job_list, tracer=tracing.Tracer())
            metrics = tracing.layer_metrics(batch.spans, batch.rows_read)
            counts.append({k: v for k, v in metrics.items() if tracing.unit_of(k) in ("count", "ratio")})
        assert counts[0] == counts[1], workload
        assert {span[4] for span in batch.spans} == set(range(len(job_list))), workload
        # Every layer does some work on every workload (see jobs._light), so
        # no per-layer metric is a structural 0.
        assert all(v > 0 for v in metrics.values()), workload
    for name, module in tracing.LAYERS.items():
        assert dict(vars(module)) == before[name], name
    assert oeis.KNOWN_SEQUENCES == known


def test_tracing_restores_the_package():
    before = {name: dict(vars(module)) for name, module in tracing.LAYERS.items()}
    known = dict(oeis.KNOWN_SEQUENCES)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert oeis.KNOWN_SEQUENCES != known
    finally:
        tracer.uninstall()
    for name, module in tracing.LAYERS.items():
        assert dict(vars(module)) == before[name], name
    assert oeis.KNOWN_SEQUENCES == known


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"PASS {name}")
