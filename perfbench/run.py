"""Benchmark for partition-gf: seeded batches of real CLI jobs.

    python3 perfbench/run.py --workload qp-fit --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from `src/`.  The
workload (see `jobs.py`) is a list of argv lists generated from the seed.
Each job calls `partition_gf.cli.main(argv)` with stdout and stderr
captured, in a child forked for that job from this process, which has
imported the package but runs no job itself: every job starts from the state
a fresh CLI process has after its imports, and nothing a job leaves in memory
reaches the next.  Jobs run one at a time: a closed loop with one client.
The whole list (a batch) runs a fixed number of times, `rounds`, which
depends only on `--seconds` and the workload: sized so that a run takes
about `--seconds` on the parent commit, and the same for any code measured.

`--trace 0` reports the end-to-end metrics, with no tracing installed:

* batch_s: time to a solution for the whole job list, the sum over its jobs
  of each job's latency;
* job_p50_ms / job_tail_ms: median and tail of those per-job latencies.
  The tail is the highest percentile with TAIL_BEYOND jobs beyond it (p75
  of 40 jobs);
* setup_s: time for a fresh interpreter to import partition_gf.cli and
  build the parser, the least of SETUP_STARTS_PER_ROUND starts before each
  batch, made one after another;
* peak_rss_mb: the largest peak resident memory of a job's process.

A job's latency is its best over the batches, setup_s is the best start,
and each job (and each start) runs pinned to the CPU that a short probe
finds faster (`pin_to_faster_cpu`).  On a shared 2-vCPU Xeon VM other
tenants slow a CPU by up to about 2x, in phases from 0.1 s to minutes, and
that only ever adds time; these measures drop most of it.  There, over
eight seeds of check-sweep, the quartile spread of batch_s was 17% with
per-job bests against 29% with the median batch wall time, and that of
job_p50_ms 12% against 42%.  The batch wall times are printed in the report.

`--trace 1` alternates untraced and traced batches and reports the
per-layer metrics of `tracing.py` (times are medians over the traced
batches, counts come from one batch and must repeat exactly).  It prints
the tracing overhead and `host_ref_ms` as report lines.  The spans of the
last traced batch are written to perfbench/out/.

After the batches every job's output is checked by another route
(`checks.py`) and every batch's output must equal the first batch's.  The
last line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 3
# Seconds one round (the setup starts and one untraced batch) takes on the
# parent commit, on the VM of the module docstring.
ROUND_S = {"qp-fit": 4.0, "point-query": 4.0, "check-sweep": 5.0}
SETUP_STARTS_PER_ROUND = 4
TAIL_BEYOND = 10
CPUS = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
SETUP_CODE = (
    "import time\n"
    "start = time.perf_counter()\n"
    "import partition_gf.cli\n"
    "partition_gf.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)

END_TO_END_UNITS = {
    "batch_s": "s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def loop_s(iterations: int) -> float:
    """Time of a fixed pure-Python loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - start


def host_ref_ms() -> float:
    """Flags the host's slow phases in the report; never rescales a metric."""
    return loop_s(200_000) * 1000


def pin_to_faster_cpu() -> None:
    """Pin this process to the CPU on which a short probe loop runs fastest.

    Other tenants load the host's cores unevenly and the load moves within
    seconds.  On the VM of the module docstring, over six seeds of
    check-sweep, the quartile spread of batch_s was 27% unpinned and 9%
    with each job pinned this way."""
    if len(CPUS) < 2:
        return
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((loop_s(20_000), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})


def unpin() -> None:
    if len(CPUS) > 1:
        os.sched_setaffinity(0, CPUS)


def setup_start_s() -> float:
    """One fresh interpreter: import partition_gf.cli and build the parser."""
    pin_to_faster_cpu()  # the child inherits the pinning
    try:
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
    finally:
        unpin()
    return float(done.stdout)


def _job_in_child(argv, job: int, tracer, keep_output: bool) -> dict:
    from partition_gf import cli

    pin_to_faster_cpu()
    if tracer is not None:
        tracer.job = job
        tracer.install()
    gc.freeze()  # the parent's objects are not the job's to collect
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a job that raises counts as failed, the batch goes on
        code = traceback.format_exc()
    latency = time.perf_counter() - t0
    stdout = out.getvalue()
    result = {
        "latency": latency,
        "code": code,
        "digest": hashlib.blake2b(stdout.encode()).digest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "stdout": stdout if keep_output else None,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["rows_read"] = tracer.rows_read_count()
    return result


def run_job(argv, job: int, tracer=None, keep_output: bool = False) -> dict:
    """Run one job in a child forked for it, and wait for the child to end.
    This process starts no threads, so the fork copies no held lock."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                pickle.dump(_job_in_child(argv, job, tracer, keep_output), pipe)
            status = 0
        except Exception:
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        code = f"job process ended with status {status}"
        return dict(latency=0.0, code=code, digest=b"", rss_mb=0.0, stdout="", spans=[], rows_read=0)
    return pickle.loads(data)


class Batch:
    """One pass over the job list: wall time, per-job latency and outcome,
    and with a tracer the spans of every job."""

    def __init__(self, jobs, tracer=None, keep_output=False):
        self.latencies: list[float] = []
        self.codes: list = []
        self.digests: list[bytes] = []
        self.outputs: list[str] = []
        self.rss_mb = 0.0
        self.spans: list[list] = []
        self.rows_read = 0
        self.host_ref_ms = host_ref_ms()
        gc.collect()
        start = time.perf_counter()
        for index, argv in enumerate(jobs):
            result = run_job(argv, index, tracer, keep_output)
            self.latencies.append(result["latency"])
            self.codes.append(result["code"])
            self.digests.append(result["digest"])
            self.rss_mb = max(self.rss_mb, result["rss_mb"])
            if keep_output:
                self.outputs.append(result["stdout"])
            if tracer is not None:
                offset = len(self.spans)
                for span in result["spans"]:
                    if span[3] >= 0:
                        span[3] += offset
                    self.spans.append(span)
                self.rows_read += result["rows_read"]
        self.seconds = time.perf_counter() - start


def run_rounds(jobs, rounds: int, tracer=None, setup_starts=None):
    """`rounds` untraced batches (and, with a tracer, a traced one after
    each).  With a `setup_starts` list, each round first appends
    SETUP_STARTS_PER_ROUND start times to it.  Only the last traced batch
    keeps its spans, and each traced batch its per-layer metrics."""
    untraced: list[Batch] = []
    traced: list[Batch] = []
    for _ in range(rounds):
        if setup_starts is not None:
            setup_starts.extend(setup_start_s() for _ in range(SETUP_STARTS_PER_ROUND))
        untraced.append(Batch(jobs, keep_output=not untraced))
        if tracer is not None:
            from tracing import layer_metrics

            if traced:
                traced[-1].spans = []
            batch = Batch(jobs, tracer=tracer)
            batch.layer_metrics = layer_metrics(batch.spans, batch.rows_read)
            traced.append(batch)
    return untraced, traced


def count_failures(jobs, batches: list[Batch]) -> tuple[int, int, list[str]]:
    from checks import check

    first = batches[0]
    problems = []
    bad_jobs = set()
    for index, argv in enumerate(jobs):
        try:
            problem = check(argv, first.codes[index], first.outputs[index])
        except Exception as exc:  # a malformed output is a failed check, not a crash
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            bad_jobs.add(index)
            problems.append(f"{' '.join(argv)}: {problem}")
    attempted = failed = 0
    for batch in batches:
        for index in range(len(jobs)):
            attempted += 1
            if (
                index in bad_jobs
                or batch.codes[index] != 0
                or batch.digests[index] != first.digests[index]
            ):
                failed += 1
    return attempted, failed, problems


def tail(values: list[float]) -> tuple[float, float]:
    """The value with TAIL_BEYOND values above it, and its percentile."""
    ordered = sorted(values)
    rank = len(ordered) - 1 - TAIL_BEYOND
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)


def best_latencies_s(batches: list[Batch]) -> list[float]:
    """Each job's latency: its best over the batches."""
    return [min(latencies) for latencies in zip(*(b.latencies for b in batches))]


def end_to_end(jobs, batches: list[Batch], setup_starts: list[float]) -> tuple[dict, list[str]]:
    per_job_ms = [s * 1000 for s in best_latencies_s(batches)]
    tail_ms, percentile = tail(per_job_ms)
    values = {
        "batch_s": sum(per_job_ms) / 1000,
        "job_p50_ms": statistics.median(per_job_ms),
        "job_tail_ms": tail_ms,
        "setup_s": min(setup_starts),
        "peak_rss_mb": max(b.rss_mb for b in batches),
    }
    notes = [
        f"jobs per batch: {len(jobs)}; batches: {len(batches)}; job latency = best over batches",
        f"job_tail_ms is p{percentile:g} of {len(jobs)} per-job latencies",
        "batch wall time (s): " + " ".join(f"{b.seconds:.3f}" for b in batches),
        f"setup_s is the best of {len(setup_starts)} starts; "
        f"their median {statistics.median(setup_starts):.4f} s",
    ]
    return values, notes


def per_layer(traced: list[Batch], untraced: list[Batch]) -> tuple[dict, list[str], bool]:
    from tracing import unit_of

    samples = [b.layer_metrics for b in traced]
    values = {}
    repeated = True
    for name in samples[0]:
        column = [m[name] for m in samples]
        if unit_of(name) in ("count", "ratio"):
            values[name] = column[0]
            repeated &= len(set(column)) == 1
        else:
            values[name] = statistics.median(column)
    # As batch_s: summed per-job bests, which host slow phases disturb far
    # less than batch wall times.
    traced_s = sum(best_latencies_s(traced))
    untraced_s = sum(best_latencies_s(untraced))
    values["trace.batch_s"] = traced_s
    total = values["trace.layers_ms"]
    shares = ", ".join(
        f"{name.split('.')[0]} {100 * value / total:.1f}%"
        for name, value in values.items()
        if name.endswith(".self_ms") and name.count(".") == 1
    )
    notes = [
        f"traced batches: {len(traced)}; untraced batches: {len(untraced)}",
        f"batch_s untraced {untraced_s:.3f}, traced {traced_s:.3f}; "
        f"trace overhead {(traced_s - untraced_s) * 1000:.1f} ms",
        f"self-time shares: {shares}",
        f"count metrics repeat in every traced batch: {repeated}",
    ]
    return values, notes, repeated


def write_spans(spans: list[list], jobs, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = spans[0][1] if spans else 0.0
    with path.open("w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, job, fields) in enumerate(spans):
            record = {
                "id": index,
                "name": name,
                "start_ms": (start - origin) * 1000,
                "end_ms": (end - origin) * 1000,
                "parent": parent,
                "job": job,
                **(fields or {}),
            }
            handle.write(json.dumps(record) + "\n")
        handle.write(json.dumps({"jobs": [" ".join(argv) for argv in jobs]}) + "\n")


def parse_args(argv):
    from jobs import WORKLOADS

    parser = argparse.ArgumentParser(description="partition-gf benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "partition_gf" / "cli.py").is_file():
        print(f"error: no partition_gf package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import partition_gf.cli  # noqa: F401  (every job's process starts with it imported)
    from jobs import generate

    jobs = generate(args.workload, args.seed)
    rounds = max(MIN_ROUNDS, round(args.seconds / ROUND_S[args.workload]))
    tracer = setup_starts = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    else:
        setup_start_s()  # may compile bytecode: not counted
        setup_starts = []
    untraced, traced = run_rounds(jobs, rounds, tracer, setup_starts)
    attempted, failed, problems = count_failures(jobs, untraced + traced)
    repeated = True
    if tracer is None:
        metrics, notes = end_to_end(jobs, untraced, setup_starts)
        units = END_TO_END_UNITS
    else:
        from tracing import unit_of

        metrics, notes, repeated = per_layer(traced, untraced)
        units = {name: unit_of(name) for name in metrics}
        write_spans(traced[-1].spans, jobs, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    host = [b.host_ref_ms for b in untraced + traced]

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, rounds {rounds}")
    for note in notes:
        print(note)
    print(
        f"host_ref_ms median {statistics.median(host):.2f} "
        f"(min {min(host):.2f}, max {max(host):.2f}; a high max marks a slow phase)"
    )
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for problem in problems:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    result = {
        "correct": failed == 0 and repeated,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
