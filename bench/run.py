#!/usr/bin/env python3
"""The shapedparts benchmark: CLI workloads in a closed loop, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload split2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, one after another

One client sends one CLI command at a time through `shapedparts.cli.main`, in
this process and on one thread, each with `--output` to a scratch file, and
sends the next once the last has returned. The problem files are generated
from `--seed` (bench/instances.py); the package sees only those files.
Every report is checked outside the timed region (bench/checks.py).

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the same
commands with span wrappers around each layer's entry point (bench/layers.py)
and reports the per-layer metrics. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the lines
before it are a readable table with the machine the numbers came from.
bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# One thread: keep numpy's BLAS from starting a pool of its own.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import combinations  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

from checks import check_output  # noqa: E402
from instances import WORKLOADS, Instance, workload_instances, write_instances  # noqa: E402
from layers import EXACT_COUNTS, METRICS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
SCRATCH = ROOT / ".bench_tmp"

DEFAULT_SEED = 1  # the seed whose report digests and counts are recorded
SETUP_PROBES = 7  # fresh-process set-ups per run; setup_s is their median
MIN_PASSES = 3  # whole passes every run makes, however short --seconds is
TAIL_PERCENT = 79  # the tail percentile of command times; bench/README.md says why not 80
TAIL_BEYOND = 10  # samples beyond the tail percentile, at the least
MIN_SAMPLES = -(-TAIL_BEYOND * 100 // (100 - TAIL_PERCENT))  # commands every run times
REFERENCE_S = 0.0045  # CPU time of reference_work() at the reference speed
REFERENCE_SHARE = 0.02  # reference time after a command, as a share of its time
REFERENCE_CALLS = 8  # calls of reference_work() after a command, at the most
REFERENCE_PROCESS_S = 0.15  # CPU time of reference_process() at the reference speed
REFERENCE_IMPORTS = ("import json, fractions, argparse, decimal, email.message, http.client, "
                     "xml.dom.minidom, unittest")
BRUTE_MAX_N, BRUTE_MAX_P = 9, 4  # solve optima are checked by brute force up to here

# The end-to-end metrics BENCHMARK.json bounds, in the order they are
# printed. The times are CPU times scaled to the reference speed
# (scale_to_reference); bench/README.md says why.
END_TO_END = {
    "setup_s": "s",
    "cpu_s": "s",
    "instance_cpu_p50_s": "s",
    "instance_cpu_tail_s": "s",
    "peak_rss_mb": "MB",
}
# Printed in the table too, as measured, but not bounded: the same work reads
# up to twice as slow from one minute to the next on a shared host.
AS_MEASURED = {
    "wall_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "raw_cpu_s": "s",
    "raw_setup_s": "s",
    "reference_ms": "ms",
}


@dataclass
class Job:
    """One generated instance, its CLI arguments and what its report must show."""

    inst: Instance
    argv: list[str]
    out: Path
    a: list[list[Fraction]]
    p: int
    best: Fraction | None  # brute-force optimum of a solve, when small enough
    brute_partitions: int  # admissible partitions brute force walks per call
    digest: str | None  # recorded report SHA-256 (default seed only)
    counts: dict | None  # recorded exact counts (default seed only)


def import_cli():
    """The CLI module of this checkout's package; exits non-zero if it is missing."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        from shapedparts import cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import shapedparts from {src}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"error: imported shapedparts from {cli.__file__}, not from {src}")
    return cli


def machine_info() -> str:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"cpu={cpu!r} nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} commit={git_commit()}")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_seconds() -> float:
    """CPU time (user + sys) of this process and of its children that have ended.

    A command's children are its oracle process, which the CLI stops and
    waits for before it returns.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + kids.ru_utime + kids.ru_stime


def reference_work() -> float:
    """CPU seconds of a fixed piece of work of the package's kind.

    Gaussian elimination over Fractions and a set of bitmasks, written here
    and not taken from the package, so no change to the package moves it.
    Its time measures how fast the host runs such code at that moment.
    """
    start = process_time()
    size = 6
    for shift in range(6):
        rows = [[Fraction((3 * i + 5 * j + shift) % 11 - 5, 1 + (i * j + shift) % 4)
                 for j in range(size)] for i in range(size)]
        for col in range(size):
            pivot = next((r for r in range(col, size) if rows[r][col]), None)
            if pivot is None:
                continue
            rows[col], rows[pivot] = rows[pivot], rows[col]
            for r in range(col + 1, size):
                factor = rows[r][col] / rows[col][col]
                if factor:
                    rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    masks = set()
    for subset in combinations(range(1, 13), 4):
        below = 0
        for element in subset:
            below |= 1 << (element - 1)
        masks.add(below)
        masks.add(0xFFF ^ below)
    sorted(masks)
    return process_time() - start


def scale_to_reference(seconds: float, reference: list[float],
                       reference_s: float = REFERENCE_S) -> float:
    """CPU seconds as they would read at the reference speed.

    `reference` holds the reference samples taken just before and just after
    `seconds` was measured; the host ran at reference_s / median(reference)
    of the reference speed. Dividing that out leaves what the program itself
    costs.
    """
    return seconds * reference_s / statistics.median(reference)


def reference_process() -> float:
    """CPU seconds of a fresh interpreter that imports a fixed set of stdlib modules.

    The set-up probes' reference: like them, it starts Python and loads
    modules, and like reference_work() it does not depend on the package.
    """
    start = cpu_seconds()
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], check=True, timeout=120)
    return cpu_seconds() - start


def measure_setup(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """CPU time of fresh processes that import the package and write and parse
    the files: the median over SETUP_PROBES of them at the reference speed,
    and the median as measured.

    A reference_process() runs before every probe and once after the last;
    each probe is scaled by the mean of the two around it.
    """
    samples, scaled = [], []
    reference = [reference_process()]
    for probe in range(SETUP_PROBES):
        directory = work / f"setup-{probe}"
        directory.mkdir()
        start = cpu_seconds()
        subprocess.run([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed),
                        str(directory)], check=True, timeout=120)
        samples.append(cpu_seconds() - start)
        reference.append(reference_process())
        scaled.append(scale_to_reference(samples[-1], reference[-2:], REFERENCE_PROCESS_S))
    return statistics.median(scaled), statistics.median(samples)


def prepare_jobs(workload: str, seed: int, work: Path, expected: dict) -> list[Job]:
    """Write the problem files and work out, untimed, what each report must show."""
    from shapedparts.brute import brute_solve, enumerate_all_partitions
    from shapedparts.objectives import ColumnPowerObjective
    from shapedparts.problems import problem_from_dict

    instances = workload_instances(workload, seed)
    paths = write_instances(instances, work)
    out = work / "report.json"
    jobs = []
    for inst, path in zip(instances, paths):
        problem = problem_from_dict(inst.doc)
        argv = [inst.command, path, "--output", str(out)]
        if inst.command == "vertices":
            argv.insert(2, "--with-partitions")
        best = None
        if inst.command == "solve" and problem.n <= BRUTE_MAX_N and problem.p <= BRUTE_MAX_P:
            # bench/oracle.py computes the same function as this built-in objective
            best = brute_solve(problem.matrix, problem.p, problem.family, ColumnPowerObjective(2))
        brute = 0
        if inst.command == "check":
            brute = sum(1 for _ in enumerate_all_partitions(problem.n, problem.p, problem.family))
        record = expected.get(inst.name, {})
        jobs.append(Job(
            inst=inst,
            argv=argv,
            out=out,
            a=[[Fraction(x) for x in row] for row in problem.matrix.rows()],
            p=problem.p,
            best=best,
            brute_partitions=brute,
            digest=record.get("sha256"),
            counts=record.get("counts"),
        ))
    return jobs


def run_command(cli, job: Job, tracer: Tracer | None = None):
    """Run one command; returns (wall seconds, CPU seconds, report bytes or None, problem or None).

    The report is checked after both clocks have stopped.
    """
    job.out.unlink(missing_ok=True)
    cpu = cpu_seconds()
    start = perf_counter()
    try:
        if tracer is None:
            code = cli.main(job.argv)
            seconds = perf_counter() - start
        else:
            code, seconds = tracer.command(lambda: cli.main(job.argv))
        cpu = cpu_seconds() - cpu
    except Exception as exc:  # a crashing command is a failed command, not a failed run
        seconds, cpu = perf_counter() - start, cpu_seconds() - cpu
        traceback.print_exc()
        return seconds, cpu, None, f"raised {type(exc).__name__}: {exc}"
    if code != 0:
        return seconds, cpu, None, f"exit code {code}"
    try:
        data = job.out.read_bytes()
    except OSError:
        return seconds, cpu, None, "no report written"
    return seconds, cpu, data, check_output(job.inst.command, data, job.a, job.p, job.best,
                                            job.digest)


class Tally:
    """Attempted and failed commands; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, job: Job, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.fail(job, problem)

    def fail(self, job: Job, problem: str) -> None:
        self.failed += 1
        print(f"FAILED {job.inst.name}: {problem}", file=sys.stderr)


def measure_end_to_end(cli, jobs: list[Job], seconds: float, tally: Tally):
    """Closed loop over the commands until `seconds` have passed, MIN_PASSES
    whole passes are done and MIN_SAMPLES commands are timed; returns
    (metrics, notes).

    Each command is timed by the wall clock and by CPU time, and a sample of
    reference_work() is taken before every command and once after the last.
    A command's time at the reference speed is its CPU time scaled by the
    mean of the two reference samples around it (scale_to_reference), so
    the host's speed is read at the moment the command ran. After a long
    command the sample is the mean of several calls, about REFERENCE_SHARE
    of the command's time, so one interrupted call weighs less. A pass is the
    sum of the per-command medians, so a run that stops part way through a
    pass still weighs every command once. The tail is read at the fixed
    TAIL_PERCENT percentile, which MIN_SAMPLES leaves at least TAIL_BEYOND
    samples beyond; a percentile that moved with the sample count moved with
    host speed.
    """
    walls: list[list[float]] = [[] for _ in jobs]
    cpus: list[list[float]] = [[] for _ in jobs]
    scaled: list[list[float]] = [[] for _ in jobs]
    reference = [reference_work()]
    begin = perf_counter()
    done = False
    while not done:
        for index, job in enumerate(jobs):
            wall, cpu, _, problem = run_command(cli, job)
            calls = min(REFERENCE_CALLS, max(1, round(cpu * REFERENCE_SHARE / REFERENCE_S)))
            reference.append(statistics.fmean(reference_work() for _ in range(calls)))
            walls[index].append(wall)
            cpus[index].append(cpu)
            scaled[index].append(scale_to_reference(cpu, reference[-2:]))
            tally.add(job, problem)
            done = (perf_counter() - begin >= seconds and len(walls[-1]) >= MIN_PASSES
                    and sum(map(len, walls)) >= MIN_SAMPLES)
            if done:
                break

    count = sum(map(len, walls))
    rank = -(-count * TAIL_PERCENT // 100)  # nearest rank of the tail percentile

    def summary(per_job: list[list[float]]) -> tuple[float, float, float]:
        samples = sorted(t for times in per_job for t in times)
        return (sum(statistics.median(t) for t in per_job), statistics.median(samples),
                samples[rank - 1])

    metrics = dict(zip(("cpu_s", "instance_cpu_p50_s", "instance_cpu_tail_s"), summary(scaled)))
    metrics.update(zip(("wall_s", "instance_p50_s", "instance_tail_s"), summary(walls)))
    metrics["raw_cpu_s"] = summary(cpus)[0]
    metrics["reference_ms"] = 1000 * statistics.median(reference)
    passes = f"{len(walls[-1])} to {len(walls[0])} samples each"
    tail = f"p{TAIL_PERCENT}, {count - rank} of {count} samples beyond it"
    at_reference = "at the reference speed"
    notes = {
        "cpu_s": f"one pass: sum of per-command median CPU times, {passes}, {at_reference}",
        "raw_cpu_s": "cpu_s as measured",
        "reference_ms": f"CPU time of the reference work, median of {len(reference)} samples; "
                        f"{1000 * REFERENCE_S:g} ms is the reference speed",
        "wall_s": f"one pass: sum of per-command median wall times, {passes}",
        "instance_cpu_p50_s": f"median of {count} commands, {at_reference}",
        "instance_p50_s": f"median of {count} commands",
        "instance_cpu_tail_s": f"{tail}, {at_reference}",
        "instance_tail_s": tail,
    }
    return metrics, notes


def measure_layers(cli, jobs: list[Job], seconds: float, tally: Tally, record: bool):
    """Traced passes until `seconds` have passed; returns (per-layer metrics, records)."""
    tracer = Tracer()
    tracer.install()
    passes: list[dict] = []
    pass_counts: list[list[dict]] = []
    records = {}
    begin = perf_counter()
    try:
        while not passes or perf_counter() - begin < seconds:
            tracer.reset()
            pass_s = 0.0
            counts = []
            for job in jobs:
                tracer.brute_partitions = job.brute_partitions
                before = dict(tracer.counts)
                elapsed, _, data, problem = run_command(cli, job, tracer)
                pass_s += elapsed
                counts.append({k: tracer.counts[k] - before[k] for k in EXACT_COUNTS})
                if record and data is not None and not passes:
                    records[job.inst.name] = {"sha256": hashlib.sha256(data).hexdigest()}
                tally.add(job, problem)
            passes.append(tracer.pass_metrics(pass_s))
            pass_counts.append(counts)
    finally:
        tracer.uninstall()

    measured = [k for k in EXACT_COUNTS if passes[0][k] is not None]
    for index, job in enumerate(jobs):
        first = {k: pass_counts[0][index][k] for k in measured}
        if any({k: c[index][k] for k in measured} != first for c in pass_counts):
            tally.fail(job, "counts changed between passes")
        elif job.counts is not None and {k: job.counts[k] for k in measured} != first:
            tally.fail(job, f"counts {first} differ from the recorded {job.counts}")
        if record:
            records.setdefault(job.inst.name, {})["counts"] = first

    metrics = {}
    for name in METRICS:
        values = [p[name] for p in passes]
        metrics[name] = None if values[0] is None else statistics.fmean(values)
    return metrics, records


def write_records(records: dict, seed: int) -> None:
    expected = {"seed": seed, "instances": {}}
    if EXPECTED.exists():
        expected = json.loads(EXPECTED.read_text())
    expected["instances"].update(records)
    expected["instances"] = dict(sorted(expected["instances"].items()))
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


def run_workload(args) -> int:
    cli = import_cli()
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}; "
          "closed loop, 1 client, 1 thread", flush=True)
    print(f"# {machine_info()}", flush=True)

    expected = {}
    if EXPECTED.exists() and args.seed == DEFAULT_SEED and not args.record:
        expected = json.loads(EXPECTED.read_text())["instances"]
    os.chdir(ROOT)  # problem files name the oracle relative to the checkout root
    SCRATCH.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    tally = Tally()
    try:
        jobs = prepare_jobs(args.workload, args.seed, work, expected)
        if args.trace or args.record:
            metrics, records = measure_layers(cli, jobs, args.seconds, tally, args.record)
            units = table = {name: unit for name, (unit, _) in METRICS.items()}
            notes = {"generic.sign_queries": "computed as C(n, k+1)(n-k-1) per mask stage"}
        else:
            setup, raw_setup = measure_setup(args.workload, args.seed, work)
            metrics, notes = measure_end_to_end(cli, jobs, args.seconds, tally)
            metrics["setup_s"] = setup
            metrics["raw_setup_s"] = raw_setup
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units, table = END_TO_END, {**END_TO_END, **AS_MEASURED}
            notes["setup_s"] = (f"CPU time, median of {SETUP_PROBES} fresh processes, "
                                "at the reference speed")
            notes["raw_setup_s"] = "setup_s as measured"
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if SCRATCH.exists() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()
    if args.record:
        write_records(records, args.seed)

    for name, unit in table.items():
        value = metrics[name]
        shown = "unmeasured" if value is None else f"{value:.6g} {unit}"
        print(f"{name:30s} {shown:24s} {notes.get(name, '')}")
    print(f"{'failed_share':30s} {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} commands)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: ({"value": None, "unit": unit, "status": "unmeasured"} if metrics[name] is None
                   else {"value": metrics[name], "unit": unit})
            for name, unit in units.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process); one summary line."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(summary), flush=True)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--record", action="store_true",
                        help=f"rewrite bench/expected.json entries (use with --seed {DEFAULT_SEED})")
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
