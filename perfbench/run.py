"""Benchmark of the scrollfiber command line: certify, oracle and batch.

Run from the repository root:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 10 --trace 0

Load model: a closed loop with one client.  Every operation is a fresh
``python -m scrollfiber.cli`` process, and the next one starts only after
the previous one has exited, so lazy caches are cold for each operation as
they are for a user.  The generator itself runs one child at a time.

With ``--trace 0`` the run measures the end-to-end metrics: a warm-up pass
over the workload's operations (untimed), then timed passes until
``--seconds`` of timed work is done (at least one).  Every output is checked
against recorded values, and each timed output must be byte-identical to
the warm-up output of the same operation.  With ``--trace 1`` the run makes
one untimed-reference pass, then calls the layers' public functions for each
spec in a fresh process (``layers.py``) and reports the per-layer metrics.

The last stdout line is one JSON object: correct, attempted, failed, metrics.
``failed / attempted`` is the error rate.  See README.md for the workloads
and for which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

from expected import (
    INVARIANTS,
    check_batch_csv,
    check_invariants,
    check_layers,
    check_verify,
    spec_tag,
)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"

# A run must end within 180 s: no operation starts after RUN_BUDGET_S, and
# no further timed pass starts unless it fits before PASS_BUDGET_S.
RUN_BUDGET_S = 170.0
PASS_BUDGET_S = 150.0
SETUP_SAMPLES = 9

CERTIFY_SPECS = ((12,), (2, 2, 4, 4), (2, 2, 2, 2, 2, 2))
# (n, t_max, modulus); None is the CLI's default prime.
ORACLE_CASES = (
    ((5,), 5, None),
    ((2, 4), 3, None),
    ((6,), 4, None),
    ((8,), 3, None),
    ((4, 5), 3, None),
    ((2, 3, 4), 3, None),
    ((2, 6), 3, "rational"),
)
# Batch lines follow the pattern A B C D A P B Q: 6 computed lines, 2 of them
# repeats of an earlier spec, and 2 prediction-only.  The seed only decides
# which member of each pair below takes which letter.  A free shuffle would
# change the work: with 4 threads, a repeat that starts while its first copy
# still runs is computed twice, and free orders measured 12.2-16.4 s and
# 75-91 MB peak RSS for the same eight lines.
BATCH_PAIRS = (("12", "2,10"), ("3,3,4", "2,2,2,4"), ("3", "1,1,1,1"))
BATCH_PATTERN = "ABCDAPBQ"
HILBERT_WINDOW = 5
DEFAULT_PRIME = "2147483647"

LAYER_TIMES = (
    "facet_complex.enumerate_s",
    "dual_quotients.certify_s",
    "invariants.face_walk_s",
    "invariants.hilbert_check_s",
    "oracle.build_s",
    "oracle.rank_modp_s",
    "oracle.rank_rational_s",
)
LAYER_RSS = ("facet_complex.rss_mb", "dual_quotients.rss_mb", "invariants.rss_mb", "oracle.rss_mb")
LAYER_COUNTS = (
    "facet_complex.facets",
    "dual_quotients.nonlinear_reports",
    "invariants.faces_visited",
    "oracle.rows",
    "oracle.cols",
    "oracle.nnz",
    "oracle.dense_cells",
)


def _csv(n: tuple[int, ...]) -> str:
    return ",".join(str(v) for v in n)


@dataclass(frozen=True)
class Op:
    """One CLI invocation (expected to exit 0) and its output check."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes], list[str]]


@dataclass(frozen=True)
class TraceJob:
    """One traced spec: face walk up to ``window``, oracle up to ``t_max``."""

    n: tuple[int, ...]
    window: int
    t_max: int = 0
    modulus: str = DEFAULT_PRIME


@dataclass
class Sample:
    wall: float
    cpu: float
    rss_mb: float
    code: int | None
    stdout: bytes
    stderr: bytes


@dataclass
class Tally:
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0

    def record(self, name: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems[:5]]
        return not problems


def build_ops(workload: str, rng: random.Random) -> tuple[list[Op], list[TraceJob]]:
    """The workload's operations in seed order, and its traced specs."""
    if workload == "certify":
        ops = [
            Op(f"invariants {spec_tag(n)}", ("invariants", "--n", _csv(n), "--format", "json"),
               partial(check_invariants, n))
            for n in CERTIFY_SPECS
        ]
        jobs = [TraceJob(n, HILBERT_WINDOW) for n in CERTIFY_SPECS]
    elif workload == "oracle":
        ops, jobs = [], []
        for n, t_max, modulus in ORACLE_CASES:
            argv = ("verify", "--n", _csv(n), "--t-max", str(t_max), "--format", "json")
            if modulus:
                argv += ("--modulus", modulus)
            ops.append(Op(f"verify {spec_tag(n)} t={t_max}", argv, partial(check_verify, n, t_max)))
            jobs.append(TraceJob(n, max(t_max, 1), t_max, modulus or DEFAULT_PRIME))
    else:
        letters = {}
        for pair, names in zip(BATCH_PAIRS, ("AB", "CD", "PQ")):
            letters.update(zip(names, rng.sample(pair, 2)))
        lines = [letters[letter] for letter in BATCH_PATTERN]
        WORK.mkdir(exist_ok=True)
        path = WORK / "batch.txt"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        ops = [Op("batch", ("batch", str(path)), partial(check_batch_csv, lines))]
        computed = [tuple(int(v) for v in line.split(",")) for line in lines]
        computed = [n for n in dict.fromkeys(computed) if n in INVARIANTS]
        jobs = [TraceJob(n, HILBERT_WINDOW) for n in computed]
        return ops, jobs
    order = list(range(len(ops)))
    rng.shuffle(order)
    return [ops[i] for i in order], [jobs[i] for i in order]


class _Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Timeout


def spawn(command: list[str], deadline: float) -> Sample:
    """Run one child to completion; its own rusage comes from ``wait4``."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return Sample(0.0, 0.0, 0.0, None, b"", b"")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    WORK.mkdir(exist_ok=True)
    out_path, err_path = WORK / "stdout", WORK / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err, cwd=ROOT, env=env)
        try:
            signal.setitimer(signal.ITIMER_REAL, timeout)
            _, status, usage = os.wait4(proc.pid, 0)
            code = os.waitstatus_to_exitcode(status)
        except BaseException as exc:
            # Time-out or interrupt: the child is killed and reaped either way.
            signal.setitimer(signal.ITIMER_REAL, 0)
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            if not isinstance(exc, _Timeout):
                raise
            code = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - start
        proc.returncode = -1 if code is None else code  # reaped here, not by Popen
    return Sample(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        code=code,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )


def _exit_problems(sample: Sample) -> list[str]:
    if sample.code is None:
        return ["timed out, or not started because the run budget was spent"]
    if sample.code != 0:
        tail = sample.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return [f"exit code {sample.code}, expected 0 {tail}"]
    return []


def run_op(op: Op, tally: Tally, deadline: float, reference: bytes | None) -> Sample:
    sample = spawn([sys.executable, "-m", "scrollfiber.cli", *op.argv], deadline)
    problems = _exit_problems(sample)
    if sample.code is not None:
        problems += op.check(sample.stdout)
        if reference is not None and sample.stdout != reference:
            problems.append("stdout differs from the warm-up run of the same operation")
    tally.record(op.name, problems)
    return sample


def run_pass(ops: list[Op], tally: Tally, deadline: float,
             reference: list[Sample] | None = None) -> tuple[float, list[Sample]]:
    """All operations back to back; returns the pass wall time and samples."""
    start = time.perf_counter()
    samples = [
        run_op(op, tally, deadline, None if reference is None else reference[i].stdout)
        for i, op in enumerate(ops)
    ]
    return time.perf_counter() - start, samples


def measure_setup(deadline: float) -> list[float]:
    """Fresh interpreter plus ``import scrollfiber``; the first, which may
    write bytecode caches, is not counted."""
    command = [sys.executable, "-c", "import scrollfiber"]
    times = []
    for i in range(SETUP_SAMPLES + 1):
        sample = spawn(command, deadline)
        if sample.code != 0:
            raise SystemExit(
                "perfbench: cannot import scrollfiber: "
                + sample.stderr.decode(errors="replace").strip()[-500:]
            )
        if i:
            times.append(sample.wall)
    return times


def tail_summary(values: list[float]) -> str:
    """Median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"median {statistics.median(ordered):.4f}"
    if n > 10:
        text += f", p{100 * (n - 10) / n:.0f} {ordered[n - 11]:.4f}"
    else:
        text += ", no tail percentile (needs more than 10 samples)"
    return text + f", n={n}"


def end_to_end(ops: list[Op], passes: list[tuple[float, list[Sample]]],
               setup: list[float]) -> tuple[dict, list[str]]:
    walls = [wall for wall, _ in passes]
    max_ops = [max(s.wall for s in samples) for _, samples in passes]
    cpus = [sum(s.cpu for s in samples) for _, samples in passes]
    rss = [max(s.rss_mb for s in samples) for _, samples in passes]
    values = {
        "wall_s": (walls, "s"),
        "max_op_s": (max_ops, "s"),
        "cpu_s": (cpus, "s"),
        "peak_rss_mb": (rss, "MB"),
        "setup_s": (setup, "s"),
    }
    report = [f"{'operation':<26} {'wall_s':>9} {'cpu_s':>9} {'max_rss_mb':>10}"]
    for i, op in enumerate(ops):
        report.append(
            f"{op.name:<26} {statistics.median(s[i].wall for _, s in passes):>9.3f} "
            f"{statistics.median(s[i].cpu for _, s in passes):>9.3f} "
            f"{max(s[i].rss_mb for _, s in passes):>10.1f}"
        )
    metrics = {}
    for name, (samples, unit) in values.items():
        metrics[name] = {"value": statistics.median(samples), "unit": unit}
        if unit == "s":
            report.append(f"{name} {metrics[name]['value']} {unit} ({tail_summary(samples)})")
        else:
            report.append(f"{name} {metrics[name]['value']} {unit} (median of {len(samples)})")
    return metrics, report


def _child_report(sample: Sample) -> tuple[dict | None, list[str]]:
    """Exit status and the JSON line a ``layers.py`` child printed."""
    problems = _exit_problems(sample)
    if problems:
        return None, problems
    try:
        return json.loads(sample.stdout.decode().strip().splitlines()[-1]), []
    except (ValueError, IndexError) as exc:
        return None, [f"unreadable output of layers.py: {exc}"]


def run_trace(jobs: list[TraceJob], tally: Tally, deadline: float) -> tuple[dict, float, list[str]]:
    """One fresh process per spec; sums times and counts, takes max RSS."""
    totals = {name: 0.0 for name in LAYER_TIMES + LAYER_RSS}
    totals.update({name: 0 for name in LAYER_COUNTS})
    per_spec: list[tuple[TraceJob, dict]] = []
    traced_wall = 0.0
    for job in jobs:
        sample = spawn([sys.executable, str(BENCH / "layers.py"), "spec", _csv(job.n),
                        str(job.window), str(job.t_max), job.modulus], deadline)
        traced_wall += sample.wall
        report, problems = _child_report(sample)
        if report is not None:
            problems += check_layers(job.n, job.t_max, report)
        if not tally.record(f"trace {spec_tag(job.n)}", problems):
            continue
        per_spec.append((job, report))
        for key in LAYER_TIMES:
            totals[key] += report["times"][key]
        for key in LAYER_COUNTS:
            totals[key] += report["counts"][key]
        for key in LAYER_RSS:
            totals[key] = max(totals[key], report["rss"][key])
    return totals, traced_wall, _trace_table(per_spec)


def _trace_table(per_spec: list[tuple[TraceJob, dict]]) -> list[str]:
    """Per-spec layer times in the columns of the ROADMAP baseline table,
    then every per-spec metric by name."""
    lines = [f"{'spec':<16} {'c,d':<6} {'facets':>7} {'enum':>8} {'verify':>8} "
             f"{'face walk':>14} {'peak RSS':>9}  oracle build+rank per degree"]
    entries = []
    for job, report in per_spec:
        times, counts = report["times"], report["counts"]
        oracle = " ".join(f"t={t} {spent:.2f} s" for t, spent in report["oracle_by_degree"])
        label = f"({_csv(job.n)}{',' if len(job.n) == 1 else ''})"
        lines.append(
            f"{label:<16} {sum(job.n)},{len(job.n):<4} {counts['facet_complex.facets']:>7} "
            f"{times['facet_complex.enumerate_s']:>6.2f} s {times['dual_quotients.certify_s']:>6.2f} s "
            f"{times['invariants.face_walk_s']:>6.2f} s (<={job.window}) "
            f"{max(report['rss'].values()):>6.0f} MB  {oracle or '-'}"
        )
        tag = spec_tag(job.n)
        entries += [f"{key}.{tag} {value} s" for key, value in times.items()]
        entries += [f"{key}.{tag} {value} MB" for key, value in report["rss"].items()]
        entries += [f"{key}.{tag} {value} count" for key, value in counts.items()]
    return lines + entries


def batch_ratio(ops: list[Op], tally: Tally, deadline: float) -> float:
    """``main(["batch", FILE])`` over the same lines run one ``invariants``
    call after another, each side in its own fresh process."""
    path = ops[0].argv[1]
    lines = Path(path).read_text(encoding="utf-8").split()
    seconds = {}
    for mode in ("batch", "serial"):
        sample = spawn([sys.executable, str(BENCH / "layers.py"), "cli", path, mode], deadline)
        report, problems = _child_report(sample)
        if report is not None:
            seconds[mode] = report["seconds"]
            if mode == "batch":
                code, stdout = report["results"][0]
                problems += [] if code == 0 else [f"batch exit code {code}"]
                problems += check_batch_csv(lines, stdout.encode())
            else:
                for line, (code, stdout) in zip(lines, report["results"]):
                    n = tuple(int(v) for v in line.split(","))
                    want = 0 if n in INVARIANTS else 3
                    problems += [] if code == want else [f"{line}: exit code {code}, expected {want}"]
                    problems += check_invariants(n, stdout.encode())
        tally.record(f"cli {mode}", problems)
    if len(seconds) < 2:
        return 0.0
    return seconds["batch"] / seconds["serial"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("certify", "oracle", "batch"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="minimum timed duration; whole passes repeat until reached")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "scrollfiber" / "__init__.py").is_file():
        print(f"perfbench: no scrollfiber sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + RUN_BUDGET_S
    rng = random.Random(args.seed)
    ops, jobs = build_ops(args.workload, rng)
    tally = Tally()
    setup = measure_setup(deadline)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: closed loop, "
          "1 client, 1 operation at a time, each a fresh CLI process")
    if args.trace == 0:
        _, warm = run_pass(ops, tally, deadline)
        passes = []
        while True:
            passes.append(run_pass(ops, tally, deadline, reference=warm))
            measured = sum(wall for wall, _ in passes)
            next_end = time.monotonic() + passes[-1][0]
            if measured >= args.seconds or next_end > started + PASS_BUDGET_S:
                break
        metrics, report = end_to_end(ops, passes, setup)
    else:
        base_wall, _ = run_pass(ops, tally, deadline)
        metrics, traced_wall, report = run_trace(jobs, tally, deadline)
        metrics["cli.batch.wall_over_serial"] = (
            batch_ratio(ops, tally, deadline) if args.workload == "batch" else 0.0
        )
        # Both passes start one interpreter per operation, except batch,
        # whose single process is traced as one process per distinct spec.
        extra_interpreters = len(jobs) - len(ops)
        metrics["trace.overhead_s"] = (
            traced_wall - base_wall - extra_interpreters * statistics.median(setup)
        )
        report.append(f"untraced pass {base_wall:.4f} s, traced pass {traced_wall:.4f} s")
        units = {**dict.fromkeys(LAYER_TIMES, "s"), **dict.fromkeys(LAYER_RSS, "MB"),
                 **dict.fromkeys(LAYER_COUNTS, "count"),
                 "cli.batch.wall_over_serial": "ratio", "trace.overhead_s": "s"}
        metrics = {name: {"value": metrics[name], "unit": units[name]} for name in units}
        report += [f"{name} {m['value']} {m['unit']}" for name, m in metrics.items()]

    print("\n".join(report))
    error_rate = tally.failed / tally.attempted
    print(f"error_rate {error_rate} ratio ({tally.failed} failed / {tally.attempted} attempted)")
    for problem in tally.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
