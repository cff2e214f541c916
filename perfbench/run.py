"""Benchmark of the ``tailsum`` command line, run in-process.

    python3 perfbench/run.py --workload estimate-file --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; it imports ``tailsum`` from
``src/`` and exits with status 2 when that is missing.  Each workload is a
closed loop: one client calls ``tailsum.cli.main`` with the next command only
after the previous one has returned and written its output file.  Commands
run in whole cycles of the workload's list until ``--seconds`` have passed,
so every run holds the same mix.  Every output is checked; an operation
fails on a non-zero exit code, an exception or a failed check.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median time for a fresh interpreter to import ``tailsum.cli``), the median
and 90th percentile of the operation time, Monte Carlo replications per
second (operations per second on the workloads without replications) and
peak resident memory.  With ``--trace 1`` it spends half of ``--seconds``
untraced and half traced (see ``spans.py``) and reports per-operation layer
metrics.  All times are rescaled to a reference machine speed (see
``calibrate.py``).  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import spans
import workloads
from calibrate import REFERENCE_S, Calibrator

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
IMPORT_SAMPLES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_setup_time(calibrator):
    """Median time, at reference speed, for a fresh interpreter to import
    ``tailsum.cli``, after one unmeasured import that fills the bytecode
    and file caches."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    cmd = [sys.executable, "-c", "import tailsum.cli"]
    intervals = []
    for i in range(IMPORT_SAMPLES + 1):
        calibrator.sample(force=True)
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True, timeout=120)
        if i:
            intervals.append((start, time.perf_counter()))
    calibrator.sample(force=True)
    return statistics.median((end - start) * calibrator.scale(start, end) for start, end in intervals)


@dataclass(frozen=True)
class OpResult:
    op: int
    start: float
    end: float
    cpu: float  # process CPU seconds, all threads
    reps: int  # replications completed; 0 when the operation failed
    ok: bool


class Runner:
    def __init__(self, cli, workload, out_path, calibrator):
        self.cli = cli
        self.workload = workload
        self.out_path = out_path
        self.calibrator = calibrator
        self.cycle = 0
        self.next_op = 0
        self.problems = []  # (op label, message), first few only

    def run(self, budget, tracer=None):
        """Whole cycles until ``budget`` seconds have passed."""
        results = []
        start = time.perf_counter()
        while True:
            for op in self.workload.ops(self.cycle):
                self.calibrator.sample()
                results.append(self._run_op(op, tracer))
            self.cycle += 1
            if time.perf_counter() - start >= budget:
                self.calibrator.sample(force=True)
                return results

    def _run_op(self, op, tracer):
        argv = [*op.argv, "--output", str(self.out_path)]
        self.out_path.unlink(missing_ok=True)
        op_id = self.next_op
        self.next_op += 1
        if tracer is not None:
            tracer.op = op_id
        stderr = io.StringIO()
        failure = None
        with contextlib.redirect_stderr(stderr):
            cpu0, t0 = time.process_time(), time.perf_counter()
            try:
                code = self.cli.main(argv)
            except (Exception, SystemExit) as exc:
                code, failure = None, f"raised {type(exc).__name__}: {exc}"
            t1, cpu1 = time.perf_counter(), time.process_time()
        if failure is None and code != 0:
            failure = f"exit code {code}: {stderr.getvalue().strip()}"
        if failure is None:
            try:
                problems = op.check(self.out_path.read_text(encoding="utf-8"))
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output ({type(exc).__name__}: {exc})"]
            if problems:
                failure = "; ".join(problems[:3])
        if failure is not None and len(self.problems) < 5:
            self.problems.append((op.label, failure))
        return OpResult(op_id, t0, t1, cpu1 - cpu0, op.reps if failure is None else 0, failure is None)


def timing_metrics(results, calibrator):
    """op_p50_s, op_p90_s and reps_per_s at reference speed, with report lines."""
    raw = [r.end - r.start for r in results]
    durations = sorted(d * calibrator.scale(r.start, r.end) for d, r in zip(raw, results))
    n = len(durations)
    p50 = statistics.median(durations)
    p90 = statistics.quantiles(durations, n=10, method="inclusive")[8] if n > 1 else durations[0]
    beyond = sum(d > p90 for d in durations)
    reps_per_s = sum(r.reps for r in results) / sum(durations)
    lines = [
        f"op_p50_s     = {p50:.6g} s   (median of {n} ops; {statistics.median(raw):.6g} s unscaled)",
        f"op_p90_s     = {p90:.6g} s   ({n} ops, {beyond} above it"
        + ("; fewer than ten, so it is close to the maximum)" if beyond < 10 else ")"),
        f"reps_per_s   = {reps_per_s:.6g} 1/s (replications completed / {sum(durations):.3f} s"
        " of operation time; one per operation outside mc)",
    ]
    return {"op_p50_s": p50, "op_p90_s": p90, "reps_per_s": reps_per_s}, lines


def machine_facts():
    cpu = platform.machine()
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    digest = hashlib.sha256()
    for path in sorted((SRC / "tailsum").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": git_commit(),
        "tailsum_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tailsum" / "cli.py").is_file():
        print(f"perfbench: no tailsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tailsum import cli

    if Path(cli.__file__).resolve().parent != SRC / "tailsum":
        print(f"perfbench: imported tailsum from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    facts = machine_facts()
    calibrator = Calibrator()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        runner = Runner(cli, workload, workdir / "output", calibrator)
        if args.trace == 0:
            setup_s = import_setup_time(calibrator)
            results = runner.run(args.seconds)
            timing, timing_lines = timing_metrics(results, calibrator)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup_s, "s"),
                "op_p50_s": (timing["op_p50_s"], "s"),
                "op_p90_s": (timing["op_p90_s"], "s"),
                "reps_per_s": (timing["reps_per_s"], "1/s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            lines = [
                f"setup_s      = {setup_s:.6g} s   (median of {IMPORT_SAMPLES} fresh imports of tailsum.cli)",
                *timing_lines,
                f"peak_rss_mb  = {peak_rss_mb:.6g} MB  (this process, one workload)",
            ]
        else:
            untraced = runner.run(args.seconds / 2)
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = runner.run(args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            results = untraced + traced
            scale = {r.op: calibrator.scale(r.start, r.end) for r in traced}
            metrics, nesting = spans.layer_metrics(tracer.spans, scale)
            cpu_per_wall = sum(r.cpu for r in untraced) / sum(r.end - r.start for r in untraced)
            overhead = (
                timing_metrics(traced, calibrator)[0]["op_p50_s"]
                / timing_metrics(untraced, calibrator)[0]["op_p50_s"]
            )
            metrics["process.cpu_per_wall"] = (cpu_per_wall, "ratio")
            metrics["trace.overhead"] = (overhead, "ratio")
            lines = [f"{name:32s} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
            lines.append(
                f"({len(traced)} traced ops, {len(tracer.spans)} spans,"
                f" {nesting} not nested under their cli.main span; times are self times per op)"
            )
            lines += [f"note: {note}" for note in tracer.notes]
        lines.append(
            f"times are rescaled to reference speed: calibration kernel median"
            f" {calibrator.median_kernel_s() * 1e3:.2f} ms, reference {REFERENCE_S * 1e3:.2f} ms"
        )

        failed = sum(not r.ok for r in results)
        print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
        print(f"ops attempted={len(results)} failed={failed} error_rate={failed / len(results):.6g}")
        for label, message in runner.problems:
            print(f"failure [{label}]: {message}")
        for line in lines:
            print(line)
        for finding in workload.findings():
            print(f"finding: {finding}")
        result = {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
