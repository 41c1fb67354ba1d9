"""The splinedim benchmark: exact-dimension CLI jobs, end to end and per layer.

usage: python3 perfbench/run.py --workload {table2,ps6x2,star_hd} --seed N
                                --seconds S --trace {0,1}

Run from the root of a source checkout; nothing needs to be installed.  The
harness is a closed loop with one client: it runs each job of the workload
as a fresh `python3 -m splinedim.cli` process, one at a time, and waits for
it before starting the next.  A fresh process per job matters, because
`euler_assembly` memoizes reports for the life of a process, so a repeated
call in one process would time a dict lookup.

--trace 0 sets up the workload several times, then repeats passes over its
jobs for about S seconds and prints the end-to-end metrics, medians over
passes: the pass's job wall times and job CPU times, each job's divided by
the mean time of the reference kernel (reference.py) timed just before and
just after it, then summed, so that the machine's speed drift cancels; the
largest job RSS (CPU and RSS of each child come from os.wait4); the median
set-up time; and the share of jobs that succeeded.
The raw times are printed and recorded too.

--trace 1 runs one untraced pass, then the set-up and one pass again under
the per-layer tracer (tracer.py), and prints the per-layer metrics with the
traced-over-untraced wall time ratio.

Every job's rows are compared with the golden rows (workloads.py) and with
the closed forms computed at set-up.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; each
run also writes a record with the git revision, Python version, core count
and the per-layer baseline to .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import reference
import tracer
from workloads import COLUMNS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

SETUP_REPEATS = 9
RUN_BUDGET_S = 170.0  # the whole run, set-up included, ends within 180 s

END_TO_END = (
    ("wall_ref", "ref"),
    ("cpu_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_ratio", "ratio"),
)
# printed and recorded, not reported: raw pass times and the reference's time
RAW_UNITS = {"wall_s": "s", "cpu_s": "s", "reference_s": "s"}


class RunError(RuntimeError):
    """The run cannot produce a result (set-up failed or the deadline passed)."""


@dataclass
class Proc:
    """One finished child process."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


class Harness:
    def __init__(self, workload_name: str, seed: int, trace: bool):
        self.workload = workload_name
        self.jobs = WORKLOADS[workload_name]
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.dir = WORK / f"{workload_name}-{seed}-{int(trace)}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def spawn(self, argv: list[str]) -> Proc:
        """Run argv to completion (killed at the run's deadline)."""
        out_path, err_path = self.dir / "stdout", self.dir / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)

            def kill(_signum, _frame):
                os.kill(proc.pid, signal.SIGKILL)

            previous = signal.signal(signal.SIGALRM, kill)
            signal.setitimer(signal.ITIMER_REAL, max(self.remaining(), 0.01))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            rss_mb=usage.ru_maxrss / 1024,  # ru_maxrss is in KiB on Linux
            code=proc.returncode,
            stdout=out_path.read_bytes(),
            stderr=err_path.read_bytes(),
        )

    # -- set-up -------------------------------------------------------------

    def build(self) -> None:
        """Byte-compile the package, so set-up times exclude compilation."""
        proc = self.spawn([sys.executable, "-m", "compileall", "-q", str(SRC)])
        if proc.code != 0:
            raise RunError(f"compileall failed: {proc.stderr.decode()[-2000:]}")

    def setup(self, traced: bool = False) -> Proc:
        """Write the workload's meshes and closed-form values to self.dir/meshes."""
        args = ["--workload", self.workload, "--seed", str(self.seed)]
        if traced:
            trace_out = self.dir / "trace-setup.json"
            argv = [sys.executable, str(HERE / "traced.py"), str(trace_out), "setup"]
            args += ["--out", str(self.dir / "meshes-traced")]
        else:
            argv = [sys.executable, str(HERE / "make_meshes.py")]
            args += ["--out", str(self.dir / "meshes")]
        proc = self.spawn(argv + args)
        if proc.code != 0:
            raise RunError(f"set-up failed ({proc.code}): {proc.stderr.decode()[-2000:]}")
        return proc

    # -- jobs ---------------------------------------------------------------

    def check(self, job, proc: Proc, oracle: dict) -> str | None:
        """None if the job's output is right, else the reason it is not."""
        if proc.code != 0:
            return f"exit code {proc.code}: {proc.stderr.decode()[-500:]}"
        try:
            rows = json.loads(proc.stdout)["rows"]
            got = tuple(tuple(row.get(c) for c in COLUMNS) for row in rows)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"unreadable output ({exc}): {proc.stdout[:200]!r}"
        if got != job.golden:
            return f"rows {got} differ from golden {job.golden}"
        exact = {row[0]: row[5] for row in got}
        for d, value in oracle[job.name].items():
            if exact.get(int(d)) != value:
                return f"exact at d={d} is {exact.get(int(d))}, closed form gives {value}"
        return None

    def run_reference(self) -> tuple[float, float]:
        """(wall s, CPU s) of one call of the reference kernel in this process."""
        wall, cpu = time.perf_counter(), time.process_time()
        rank = reference.kernel()
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        if rank != reference.RANK:
            raise RunError(f"reference kernel gave rank {rank}, expected {reference.RANK}")
        return wall, cpu

    def run_pass(self, oracle: dict, traced: bool = False) -> dict | None:
        """One pass over the workload's jobs; None if the deadline cut it.

        The reference kernel runs before every job and after the last; each
        job's time is divided by the mean of the two reference times around
        it, so a long job is scaled by the machine speed of its own stretch.
        """
        procs = []
        inconsistencies = 0
        dumps = []
        refs = []
        for k, job in enumerate(self.jobs):
            if self.remaining() <= 0:
                return None
            refs.append(self.run_reference())
            argv = job.argv(str(self.dir / "meshes" / f"{job.name}.json"))
            if traced:
                trace_out = self.dir / f"trace-job{k}.json"
                proc = self.spawn([sys.executable, str(HERE / "traced.py"), str(trace_out), "cli", *argv])
            else:
                proc = self.spawn([sys.executable, "-m", "splinedim.cli", *argv])
            self.attempted += 1
            problem = self.check(job, proc, oracle)
            if problem is not None:
                self.failed += 1
                print(f"FAIL {self.workload} job {k} ({job.name}): {problem}", file=sys.stderr)
            inconsistencies += proc.code == 2
            if traced and proc.code in (0, 2):
                dumps.append(json.loads(trace_out.read_text()))
            procs.append(proc)
        refs.append(self.run_reference())
        around = list(zip(refs, refs[1:]))
        return {
            "wall_s": sum(p.wall_s for p in procs),
            "cpu_s": sum(p.cpu_s for p in procs),
            "peak_rss_mb": max(p.rss_mb for p in procs),
            "wall_ref": sum(2 * p.wall_s / (a[0] + b[0]) for p, (a, b) in zip(procs, around)),
            "cpu_ref": sum(2 * p.cpu_s / (a[1] + b[1]) for p, (a, b) in zip(procs, around)),
            "reference_s": statistics.fmean(w for w, _ in refs),
            "inconsistencies": inconsistencies,
            "dumps": dumps,
        }

    def load_oracle(self) -> dict:
        return json.loads((self.dir / "meshes" / "oracle.json").read_text())

    # -- modes --------------------------------------------------------------

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        setups = [self.setup().wall_s for _ in range(SETUP_REPEATS)]
        oracle = self.load_oracle()
        passes = []
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            result = self.run_pass(oracle)
            if result is None:
                break
            passes.append(result)
            elapsed = time.perf_counter() - start
            last = time.perf_counter() - pass_start
            # start another pass only if it should end within the window
            if elapsed + last > seconds or last > self.remaining():
                break
        if not passes:
            raise RunError("no pass finished before the run's deadline")
        samples = {
            name: [p[name] for p in passes]
            for name in ("wall_ref", "cpu_ref", "peak_rss_mb", "wall_s", "cpu_s", "reference_s")
        }
        samples["setup_s"] = setups
        medians = {name: statistics.median(values) for name, values in samples.items()}
        medians["ok_ratio"] = (self.attempted - self.failed) / self.attempted
        return medians, samples

    def per_layer(self) -> tuple[dict, dict]:
        self.setup()
        oracle = self.load_oracle()
        plain = self.run_pass(oracle)
        traced_setup = self.setup(traced=True)
        traced = self.run_pass(oracle, traced=True) if plain else None
        if traced is None:
            raise RunError("the traced run did not finish before its deadline")
        setup_dump = json.loads((self.dir / "trace-setup.json").read_text())
        total = tracer.merge([setup_dump, *traced["dumps"]])
        metrics = tracer.per_layer_metrics(
            total, traced["inconsistencies"], traced["wall_s"] / plain["wall_s"]
        )
        samples = {
            "untraced_wall_s": [plain["wall_s"]],
            "traced_wall_s": [traced["wall_s"]],
            "traced_setup_s": [traced_setup.wall_s],
        }
        return metrics, samples


def git_revision() -> str:
    """HEAD's commit id read from .git without running git; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def report(samples: dict, metrics: dict, units: dict) -> None:
    """Human-readable lines: median, quartiles and sample count per metric."""
    for name, value in metrics.items():
        values = samples.get(name, [value])
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = q3 = value
        print(f"{name:36s} {value:12.6g} {units[name]:6s} q1 {q1:.6g}  q3 {q3:.6g}  n={len(values)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="splinedim benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "splinedim" / "cli.py").is_file():
        print(f"error: no splinedim sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 1
    harness = Harness(args.workload, args.seed, bool(args.trace))
    harness.dir.mkdir(parents=True, exist_ok=True)
    try:
        harness.build()
        if args.trace:
            metrics, samples = harness.per_layer()
            units = {name: unit for name, unit, _ in tracer.PER_LAYER}
            reported = list(units)
        else:
            metrics, samples = harness.end_to_end(args.seconds)
            reported = [name for name, _ in END_TO_END]
            units = {**dict(END_TO_END), **RAW_UNITS}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(harness.dir, ignore_errors=True)

    failed, attempted = harness.failed, harness.attempted
    print(f"workload {args.workload}  seed {args.seed}  jobs {attempted}  failed {failed}  "
          f"fail_ratio {failed / attempted:.6g}")
    report(samples, metrics, units)
    baseline = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "samples": samples,
        "per_layer_baseline": baseline.get("per_layer", {}).get(args.workload),
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (results / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in reported},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
