"""Certification benchmark for coxsaito.

    python3 perfbench/run.py --workload quad-rank3 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  One client issues `coxsaito run` jobs one
at a time, each in a fresh worker process (a closed loop with one client,
sized for two cores: the worker computes while the client waits), then
re-verifies the report the job wrote with `certs.verify_report_file`.

A run first issues every job of the workload once.  Then, until `--seconds`
have elapsed (and at least MIN_ROUNDS times), a round re-issues every job
and re-verifies each check of every report, so that
each job and each check is timed many times across the whole run, on each
CPU in turn.  run_s sums, over jobs, the fastest run of each; verify_s sums,
over the checks of every report, the fastest `verify_report_file` on a copy
of the report that holds that check alone.  On a shared host each CPU can
run at about half speed for seconds at a time while another tenant is busy
on it; that moves a median, while the fastest of many short timings spread
over the run moves far less.  setup_s is the median over every worker.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` one
untraced and one traced pass give the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result.

Correctness gate: every job that finishes must report `pass` on every check
and its report must re-verify; a copy of one report with one cofactor
changed must fail verification.  A job that crashes, times out or exits
non-zero counts as failed without stopping the run.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import TRACE_EXEMPT, WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
MIN_ROUNDS = 2  # rounds after the first pass, however long that took
VERIFY_PER_ROUND = 3  # verifications of every check in each round
JOB_TIMEOUT_S = 150
RUN_DEADLINE_S = 170  # every job is stopped by then, so a run ends within 180 s


def host_info():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


class Client:
    """Runs jobs in fresh workers and keeps the run's counts and samples."""

    def __init__(self, work, deadline):
        from coxsaito.certs import verify_report_file

        self.verify = verify_report_file
        self.work = work
        self.deadline = deadline
        self.setup = []  # seconds from spawn to coxsaito imported + Workspace built
        self.rss_kb = []
        self.attempted = 0
        self.failed = 0
        self.errors = []  # (type, last error line) of failed jobs
        self.incorrect = []  # outputs that disagree with the known answer
        self.reports = []  # every report that re-verified
        self.snapshots = []
        self.serial = 0
        self.cpus = sorted(os.sched_getaffinity(0))

    def cpu_for(self, repeat):
        """The CPU for a step's repeat-th timing.  Each CPU of a shared host
        runs at about half speed for seconds at a time while another tenant
        is busy on it, independently of the others, and a process left
        unpinned tends to stay on one CPU; so a step's repeats take the
        CPUs in turn, and its fastest timing is not set by one busy CPU."""
        return self.cpus[repeat % len(self.cpus)]

    def spawn(self, job, trace, cpu):
        """Start one worker and wait for it; returns (result or None, error
        line, seconds since spawn, spec)."""
        self.serial += 1
        stem = self.work / f"job{self.serial}"
        spec = {"result": f"{stem}.result.json", "report": f"{stem}.report.json",
                "trace": trace, "job": job, "cpu": cpu}
        timeout = min(JOB_TIMEOUT_S, self.deadline - time.monotonic())
        if timeout < 1:
            return None, "not started: run deadline reached", 0.0, spec
        t_spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None, f"timed out after {timeout:.0f} s", time.monotonic() - t_spawn, spec
        elapsed = time.monotonic() - t_spawn
        try:
            with open(spec["result"]) as fh:
                result = json.load(fh)
        except (OSError, ValueError):
            lines = proc.stderr.strip().splitlines() or [f"exit code {proc.returncode}"]
            return None, lines[-1], elapsed, spec
        self.setup.append(result["ready"] - t_spawn)
        self.rss_kb.append(result["peak_rss_kb"])
        return result, result.get("error", ""), elapsed, spec

    def timed_verify(self, report, cpu):
        os.sched_setaffinity(0, {cpu})
        t0 = time.perf_counter()
        ok, failures = self.verify(report)
        return ok, failures, time.perf_counter() - t0

    def run_job(self, job, trace, cpu):
        """One job and the verification of its report; returns (run
        seconds, report path), the path None when no report re-verified."""
        self.attempted += 1
        result, error, elapsed, spec = self.spawn(job, trace, cpu)
        run_s = result["run_s"] if result else elapsed
        if result and "trace" in result:
            self.snapshots.append(result["trace"])
        report = Path(spec["report"])
        if result and result["rc"] is not None and report.exists():
            with open(report) as fh:
                verdicts = [c["verdict"] for c in json.load(fh)["checks"]]
            if not verdicts or any(v != "pass" for v in verdicts):
                self.incorrect.append(f"{job[0]}: verdicts {sorted(set(verdicts))}")
            ok, failures = self.verify(report)
            if ok:
                self.reports.append(report)
            else:
                self.incorrect.append(f"{job[0]}: report does not re-verify: {failures[:3]}")
                error = error or "report does not re-verify"
                report = None
        else:
            error = error or "no report written"
            report = None
        if error:
            self.failed += 1
            self.errors.append((job[0], error))
        return run_s, report

    def run_pass(self, jobs, trace=False):
        """Every job once; returns the sum of their run times."""
        return sum(self.run_job(job, trace, self.cpus[0])[0] for job in jobs)

    @staticmethod
    def split_report(report):
        """The report as one file per check, so that each certificate's
        verification is timed on its own: a short step's fastest timing
        falls within a moment when its CPU ran at full speed."""
        with open(report) as fh:
            doc = json.load(fh)
        paths = []
        for k, check in enumerate(doc["checks"]):
            path = report.with_name(f"{report.stem}.check{k}.json")
            with open(path, "w") as fh:
                json.dump({**doc, "checks": [check]}, fh)
            paths.append(path)
        return paths

    def measure(self, jobs, until):
        """The untraced run: a first pass over the jobs, then rounds until
        `until`.  Returns, per job, its run times, the verification times
        of each check of its report, and its latest report (None if it has
        none)."""
        runs = [[] for _ in jobs]
        checks = [{} for _ in jobs]  # per job: check file -> verification times
        reports = [None] * len(jobs)

        def issue(i):
            job_s, report = self.run_job(jobs[i], False, self.cpu_for(len(runs[i])))
            runs[i].append(job_s)
            if report is not None:
                if reports[i] is None:
                    checks[i] = {path: [] for path in self.split_report(report)}
                reports[i] = report

        for i in range(len(jobs)):
            issue(i)
        rounds, round_s = 0, 0.0
        # the last round must end before the deadline, at which jobs stop
        while rounds < MIN_ROUNDS or time.monotonic() + round_s < until:
            if time.monotonic() + round_s > self.deadline - 10:
                break
            t0 = time.monotonic()
            for i in range(len(jobs)):
                issue(i)
            for _ in range(VERIFY_PER_ROUND):
                for per_check in checks:
                    for path, samples in per_check.items():
                        ok, failures, seconds = self.timed_verify(path, self.cpu_for(len(samples)))
                        if not ok:
                            self.incorrect.append(f"{path.name} does not re-verify: {failures[:3]}")
                        samples.append(seconds)
            round_s = time.monotonic() - t0
            rounds += 1
        return runs, checks, reports

    def tamper_check(self):
        """A copy of one report with one cofactor changed must not verify;
        the smallest report with a witness keeps the check cheap."""
        for path in sorted(self.reports, key=lambda p: p.stat().st_size):
            with open(path) as fh:
                doc = json.load(fh)
            for check in doc["checks"]:
                for item in check["witnesses"]:
                    if item["kind"] != "witness":
                        continue
                    for cof in item["cofactors"]:
                        if cof["terms"]:
                            num, den = cof["terms"][0]["coeff"]["a"]
                            cof["terms"][0]["coeff"]["a"] = [str(int(num) + int(den)), den]
                            bad = self.work / "tampered.json"
                            with open(bad, "w") as fh:
                                json.dump(doc, fh)
                            ok, _ = self.verify(bad)
                            return not ok
        return False  # no witness to tamper with: the gate cannot be shown


def median(values):
    return statistics.median(values) if values else 0.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "coxsaito" / "__init__.py").is_file():
        print(f"error: no coxsaito sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    if set.intersection(*TRACE_EXEMPT.values()):
        raise RuntimeError("a wrapped function is exempt from the self-test in every workload")
    start = time.monotonic()
    compileall.compile_dir(str(src), quiet=1)  # workers import cached bytecode
    sys.path.insert(0, str(src))

    print(json.dumps({"host": host_info()}))
    work = Path.cwd() / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        client = Client(work, start + RUN_DEADLINE_S)
        jobs = jobs_for(args.workload, args.seed)
        metrics = {}
        if args.trace:
            plain_s = client.run_pass(jobs)
            tamper_ok = client.tamper_check()
            tracer = tracing.Tracer()
            tracer.install()  # the client side: verify_report_file
            traced_s = client.run_pass(jobs, trace=True)
            total = tracing.merge(client.snapshots + [tracer.snapshot()])
            for name, (value, unit) in tracing.layer_metrics(total).items():
                metrics[name] = {"value": value, "unit": unit}
            metrics["trace.overhead_s"] = {"value": traced_s - plain_s, "unit": "s"}
            missing = tracing.missing_hits(total, TRACE_EXEMPT[args.workload])
            if missing:
                client.incorrect.append(f"self-test: wrapped functions never called: {missing}")
        else:
            runs, checks, reports = client.measure(jobs, start + args.seconds)
            tamper_ok = client.tamper_check()
            verifies = [[v for v in per_check.values() if v] for per_check in checks]
            values = {
                "setup_s": (median(client.setup), "s"),
                "run_s": (sum(min(r) for r in runs), "s"),
                "verify_s": (sum(min(v) for per_job in verifies for v in per_job), "s"),
                "report_mb": (sum(r.stat().st_size for r in reports if r) / 1e6, "MB"),
                "peak_rss_mb": (max(client.rss_kb, default=0) / 1024, "MB"),
                "completed_frac": (1 - client.failed / client.attempted, "ratio"),
            }
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
            for job, r, per_job in zip(jobs, runs, verifies):
                print(f"job {job[0]:12s} run_s min {min(r):.4f} median {median(r):.4f} ({len(r)} runs), "
                      f"verify_s min {sum(map(min, per_job)):.4f} "
                      f"median {sum(map(median, per_job)):.4f} "
                      f"({len(per_job)} checks, {min(map(len, per_job), default=0)} times each)")
            print(f"{len(client.setup)} workers")
        if not tamper_ok:
            client.incorrect.append("a tampered report still verifies")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's files are still there

    for ctype, error in sorted(set(client.errors)):
        print(f"failed job {ctype}: {error}")
    for problem in client.incorrect:
        print(f"INCORRECT {problem}")
    print(f"tampered report rejected: {tamper_ok}")
    print(f"failed_frac {client.failed / client.attempted:.4f} ({client.failed}/{client.attempted} jobs)")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not client.incorrect,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
