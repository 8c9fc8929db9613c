"""One benchmark worker: a fresh process that runs a single `coxsaito run` job.

    python3 perfbench/worker.py '<json spec>'

Run from the root of a checkout.  The spec names the result and report files,
whether to trace, the job, and the CPU to run on.
The worker records when `coxsaito` is imported and a Workspace is built,
times `coxsaito.cli.main(["run", ...])` up to the written report, and
writes a JSON result; a crash is recorded with its last error line.
"""

import json
import os
import resource
import sys
import time
import traceback


def peak_rss_kb():
    """Peak resident set size of this process since exec.  ru_maxrss also
    counts the pages inherited from the parent at fork, so it would read
    the client's size whenever that is larger."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec):
    os.sched_setaffinity(0, {spec["cpu"]})
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    from coxsaito import cli
    from coxsaito.workspace import Workspace

    Workspace()
    result = {"ready": time.monotonic()}
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ctype, tier, suites = spec["job"]
    argv = ["run", "--type", ctype, "--tier", tier, "--out", spec["report"]]
    if suites:
        argv += ["--suite", suites]
    t0 = time.monotonic()
    try:
        rc = cli.main(argv)
        error = "" if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # the client counts the crash and keeps going
        traceback.print_exc()
        rc = None
        error = traceback.format_exception_only(type(exc), exc)[-1].strip()
    result.update(run_s=time.monotonic() - t0, rc=rc, error=error)
    if tracer is not None:
        result["trace"] = tracer.snapshot()
    result["peak_rss_kb"] = peak_rss_kb()
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0 if result["rc"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
