"""One workload in one fresh process: set up, run timed rounds, check.

Prints `ready` once set-up is done (the parent times process start to this
line), `pause` between timed rounds (it goes on when a line arrives on
stdin), then one JSON line with the figures of the run.  Run through run.py.
"""

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ttow.cli  # noqa: E402

from jobs import Workload  # noqa: E402


def run_round(jobs):
    """Each job as one in-process CLI call.  Returns (wall s, cpu s, outputs)."""
    outs = []
    w0, c0 = time.perf_counter(), time.process_time()
    for job in jobs:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(buf):
                # looked up per call, so that a traced run reaches the wrapper
                rc = ttow.cli.main(list(job["argv"]))
        except Exception as exc:  # a crash counts as a failed job, the run goes on
            rc = f"{type(exc).__name__}: {exc}"
        outs.append((rc, buf.getvalue(), time.perf_counter() - t0))
    return time.perf_counter() - w0, time.process_time() - c0, outs


def timed_rounds(jobs, seconds):
    """Whole rounds, at least one, while one more is expected to end within
    `seconds` of round time.  Between two rounds the worker prints `pause`
    and waits for a line on stdin, so that run.py can take set-up samples
    across the run; the pauses are not counted."""
    rounds = []
    while True:
        rounds.append(run_round(jobs))
        walls = [r[0] for r in rounds]
        if sum(walls) + statistics.median(walls) > seconds:
            return rounds
        print("pause", flush=True)
        sys.stdin.readline()


def check_outputs(workload, rounds):
    """(failures, errors, self-test rejections) over every round's outputs.

    A job that exits non-zero is a failure; an output of a job that did not
    fail and does not pass its check is an error."""
    from checks import CheckFailed, Checker, self_test

    checker = Checker(workload, ttow.cli.main)
    failures, errors, records = [], [], []
    first = rounds[0][2]
    # der checks first: densor checks use the derivations they confirmed
    order = sorted(range(len(first)), key=lambda i: workload.jobs[i]["kind"] != "der")
    for i in order:
        job, (rc, text, _) = workload.jobs[i], first[i]
        if rc != 0:
            continue
        try:
            out = json.loads(text)
            checker.check(job, out)
            records.append((job, out))
        except (CheckFailed, ValueError, KeyError, TypeError) as exc:
            errors.append(f"{' '.join(job['argv'])}: {type(exc).__name__}: {exc}")
    for _, _, outs in rounds:
        for job, (rc, text, _), (_, text0, _) in zip(workload.jobs, outs, first):
            if rc != 0:
                failures.append(f"{' '.join(job['argv'])}: exit {rc}")
            elif text != text0:
                errors.append(f"{' '.join(job['argv'])}: output differs between rounds")
    try:
        rejected = self_test(checker, records)
    except CheckFailed as exc:
        errors.append(str(exc))
        rejected = []
    return failures, errors, rejected


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = HERE / "out" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = Workload(args.workload, args.seed, str(workdir))
        print("ready", flush=True)
        if args.setup_only:
            return 0
        result = {"jobs": len(workload.jobs)}
        if args.trace:
            from layers import Tracer

            tracer = Tracer().install()
            try:
                rounds = [run_round(workload.jobs)]
            finally:
                tracer.uninstall()
            layer = tracer.metrics()
            # overhead against the round as it would run untraced
            cost = tracer.cost_s()
            layer["trace.overhead_pct"] = 100.0 * cost / (rounds[0][0] - cost)
            result["per_layer"] = layer
        else:
            rounds = timed_rounds(workload.jobs, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failures, errors, rejected = check_outputs(workload, rounds)
        result.update(
            rounds=len(rounds),
            attempted=len(rounds) * len(workload.jobs),
            failed=len(failures),
            correct=not errors,
            failures=failures[:20],
            errors=errors[:20],
            self_test=[f"{k}: {f}" for k, f in rejected],
            round_wall_s=[r[0] for r in rounds],
            round_cpu_s=[r[1] for r in rounds],
            job_wall_s=[[" ".join(j["argv"]), [r[2][i][2] for r in rounds]] for i, j in enumerate(workload.jobs)],
            peak_rss_mb=rss_mb,
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
