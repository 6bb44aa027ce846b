"""Benchmark of the ttow/1 CLI on three workloads.

    python3 perfbench/run.py --workload exact-qq --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Prints, as its last line, one JSON object
with `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  Every figure of
the run is also written to perfbench/out/.  See perfbench/README.md.
"""

import argparse
import json
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("exact-qq", "modp-frames", "many-small")
# Set-up samples of an untraced run: this many set-up-only processes before
# the measured worker, one in each pause between its rounds, and after it as
# many as make SETUP_SAMPLES in all, SETUP_AROUND at least.
SETUP_AROUND = 3
SETUP_SAMPLES = 15
# A guard against a worker that hangs, so that none outlives this process.
# An untraced run takes about 35-45 s and a traced one 5-30 s (README).
HANG_GUARD_S = 170


def start_worker(args, extra, deadline):
    """A worker process, stopped at `deadline` by a guard, and its set-up time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd + extra, cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    guard = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
    guard.daemon = True
    guard.start()
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, guard)
        raise RuntimeError(f"worker did not set up (exit {proc.returncode})")
    return proc, guard, setup_s


def finish(proc, guard, on_pause=None):
    """Reads the worker's output to its end, answering each `pause` once
    on_pause() has returned, and waits for the worker.  Returns its last line."""
    last = ""
    try:
        for line in iter(proc.stdout.readline, ""):
            if line.strip() == "pause":
                on_pause()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                last = line
    finally:
        guard.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdin.close()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return last


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the timed rounds; unused with --trace 1, which runs one round")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "ttow" / "__init__.py").is_file():
        sys.exit(f"no ttow sources under {ROOT / 'src'}: run from a checkout of the repository")
    deadline = time.perf_counter() + HANG_GUARD_S

    def setup_probe():
        proc, guard, setup_s = start_worker(args, ["--setup-only"], deadline)
        finish(proc, guard)
        return setup_s

    # untraced: set-up samples before, during and after the measured
    # worker, so that they span the run rather than its ends
    probe = not args.trace
    setups = [setup_probe() for _ in range(SETUP_AROUND if probe else 0)]
    proc, guard, setup_s = start_worker(args, [], deadline)
    setups.append(setup_s)
    run = json.loads(finish(proc, guard, lambda: setups.append(setup_probe())))
    if probe:
        setups += [setup_probe() for _ in range(max(SETUP_AROUND, SETUP_SAMPLES - len(setups)))]

    if args.trace:
        sys.path.insert(0, str(HERE))
        from layers import METRICS

        metrics = {name: {"value": run["per_layer"][name], "unit": unit} for name, unit in METRICS}
    else:
        metrics = {
            "wall_s": {"value": sum(statistics.median(t) for _, t in run["job_wall_s"]), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
        }
    record = dict(run, workload=args.workload, seed=args.seed, trace=args.trace,
                  setup_samples_s=setups, metrics=metrics)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": run["correct"], "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
