"""The per-layer table of every workload, from one traced run of each.

    python3 perfbench/table.py [--seed N]

Runs `run.py --trace 1` on each workload, prints a Markdown table of the
per-layer metrics (with the tracing overhead) and writes it to
perfbench/out/layers.md, beside the JSON records that run.py writes there.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import WORKLOADS  # noqa: E402


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    cols = {}
    for wl in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(args.seed),
               "--seconds", "1", "--trace", "1"]  # a traced run is one round, whatever --seconds
        out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.exit(f"{wl}: outputs failed their checks; see perfbench/out/")
        cols[wl] = result["metrics"]
    names = list(cols[WORKLOADS[0]])
    lines = ["| metric | unit | " + " | ".join(WORKLOADS) + " |",
             "|---|---|" + "---:|" * len(WORKLOADS)]
    for name in names:
        unit = cols[WORKLOADS[0]][name]["unit"]
        vals = [cols[wl][name]["value"] for wl in WORKLOADS]
        cells = [f"{v:.0f}" if unit in ("count", "rows") else f"{v:.3f}" for v in vals]
        lines.append(f"| `{name}` | {unit} | " + " | ".join(cells) + " |")
    text = f"Per-layer metrics, seed {args.seed}, one traced round each\n\n" + "\n".join(lines) + "\n"
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "layers.md").write_text(text)
    print(text)


if __name__ == "__main__":
    main()
