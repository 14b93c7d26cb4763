"""Run a workload once per seed and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload grid_sweep --seeds 0-9

Runs ``perfbench/run.py`` as a subprocess per seed (from the checkout root,
one at a time), then prints, per metric, the median, the quartile spread
(Q3 - Q1) / median and the bound from BENCHMARK.json. A spread below a third
of the bound is steady enough; ``setup_s`` is exempt from the spread bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import measure

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="0-9", help="a range such as 0-9 or a list such as 0,3,7")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, *spec["command"][1:], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']} "
              + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        spread = measure.iqr_share(vals) if len(vals) >= 2 else float("nan")
        bound = bounds.get(name, float("nan"))
        flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
        print(f"{name:14s} median {measure.median(vals):12.4f}  spread {spread:7.4f}  bound {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
