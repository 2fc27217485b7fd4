"""Run the benchmark over several seeds; report spread, or compare two sweeps.

From the root of a checkout::

    # ten seeds of one workload; prints each metric's median, quartiles and
    # interquartile spread as a share of the median, against its bound
    python3 perfbench/spread.py sweep --workload form_mem --seeds 1-10 \\
        --out .perfbench_work/sweep-form_mem.json

    # paired comparison of two sweeps (parent first), metric by metric
    python3 perfbench/spread.py compare parent.json change.json

Bounds, run length and metric directions come from ``BENCHMARK.json``.  A
spread above a third of its bound is flagged: the benchmark aims to stay
below that, so that a second set of runs lands within the bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from bcqbench import stats  # noqa: E402


def _seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(seed) for seed in text.split(",")]


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def sweep(args: argparse.Namespace) -> int:
    config = _config()
    metrics = config["per_layer" if args.trace else "end_to_end"]
    runs = []
    for seed in _seeds(args.seeds):
        command = config["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(config["run_seconds"]), "--trace", str(args.trace)]
        started = time.perf_counter()
        completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                   timeout=900)
        elapsed = time.perf_counter() - started
        if completed.returncode != 0:
            print(f"seed {seed}: exit {completed.returncode}\n{completed.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "elapsed_s": elapsed, **result})
        print(f"seed {seed} ({elapsed:.0f} s): " + ", ".join(
            f"{name}={entry['value']:.4g}" for name, entry in result["metrics"].items()
            if any(metric["name"] == name for metric in metrics[:8])), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs},
                                             indent=1) + "\n")
    if not args.trace:
        _summarize(metrics, runs)
    return 0


def _summarize(metrics: list[dict], runs: list[dict]) -> None:
    print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
          f"{'spread':>8s} {'bound':>6s}")
    for metric in metrics:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        q1, middle, q3 = stats.quartiles(values)
        spread = stats.relative_spread(values)
        flag = "  above bound/3" if spread > metric["bound"] / 3 else ""
        print(f"{metric['name']:18s} {middle:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{spread:8.3f} {metric['bound']:6.2f}{flag}")


def compare(args: argparse.Namespace) -> int:
    config = _config()
    parent = json.loads(Path(args.parent).read_text())
    change = json.loads(Path(args.change).read_text())
    print(f"{parent['workload']}: {len(parent['runs'])} parent runs, "
          f"{len(change['runs'])} change runs")
    for metric in config["end_to_end"]:
        name = metric["name"]
        verdict = stats.compare_runs(
            [run["metrics"][name]["value"] for run in parent["runs"]],
            [run["metrics"][name]["value"] for run in change["runs"]],
            metric["better"], metric["bound"])
        print(f"{name:18s} {verdict.verdict:11s} parent {verdict.parent_median:.4g} "
              f"change {verdict.change_median:.4g} (x{verdict.ratio:.3f}, "
              f"wins {verdict.wins}/{verdict.pairs})")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("sweep", help="run several seeds of one workload")
    run.add_argument("--workload", required=True)
    run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--out", help="write the runs as JSON here")
    pair = commands.add_parser("compare", help="compare two sweeps, parent first")
    pair.add_argument("parent")
    pair.add_argument("change")
    args = parser.parse_args(argv)
    return sweep(args) if args.command == "sweep" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
