"""Medians and spreads over the result files of many runs.

    python3 perfbench/summarize.py                      # print, per workload
    python3 perfbench/summarize.py --baseline FILE      # also write them to FILE

Reads perfbench/out/<workload>-s<seed>-t<0|1>.json.  The spread of a
metric is the distance between its first and third quartile over the
seeds, as a share of its median (statistics.quantiles, n=4).
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load(out: Path, trace: int) -> dict[str, list[dict]]:
    runs: dict[str, list[dict]] = {}
    for path in sorted(out.glob(f"*-s*-t{trace}.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["provenance"]["workload"], []).append(result)
    return runs


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "n": len(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def summarize(runs: dict[str, list[dict]]) -> dict:
    table = {}
    for workload, results in sorted(runs.items()):
        names = results[0]["metrics"]
        table[workload] = {
            "seeds": sorted(r["provenance"]["seed"] for r in results),
            "correct": all(r["correct"] for r in results),
            "ops": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {name: {"unit": names[name]["unit"],
                               **stats([r["metrics"][name]["value"] for r in results])}
                        for name in names},
        }
    return table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, default=HERE / "out")
    ap.add_argument("--baseline", type=Path, help="write the summary here")
    args = ap.parse_args()

    untraced, traced = summarize(load(args.out, 0)), summarize(load(args.out, 1))
    for workload, row in untraced.items():
        print(f"{workload}: seeds {row['seeds']} ops {row['ops']} failed {row['failed']}")
        for name, m in row["metrics"].items():
            spread = f"spread {m['spread']:.3f}" if "spread" in m else ""
            print(f"  {name:<14} median {m['median']:.4f} {m['unit']:<4} {spread}")
    if args.baseline:
        any_run = next(iter(load(args.out, 0).values()))[0]["provenance"]
        keep = ("git_sha", "src_dirty", "python", "nproc", "cpu")
        args.baseline.write_text(json.dumps({
            "provenance": {k: any_run[k] for k in keep},
            "end_to_end": untraced,
            "per_layer": {w: {k: v["median"] for k, v in row["metrics"].items()}
                          for w, row in traced.items()},
        }, indent=1) + "\n")


if __name__ == "__main__":
    main()
