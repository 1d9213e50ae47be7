"""Compare two sets of benchmark result files.

    python3 perfbench/compare.py RESULTS_A RESULTS_B

Each argument is a directory of result records written by
`run.py --out FILE` (one JSON file per run). For every (workload,
end-to-end metric) the report gives each side's median and quartiles, the
spread (quartile distance over median) and whether the two medians agree
within the metric's bound from BENCHMARK.json. It also flags:

- loss digests that differ between runs of one workload and seed, on
  either side: batches, init and dropout are pure functions of
  (seed, step), so equal seeds must give equal losses;
- a share of failed operations that differs between the two sides;
- for traced runs, the tracing overhead: the traced tokens_per_s against
  the untraced median of the same side.

The exit code is 1 when any pair disagrees or any digest differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_records(directory: Path) -> "list[dict]":
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


def quartiles(values: "list[float]") -> "tuple[float, float, float]":
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(side_a: "list[dict]", side_b: "list[dict]", bench: dict) -> bool:
    ok = True
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sides = {"A": side_a, "B": side_b}
    workloads = sorted({r["workload"] for r in side_a + side_b})
    print(f"{'workload':<14}{'metric':<14}{'side':<5}{'median':>12}"
          f"{'q1':>12}{'q3':>12}{'spread':>8}  verdict")
    for wl in workloads:
        for name, spec in bounds.items():
            meds = {}
            for label, recs in sides.items():
                vals = [r["metrics"][name]["value"] for r in recs
                        if r["workload"] == wl and r["trace"] == 0
                        and name in r["metrics"]]
                if not vals:
                    continue
                q1, med, q3 = quartiles(vals)
                meds[label] = med
                spread = (q3 - q1) / med if med else float("inf")
                flag = "" if spread <= spec["bound"] or name == "setup_s" \
                    else f"spread above bound {spec['bound']}"
                print(f"{wl:<14}{name:<14}{label:<5}{med:>12.5g}{q1:>12.5g}"
                      f"{q3:>12.5g}{spread:>8.3f}  {flag}")
            if len(meds) == 2:
                rel = (meds["B"] - meds["A"]) / meds["A"]
                agree = abs(rel) <= spec["bound"]
                ok &= agree
                print(f"{'':<28}B vs A {rel:+.3%} (bound {spec['bound']:.0%},"
                      f" {spec['better']} is better): "
                      f"{'agree' if agree else 'DIFFER'}")
    digests = defaultdict(set)
    for r in side_a + side_b:
        if r.get("loss_digest"):
            digests[(r["workload"], r["seed"])].add(r["loss_digest"])
    for (wl, seed), found in sorted(digests.items()):
        if len(found) > 1:
            ok = False
            print(f"DIGEST MISMATCH {wl} seed {seed}: {sorted(found)}")
    print(f"loss digests: {len(digests)} (workload, seed) pairs checked")
    for wl in workloads:
        shares = {}
        for label, recs in sides.items():
            runs = [r for r in recs if r["workload"] == wl]
            att = sum(r["attempted"] for r in runs)
            if att:
                shares[label] = sum(r["failed"] for r in runs) / att
        if len(set(shares.values())) > 1:
            ok = False
            print(f"FAILED SHARE differs on {wl}: {shares}")
        for label, recs in sides.items():
            untraced = [r["metrics"]["tokens_per_s"]["value"] for r in recs
                        if r["workload"] == wl and r["trace"] == 0]
            traced = [r["metrics"]["trace.tokens_per_s"]["value"] for r in recs
                      if r["workload"] == wl and r["trace"] == 1]
            if untraced and traced:
                base = statistics.median(untraced)
                seen = statistics.median(traced)
                print(f"trace overhead {wl} side {label}: traced "
                      f"tokens_per_s {seen:.5g} is {1 - seen / base:+.1%} "
                      f"below the untraced median {base:.5g}")
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="compare two result sets")
    ap.add_argument("side_a", type=Path)
    ap.add_argument("side_b", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = compare(load_records(args.side_a), load_records(args.side_b), bench)
    print("all pairs agree" if ok else "DISAGREEMENT")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
