#!/usr/bin/env python3
"""Compare benchmark records of a parent commit and a change.

  python3 benchmark/compare.py --parent P.json [P2.json|DIR ...] \
                               --change C.json [C2.json|DIR ...]
  python3 benchmark/compare.py --selftest

Arguments are run.py records or directories of them. Each record holds one
or more runs; runs are paired in the order given (run i of the parent with
run i of the change), so alternate the two sides when measuring.

For every workload and end-to-end metric of BENCHMARK.json it prints each
side's median and quartiles, the share of pairs the change won (ties count
for neither) and a verdict:

  regressed   the change's median is worse than the parent's by more than
              the metric's bound;
  improved    the change won at least 9/10 of the pairs and the medians
              differ by more than the parent's interquartile range;
  unresolved  either side's spread (IQR / median) is wider than the bound,
              unless every change run reads better than every parent run;
  unchanged   otherwise.

Traced records (trace = 1) add a per-layer table: medians and deltas. The
exit code is 1 when any metric regressed.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_records(paths):
    """{(workload, trace): [run metrics dict, ...]} in argument order."""
    out = {}
    for p in paths:
        p = Path(p)
        files = sorted(p.glob("**/*.json")) if p.is_dir() else [p]
        for f in files:
            rec = json.loads(f.read_text())
            key = (rec["workload"], rec["trace"])
            out.setdefault(key, []).extend(rec["runs"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent, change, better, bound):
    """Compare two samples of one metric; returns a result dict."""
    lower = better == "lower"
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)

    def is_better(c, p):
        return c < p if lower else c > p

    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if is_better(c, p))
    win_share = wins / len(pairs) if pairs else 0.0
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    all_better = all(is_better(c, p) for c in change for p in parent)
    if worse_by > bound:
        v = "regressed"
    elif (win_share >= 0.9 and is_better(cm, pm)
          and abs(cm - pm) > (p3 - p1)):
        v = "improved"
    elif spread > bound and not all_better:
        v = "unresolved"
    else:
        v = "unchanged"
    return {"verdict": v, "parent": (p1, pm, p3), "change": (c1, cm, c3),
            "win_share": win_share, "worse_by": worse_by, "spread": spread}


def compare(spec, parent, change, out=sys.stdout):
    """Print the tables; return {(workload, metric): verdict}."""
    verdicts = {}
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':12s} {'metric':16s} {'parent median [q1,q3]':34s} "
          f"{'change median [q1,q3]':34s} {'won':>5s} {'worse':>7s} verdict",
          file=out)
    for w in workloads:
        p_runs, c_runs = parent.get((w, 0)), change.get((w, 0))
        if not p_runs or not c_runs:
            continue
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r[name] for r in p_runs if r.get(name) is not None]
            c = [r[name] for r in c_runs if r.get(name) is not None]
            if not p or not c:
                continue
            res = verdict(p, c, m["better"], m["bound"])
            verdicts[(w, name)] = res["verdict"]
            fmt = "{1:.6g} [{0:.6g},{2:.6g}]"
            print(f"{w:12s} {name:16s} {fmt.format(*res['parent']):34s} "
                  f"{fmt.format(*res['change']):34s} "
                  f"{res['win_share']:5.0%} {res['worse_by']:+7.1%} "
                  f"{res['verdict']} (bound {m['bound']:.0%})", file=out)
    for w in workloads:
        p_runs, c_runs = parent.get((w, 1)), change.get((w, 1))
        if not p_runs or not c_runs:
            continue
        print(f"\nper-layer, {w} (traced medians)", file=out)
        for m in spec["per_layer"]:
            name = m["name"]
            p = [r[name] for r in p_runs if r.get(name) is not None]
            c = [r[name] for r in c_runs if r.get(name) is not None]
            if not p or not c:
                continue
            pm, cm = statistics.median(p), statistics.median(c)
            rel = f"{(cm - pm) / abs(pm):+8.1%}" if pm else "       -"
            print(f"  {name:36s} {pm:12.6g} -> {cm:12.6g} {m['unit']:9s} "
                  f"{rel}", file=out)
    return verdicts


def selftest():
    """Synthetic records with known outcomes."""
    spec = {
        "workloads": [{"name": "w"}],
        "end_to_end": [
            {"name": "same", "better": "lower", "bound": 0.1},
            {"name": "faster", "better": "higher", "bound": 0.08},
            {"name": "slower", "better": "lower", "bound": 0.1},
            {"name": "noisy", "better": "lower", "bound": 0.1},
            {"name": "noisy_but_better", "better": "lower", "bound": 0.1},
        ],
        "per_layer": [{"name": "layer", "unit": "ms", "better": "lower"}],
    }
    jitter = [0.99, 1.01, 1.0, 0.995, 1.005, 0.998, 1.002, 0.997, 1.003, 1.0]
    wide = [0.7, 1.3, 1.0, 0.75, 1.25, 0.8, 1.2, 0.9, 1.1, 1.0]

    def runs(scale):
        return [{"same": 100 * j, "faster": 100 * j * scale["faster"],
                 "slower": 100 * j * scale["slower"],
                 "noisy": 100 * n, "noisy_but_better":
                 100 * n * scale["nbb"], "layer": 5 * j}
                for j, n in zip(jitter, wide)]

    parent = runs({"faster": 1.0, "slower": 1.0, "nbb": 1.0})
    change = runs({"faster": 1.2, "slower": 1.3, "nbb": 0.3})
    change = change[1:] + change[:1]  # pair different jitter samples
    got = compare(spec, {("w", 0): parent, ("w", 1): parent},
                  {("w", 0): change, ("w", 1): change}, out=sys.stderr)
    want = {("w", "same"): "unchanged", ("w", "faster"): "improved",
            ("w", "slower"): "regressed", ("w", "noisy"): "unresolved",
            ("w", "noisy_but_better"): "improved"}
    bad = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    print("compare selftest:", "ok" if not bad else f"FAILED {bad}")
    return 0 if not bad else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", default=[])
    ap.add_argument("--change", nargs="+", default=[])
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if not args.parent or not args.change:
        ap.error("--parent and --change are required")
    spec = json.loads(SPEC_PATH.read_text())
    verdicts = compare(spec, load_records(args.parent),
                       load_records(args.change))
    return 1 if "regressed" in verdicts.values() else 0


if __name__ == "__main__":
    sys.exit(main())
