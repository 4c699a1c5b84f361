#!/usr/bin/env python3
"""Repository benchmark: build benchmark/ and run its workloads.

Run from the repository root:

  python3 benchmark/run.py --workload zoo_infer --seed 1 --seconds 20 --trace 0
  python3 benchmark/run.py --workload all --repeat 5      # every workload
  python3 benchmark/run.py --workload fleet_mixed --trace 1 --trace-dir t/
  python3 benchmark/run.py --smoke      # short phases; checks names/units
  python3 benchmark/run.py --selftest   # the output checks catch corruption

Every workload runs in a fresh process of the iwg_perf binary, built into
build-bench/ from this checkout. The run prints each metric with its unit,
writes one JSON record (machine fingerprint, all metrics, the spread over
--repeat runs) and ends stdout with one JSON line:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics of BENCHMARK.json with --trace 0 and its
per-layer metrics with --trace 1. The exit code is nonzero when a check
fails or a metric BENCHMARK.json names is missing.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "iwg_perf"
SPEC_PATH = ROOT / "BENCHMARK.json"
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
SMOKE_SECONDS = 2
LATE_P99_LIMIT_MS = 1.0


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    return json.loads(SPEC_PATH.read_text())


def build():
    """Configure (once) and build iwg_perf; the library comes from ../src."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"library sources not found under {ROOT}")
    if not (BUILD / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        _build_step(cmd)
    jobs = str(min(4, os.cpu_count() or 1))
    _build_step(["cmake", "--build", str(BUILD), "--target", "iwg_perf",
                 "-j", jobs])


def _build_step(cmd):
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True, timeout=BUILD_TIMEOUT_S)
    if p.returncode != 0:
        log(p.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def fingerprint(rec, seed):
    """Facts that tell records from different machines or sources apart."""
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            p = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True, timeout=10)
            if p.returncode == 0:
                commit = p.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "host_isa": rec["isa"],
        "compiler": rec["compiler"],
        "build_type": rec["build_type"],
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def run_once(workload, seed, seconds, trace, corrupt=False, trace_out=None):
    scratch = BUILD / "scratch" / f"{workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--scratch", str(scratch)]
    if trace_out:
        cmd += ["--trace-out", str(trace_out)]
    if corrupt:
        cmd.append("--corrupt")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if p.returncode != 0 or not p.stdout.strip():
        raise BenchError(f"{workload}: exit {p.returncode}: {p.stderr[-2000:]}")
    return json.loads(p.stdout.strip().splitlines()[-1])


def spread(values):
    """Median and quartiles (statistics.quantiles, n=4) of repeat values."""
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def aggregate(workload, seed, seconds, trace, runs):
    names = set(runs[0]["metrics"])
    for r in runs[1:]:
        names &= set(r["metrics"])
    metrics, spreads = {}, {}
    for name in sorted(names):
        values = [r["metrics"][name]["value"] for r in runs]
        values = [v for v in values if v is not None]
        if not values:
            continue
        s = spread(values)
        spreads[name] = s
        metrics[name] = {"value": s["median"],
                         "unit": runs[0]["metrics"][name]["unit"]}
    failures = [f for r in runs for f in r["check_failures"]]
    # An open-loop run whose generator fell behind by more than 1 ms at p99
    # did not offer the load it claims.
    late = [v["value"] for r in runs for k, v in r["metrics"].items()
            if k.endswith(".late_ms.p99")]
    return {
        "valid": all(v <= LATE_P99_LIMIT_MS for v in late),
        "workload": workload,
        "seconds": seconds,
        "trace": 1 if trace else 0,
        "repeat": len(runs),
        "time_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "fingerprint": fingerprint(runs[0], seed),
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "check_failures": failures[:16],
        "metrics": metrics,
        "spread": spreads,
        "runs": [{k: v["value"] for k, v in r["metrics"].items()}
                 for r in runs],
    }


def selected_metrics(spec, record):
    """The metrics BENCHMARK.json names for this mode, and any mismatch."""
    wanted = spec["per_layer" if record["trace"] else "end_to_end"]
    out, problems = {}, []
    for m in wanted:
        got = record["metrics"].get(m["name"])
        if got is None:
            problems.append(f"missing metric {m['name']}")
        elif got["unit"] != m["unit"]:
            problems.append(f"{m['name']}: unit {got['unit']} != {m['unit']}")
        else:
            out[m["name"]] = got
    return out, problems


def print_table(record, selected):
    fp = record["fingerprint"]
    print(f"# {record['workload']} seed={fp['seed']} trace={record['trace']} "
          f"repeat={record['repeat']} isa={fp['host_isa']} "
          f"cpu='{fp['cpu_model']}' nproc={fp['nproc']}")
    print(f"# correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']} valid={record['valid']}")
    if not record["valid"]:
        print(f"#   invalid: the load generator ran more than "
              f"{LATE_P99_LIMIT_MS} ms late at p99 (phase.*.late_ms.p99)")
    for f in record["check_failures"]:
        print(f"#   check failed: {f}")
    for name, m in record["metrics"].items():
        s = record["spread"][name]
        mark = "*" if name in selected else " "
        print(f"{mark} {name:40s} {m['value']:14.6g} {m['unit']:9s} "
              f"[q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]")
    print("# (* = in the result line; the rest is record detail)")


def write_record(record, out):
    if out is None:
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        out = (BUILD / "records" / f"{stamp}-{record['workload']}-seed"
               f"{record['fingerprint']['seed']}-trace{record['trace']}.json")
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    log(f"record: {out}")


def measure(spec, args, workloads):
    results, ok = [], True
    for w in workloads:
        runs = []
        for i in range(args.repeat):
            trace_out = None
            if args.trace and args.trace_dir:
                Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
                trace_out = Path(args.trace_dir).resolve() / f"{w}.json"
            runs.append(run_once(w, args.seed + i, args.seconds, args.trace,
                                 trace_out=trace_out))
        record = aggregate(w, args.seed, args.seconds, args.trace, runs)
        selected, problems = selected_metrics(spec, record)
        for p in problems:
            log(f"{w}: {p}")
        record["correct"] = record["correct"] and not problems
        ok = ok and record["correct"]
        print_table(record, selected)
        write_record(record, args.out if len(workloads) == 1 else None)
        results.append((w, record, selected))
    if len(results) == 1:
        _, record, selected = results[0]
        line = {"correct": record["correct"], "attempted": record["attempted"],
                "failed": record["failed"], "metrics": selected}
    else:
        line = {"correct": ok,
                "attempted": sum(r["attempted"] for _, r, _ in results),
                "failed": sum(r["failed"] for _, r, _ in results),
                "metrics": {f"{w}/{k}": v for w, _, sel in results
                            for k, v in sel.items()}}
    print(json.dumps(line), flush=True)
    return 0 if ok else 1


def smoke(spec, workloads):
    """Short phases on the same code path; names and units must match."""
    ok = True
    for w in workloads:
        for trace in (False, True):
            rec = run_once(w, 1, SMOKE_SECONDS, trace)
            rec["trace"] = 1 if trace else 0
            _, problems = selected_metrics(spec, rec)
            if not rec["correct"]:
                problems.append(f"checks failed: {rec['check_failures']}")
            status = "ok" if not problems else "; ".join(problems)
            print(f"smoke {w} trace={int(trace)}: {status}")
            ok = ok and not problems
    return 0 if ok else 1


def selftest(workloads):
    """Each workload with one output corrupted must fail its checks."""
    ok = True
    for w in workloads:
        rec = run_once(w, 1, SMOKE_SECONDS, False, corrupt=True)
        caught = not rec["correct"] and rec["failed"] >= 1
        print(f"selftest {w}: {'caught' if caught else 'NOT CAUGHT'} "
              f"({rec['check_failures'][:1]})")
        ok = ok and caught
    return 0 if ok else 1


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1,
                    help="runs per workload (seeds seed..seed+N-1)")
    ap.add_argument("--out", help="record path (one workload)")
    ap.add_argument("--trace-dir", help="write Chrome trace JSON here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    workloads = names if args.workload == "all" else [args.workload]
    try:
        build()
        if args.smoke:
            return smoke(spec, workloads)
        if args.selftest:
            return selftest(workloads)
        return measure(spec, args, workloads)
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError) as e:
        log(f"benchmark failed: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
