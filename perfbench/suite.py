"""Run every workload over several seeds, untraced and traced, and summarize.

    python3 perfbench/suite.py [--workloads train,stream,roundtrip]
        [--nseeds 10] [--seconds S] [--trace 0,1] [--sets 1]

Each run is ``perfbench/run.py`` in its own process, one at a time. The
summary gives, per workload and end-to-end metric, the median of the runs,
the spread (third minus first quartile, as a share of the median) against
a third of the metric's bound, the workload-named metrics (train_clips_per_s,
stream_frame_ms_p99, translate_ms_p90 ...), the tracing overhead (traced
against untraced run), the per-layer medians and whether each per-layer
count repeated exactly. With ``--sets 2`` the seeds run twice and the second
set's medians are compared with the first's. Everything is also written to
.perfbench_out/suite.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return {"exit": proc.returncode, "result": json.loads(lines[-1]),
            "report": json.loads(lines[-2])["report"]}


def quartile_spread(values: list[float]) -> tuple[float, float]:
    """(median, (Q3 - Q1) / median) as statistics.quantiles(n=4) gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def summarize(runs: list[dict], workload: str, sets: int) -> dict:
    untraced = [r for r in runs if r["report"]["trace"] == 0]
    traced = [r for r in runs if r["report"]["trace"] == 1]
    summary = {"workload": workload, "runs": len(runs),
               "failed_runs": sum(1 for r in runs if not r["result"]["correct"])}
    if untraced:
        e2e = {}
        for name in BOUNDS:
            values = [r["result"]["metrics"][name]["value"] for r in untraced]
            med, spread = quartile_spread(values)
            row = {"median": med, "spread": spread, "bound": BOUNDS[name],
                   "steady": spread < BOUNDS[name] / 3, "values": values}
            if sets > 1:
                per_set = len(values) // sets
                first = statistics.median(values[:per_set])
                worst = 0.0
                for k in range(1, sets):
                    other = statistics.median(values[k * per_set:(k + 1) * per_set])
                    change = (other - first) / first
                    worst = max(worst, change if BETTER[name] == "lower" else -change)
                row["worst_set_drift"] = worst
                row["sets_agree"] = worst <= BOUNDS[name]
            e2e[name] = row
        summary["end_to_end"] = e2e
        named = {}
        for name, m in untraced[0]["report"]["metrics"].items():
            values = [r["report"]["metrics"][name]["value"] for r in untraced]
            named[name] = {"median": statistics.median(values), "unit": m["unit"]}
        summary["named"] = named
    if traced:
        layers = {}
        for name, m in traced[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in traced]
            row = {"median": statistics.median(values), "unit": m["unit"]}
            if m["unit"] == "count":
                by_seed: dict[int, set] = {}
                for r in traced:
                    by_seed.setdefault(r["report"]["seed"], set()).add(
                        r["result"]["metrics"][name]["value"])
                row["repeats_per_seed"] = all(len(v) == 1 for v in by_seed.values())
            layers[name] = row
        summary["per_layer"] = layers
    if traced and untraced:
        overhead = {}
        for name in BOUNDS:
            if name in ("setup_s", "peak_rss_mb"):
                continue
            plain = statistics.median(r["report"]["end_to_end"][name] for r in untraced)
            with_trace = statistics.median(r["report"]["end_to_end"][name] for r in traced)
            slower = plain / with_trace if BETTER[name] == "higher" else with_trace / plain
            overhead[name] = slower - 1.0
        summary["tracing_overhead"] = overhead
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", default=",".join(w["name"]
                                                        for w in BENCHMARK["workloads"]))
    parser.add_argument("--nseeds", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", default="0,1")
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)
    seeds = list(range(1, args.nseeds + 1))
    traces = [int(t) for t in args.trace.split(",")]
    workloads = args.workloads.split(",")

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    machine = None
    for _ in range(args.sets):
        for seed in seeds:
            for workload in workloads:
                for trace in traces:
                    r = run_once(workload, seed, args.seconds, trace)
                    runs[workload].append(r)
                    machine = r["report"]["machine"]
                    status = "ok" if r["result"]["correct"] else \
                        f"FAILED {r['result']['failed']}/{r['result']['attempted']}"
                    print(f"{workload} seed={seed} trace={trace} rounds="
                          f"{r['report']['rounds']} {status}", file=sys.stderr, flush=True)

    summaries = [summarize(runs[w], w, args.sets) for w in workloads]
    out = {"machine": {k: v for k, v in machine.items() if k != "seed"}, "seeds": seeds,
           "seconds": args.seconds, "sets": args.sets, "workloads": summaries}
    (ROOT / ".perfbench_out").mkdir(exist_ok=True)
    (ROOT / ".perfbench_out" / "suite.json").write_text(json.dumps(out, indent=1) + "\n")

    print(json.dumps(out["machine"]))
    steady = True
    for s in summaries:
        print(f"== {s['workload']}: {s['runs']} runs, {s['failed_runs']} with failed checks")
        for name, row in s.get("end_to_end", {}).items():
            flag = "" if row["steady"] else "  <-- spread above bound/3"
            extra = f"  set drift {row['worst_set_drift']:+.3f}" if "worst_set_drift" in row \
                else ""
            print(f"  {name:16s} median {row['median']:12.5g}  spread {row['spread']:.3f}"
                  f"  (bound {row['bound']}){extra}{flag}")
            steady &= row["steady"] and row.get("sets_agree", True)
        for name, row in s.get("named", {}).items():
            print(f"  {name:24s} {row['median']:.5g} {row['unit']}")
        for name, value in s.get("tracing_overhead", {}).items():
            print(f"  tracing overhead {name}: {value:+.1%}")
        for name, row in s.get("per_layer", {}).items():
            if row["median"] or not row.get("repeats_per_seed", True):
                rep = "" if "repeats_per_seed" not in row else \
                    ("  repeats" if row["repeats_per_seed"] else "  VARIES")
                print(f"  {name:36s} {row['median']:.5g} {row['unit']}{rep}")
        steady &= s["failed_runs"] == 0
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
