"""Alternated parent/change pairs of perfbench runs, written to a BENCH file.

    python3 scripts/bench_pairs.py --parent REV [--change REV] --out BENCH_<n>.json
        [--workload train:10 --workload roundtrip:5 ...] [--seconds 30]

Each side is a fresh ``git archive`` of its revision under ``--work``; the
change defaults to the working tree as ``git stash create`` records it
(tracked and staged files; HEAD when the tree is clean). Pair i of a
workload runs ``perfbench/run.py --seed i --trace 0`` once on each side,
one run at a time, and the side that goes first alternates from pair to
pair. Every run's exit code and ``failed`` count are kept.

For each end-to-end metric of BENCHMARK.json, the output holds the parent
and change medians, their [q1, q3] (``statistics.quantiles(n=4)``, as
perfbench/suite.py computes its spread), the number of pairs the change
wins and the per-pair values, at reference speed as run.py gates them.
The workload-named metrics as timed (``recognize_ms_p50`` and so on) are
kept per run under ``raw`` and summarized the same way beside them. It
also records the machine facts of the first run (nproc, numpy, BLAS) and
each side's ``src/signflow/*.py`` line count (as ``wc -l`` counts them).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in BENCHMARK["end_to_end"]}


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def checkout(rev: str, dest: Path) -> str:
    """Extract ``rev`` into an empty ``dest``; returns the full commit id."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest.mkdir(parents=True)
    with tempfile.TemporaryFile() as fh:
        subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT, check=True,
                       stdout=fh)
        fh.seek(0)
        with tarfile.open(fileobj=fh) as tar:
            tar.extractall(dest, filter="data")
    return sha


def src_lines(side: Path) -> int:
    """Newlines in the side's ``src/signflow/*.py``: ``wc -l``'s total."""
    return sum(p.read_bytes().count(b"\n") for p in (side / "src" / "signflow").glob("*.py"))


def run(side: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=side, capture_output=True, text=True, timeout=1200)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        return {"exit": proc.returncode, "failed": None, "stderr": proc.stderr[-2000:]}
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    return {"exit": proc.returncode, "failed": result["failed"],
            "attempted": result["attempted"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()},
            "raw": {k: m["value"] for k, m in report["metrics"].items()},
            "machine": report["machine"]}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    """Medians, [q1, q3] and wins of one metric over the pairs."""
    wins = sum(1 for a, b in zip(parent, change) if (b < a if better == "lower" else b > a))
    row = {"better": better, "wins": wins, "pairs": len(parent),
           "parent_values": parent, "change_values": change}
    for side, values in (("parent", parent), ("change", change)):
        row[f"{side}_median"] = statistics.median(values)
        row[f"{side}_q1_q3"] = list(statistics.quantiles(values, n=4)[::2]) \
            if len(values) > 1 else [values[0], values[0]]
    row["ratio"] = row["change_median"] / row["parent_median"] if row["parent_median"] else None
    return row


def summarize(pairs: list[dict], key: str = "metrics") -> dict:
    """compare() of each metric under ``key`` of both sides' runs: the gated
    end-to-end metrics ("metrics") or the workload-named ones as timed
    ("raw"; a rate, ``*_per_s``, is better higher)."""
    done = [p for p in pairs if "metrics" in p["parent"] and "metrics" in p["change"]]
    if not done:
        return {}
    names = BETTER if key == "metrics" else {
        name: "higher" if name.endswith("_per_s") else "lower" for name in done[0]["parent"][key]}
    return {name: compare([p["parent"][key][name] for p in done],
                          [p["change"][key][name] for p in done], better)
            for name, better in names.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", help="revision; default: the working tree")
    parser.add_argument("--workload", action="append", default=[],
                        help="NAME:PAIRS (repeatable); default train:10")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--work", type=Path, default=ROOT / ".perfbench_out" / "pairs")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    change_rev = args.change or git("stash", "create") or "HEAD"
    if args.work.exists() and any(args.work.iterdir()):
        parser.error(f"--work {args.work} is not empty")
    sides = {"parent": args.work / "parent", "change": args.work / "change"}
    shas = {"parent": checkout(args.parent, sides["parent"]),
            "change": checkout(change_rev, sides["change"])}

    report = {"parent": shas["parent"], "change": shas["change"] if args.change else
              f"working tree over {git('rev-parse', 'HEAD')}",
              "seconds": args.seconds, "machine": None,
              "src_lines": {side: src_lines(path) for side, path in sides.items()},
              "workloads": {}}
    clean = True
    for spec in args.workload or ["train:10"]:
        workload, _, count = spec.partition(":")
        pairs = []
        for seed in range(1, int(count or 10) + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run(sides[side], workload, seed, args.seconds)
                report["machine"] = report["machine"] or pair[side].get("machine")
                pair[side].pop("machine", None)
                clean &= pair[side]["exit"] == 0 and pair[side]["failed"] == 0
            pairs.append(pair)
            print(f"{workload} pair {seed}: " + ", ".join(
                f"{side} exit {pair[side]['exit']} failed {pair[side]['failed']}"
                for side in order), file=sys.stderr, flush=True)
        report["workloads"][workload] = {"end_to_end": summarize(pairs),
                                         "raw": summarize(pairs, "raw"), "pairs": pairs}
    machine = report["machine"] or {}
    report["machine"] = {k: machine.get(k) for k in ("nproc", "affinity_cpus", "cpu_model",
                                                     "python", "numpy", "blas",
                                                     "blas_threads")}
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, data in report["workloads"].items():
        for kind in ("end_to_end", "raw"):
            for name, row in data[kind].items():
                ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
                print(f"{workload:9s} {kind:10s} {name:20s} parent {row['parent_median']:10.4g} "
                      f"[{row['parent_q1_q3'][0]:.4g}, {row['parent_q1_q3'][1]:.4g}] "
                      f"change {row['change_median']:10.4g} "
                      f"[{row['change_q1_q3'][0]:.4g}, {row['change_q1_q3'][1]:.4g}] "
                      f"ratio {ratio} wins {row['wins']}/{row['pairs']}")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
