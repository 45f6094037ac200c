"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

For each workload it runs one clean round (which must check correct, also
traced), then plants one wrong output per check and shows that the check
catches it: a failed check must make the run incorrect. Last, it runs the
benchmark in a directory holding only BENCHMARK.json and perfbench/, where
it must exit non-zero without printing a result.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # pins BLAS before numpy is imported

run.import_signflow()


def _raise_last_loss(history):
    history[-1]["loss"] = history[0]["loss"] + 0.5


def _nan_loss(history):
    history[len(history) // 2]["loss"] = float("nan")


def _impossible_prec(metrics):
    metrics.prec1 = metrics.prec5 + 1.0


def _perturb_stream_logit(logits):
    logits[len(logits) // 2, 0] += 1e-3


def _perturb_offline_logit(logits):
    logits[-1] -= 1e-3


def _drop_materialized_frame(frames_dir: Path):
    sorted(frames_dir.glob("frame_*.pgm"))[-1].unlink()


def _swap_window_prediction(result):
    glosses = result["glosses"]
    if len(set(glosses)) > 1:
        i = next(k for k in range(len(glosses)) if glosses[k] != glosses[0])
        glosses[0], glosses[i] = glosses[i], glosses[0]
    else:
        glosses[0] = "G_WO" if glosses[0] != "G_WO" else "G_NI"


def _alter_text(result):
    result["text"] += "了"


# (workload, output kind, planted fault, words the failure must contain)
FAULTS = [
    ("train", "train-history", _raise_last_loss, "not below"),
    ("train", "train-history", _nan_loss, "non-finite"),
    ("train", "eval-metrics", _impossible_prec, "implausible"),
    ("stream", "stream-logits", _perturb_stream_logit, "differ from offline"),
    ("stream", "offline-logits", _perturb_offline_logit, "per-frame mean"),
    ("roundtrip", "materialized-dir", _drop_materialized_frame, "frames on disk"),
    ("roundtrip", "recognize-result", _swap_window_prediction, "source clips predict"),
    ("roundtrip", "recognize-result", _alter_text, "recognized text"),
]


def once(kind: str, fault):
    """Tamper hook that plants the fault in the first output of one kind."""
    done = []

    def tamper(output_kind, obj):
        if output_kind == kind and not done:
            done.append(True)
            fault(obj)

    return tamper


def measure(workload: str, trace: bool = False, tamper=None):
    run.OUT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"selftest-{workload}-", dir=run.OUT))
    try:
        return run.measure(workload, seed=7, seconds=0, trace=trace, work_dir=work_dir,
                           tamper=tamper, setups=1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> int:
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            problems.append(what)

    for workload in ("train", "stream", "roundtrip"):
        for trace in (False, True):
            result, _ = measure(workload, trace=trace)
            expected = run.UNITS[trace]
            expect(result["correct"] and result["failed"] == 0
                   and set(result["metrics"]) == set(expected),
                   f"{workload} trace={int(trace)}: clean round checks correct and "
                   f"reports all {len(expected)} metrics")

    for workload, kind, fault, words in FAULTS:
        result, report = measure(workload, tamper=once(kind, fault))
        caught = not result["correct"] and result["failed"] >= 1 and \
            any(words in f for f in report["failures"])
        expect(caught, f"{workload}: planted {fault.__name__.lstrip('_')} is caught "
                       f"({result['failed']} of {result['attempted']} failed)")

    bare = Path(tempfile.mkdtemp(prefix="selftest-bare-", dir=run.OUT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stream",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           f"without signflow sources: exit {proc.returncode}, no result printed")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
