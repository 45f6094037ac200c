"""signflow benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload train|stream|roundtrip --seed N \
        --seconds S --trace 0|1

Run from the root of a signflow checkout; the library is imported from its
``src`` directory, in this process, with BLAS pinned to one thread.

stdout ends with two JSON lines. The first is a report: the workload's
end-to-end metrics under their own names (``train_clips_per_s``,
``stream_frame_ms_p99``, ``translate_ms_p90`` ...) as timed, the error rate,
the failures, the host-speed probe times and the machine facts. The last
line is the result ``{"correct", "attempted", "failed", "metrics"}``; its
metrics are the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
times at reference speed (see hostspeed.py), and the per-layer metrics with
``--trace 1``. The exit code is 0 only when every output checked correct.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUPS = 15  # set-up repeats per run; setup_s is their median at reference speed

# Metric names and units of the result line, by trace mode: the end-to-end
# metrics untraced, the per-layer metrics traced.
_BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {trace: {m["name"]: m["unit"] for m in _BENCHMARK[key]}
         for trace, key in ((False, "end_to_end"), (True, "per_layer"))}

# Per workload: tail percentile, and the workload's own names for the
# generic end-to-end metrics.
TAIL = {"train": 90, "stream": 99, "roundtrip": 90}
NAMED = {
    "train": {"main_per_s": ("train_clips_per_s", "1/s"),
              "infer_per_s": ("eval_clips_per_s", "1/s")},
    "stream": {"main_ms_p50": ("stream_frame_ms_p50", "ms"),
               "main_ms_tail": ("stream_frame_ms_p99", "ms")},
    "roundtrip": {"main_ms_p50": ("roundtrip_ms_p50", "ms"),
                  "main_ms_tail": ("roundtrip_ms_p90", "ms"),
                  "translate_ms_p50": ("translate_ms_p50", "ms"),
                  "translate_ms_p90": ("translate_ms_p90", "ms"),
                  "infer_ms_p50": ("recognize_ms_p50", "ms"),
                  "infer_ms_tail": ("recognize_ms_p90", "ms")},
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no signflow sources)."""


def import_signflow() -> None:
    """Import signflow from this checkout's src directory, nowhere else."""
    if not (SRC / "signflow" / "__init__.py").is_file():
        raise SetupError(f"no signflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import signflow

    if Path(signflow.__file__).resolve().parent != SRC / "signflow":
        raise SetupError(f"signflow imported from {signflow.__file__}, not from {SRC}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))


def machine_facts(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), "caches": _caches(),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": {var: os.environ.get(var) for var in BLAS_PINS},
            "seed": seed}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> list[str]:
    out = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        out.append(f"L{level} {kind} {size}")
    return out


def _percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload: str, seed: int, seconds: float, trace: bool, work_dir: Path,
            tamper=None, setups: int = SETUPS) -> tuple[dict, dict]:
    """Set up, warm up and run whole rounds for ``seconds``; check every output.

    Returns (result, report): the contract's last-line object and the
    workload-named report. ``tamper(kind, output)`` may alter an output
    before it is checked (used by the self-test).
    """
    from workloads import WORKLOADS, Outcome

    tracer = None
    if trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    try:
        wl = WORKLOADS[workload](seed, work_dir, tracer, tamper)
        if tracer is not None:
            # a span of its own, so that no layer's self time includes the probe
            wl.speed.probe = tracer.wrap(wl.speed.probe, "trace.hostspeed_probe")
        setup_times, setup_ref = [], []
        for _ in range(setups):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_ref.append(setup_times[-1] * wl.speed.probe())
        # peak RSS after each phase, to show which phase sets peak_rss_mb
        rss = {"import+setup": _peak_rss_mb()}
        wl.begin_op("checks")
        wl.prepare_checks()
        rss["checks"] = _peak_rss_mb()
        wl.warmup()
        rss["warmup"] = _peak_rss_mb()
        out = Outcome()
        rounds = 0
        start = time.perf_counter()
        while True:
            wl.run_round(out)
            rounds += 1
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.unpatch()

    rss["measure"] = _peak_rss_mb()
    def times(samples: dict[str, list[float]], setup: list[float]) -> dict[str, float]:
        tail = TAIL[workload]
        return {"setup_s": statistics.median(setup),
                "main_ms_p50": _percentile(samples["main"], 50),
                "main_ms_tail": _percentile(samples["main"], tail),
                "infer_ms_p50": _percentile(samples["infer"], 50),
                "infer_ms_tail": _percentile(samples["infer"], tail),
                "translate_ms_p50": _percentile(samples["translate"], 50),
                "translate_ms_p90": _percentile(samples["translate"], 90)}

    # gated: times at reference speed; reported under the workload's names: as timed
    at_ref = times(out.ref, setup_ref)
    e2e = {name: at_ref[name] for name in UNITS[False] if name in at_ref}
    e2e["peak_rss_mb"] = rss["measure"]
    timed = {**times(out.raw, setup_times),
             "main_per_s": out.main_items / out.main_seconds if out.main_seconds else 0.0,
             "infer_per_s": out.infer_items / out.infer_seconds if out.infer_seconds else 0.0}
    named = {"setup_s": {"value": timed["setup_s"], "unit": "s"},
             "peak_rss_mb": {"value": e2e["peak_rss_mb"], "unit": "MB"},
             "error_rate": {"value": out.failed / out.attempted, "unit": "ratio"}}
    for generic, (name, unit) in NAMED[workload].items():
        named[name] = {"value": timed[generic], "unit": unit}
    probe_ms = wl.speed.probe_ms
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "rounds": rounds, "elapsed_s": elapsed,
              "samples": {"main": len(out.raw["main"]), "infer": len(out.raw["infer"])},
              "tail_percentile": TAIL[workload], "setup_times_s": setup_times,
              "peak_rss_mb_after": rss,
              "metrics": named, "end_to_end": e2e, "failures": out.failures,
              "host_probe_ms": {"count": len(probe_ms),
                                "p10": _percentile(probe_ms, 10),
                                "p50": _percentile(probe_ms, 50),
                                "p90": _percentile(probe_ms, 90)},
              "machine": machine_facts(seed)}

    if tracer is not None:
        values = tracer.reduce(rounds)
        trace_path = OUT / f"trace-{workload}.npz"
        tracer.write(trace_path)
        report["trace_file"] = str(trace_path.relative_to(ROOT))
        report["spans"] = len(tracer.start)
    else:
        values = e2e
    units = UNITS[trace]
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are computed but not "
                           f"declared in BENCHMARK.json, or declared but not computed")
    metrics = {k: {"value": values[k], "unit": unit} for k, unit in units.items()}
    result = {"correct": out.failed == 0, "attempted": out.attempted, "failed": out.failed,
              "metrics": metrics}
    return result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_signflow()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    # The work directory is kept between runs and its files are rewritten in
    # place: on the reference disk, deleting a run's few thousand small files
    # slowed file writes in the next run for seconds.
    work_dir = OUT / f"work-{args.workload}"
    work_dir.mkdir(parents=True, exist_ok=True)
    result, report = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                             work_dir)
    for failure in report["failures"]:
        print(f"perfbench: FAILED {failure}", file=sys.stderr)
    print(json.dumps({"report": report}, ensure_ascii=False))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
