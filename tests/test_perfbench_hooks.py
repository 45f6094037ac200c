"""The benchmark's hooks into signflow, and its own checks.

``perfbench/spans.py`` wraps functions where signflow's callers look them
up (``signflow.backbone.online_step`` and so on). A rename in signflow
would only surface when a traced benchmark run dies, so one test installs
the tracer, streams two frames through it and removes it again. A layer that
stopped calling a patched name would instead read 0 without any error, so
another counts the ``tsm.shift`` spans of a forward and an infer. The last
runs one round of each workload, whose output checks must all pass: seed 9
gives the train check its thinnest margin (``none`` sits at chance).
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from signflow.backbone import NetSpec, StageSpec, build

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_patch_points_exist_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, install

    spec = NetSpec(num_classes=3, t=2, in_channels=1, frame_size=(8, 8), stem_channels=8,
                   stem_stride=1, stages=(StageSpec(1, 8), StageSpec(1, 16, 2)),
                   temporal="shift", direction="unidirectional")
    model = build(spec, seed=0)
    tracer = Tracer()
    install(tracer)  # a patched name that signflow no longer has raises AttributeError
    patched = list(tracer._undo)
    try:
        stream = model.open_stream()
        for _ in range(2):
            stream.step(np.zeros((1, 1, 8, 8), dtype=np.float32))
    finally:
        tracer.unpatch()

    online = tracer.names.index("tsm.online_step")
    assert list(tracer.name).count(online) == 2 * len(model.blocks)
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr} not restored"


def test_shift_traced_once_per_block_per_call(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    from spans import Tracer, install

    spec = NetSpec(num_classes=3, t=2, in_channels=1, frame_size=(8, 8), stem_channels=8,
                   stem_stride=1, stages=(StageSpec(1, 8), StageSpec(1, 16, 2)),
                   temporal="shift")
    model = build(spec, seed=0)
    clip = np.zeros((1, *spec.clip_shape), dtype=np.float32)
    tracer = Tracer()
    install(tracer)
    counts = []
    try:
        for call in (model.forward, model.infer):
            call(clip)
            counts.append(list(tracer.name).count(tracer.names.index("tsm.shift")))
    finally:
        tracer.unpatch()
    assert counts == [len(model.blocks), 2 * len(model.blocks)]


@pytest.mark.parametrize("workload", ["train", "stream", "roundtrip"])
def test_one_round_passes_its_checks(workload):
    proc = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--workload", workload,
                           "--seed", "9", "--seconds", "0"], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["failed"] == 0, proc.stderr
