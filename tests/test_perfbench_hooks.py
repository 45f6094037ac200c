"""The traced benchmark patches signflow names by string; these must exist.

``perfbench/spans.py`` wraps functions where signflow's callers look them
up (``signflow.backbone.online_step`` and so on). A rename in signflow
would only surface when a traced benchmark run dies, so this test installs
the tracer, streams two frames through it and removes it again.
"""

from pathlib import Path

import numpy as np

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
