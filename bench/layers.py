"""Per-layer timing from outside the program.

:class:`LayerTracer` wraps public functions and methods of the ``repro``
package at runtime, accumulates busy time, self time, call counts and
failures per layer, and restores every original on :meth:`uninstall`.
Nothing under ``src/`` knows it exists.

Self time is a wrapper's elapsed time minus the elapsed time of the timed
calls made inside it, so the self times of all layers add up to the time
spent inside the outermost timed calls.

The wrappers are process-local state.  Sweep pool workers are forked from
the traced process and inherit the wrappers; a worker resets its counters
on its first timed call and, after each outermost call, writes them to a
spool directory that the parent merges with :meth:`collect_spool`.  A
process is assumed to run timed calls from one thread only.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple


def _len_result(result) -> int:
    return len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:Class.method`` or ``module:function``."""

    layer: str
    module: str
    path: str
    #: Maps the call's return value to a work count (bands, symbols, ...).
    count: Optional[Callable] = None

    @property
    def key(self) -> str:
        return f"{self.module}:{self.path}"


#: Every layer boundary the traced pass times.  ``rx.preprocess`` patches the
#: names the receiver module looks up at call time; the metric functions are
#: patched where the link simulator imported them.
TARGETS: Tuple[Target, ...] = (
    Target("camera", "repro.camera.sensor", "RollingShutterCamera.record", _len_result),
    Target("tx.plan", "repro.core.system", "ColorBarsTransmitter.plan"),
    Target("tx.waveform", "repro.core.system", "ColorBarsTransmitter.waveform"),
    Target("faults", "repro.faults.base", "FaultInjector.inject"),
    Target("rx.preprocess", "repro.rx.receiver", "frames_to_scanline_lab"),
    Target("rx.preprocess", "repro.rx.receiver", "frame_to_scanline_lab"),
    Target("rx.segment", "repro.rx.segmentation", "BandSegmenter.segment", _len_result),
    Target("rx.detect", "repro.rx.detector", "SymbolDetector.detect", _len_result),
    Target("csk.calibration", "repro.csk.calibration", "CalibrationTable.match"),
    Target("csk.calibration", "repro.csk.calibration", "CalibrationTable.update_partial"),
    Target("rx.assemble", "repro.rx.assembler", "PacketAssembler.stitch"),
    Target("rx.assemble", "repro.rx.assembler", "PacketAssembler.stitch_into"),
    Target("rx.assemble", "repro.rx.assembler", "PacketAssembler.extract"),
    Target("rx.assemble", "repro.rx.assembler", "PacketAssembler.extract_window"),
    Target("fec", "repro.fec.reed_solomon", "ReedSolomonCodec.decode"),
    Target("rx.receiver", "repro.rx.receiver", "ColorBarsReceiver.process_frames"),
    Target("rx.streaming", "repro.rx.streaming", "StreamingReceiver.feed"),
    Target("rx.streaming", "repro.rx.streaming", "StreamingReceiver.finish"),
    Target("metrics", "repro.link.simulator", "align_ground_truth"),
    Target("metrics", "repro.link.simulator", "compute_link_metrics"),
    Target("link", "repro.link.simulator", "RunSpec.execute"),
    Target("perf.runtime", "repro.perf.runtime", "run_specs_resilient"),
    Target("serve.soak", "repro.serve.soak", "run_soak"),
    Target("serve", "repro.serve.manager", "SessionManager.open_session"),
    Target("serve", "repro.serve.manager", "SessionManager.submit_frame"),
    Target("serve", "repro.serve.manager", "SessionManager.pump"),
    Target("serve", "repro.serve.manager", "SessionManager.close_session"),
    Target("serve", "repro.serve.manager", "SessionManager.evict_idle"),
    Target("serve", "repro.serve.manager", "SessionManager.close_all"),
)


def _resolve(target: Target):
    """``(owner, attribute name)`` holding the target's callable."""
    owner = importlib.import_module(target.module)
    *classes, name = target.path.split(".")
    for cls_name in classes:
        owner = getattr(owner, cls_name)
    return owner, name


def _zero() -> Dict[str, float]:
    return {"total_s": 0.0, "self_s": 0.0, "calls": 0, "failures": 0, "count": 0}


class LayerTracer:
    """Install timing wrappers, accumulate per-target stats, uninstall.

    ``spool_dir`` is where forked pool workers leave their counters.
    """

    targets = TARGETS

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = Path(spool_dir)
        self.stats: Dict[str, Dict[str, float]] = {}
        self._stack: List[List[float]] = []
        self._pid = os.getpid()
        self._parent_pid = self._pid
        self._originals: List[Tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> "LayerTracer":
        if self._originals:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            owner, name = _resolve(target)
            original = owner.__dict__[name]
            self._originals.append((owner, name, original))
            setattr(owner, name, self._wrap(target, original))
        return self

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._originals):
            setattr(owner, name, original)
        self._originals = []

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- timing ----------------------------------------------------------

    def _wrap(self, target: Target, original):
        key = target.key
        count = target.count

        @functools.wraps(original)
        def timed(*args, **kwargs):
            self._enter()
            failed = True
            result = None
            try:
                result = original(*args, **kwargs)
                failed = False
                return result
            finally:
                self._exit(key, failed, count(result) if count and not failed else 0)

        return timed

    def _enter(self) -> None:
        pid = os.getpid()
        if pid != self._pid:
            # First timed call in a forked worker: start from zero.
            self._pid = pid
            self.stats = {}
            self._stack = []
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, key: str, failed: bool, count: int) -> None:
        start, children = self._stack.pop()
        elapsed = time.perf_counter() - start
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = _zero()
        entry["total_s"] += elapsed
        entry["self_s"] += elapsed - children
        entry["calls"] += 1
        entry["failures"] += int(failed)
        entry["count"] += count
        if self._stack:
            self._stack[-1][1] += elapsed
        elif self._pid != self._parent_pid:
            self._spool()

    # -- cross-process collection ----------------------------------------

    def _spool(self) -> None:
        path = self.spool_dir / f"{self._pid}.json"
        scratch = path.with_suffix(".tmp")
        scratch.write_text(json.dumps(self.stats))
        os.replace(scratch, path)

    def collect_spool(self) -> int:
        """Merge and delete worker counter files; returns how many merged."""
        merged = 0
        for path in sorted(self.spool_dir.glob("*.json")):
            for key, entry in json.loads(path.read_text()).items():
                mine = self.stats.setdefault(key, _zero())
                for field, value in entry.items():
                    mine[field] += value
            path.unlink()
            merged += 1
        return merged

    # -- reading ---------------------------------------------------------

    def layer(self, layer: str) -> Dict[str, float]:
        """Summed stats of every target in ``layer``."""
        out = _zero()
        for target in self.targets:
            if target.layer == layer:
                for field, value in self.stats.get(target.key, _zero()).items():
                    out[field] += value
        return out

    def key(self, key: str) -> Dict[str, float]:
        return self.stats.get(key, _zero())
