"""Telemetry the benchmark collects from the program's public hooks.

:class:`Recorder` is a :class:`repro.obs.Sink` subscribed to a
``Telemetry`` the benchmark hands to the program (an engine's, a
router's, or a machine's).  It keeps every closed span, every worker span
and a count per instant event, and :meth:`Recorder.take` hands back what
arrived since the previous call, so each record's spans can be told
apart.  :class:`EventCounter` keeps only the counts, for untraced runs.
"""

from __future__ import annotations

from repro.obs import Sink


class EventCounter(Sink):
    """Counts instant events by name (and ``name.op`` when tagged)."""

    def __init__(self):
        self.counts: dict = {}

    def on_event(self, name, path, t_ns, attrs):
        k = int(attrs.get("count", 1))
        self.counts[name] = self.counts.get(name, 0) + k
        op = attrs.get("op")
        if op is not None:
            key = f"{name}.{op}"
            self.counts[key] = self.counts.get(key, 0) + k

    def take(self) -> dict:
        out, self.counts = self.counts, {}
        return out


class Recorder(EventCounter):
    """Spans and worker spans as ``(path, t0_ns, t1_ns)`` tuples, plus counts."""

    def __init__(self):
        super().__init__()
        self.spans: list = []
        self.workers: list = []

    def on_span_end(self, path, t0_ns, t1_ns, attrs):
        self.spans.append((path, t0_ns, t1_ns))

    def on_worker_span(self, worker, name, path, t0_ns, t1_ns):
        self.workers.append((worker, name, t0_ns, t1_ns))

    def take_spans(self) -> tuple:
        spans, workers = self.spans, self.workers
        self.spans, self.workers = [], []
        return spans, workers


#: machine region name -> pipeline stage, as the program names its regions
#: (tv-filter runs its spanning tree inside ``Filtering``, the paper's
#: Fig. 4 convention, so for it ``filter`` includes the spanning tree)
REGION_STAGE = {
    "Spanning-tree": "spanning",
    "Filtering": "filter",
    "Euler-tour": "euler",
    "Low-high": "lowhigh",
    "Label-edge": "label",
    "Connected-components": "cc",
}
STAGES = tuple(REGION_STAGE.values())


def stage_seconds(wall_regions: dict, prefix: str = "") -> dict:
    """Per-stage wall seconds from the top-level machine regions under ``prefix``."""
    out = dict.fromkeys(STAGES, 0.0)
    for path, s in wall_regions.items():
        if prefix:
            if not path.startswith(prefix + "."):
                continue
            path = path[len(prefix) + 1:]
        if path in REGION_STAGE:
            out[REGION_STAGE[path]] += s
    return out
