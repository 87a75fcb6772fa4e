"""Exporters: Chrome trace-event JSON and flat metrics JSON.

The trace format is the Chrome/Perfetto "JSON Array with metadata" flavour:
``{"traceEvents": [...]}`` where each event is a complete span (``"ph":
"X"``, explicit ``ts``/``dur`` in microseconds), an instant (``"ph": "i"``)
or a metadata record (``"ph": "M"`` naming processes/threads).  Open a
written file at https://ui.perfetto.dev or chrome://tracing.

:func:`validate_chrome_trace` (re-exported from :mod:`repro.obs.schema`) is
a self-contained validator (no third-party jsonschema dependency): it
returns a list of human-readable errors, empty when the document conforms.
CI runs it over the traced bench smoke via ``python -m repro.obs.validate``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Union

from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_chrome_trace, validate_chrome_trace_file
from repro.obs.trace import Tracer, chrome_document

__all__ = [
    "write_chrome_trace",
    "write_metrics",
    "validate_chrome_trace",
    "validate_chrome_trace_file",
    "collect_cluster",
]


def write_chrome_trace(tracer: Tracer, path: Union[str, Path]) -> Path:
    """Write the tracer's events as a Chrome trace JSON file.

    The bytes are those of :meth:`Tracer.to_chrome`'s document encoded by
    ``json.dumps``, plus a newline, but encoded and written one
    :data:`~repro.obs.trace.CHROME_CHUNK` of events at a time: neither the
    document's event list nor its whole string is ever held.  They go to a
    temporary file beside ``path`` that replaces it only once complete, so
    an event ``json`` cannot encode raises and leaves ``path`` as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    head, tail = json.dumps(chrome_document([])).split("[]", 1)
    partial = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with partial.open("w") as out:
            out.write(head + "[")
            sep = ""
            for chunk in tracer.chrome_chunks():
                out.write(sep + json.dumps(chunk)[1:-1])
                sep = ", "
            out.write("]" + tail + "\n")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
    return path


def write_metrics(registry: MetricsRegistry, path: Union[str, Path]) -> Path:
    """Write the registry snapshot as flat JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(registry.to_json() + "\n")
    return path


# -- snapshot-time collection ------------------------------------------------------
def collect_cluster(registry: MetricsRegistry, cluster: Any) -> MetricsRegistry:
    """Gather a cluster's public counters into registry gauges.

    The hot paths keep their plain attribute counters (a per-block increment
    must stay an attribute add); this collector turns them into labelled
    gauges at export time, reading only public APIs — notably
    :meth:`repro.core.gmemory.GMemoryManager.cache_stats` rather than the
    private region table.
    """
    hdfs = getattr(cluster, "hdfs", None)
    if hdfs is not None:
        registry.gauge("hdfs.read.bytes").set(hdfs.total_bytes_read())
        registry.gauge("hdfs.write.bytes").set(hdfs.total_bytes_written())
    for worker in getattr(cluster, "workers", {}).values():
        registry.gauge("tasks.executed", worker=worker.name).set(
            worker.taskmanager.tasks_executed)
    managers = getattr(cluster, "gpu_managers", lambda: [])()
    for gm in managers:
        for device in gm.devices:
            labels = {"device": device.name}
            registry.gauge("gpu.device.kernel_seconds", **labels).set(
                device.kernel_seconds)
            registry.gauge("gpu.device.kernels_launched", **labels).set(
                device.kernels_launched)
            registry.gauge("gpu.device.h2d_bytes", **labels).set(
                device.h2d_bytes)
            registry.gauge("gpu.device.d2h_bytes", **labels).set(
                device.d2h_bytes)
        for gid, stats in gm.gmm.cache_stats().items():
            labels = {"device": gm.devices[gid].name}
            registry.gauge("gpu.cache.hits", **labels).set(stats.hits)
            registry.gauge("gpu.cache.misses", **labels).set(stats.misses)
            registry.gauge("gpu.cache.evictions", **labels).set(
                stats.evictions)
            registry.gauge("gpu.cache.spills", **labels).set(stats.spills)
            registry.gauge("gpu.cache.used_bytes", **labels).set(
                stats.used_bytes)
        sm = gm.gstream_manager
        registry.gauge("gstream.works_submitted",
                       worker=gm.worker_name).set(sm.works_submitted)
        registry.gauge("gstream.works_completed",
                       worker=gm.worker_name).set(sm.works_completed)
    return registry
