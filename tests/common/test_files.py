"""The one file writer: its contract, and every artefact written through it.

``write_replacing`` never renames onto an existing name (on ext4 with
``auto_da_alloc`` that forces the new file's blocks to disk), keeps the
old bytes when the text cannot be produced, and leaves no temporary file.
Each artefact writer of the package overwrites an existing target through
it, with the bytes the writer's own expression always produced.
"""

import io
import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.common.files import write_replacing
from repro.obs.dashboard import render_dashboard, write_dashboard
from repro.obs.explain import explain_summaries
from repro.obs.export import write_chrome_trace, write_metrics
from repro.obs.flightrecorder import FlightRecorder
from repro.obs.metrics import MetricsRegistry
from repro.obs.bus import Observability
from repro.obs.profile import profile_file
from tests.obs.test_export import Clock, small_trace


def leftovers(directory: Path):
    return sorted(p.name for p in directory.glob(".*.tmp"))


class TestWriteReplacing:
    def test_writes_the_pieces_into_a_missing_parent(self, tmp_path):
        path = tmp_path / "a" / "b" / "out.txt"
        assert write_replacing(str(path), iter(["x", "", "yz\n"])) == path
        assert path.read_text() == "xyz\n"
        assert leftovers(path.parent) == []

    def test_a_failing_piece_keeps_the_old_bytes(self, tmp_path):
        path = tmp_path / "out.txt"
        path.write_text("old\n")

        def pieces():
            yield "new, half"
            raise ValueError("cannot encode")

        with pytest.raises(ValueError, match="cannot encode"):
            write_replacing(path, pieces())
        assert path.read_text() == "old\n"
        assert leftovers(tmp_path) == []

    def test_a_failing_piece_creates_no_target(self, tmp_path):
        path = tmp_path / "out.txt"
        with pytest.raises(TypeError):
            write_replacing(path, ["fine", object()])
        assert list(tmp_path.iterdir()) == []


# -- every artefact writer, overwriting an existing target ------------------------
def run_cli(argv):
    code = main(argv, out=io.StringIO())
    assert code == 0, argv


def small_summary():
    obs = Observability(Clock(), monitoring=True)
    mon = obs.monitor
    mon.register_worker("worker0")
    obs.emit("place", reason="local", depth=3, worker="worker0")
    mon.observe("job.makespan_s", 0.4, job="job0")
    mon.finalize()
    return mon.summary()


def traced_run(tmp_path) -> Path:
    path = tmp_path / "run.json"
    run_cli(["trace", "pointadd", "--workers", "2", "--real", "2000",
             "--nominal", "1e4", "--iterations", "2", "--out", str(path)])
    return path


SMALL_RUN = ["pointadd", "--mode", "gpu", "--workers", "2", "--real",
             "2000", "--nominal", "1e4", "--iterations", "2"]


# Each writes ``target`` and returns the text the writer's expression gives
# for the same input.
def chrome_trace(tmp_path, target):
    tracer = small_trace()
    write_chrome_trace(tracer, target)
    return json.dumps(tracer.to_chrome()) + "\n"


def metrics_json(tmp_path, target):
    registry = MetricsRegistry()
    registry.counter("hits", device="d0").inc(3)
    write_metrics(registry, target)
    return registry.to_json() + "\n"


def dashboard(tmp_path, target):
    summary = small_summary()
    assert write_dashboard(summary, str(target), title="t") == str(target)
    return render_dashboard(summary, title="t")


def postmortem_bundle(tmp_path, target):
    recorder = FlightRecorder(Clock(), tracer=small_trace(),
                              dirpath=str(target.parent))
    assert recorder.dump("x") == target.name
    return json.dumps(recorder.last_bundle, indent=2, sort_keys=True) + "\n"


def prometheus_text(tmp_path, target):
    run_cli(["metrics", *SMALL_RUN, "--format", "prom", "--out",
             str(target)])
    out = io.StringIO()
    main(["metrics", *SMALL_RUN, "--format", "prom"], out=out)
    return out.getvalue()


def monitor_summary(tmp_path, target):
    run_cli(["monitor", *SMALL_RUN, "--summary-out", str(target)])
    return json.dumps(json.loads(target.read_text()), indent=2) + "\n"


def profile_summary(tmp_path, target):
    trace = traced_run(tmp_path)
    run_cli(["profile", str(trace), "--quiet", "--json", str(target)])
    return json.dumps(profile_file(trace), indent=2) + "\n"


def explanation(tmp_path, target):
    trace = traced_run(tmp_path)
    run_cli(["profile", str(trace), "--quiet", "--baseline", str(trace),
             "--explain-out", str(target)])
    doc = explain_summaries(profile_file(trace), profile_file(trace))
    doc["baseline"]["source"] = doc["current"]["source"] = str(trace)
    return json.dumps(doc, indent=2) + "\n"


WRITERS = {"chrome trace": chrome_trace, "metrics json": metrics_json,
           "dashboard": dashboard, "post-mortem bundle": postmortem_bundle,
           "prometheus text": prometheus_text,
           "monitor summary": monitor_summary,
           "profile summary": profile_summary, "explanation": explanation}


@pytest.mark.parametrize("write", WRITERS.values(), ids=WRITERS.keys())
def test_every_writer_renames_into_a_free_name(write, tmp_path, monkeypatch):
    # the name the recorder gives its first bundle for reason "x"
    target = tmp_path / "out" / "postmortem-000-x.json"
    target.parent.mkdir()
    target.write_text("stale\n")
    renamed = []
    replace = os.replace

    def spy(src, dst):
        assert not os.path.lexists(dst), f"renamed onto existing {dst}"
        renamed.append(Path(dst))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    expected = write(tmp_path, target)
    assert target in renamed
    assert target.read_text() == expected
    assert leftovers(target.parent) == []
