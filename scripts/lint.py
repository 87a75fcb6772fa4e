#!/usr/bin/env python3
"""Grep-lints: one table of spellings a PR retired and where each may stay.

    python scripts/lint.py            # lint this repository
    python scripts/lint.py some/tree  # ... or another checkout of it

House rule iii: when a PR deletes a path, a lint trips on its parent so the
path cannot grow back.  Each row of ``LINTS`` is one such rule — a regular
expression searched line by line, the roots it is searched under, the sites
that may still spell it, the message, and the PR that retired it.  A hit is
reported as ``path:line:text`` (``grep -n``'s shape, which is what the
``allowed`` expressions are matched against).  Exit status 1 on any hit.
"""

from __future__ import annotations

import re
import sys
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import List, Tuple

REPO = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Lint:
    name: str                      #: the rule, as ci prints it
    pattern: str                   #: what must not appear ...
    roots: Tuple[str, ...]         #: ... under these files / directories
    message: str                   #: what to do instead
    retired_by: str                #: the change whose parent this trips on
    seed: Tuple[str, str]          #: (path, line): a violation, for the test
    allowed: Tuple[str, ...] = ()  #: hits matching one of these may stay
    include: Tuple[str, ...] = ("*.py",)
    #: names that ``pattern``'s group 1 must capture exactly once each
    #: (a second definition is the violation, and so is none)
    exactly_once: Tuple[str, ...] = ()


#: What the reference interpreter may import from ``repro``: the operator
#: classes it dispatches on, the kernel registry and ``is_vectorized``.
REFERENCE_IMPORTS = (r"from repro\.(flink\.plan|core\.gdst|flink\.optimizer"
                     r"|gpu\.kernel) import |from repro\.flink\.iterators "
                     r"import is_vectorized$")

LINTS = (
    Lint("cache-region table is private to gmemory.py/repro.obs",
         r"(^|[^a-zA-Z0-9_])_regions\b", ("src/repro",),
         "_regions accessed outside core/gmemory.py and repro/obs",
         "PR 2", ("src/repro/core/gstream.py", "n = len(mem._regions)"),
         allowed=(r"repro/core/gmemory\.py", r"repro/obs/")),
    Lint("processed-at-birth events are built only by the sim kernel",
         # `callbacks = None` is how the kernel marks an event processed
         # (Environment.step, and the resource entry points for an event
         # granted at birth); doing that by hand anywhere else would fork
         # the representation.
         r"\.callbacks\s*=\s*None", ("src/repro",),
         "processed event built outside common/simclock.py and "
         "common/resources.py",
         "PR 14", ("src/repro/flink/pipeline.py", "evt.callbacks = None"),
         allowed=(r"repro/common/simclock\.py", r"repro/common/resources\.py")),
    Lint("port requests are awaited in turn, never joined through all_of",
         # all_of over raw resource requests costs a composite event (and a
         # ConditionValue) per wait even when every slot is free; issue the
         # requests together and yield them one after the other.  (A NIC
         # port is not a Resource: see the port hand-on row.)
         r"all_of\([^)]*(\.request\(|_?req(uest)?s?[],) ])", ("src/repro",),
         "all_of(...) over resource requests in src/ (yield each request "
         "in turn)",
         "PR 18", ("src/repro/common/network.py",
                   "yield env.all_of([up.request(), down.request()])")),
    Lint("one emission path — no sink calls or sink guards outside repro/obs",
         # Engine code states facts through Observability.emit / .span and
         # the FACTS table derives every sink from them.  Outside repro/obs:
         # no metric handles (np.histogram is NumPy's), no tracer recording,
         # no monitor call except the named exports and configuration
         # (add_argument is argparse's `monitor` subparser), and none of the
         # old guard spellings — disabled is the bus's own `active` test.
         r"\.(counter|gauge|histogram)\(|tracer\.(span|instant|complete|track)\("
         r"|monitor\.[a-z_]+\(|obs is (not )?None|monitor is (not )?None"
         r"|(obs|tracer|monitor|registry)\.enabled", ("src/repro",),
         "sink call or sink guard outside src/repro/obs (emit a fact "
         "instead)",
         "PR 16", ("src/repro/flink/jobmanager.py",
                   'registry.counter("task.retries").inc()'),
         allowed=(r"repro/obs/", r"np\.histogram\(",
                  r"monitor\.(set_latency_target"
                  r"|set_availability_target|finalize|summary"
                  r"|add_argument)\(")),
    Lint("one payload module — no format test outside flink/payload.py",
         # What a partition payload *is* (row list | NumPy block | None) is
         # asked in repro/flink/payload.py and nowhere else under flink/ and
         # core/.  The exceptions: flink/iterators.py apply_filter tests what
         # a *UDF returned* (a boolean mask or the filtered payload), not
         # what the payload is; flink/shuffle.py asks is_block() to pick the
         # serde price list (_block_payloads, behind _zero_copy), to hand a
         # vectorized key extractor an empty block but not an empty row list
         # (_key_columns), and to take group_plan's single-sort fast path on
         # a block (_buckets).
         r"isinstance\([^)]*np\.ndarray|is_columnar\(|columnar_compatible\("
         r"|is_block\(|def (_result_len|_is_empty|_concat|_assemble"
         r"|_as_array|_row_buckets|_columnar_buckets)\(",
         ("src/repro/flink", "src/repro/core"),
         "payload format tested outside src/repro/flink/payload.py (use its "
         "accessors)",
         "PR 17", ("src/repro/flink/plan.py",
                   "if isinstance(rows, np.ndarray):"),
         allowed=(r"repro/flink/payload\.py",
                  r"repro/flink/iterators\.py:.*isinstance\(mask, np\.ndarray\)",
                  r"repro/flink/shuffle\.py:.*is_block\(")),
    Lint("one subtask body — a kernel chain of one, not a second copy",
         # core/gdst.py builds every GPU map-partition GWork in one
         # _build_gwork and scales every output in one _output_scale (the
         # reference, tests/reference/interp.py, says what it must compute).
         r"^\s*def (_build_gwork|_output_scale)\(", ("src/repro/core/gdst.py",),
         "core/gdst.py must define _build_gwork and _output_scale exactly "
         "once each",
         "PR 19", ("src/repro/core/gdst.py",
                   "    def _build_gwork(self, ctx, block):"),
         exactly_once=("_build_gwork", "_output_scale")),
    Lint("reduce on insert — no group-then-fold keyed reduce under "
         "src/repro/flink",
         # An element (key_fn, reduce_fn) pair is one fold_by_key pass
         # (flink/iterators.py); materialising every group and folding each
         # with apply_reduce in a second pass is the retired composition;
         # the reference's keyed reduce (tests/reference/interp.py) is the
         # oracle.
         r"apply_reduce\(members|apply_reduce\([^)]*\)\s+for\s.*\.values\(\)",
         ("src/repro/flink",),
         "per-group apply_reduce under src/repro/flink (use "
         "iterators.fold_by_key)",
         "PR 20", ("src/repro/flink/plan.py",
                   "return [apply_reduce(members, fn) for members in g]")),
    Lint("cluster.materialized is the one record of where partitions live",
         # The per-worker partition store was written at five sites and read
         # by none; loss, recovery and rebalancing all go by Partition.worker.
         r"(^|[^a-zA-Z0-9_])(put_partition|_store)\b", ("src/repro/flink",),
         "a second partition record under src/repro/flink (use "
         "cluster.materialized)",
         "PR 19", ("src/repro/flink/taskmanager.py",
                   "self.put_partition(partition)")),
    Lint("one engine — no streaming side room, no kernel surface kept for it",
         # The DataStream engine shared nothing with the executor and was
         # deleted, with the simclock / resources classes only it used
         # (DESIGN.md §7).
         r"repro\.streaming|any_of\(|AnyOf|FilterStore|PriorityResource",
         ("src", "tests", "benchmarks", "examples"),
         "the streaming package and its kernel surface are gone (AllOf, "
         "Resource and Store are what is left)",
         "PR 21", ("examples/windows.py",
                   "from repro.streaming import StreamEnvironment"),
         include=("*.py", "*.md")),
    Lint("one results file — benches write benchmarks/out/results.json, "
         "BENCH.jsonl is the record",
         # The seven per-PR result files (two of which every bench run
         # rewrote in the working tree) are BENCH.jsonl's first seven lines;
         # only CHANGES.md / ROADMAP.md history may still name them.
         r"BENCH_PR\d+\.json",
         ("benchmarks", "scripts", "src", "tests", "docs", "examples",
          "README.md", "EXPERIMENTS.md", "DESIGN.md"),
         "a per-PR result file (record through benchmarks/paper.py: "
         "record_bench, then `paper.py record PR`)",
         "PR 22", ("benchmarks/bench_shuffle.py",
                   'PATH = Path(__file__).parent.parent / "BENCH_PR8.json"'),
         allowed=(r"^scripts/lint\.py:",),
         include=("*.py", "*.md", "*.sh")),
    Lint("no page allocator — the page is modelled as the block quantum",
         # flink/memory.py (MemoryManager / MemoryKind / MemorySegment) was
         # built once per TaskManager and allocated from by nothing.
         r"repro\.flink\.memory|(^|[^G])MemoryManager\(",
         ("src", "tests", "benchmarks", "examples"),
         "the inert managed-memory model is gone (device memory is "
         "repro.gpu.memory, the GPU cache repro.core.gmemory)",
         "PR 22", ("src/repro/flink/taskmanager.py",
                   "from repro.flink.memory import MemoryManager"),
         include=("*.py", "*.md")),
    Lint("no block -> tuples lift — a keyed stage folds the block it is "
         "handed",
         # pagerank-tuples / cc-tuples / wordcount-tuples built one tuple
         # per partial row so an element pair could walk them; the built-in
         # pair (flink/iterators.py field / field_sum) takes the block.
         r"block_tuples", ("src",),
         "block_tuples under src/ (hand the block to group_by(0).sum(1); "
         "payload.to_tuples lowers a keyed stage's output)",
         "PR 23", ("src/repro/workloads/base.py",
                   "def block_tuples(rows: Any, *casts: type) -> List[tuple]:")),
    Lint("a committed workload keys by field, not by lambda",
         # group_by(lambda kv: kv[0]) is opaque to the engine: one key_fn
         # call, one dict probe and one reduce_fn call per row.
         r"\.group_by\(\s*lambda", ("src/repro/workloads",),
         "group_by(lambda ...) in a workload (key by position: "
         "group_by(0), or field(i) / vectorized(field(i)))",
         "PR 23", ("src/repro/workloads/pagerank.py",
                   "                    .group_by(lambda kv: kv[0]) \\")),
    Lint("one frame per hop — no grant tower, no nested driver generator",
         # A resource event is built, marked and scheduled in the function
         # that hands it out (Resource.request / release, Store.put / get),
         # and a per-block driver call of CUDAWrapper yields its fused
         # JNI + driver charge itself instead of delegating to a second
         # generator of the runtime.
         r"_grant_next\(|def _request\(|\._born\("
         r"|yield from self\.runtime\.(malloc|free)\(",
         ("src/repro/common", "src/repro/core/channels.py"),
         "a call tower under a per-event hop (build the event where it is "
         "handed out; yield the fused charge from the wrapper)",
         "PR 24", ("src/repro/core/channels.py",
                   "        buf = yield from self.runtime.malloc(device, "
                   "nbytes,")),
    Lint("emit once — the bus appends a fact to its log and nothing else",
         # Observability.emit and a span's entry and exit append one row to
         # the fact log; the tracer draws it when read and the registry and
         # the monitor fold it (Observability._fold).  Building the trace
         # event or feeding a sink as the fact is stated is the retired
         # eager path.
         r"TraceEvent\(|\.feed\(|registry\.apply\(", ("src/repro/obs/bus.py",),
         "eager sink work on the bus's emit path (append the row; the sinks "
         "fold the log)",
         "PR 25", ("src/repro/obs/bus.py",
                   "                monitor.feed(kind, name, value, labels)")),
    Lint("a NIC port hands itself on — no Resource grant in common/network.py",
         # A port's hold time is known when the transfer asks for it, so the
         # release starts the next holder's service in its own step
         # (common/resources.py Port / serve): one event per transfer.  A
         # unit Resource woke each waiter through the heap with a grant.
         r"Resource\(|\.request\(\)", ("src/repro/common/network.py",),
         "a Resource or a request() in common/network.py (claim both NIC "
         "ports with resources.serve)",
         "NIC port hand-on", ("src/repro/common/network.py",
                              "        self.lock = Resource(env, capacity=1)")),
    Lint("a GPU engine hands itself on — no engine grant, no stage sentinel",
         # A kernel's priced seconds and a DMA's wire time are known when the
         # caller asks, so the compute and copy engines are Ports claimed
         # through resources.serve: a queued launch or copy starts in the
         # releaser's step.  The stage loops end after their blocks; a None
         # sentinel would pay the D2H stage's hand-off redirect once more.
         r"Resource\(|\.request\(\)|put\(None\)",
         ("src/repro/gpu/device.py", "src/repro/gpu/runtime.py",
          "src/repro/core/gstream.py"),
         "a Resource engine, an engine request() or a stage sentinel (claim "
         "the engine Port with resources.serve; loop over the blocks)",
         "GPU engine hand-on", ("src/repro/gpu/device.py",
                                "        self.compute = Resource(env, "
                                "capacity=1)")),
    Lint("one oracle for answers — no frozen engine copy under tests/",
         # The value halves of tests/flink/retired.py and tests/core/retired.py
         # are gone: tests hold answers to tests/reference/interp.py.
         r"^\s*(from|import)\s+tests\.(flink|core)"
         r"(\.retired\b|\s+import\s.*\bretired\b)",
         ("src", "tests", "benchmarks", "examples", "scripts"),
         "an import of a retired engine copy (hold the answer to "
         "tests/reference/interp.py)",
         "reference interpreter",
         ("tests/flink/test_payload.py", "from tests.flink import retired")),
    Lint("the reference imports only what it dispatches on",
         # No Environment, partition, price or clock: the operator classes,
         # the kernel registry and is_vectorized, nothing else of repro.
         r"^\s*(import\s+repro|from\s+repro\b)",
         ("tests/reference/interp.py",),
         "tests/reference/interp.py imports from repro beyond the operator "
         "classes, the kernel registry and is_vectorized",
         "reference interpreter",
         ("tests/reference/interp.py",
          "from repro.flink.payload import to_block"),
         allowed=(r"^tests/reference/interp\.py:\d+:" + REFERENCE_IMPORTS,)),
    Lint("one way to run a GWork — no device-mapped execution",
         # Every GWork runs through the H2D -> kernel -> D2H pipeline over
         # the copy engines and every kernel launches in
         # CUDARuntime.execute.  The mapped_memory option selected a second
         # runner with its own fact row, told apart by a Fact.marker arg.
         r"mapped_memory|_mapped_execute|kernel\.mapped|\bmarker=", ("src",),
         "device-mapped execution in src/ (run the GWork through the "
         "pipeline; launch kernels through CUDARuntime.execute)",
         "device-mapped execution",
         ("src/repro/core/gwork.py", "    mapped_memory: bool = False")),
    Lint("one driver per workload — mode picks each step's operator",
         # A workload writes its algorithm once, in driver(session, mode):
         # read, persist, iterate, write, with `if gpu:` choosing the
         # kernel op or its CPU twin at each step.  A per-mode driver pair,
         # a CPU-only helper set or a workload-private device count is the
         # retired second copy (the device count is base.gpu_parallelism).
         r"def _run_cpu\b|def _run_gpu\b|_total_gpus|_make_cpu_",
         ("src/repro/workloads",),
         "a per-mode driver or CPU-only helper under src/repro/workloads "
         "(write one driver(session, mode) and pick the operator per step)",
         "per-mode drivers",
         ("src/repro/workloads/kmeans.py",
          "    def _run_cpu(self, session):")),
    Lint("telemetry is write-only — the model reads the cluster, not a sink",
         # The model emits facts and never reads them back, so a decision
         # cannot depend on whether tracing or monitoring is on: the
         # autoscaler's slope is its own per-tick trend and its read
         # locality HDFS's own count.  flink/report.py is the export layer.
         r"(?<!repro\.)\bobs\.(registry|monitor|tracer)\b|\.trends\(",
         tuple(f"src/repro/{pkg}" for pkg in ("flink", "core", "gpu", "hdfs",
                                               "common", "workloads")),
         "a sink read in a model package (read the cluster's own state; "
         "the sinks are for repro/obs and flink/report.py)",
         "sink reads in the model",
         ("src/repro/flink/autoscaler.py",
          "        registry = self.cluster.obs.registry"),
         allowed=(r"repro/flink/report\.py",)),
    Lint("a stage loop claims its engine itself",
         # The kernel and D2H stages of core/gstream.py claim device.compute
         # and the D2H copy engine with resources.serve, price a block once
         # per pipeline (CUDARuntime.price) and launch through
         # CUDARuntime.execute; a per-block generator around kernel_op or
         # transfer_op is the retired tower.  kernel_op stays for the async
         # launch_kernel path under src/repro/gpu.
         r"launch_kernel_inline|transfer_d2h_inline|yield from .*kernel_op\(",
         ("src/repro",),
         "a generator tower in the GPU block path (claim the engine with "
         "resources.serve in the stage loop; CUDARuntime.price / execute)",
         "generator towers in the block path",
         ("src/repro/core/gstream.py",
          "            launch_inline = wrapper.launch_kernel_inline"),
         allowed=(r"^src/repro/(?!core/)[^:]*:\d+:.*yield from .*kernel_op\(",)),
    Lint("the monitor reads facts, not samples",
         # Every derivation lands in the monitor window of its fact's own
         # instant, registry derivations included: no engine loop drives the
         # window clock, and the monitor keeps no copy of registry totals to
         # difference at window close.
         r'emit\("tick"\)|mon\("tick"\)|_sample_registry|_last_counters',
         ("src/repro",),
         "a window-clock tick or a registry sample (state the fact; the bus "
         "folds it into the window of its instant)",
         "registry sampling and engine ticks",
         ("src/repro/flink/jobmanager.py", '        obs.emit("tick")')),
    Lint("obs is a leaf — the model imports only Observability / OFF",
         # The model states facts through the bus and keeps its own
         # statistics (the autoscaler's pressure history, the chaos
         # engine's latencies); it borrows no class from repro/obs.
         # flink/report.py is the export layer.
         r"^\s*(import\s+repro\.obs\b|from\s+repro\.obs\.|from\s+repro\s+"
         r"import\s+.*\bobs\b|from\s+repro\.obs\s+import\s+(?!(OFF|"
         r"Observability)(\s*,\s*(OFF|Observability))*\s*(#.*)?$))",
         tuple(f"src/repro/{pkg}" for pkg in ("flink", "core", "gpu", "hdfs",
                                               "common", "workloads")),
         "a repro.obs import in a model package other than Observability / "
         "OFF (keep the statistic beside its one model user)",
         "obs imports in the model",
         ("src/repro/flink/chaos.py",
          "        from repro.obs.metrics import Histogram"),
         allowed=(r"^src/repro/flink/report\.py:",)),
    Lint("obs is a leaf — no anomaly module",
         # Its slope and changepoint test live in obs/dashboard.py, their
         # one reader; the autoscaler keeps its own pressure slope.
         r"repro\.obs\.anomaly|obs/anomaly\.py",
         ("src", "tests", "scripts", "benchmarks", "examples"),
         "the retired anomaly module (the dashboard's overlays are in "
         "repro/obs/dashboard.py)",
         "obs/anomaly.py",
         ("src/repro/flink/autoscaler.py",
          "from repro.obs.anomaly import SlidingTrend"),
         allowed=(r"^scripts/lint\.py:",), include=("*.py", "*.sh")),
    Lint("one percentile rule — nearest rank, in repro/common/stats.py",
         # Every percentile is a value that was observed:
         # common/stats.nearest_rank over the sorted observations.  A
         # histogram keeps its observations and counts its buckets at
         # export; an estimate interpolated inside a bucket, or a second
         # spelling of the rank, is the retired path.
         r"bucket_counts|histogram_quantile|-\(-pct\b", ("src/repro",),
         "a second percentile rule under src/repro (call "
         "repro.common.stats.nearest_rank on the sorted observations)",
         "bucket interpolation",
         ("src/repro/obs/metrics.py",
          "        self.bucket_counts = [0] * (len(self.bounds) + 1)")),
    Lint("the trace is drawn from facts",
         # Every trace event is drawn from a row of the fact log, the
         # monitor's alert instants too (alert.fired / alert.resolved are
         # FACTS rows, stated through Observability.emit).  A tracer call
         # that records a ready-made instant or interval is a second way
         # onto the trace.
         r"\.(instant|complete)\(", ("src/repro",),
         "a direct tracer instant / complete under src/repro (state a fact "
         "through Observability.emit; FACTS decides what is drawn)",
         "tracer instants and completes",
         ("src/repro/obs/monitor.py",
          '        self._tracer.instant(f"{what}:{alert.rule}", "monitor", '
          'track, at,')),
    Lint("the Chrome trace is written a chunk at a time",
         # obs/export.write_chrome_trace encodes Tracer.chrome_chunks one
         # CHROME_CHUNK of events at a time into a file that replaces the
         # target when whole.  Dumping Tracer.to_chrome() holds every event
         # dict and the whole document's string at once.
         r"json\.dumps?\([^)]*to_chrome\(", ("src/repro",),
         "a whole-document Chrome dump under src/repro (write the trace "
         "with repro.obs.export.write_chrome_trace)",
         "whole-document trace dumps",
         ("src/repro/obs/export.py",
          '    path.write_text(json.dumps(tracer.to_chrome()) + "\\n")')),
)


def _files(root: Path, lint: Lint) -> List[Path]:
    found: List[Path] = []
    for rel in lint.roots:
        top = root / rel
        if top.is_dir():
            found += [path for glob in lint.include
                      for path in top.rglob(glob)]
        elif top.exists():
            found.append(top)
    return sorted(set(found))


def hits(lint: Lint, root: Path = REPO) -> List[str]:
    """The ``path:line:text`` lines of ``root`` that trip ``lint``."""
    pattern = re.compile(lint.pattern)
    allowed = [re.compile(expr) for expr in lint.allowed]
    found = []
    for path in _files(root, lint):
        lines = path.read_text(errors="replace").splitlines()
        for number, text in enumerate(lines, 1):
            match = pattern.search(text)
            if not match:
                continue
            hit = f"{path.relative_to(root)}:{number}:{text}"
            if not any(a.search(hit) for a in allowed):
                found.append((match, hit))
    if lint.exactly_once:
        seen = Counter(match.group(1) for match, _ in found)
        missing = [f"{lint.roots[0]}: no definition of {name}"
                   for name in lint.exactly_once if not seen[name]]
        return missing + [hit for match, hit in found
                          if seen[match.group(1)] > 1]
    return [hit for _, hit in found]


def main(argv: list) -> int:
    root = Path(argv[0]).resolve() if argv else REPO
    status = 0
    for lint in LINTS:
        print(f"== lint: {lint.name} ==")
        found = hits(lint, root)
        for hit in found:
            print(hit)
        if found:
            print(f"FAIL: {lint.message} [retired by {lint.retired_by}]",
                  file=sys.stderr)
            status = 1
        else:
            print("ok")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
