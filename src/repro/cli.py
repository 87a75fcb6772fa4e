"""Command-line interface: run workloads and inspect the calibration.

Examples::

    python -m repro list
    python -m repro run kmeans --mode gpu --workers 10 --iterations 8
    python -m repro run spmv --mode both --nominal 1e7
    python -m repro trace wordcount --out traces/wordcount.json
    python -m repro metrics kmeans --mode gpu
    python -m repro chaos wordcount --kill worker1@40 --gpu-fail worker0:0@10
    python -m repro monitor wordcount --kill worker1@40 \\
        --expect-alert worker_unhealthy --dashboard-out dash.html
    python -m repro metrics kmeans --format prom
    python -m repro profile traces/wordcount-gpu.json
    python -m repro profile traces/run.json --baseline traces/base.json
    python -m repro profile traces/run.json --baseline traces/base.json \\
        --explain
    python -m repro postmortem traces/postmortems/
    python -m repro specs
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from repro.common.files import write_replacing
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.gpu.specs import SPECS
from repro.obs.export import collect_cluster, write_chrome_trace, \
    write_metrics
from repro.workloads import (
    ConnectedComponentsWorkload,
    KMeansWorkload,
    LinearRegressionWorkload,
    PageRankWorkload,
    PointAddWorkload,
    SpMVWorkload,
    WordCountWorkload,
)
from repro.workloads.base import Workload

#: name -> (workload class, default nominal size, size parameter name)
WORKLOADS: Dict[str, tuple] = {
    "kmeans": (KMeansWorkload, 210e6, "nominal_elements"),
    "linreg": (LinearRegressionWorkload, 210e6, "nominal_elements"),
    "spmv": (SpMVWorkload, 8e9 / 192.0, "nominal_elements"),
    "pagerank": (PageRankWorkload, 15e6, "nominal_pages"),
    "concomp": (ConnectedComponentsWorkload, 15e6, "nominal_pages"),
    "wordcount": (WordCountWorkload, 4e9, "nominal_elements"),
    "pointadd": (PointAddWorkload, 100e6, "nominal_elements"),
}


def _checked(cast, what: str, test):
    """An option's ``type=``: ``cast`` the text and refuse a value ``test``
    rejects (argparse prints the flag, exits 2)."""
    def parse(text: str):
        value = cast(text)
        if not test(value):
            raise ValueError(text)
        return value
    parse.__name__ = f"{what} {cast.__name__}"   # argparse's message
    return parse


def _positive(cast):
    """A positive, finite number."""
    return _checked(cast, "positive", lambda v: 0 < v < float("inf"))


#: A finite number >= 0 (rates, back-off); a probability; a count.
_non_negative = _checked(float, "non-negative",
                         lambda v: 0 <= v < float("inf"))
_fraction = _checked(float, "[0, 1]", lambda v: 0 <= v <= 1)
_count = _checked(int, "non-negative", lambda v: v >= 0)


def _add_run_options(p: argparse.ArgumentParser, single_mode: bool) -> None:
    """Workload-run options shared by ``run``, ``trace``, ``metrics``,
    ``chaos`` and ``monitor``."""
    p.add_argument("workload", choices=sorted(WORKLOADS))
    if single_mode:
        p.add_argument("--mode", choices=("cpu", "gpu"), default="gpu")
    else:
        p.add_argument("--mode", choices=("cpu", "gpu", "both"),
                       default="both")
    p.add_argument("--workers", type=_positive(int), default=10,
                   help="slave nodes (default: the paper's 10)")
    p.add_argument("--gpus", default="c2050,c2050",
                   help="comma-separated GPU specs per worker")
    p.add_argument("--iterations", type=_positive(int), default=None)
    p.add_argument("--nominal", type=_positive(float), default=None,
                   help="nominal input size (elements or pages)")
    p.add_argument("--real", type=_positive(int), default=12_000,
                   help="in-memory sample size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--vectorized", action="store_true",
                   help="run block-vectorized CPU operators: same results, "
                        "SIMD block cost model + zero-copy columnar "
                        "exchanges (wordcount/kmeans/pagerank)")


def _add_fault_options(p: argparse.ArgumentParser) -> None:
    """Fault-schedule options shared by ``chaos`` and ``monitor``."""
    p.add_argument("--kill", action="append", default=[],
                   type=_parse_kill, metavar="WORKER@T",
                   help="kill WORKER at simulated time T (e.g. worker1@40)")
    p.add_argument("--gpu-fail", action="append", default=[],
                   type=_parse_gpu_fault, metavar="WORKER[:DEV]@T[:KIND]",
                   help="fault a GPU at time T; KIND is gpu-ecc "
                        "(default), gpu-oom or gpu-hang")
    p.add_argument("--pcie-fault", action="append", default=[],
                   type=_parse_pcie_fault, metavar="WORKER[:DEV]@T[:KIND]",
                   help="fault a PCIe transfer at time T; KIND is "
                        "pcie-corrupt (default) or pcie-timeout")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="seed for the random fault schedule "
                        "(default: the run seed)")
    p.add_argument("--duration", type=_positive(float), default=120.0,
                   help="random-fault window in simulated seconds")
    p.add_argument("--worker-kill-rate", type=_non_negative, default=0.0,
                   help="random worker kills per simulated second")
    p.add_argument("--gpu-fault-rate", type=_non_negative, default=0.0,
                   help="random GPU faults per simulated second")
    p.add_argument("--pcie-fault-rate", type=_non_negative, default=0.0,
                   help="random PCIe faults per simulated second")
    p.add_argument("--backoff", type=_non_negative, default=0.05,
                   help="retry back-off base seconds (0 disables)")
    p.add_argument("--churn", action="append", default=[],
                   type=_parse_churn, metavar="EVENT",
                   help="membership event: join@T (auto-named), "
                        "join:NAME@T, drain:WORKER@T or leave:WORKER@T")
    p.add_argument("--join-rate", type=_non_negative, default=0.0,
                   help="random worker joins per simulated second")
    p.add_argument("--leave-rate", type=_non_negative, default=0.0,
                   help="random worker departures per simulated second")
    p.add_argument("--drain-fraction", type=_fraction, default=0.5,
                   help="probability a random departure is a graceful "
                        "drain rather than an abrupt leave")
    p.add_argument("--min-workers", type=int, default=1,
                   help="random departures never shrink the cluster "
                        "below this")
    p.add_argument("--postmortem-dir", default=None,
                   help="arm the flight recorder: dump a post-mortem "
                        "bundle here on every fault injection (and, under "
                        "`monitor`, every alert firing)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GFlink reproduction: simulated CPU-GPU cluster runs")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one workload")
    _add_run_options(run, single_mode=False)
    run.add_argument("--autoscale", action="store_true",
                     help="run the profiler-driven autoscaler: add workers "
                          "under slot pressure, retune the pipeline online")
    run.add_argument("--max-workers", type=_positive(int), default=None,
                     help="autoscaler ceiling on cluster size (default: "
                          "2x the starting worker count)")

    trace = sub.add_parser(
        "trace", help="run one workload with tracing, write a Chrome trace")
    _add_run_options(trace, single_mode=True)
    trace.add_argument("--out", default=None,
                       help="trace path (default traces/<workload>-<mode>"
                            ".json)")
    trace.add_argument("--metrics-out", default=None,
                       help="also write the metrics snapshot JSON here")

    metrics = sub.add_parser(
        "metrics", help="run one workload, print/write its metrics snapshot")
    _add_run_options(metrics, single_mode=True)
    metrics.add_argument("--out", default=None,
                         help="write the snapshot here instead of printing")
    metrics.add_argument("--format", choices=("text", "json", "prom"),
                         default=None,
                         help="snapshot format: text (default when "
                              "printing), json (default with --out) or "
                              "prom (Prometheus text exposition)")

    chaos = sub.add_parser(
        "chaos",
        help="run one workload under a fault schedule, verify the result "
             "against a fault-free run, print a resilience report")
    _add_run_options(chaos, single_mode=True)
    _add_fault_options(chaos)
    chaos.add_argument("--no-cpu-fallback", action="store_true",
                       help="fail GPU operators instead of degrading to CPU "
                            "when every device is blacklisted")
    chaos.add_argument("--metrics-out", default=None,
                       help="also write the faulted run's metrics JSON")
    chaos.add_argument("--out", default=None,
                       help="also write the chaos run's Chrome trace here")

    monitor = sub.add_parser(
        "monitor",
        help="run one workload with the online monitor (optionally under "
             "a fault schedule): SLOs, alerts, health, HTML dashboard")
    _add_run_options(monitor, single_mode=True)
    _add_fault_options(monitor)
    monitor.add_argument("--window", type=_positive(float), default=1.0,
                         help="monitor window width in simulated seconds")
    monitor.add_argument("--slo", action="append", default=[],
                         type=_parse_slo, metavar="KIND=TARGET",
                         help="set an SLO target and gate on it: "
                              "pNN=SECONDS (job latency, e.g. p99=30) or "
                              "availability=FRAC (task success, e.g. "
                              "availability=0.995); exit 1 on violation")
    monitor.add_argument("--expect-alert", action="append", default=[],
                         metavar="RULE",
                         help="require this alert rule to have fired AND "
                              "resolved during the run; exit 1 otherwise")
    monitor.add_argument("--summary-out", default=None,
                         help="write the monitor summary JSON here")
    monitor.add_argument("--dashboard-out", default=None,
                         help="write the self-contained HTML dashboard "
                              "here")

    profile = sub.add_parser(
        "profile",
        help="analyze a Chrome trace: critical path, bottlenecks, "
             "utilization; optionally gate against a baseline")
    profile.add_argument("trace",
                         help="Chrome trace JSON (from `repro trace`) or an "
                              "already-computed profile summary JSON")
    profile.add_argument("--baseline", default=None,
                         help="baseline trace or summary to compare "
                              "against; exit 1 on regression")
    profile.add_argument("--json", dest="json_out", default=None,
                         help="write the machine-readable summary here")
    profile.add_argument("--threshold", action="append", default=[],
                         type=_parse_threshold, metavar="METRIC=REL",
                         help="override a relative regression threshold, "
                              "e.g. makespan_s=0.2 or critical_path=0.5")
    profile.add_argument("--quiet", action="store_true",
                         help="suppress the text report (gate only)")
    profile.add_argument("--explain", action="store_true",
                         help="with --baseline: attribute the makespan "
                              "delta to a ranked list of causes")
    profile.add_argument("--explain-out", default=None,
                         help="write the machine-readable explanation "
                              "JSON here (implies --explain)")

    postmortem = sub.add_parser(
        "postmortem",
        help="render flight-recorder post-mortem bundles (a bundle file "
             "or a directory of them)")
    postmortem.add_argument("path",
                            help="a postmortem-*.json file or a directory "
                                 "containing them")
    postmortem.add_argument("--spans", type=_count, default=12,
                            help="trace-slice tail length to show per "
                                 "bundle (0 shows none)")

    sub.add_parser("list", help="list available workloads")
    sub.add_parser("specs", help="show the GPU spec catalog")
    return parser


def _make_workload(name: str, args) -> Workload:
    cls, default_nominal, size_param = WORKLOADS[name]
    kwargs = {size_param: args.nominal or default_nominal}
    if name in ("pagerank", "concomp"):
        kwargs["real_pages"] = args.real
    else:
        kwargs["real_elements"] = args.real
    if args.iterations is not None:
        if name == "wordcount" and args.iterations != 1:
            raise _UsageError(f"argument --iterations: wordcount is a "
                              f"single-pass batch job: {args.iterations} "
                              f"(only 1 is accepted)")
        kwargs["iterations"] = args.iterations
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if getattr(args, "vectorized", False):
        kwargs["vectorized"] = True
    return cls(**kwargs)


def _cmd_run(args, out) -> int:
    if args.max_workers is not None and not args.autoscale:
        raise _UsageError("argument --max-workers: requires --autoscale")
    gpus = tuple(g for g in args.gpus.split(",") if g)
    modes = ("cpu", "gpu") if args.mode == "both" else (args.mode,)
    results = {}
    scalers = {}
    for mode in modes:
        config = ClusterConfig(n_workers=args.workers, cpu=CPUSpec(),
                               gpus_per_worker=gpus)
        cluster = GFlinkCluster(config)
        if args.autoscale:
            from repro.flink.autoscaler import Autoscaler, AutoscalerPolicy
            policy = AutoscalerPolicy(
                max_workers=args.max_workers or 2 * args.workers)
            scalers[mode] = Autoscaler(cluster, policy)
            scalers[mode].start()
        workload = _make_workload(args.workload, args)
        results[mode] = workload.run(GFlinkSession(cluster), mode)
        if mode in scalers:
            scalers[mode].stop()

    print(f"workload={args.workload} workers={args.workers} "
          f"gpus/worker={list(gpus)}", file=out)
    for mode, result in results.items():
        iters = "  ".join(f"{t:7.2f}" for t in result.iteration_seconds)
        print(f"  {mode:3s} total {result.total_seconds:9.2f} s | "
              f"per-iteration: {iters}", file=out)
        scaler = scalers.get(mode)
        if scaler is not None:
            added = [d for d in scaler.decisions if d.action == "add_worker"]
            print(f"      autoscaler: {len(scaler.decisions)} decisions "
                  f"({len(added)} workers added, final size "
                  f"{len(scaler.cluster.member_names())})", file=out)
            for d in scaler.decisions:
                print(f"        {d.time:7.2f}s {d.signal:<11} -> "
                      f"{d.action} {d.detail}", file=out)
    if len(results) == 2:
        speedup = (results["cpu"].total_seconds
                   / results["gpu"].total_seconds)
        print(f"  speedup: {speedup:.2f}x", file=out)
    return 0


def _traced_run(args):
    """One workload run on a tracing-enabled cluster."""
    gpus = tuple(g for g in args.gpus.split(",") if g)
    config = ClusterConfig(n_workers=args.workers, cpu=CPUSpec(),
                           gpus_per_worker=gpus,
                           flink=FlinkConfig(enable_tracing=True))
    cluster = GFlinkCluster(config)
    workload = _make_workload(args.workload, args)
    result = workload.run(GFlinkSession(cluster), args.mode)
    collect_cluster(cluster.obs.registry, cluster)
    return cluster, result


def _cmd_trace(args, out) -> int:
    cluster, result = _traced_run(args)
    trace_path = args.out or f"traces/{args.workload}-{args.mode}.json"
    write_chrome_trace(cluster.obs.tracer, trace_path)
    tracer = cluster.obs.tracer
    tracks = tracer.track_names()
    lanes = sum(len(threads) for threads in tracks.values())
    print(f"workload={args.workload} mode={args.mode} "
          f"total {result.total_seconds:.2f} s", file=out)
    print(f"trace: {trace_path} ({len(tracer)} events, "
          f"{len(tracks)} processes, {lanes} lanes) — open in "
          f"https://ui.perfetto.dev", file=out)
    if args.metrics_out:
        write_metrics(cluster.obs.registry, args.metrics_out)
        print(f"metrics: {args.metrics_out}", file=out)
    return 0


def _cmd_metrics(args, out) -> int:
    cluster, result = _traced_run(args)
    fmt = args.format or ("json" if args.out else "text")
    registry = cluster.obs.registry
    if fmt == "prom":
        # Prometheus scrapes carry no banner line: the exposition must
        # stand alone (the round-trip test parses CLI output verbatim).
        if args.out:
            path = write_replacing(args.out, (registry.render_prometheus(),))
            print(f"metrics: {path}", file=out)
        else:
            print(registry.render_prometheus(), file=out, end="")
        return 0
    print(f"workload={args.workload} mode={args.mode} "
          f"total {result.total_seconds:.2f} s", file=out)
    if args.out:
        write_metrics(registry, args.out)
        print(f"metrics: {args.out}", file=out)
    elif fmt == "json":
        print(registry.to_json(), file=out)
    else:
        print(registry.render(), file=out)
    return 0


class _UsageError(Exception):
    """A usage error only seen after parsing (a spec naming a worker the
    cluster will not have): ``main`` hands it to ``parser.error``."""


def _bad_spec(spec: str, why: str) -> argparse.ArgumentTypeError:
    """What an option's ``type=`` parser raises: argparse prints the usage
    and the message and exits 2."""
    return argparse.ArgumentTypeError(f"bad spec {spec!r}: {why}")


def _parse_at(text: str, spec: str) -> float:
    """The ``T`` of a fault spec: a simulated instant, finite and >= 0."""
    try:
        at = float(text)
    except ValueError:
        raise _bad_spec(spec, f"{text!r} is not a number") from None
    if not 0 <= at < float("inf"):
        raise _bad_spec(spec, f"time {text} is not a finite instant >= 0")
    return at


def _parse_kill(spec: str):
    """``WORKER@T`` → (worker, at)."""
    worker, sep, at = spec.partition("@")
    if not sep or not worker:
        raise _bad_spec(spec, "expected WORKER@T")
    return worker, _parse_at(at, spec)


def _parse_device_fault(spec: str, kinds):
    """``WORKER[:DEV]@T[:KIND]`` → (spec, worker, device, at, kind); KIND
    is one of ``kinds`` and defaults to the first."""
    loc, sep, rest = spec.partition("@")
    worker, _, dev = loc.partition(":")
    if not sep or not worker:
        raise _bad_spec(spec, "expected WORKER[:DEV]@T[:KIND]")
    if dev and not dev.isdigit():
        raise _bad_spec(spec, f"device {dev!r} is not an index")
    at, _, kind_name = rest.partition(":")
    by_name = {kind.value: kind for kind in kinds}
    if kind_name and kind_name not in by_name:
        raise _bad_spec(spec, f"kind {kind_name!r} is not one of "
                              f"{', '.join(by_name)}")
    return (spec, worker, int(dev or 0), _parse_at(at, spec),
            by_name.get(kind_name, kinds[0]))


def _parse_gpu_fault(spec: str):
    from repro.flink.chaos import GPU_FAULT_KINDS
    return _parse_device_fault(spec, GPU_FAULT_KINDS)


def _parse_pcie_fault(spec: str):
    from repro.flink.chaos import PCIE_FAULT_KINDS
    return _parse_device_fault(spec, PCIE_FAULT_KINDS)


def _parse_churn(spec: str):
    """``join[:NAME]@T`` / ``drain:WORKER@T`` / ``leave:WORKER@T``."""
    loc, sep, at = spec.partition("@")
    action, _, target = loc.partition(":")
    if not sep or action not in ("join", "drain", "leave") \
            or (action != "join" and not target):
        raise _bad_spec(spec, "expected join[:NAME]@T, drain:WORKER@T or "
                              "leave:WORKER@T")
    return action, target or None, _parse_at(at, spec)


def _build_schedule(args, worker_names, n_gpus):
    from repro.flink.chaos import ChaosSchedule, ChurnSchedule, FaultKind
    schedule = ChaosSchedule()
    known = list(worker_names)
    # Joins introduce names mid-run; later --kill/--churn specs may target
    # them (the engine skips, with a trace, any that never materialize).
    known += [target for action, target, _ in args.churn
              if action == "join" and target]

    def check_worker(worker, flag, spec):
        if worker not in known:
            raise _UsageError(f"argument {flag}: bad spec {spec!r}: unknown "
                              f"worker (workers: {', '.join(known)})")

    for worker, at in args.kill:
        check_worker(worker, "--kill", f"{worker}@{at:g}")
        schedule.kill_worker(worker, at=at)
    for spec, worker, dev, at, kind in args.gpu_fail:
        check_worker(worker, "--gpu-fail", spec)
        schedule.fail_gpu(worker, dev, at=at, kind=kind)
    for spec, worker, dev, at, kind in args.pcie_fault:
        check_worker(worker, "--pcie-fault", spec)
        schedule.fault_pcie(worker, dev, at=at, kind=kind)
    for action, target, at in args.churn:
        if action == "join":
            schedule.join_worker(at=at, name=target)   # auto-named if None
            known += [e.worker for e in schedule.events
                      if e.kind is FaultKind.WORKER_JOIN
                      and e.worker not in known]
            continue
        check_worker(target, "--churn", f"{action}:{target}@{at:g}")
        if action == "drain":
            schedule.drain_worker(target, at=at)
        else:
            schedule.leave_worker(target, at=at)
    if args.join_rate > 0 or args.leave_rate > 0:
        from repro.common.rng import DEFAULT_SEED
        seed = args.chaos_seed if args.chaos_seed is not None else \
            (args.seed if args.seed is not None else DEFAULT_SEED)
        drawn = ChurnSchedule.random(
            seed=seed, duration_s=args.duration, workers=worker_names,
            join_rate=args.join_rate, leave_rate=args.leave_rate,
            drain_fraction=args.drain_fraction,
            min_workers=args.min_workers)
        for event in drawn.events:
            schedule.add(event)
    if (args.worker_kill_rate > 0 or args.gpu_fault_rate > 0
            or args.pcie_fault_rate > 0):
        from repro.common.rng import DEFAULT_SEED
        seed = args.chaos_seed if args.chaos_seed is not None else \
            (args.seed if args.seed is not None else DEFAULT_SEED)
        drawn = ChaosSchedule.random(
            seed=seed, duration_s=args.duration, workers=worker_names,
            gpus_per_worker=n_gpus,
            worker_kill_rate=args.worker_kill_rate,
            gpu_fault_rate=args.gpu_fault_rate,
            pcie_fault_rate=args.pcie_fault_rate)
        for event in drawn.events:
            schedule.add(event)
    return schedule


def _cmd_chaos(args, out) -> int:
    from repro.core.gpumanager import GPUManagerConfig
    from repro.flink.chaos import values_equal
    from repro.flink.report import resilience_report

    gpus = tuple(g for g in args.gpus.split(",") if g)
    gpu_config = GPUManagerConfig(cpu_fallback=not args.no_cpu_fallback)

    def run_once(tracing, schedule=None):
        config = ClusterConfig(
            n_workers=args.workers, cpu=CPUSpec(), gpus_per_worker=gpus,
            flink=FlinkConfig(enable_tracing=tracing,
                              retry_backoff_base_s=args.backoff,
                              enable_flight_recorder=bool(
                                  args.postmortem_dir
                                  and schedule is not None),
                              flight_recorder_dir=args.postmortem_dir))
        cluster = GFlinkCluster(config, gpu_config=gpu_config)
        engine = cluster.install_chaos(schedule) if schedule else None
        workload = _make_workload(args.workload, args)
        result = workload.run(GFlinkSession(cluster), args.mode)
        return cluster, engine, result

    schedule = _build_schedule(
        args, ClusterConfig(n_workers=args.workers).worker_names(),
        len(gpus) if args.mode == "gpu" else 0)
    if not len(schedule):
        print("empty fault schedule: pass --kill/--gpu-fail/--pcie-fault/"
              "--churn or a nonzero --*-rate", file=out)
        return 2

    _, _, baseline = run_once(tracing=False)
    cluster, engine, result = run_once(tracing=True, schedule=schedule)
    collect_cluster(cluster.obs.registry, cluster)

    print(f"workload={args.workload} mode={args.mode} "
          f"workers={args.workers} faults={len(schedule)}", file=out)
    print(resilience_report(engine, result, baseline,
                            cluster.obs.registry), file=out)
    if args.out:
        write_chrome_trace(cluster.obs.tracer, args.out)
        print(f"trace: {args.out}", file=out)
    if args.metrics_out:
        write_metrics(cluster.obs.registry, args.metrics_out)
        print(f"metrics: {args.metrics_out}", file=out)
    recorder = cluster.obs.recorder
    if recorder is not None and recorder.bundles:
        print(f"post-mortems: {len(recorder.bundles)} bundle(s) in "
              f"{args.postmortem_dir}", file=out)
    if values_equal(baseline.value, result.value):
        print("result: identical to the fault-free run", file=out)
        return 0
    print("result: MISMATCH vs the fault-free run", file=out)
    return 1


def _parse_slo(spec: str):
    """``pNN=SECONDS`` / ``availability=FRAC`` → (kind, q, target), held to
    :class:`~repro.obs.monitor.SLObjective`'s rules.

    ``pNN`` is the NN-th percentile, digits after the second its decimals
    (``p5`` = 0.05, ``p50`` = 0.5, ``p999`` = 0.999; ``p100`` the 100th).
    """
    from repro.common.errors import ConfigError
    from repro.obs.monitor import SLObjective

    kind, sep, value = spec.partition("=")
    if not sep or not kind:
        raise _bad_spec(spec, "expected pNN=SECONDS or availability=FRAC")
    try:
        target = float(value)
    except ValueError:
        raise _bad_spec(spec, f"{value!r} is not a number") from None
    digits = kind[1:]
    if kind == "availability":
        q = None
    elif kind.startswith("p") and digits.isdigit():
        kind, q = "latency", int(digits) / (
            100 if len(digits) <= 2 or digits == "100"
            else 10 ** len(digits))
    else:
        raise _bad_spec(spec, f"unknown kind {kind!r}")
    try:
        SLObjective(spec, kind, target, 0.99 if q is None else q)
    except ConfigError as err:
        raise _bad_spec(spec, str(err)) from None
    return kind, q, target


def _render_monitor_report(summary, out) -> None:
    """Human-readable digest of a monitor summary document."""
    health = summary["health"]
    print(f"cluster health {health['cluster']:.0f}/100  "
          f"({summary['windows_closed']} windows of "
          f"{summary['window_s']:g} s, {len(summary['series'])} series)",
          file=out)
    for worker in sorted(health["workers"]):
        print(f"  {worker:<22} {health['workers'][worker]:.0f}/100",
              file=out)
    print("SLOs:", file=out)
    for slo in summary["slos"]:
        target = "tracking" if slo["target"] is None else \
            f"target {slo['target']:g}"
        print(f"  {slo['name']:<20} {slo['kind']:<13} {target:<16} "
              f"{slo['events']} events, {slo['bad']} bad, "
              f"burn {slo['burn_rate']:.2f}x, "
              f"budget left {slo['budget_remaining_frac']:.1%}", file=out)
    alerts = summary["alerts"]
    if alerts:
        print(f"alerts ({len(alerts)}):", file=out)
        for a in alerts:
            resolved = (f"resolved @ {a['resolved_at_s']:.2f} s"
                        if a["resolved_at_s"] is not None else "UNRESOLVED")
            print(f"  [{a['severity']:<8}] {a['rule']:<20} "
                  f"{a['series']}  fired @ {a['fired_at_s']:.2f} s, "
                  f"{resolved}", file=out)
    else:
        print("alerts: none fired", file=out)


def _cmd_monitor(args, out) -> int:
    import json as _json

    from repro.flink.report import resilience_report
    from repro.obs.dashboard import write_dashboard
    from repro.obs.monitor import validate_monitor_summary

    gpus = tuple(g for g in args.gpus.split(",") if g)
    schedule = _build_schedule(
        args, ClusterConfig(n_workers=args.workers).worker_names(),
        len(gpus) if args.mode == "gpu" else 0)

    config = ClusterConfig(
        n_workers=args.workers, cpu=CPUSpec(), gpus_per_worker=gpus,
        flink=FlinkConfig(enable_tracing=True, enable_monitoring=True,
                          monitor_window_s=args.window,
                          retry_backoff_base_s=args.backoff,
                          enable_flight_recorder=bool(args.postmortem_dir),
                          flight_recorder_dir=args.postmortem_dir))
    cluster = GFlinkCluster(config)
    mon = cluster.obs.monitor
    for kind, q, target in args.slo:
        if kind == "availability":
            mon.set_availability_target(target)
        else:
            mon.set_latency_target(target, percentile=q)
    engine = cluster.install_chaos(schedule) if len(schedule) else None
    workload = _make_workload(args.workload, args)
    result = workload.run(GFlinkSession(cluster), args.mode)
    collect_cluster(cluster.obs.registry, cluster)
    mon.finalize()
    summary = mon.summary()

    print(f"workload={args.workload} mode={args.mode} "
          f"workers={args.workers} total {result.total_seconds:.2f} s "
          f"faults={len(schedule)}", file=out)
    _render_monitor_report(summary, out)
    if engine is not None:
        print(resilience_report(engine, result,
                                registry=cluster.obs.registry), file=out)

    errors = validate_monitor_summary(summary)
    if errors:
        for error in errors:
            print(f"invalid monitor summary: {error}", file=out)
        return 2
    if args.summary_out:
        path = write_replacing(args.summary_out,
                               (_json.dumps(summary, indent=2), "\n"))
        print(f"summary: {path}", file=out)
    if args.dashboard_out:
        write_dashboard(
            summary, args.dashboard_out,
            title=f"GMonitor: {args.workload} ({args.mode})")
        print(f"dashboard: {args.dashboard_out}", file=out)
    recorder = cluster.obs.recorder
    if recorder is not None and recorder.bundles:
        print(f"post-mortems: {len(recorder.bundles)} bundle(s) in "
              f"{args.postmortem_dir}", file=out)

    failed = False
    by_rule = {}
    for a in summary["alerts"]:
        by_rule.setdefault(a["rule"], []).append(a)
    for rule in args.expect_alert:
        fired = by_rule.get(rule, [])
        if not fired:
            print(f"FAIL: expected alert {rule!r} never fired", file=out)
            failed = True
        elif not any(a["resolved_at_s"] is not None for a in fired):
            print(f"FAIL: alert {rule!r} fired but never resolved",
                  file=out)
            failed = True
    # Only explicitly requested SLO targets gate the exit code; the
    # built-in tracking objectives report burn without failing the run.
    explicit = {kind for kind, _, _ in args.slo}
    for slo in summary["slos"]:
        gated = ("latency" in explicit and slo["name"] == "job_latency") or \
            ("availability" in explicit and slo["name"]
             == "task_availability")
        if gated and slo["violated"]:
            print(f"FAIL: SLO {slo['name']} violated "
                  f"(burn {slo['burn_rate']:.2f}x)", file=out)
            failed = True
    unresolved = [a for a in summary["alerts"]
                  if a["severity"] == "critical"
                  and a["resolved_at_s"] is None]
    for a in unresolved:
        print(f"FAIL: critical alert {a['rule']!r} still firing at end "
              f"of run", file=out)
        failed = True
    return 1 if failed else 0


def _parse_threshold(spec: str):
    """``METRIC=REL`` → (metric, relative threshold, finite and >= 0)."""
    metric, sep, value = spec.partition("=")
    if not sep or not metric:
        raise _bad_spec(spec, "expected METRIC=REL")
    try:
        return metric, _non_negative(value)
    except ValueError:
        raise _bad_spec(spec, f"{value!r} is not a finite number >= 0") \
            from None


def _cmd_profile(args, out) -> int:
    import json as _json

    from repro.obs.profile import (
        compare_summaries, profile_file, render_comparison, render_text,
        validate_profile_summary)

    try:
        summary = profile_file(args.trace)
    except (OSError, ValueError, _json.JSONDecodeError) as exc:
        print(f"cannot profile {args.trace}: {exc}", file=out)
        return 2
    errors = validate_profile_summary(summary)
    if errors:
        for error in errors:
            print(f"invalid profile summary: {error}", file=out)
        return 2
    if not args.quiet:
        print(render_text(summary), file=out)
    if args.json_out:
        path = write_replacing(args.json_out,
                               (_json.dumps(summary, indent=2), "\n"))
        print(f"summary: {path}", file=out)
    if args.baseline is None:
        return 0
    try:
        baseline = profile_file(args.baseline)
    except (OSError, ValueError, _json.JSONDecodeError) as exc:
        print(f"cannot load baseline {args.baseline}: {exc}", file=out)
        return 2
    deltas = compare_summaries(summary, baseline, dict(args.threshold))
    print(render_comparison(deltas), file=out)
    if args.explain or args.explain_out:
        from repro.obs.explain import (
            explain_summaries, render_explanation, validate_explanation)
        explanation = explain_summaries(summary, baseline)
        explanation["baseline"]["source"] = args.baseline
        explanation["current"]["source"] = args.trace
        exp_errors = validate_explanation(explanation)
        if exp_errors:
            for error in exp_errors:
                print(f"invalid explanation: {error}", file=out)
            return 2
        print(render_explanation(explanation), file=out)
        if args.explain_out:
            path = write_replacing(args.explain_out,
                                   (_json.dumps(explanation, indent=2), "\n"))
            print(f"explanation: {path}", file=out)
    return 1 if any(d.regressed for d in deltas) else 0


def _cmd_postmortem(args, out) -> int:
    from repro.obs.flightrecorder import (
        load_bundles, render_bundle, validate_postmortem_bundle)

    try:
        bundles = load_bundles(args.path)
    except (OSError, ValueError) as exc:
        print(f"cannot load post-mortem bundles from {args.path}: {exc}",
              file=out)
        return 2
    if not bundles:
        print(f"no post-mortem bundles found at {args.path}", file=out)
        return 2
    failed = False
    for i, (filename, doc) in enumerate(bundles):
        if i:
            print("", file=out)
        print(f"== {filename}", file=out)
        errors = validate_postmortem_bundle(doc)
        if errors:
            failed = True
            for error in errors:
                print(f"  INVALID: {error}", file=out)
            continue
        print(render_bundle(doc, spans=args.spans), file=out)
    return 2 if failed else 0


def _cmd_list(out) -> int:
    print("available workloads (paper Table 1):", file=out)
    for name, (cls, nominal, size_param) in sorted(WORKLOADS.items()):
        print(f"  {name:10s} {cls.__name__:32s} "
              f"default {size_param}={nominal:.3g}", file=out)
    return 0


def _cmd_specs(out) -> int:
    print(f"{'name':8s} {'SMs':>4} {'SP GFLOP/s':>11} {'mem':>7} "
          f"{'mem BW':>9} {'PCIe':>9} {'engines':>8}", file=out)
    for name, spec in sorted(SPECS.items()):
        print(f"{name:8s} {spec.sm_count:>4} {spec.sp_gflops:>11.0f} "
              f"{spec.mem_bytes / 2**30:>5.0f}GB "
              f"{spec.mem_bandwidth_bps / 1e9:>7.0f}GB/s "
              f"{spec.pcie_effective_bps / 1e9:>7.1f}GB/s "
              f"{spec.copy_engines:>8}", file=out)
    return 0


def main(argv: Optional[list] = None, out=None) -> int:
    """CLI entry point; returns the process exit code."""
    out = out or sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(args, out)
    except _UsageError as exc:
        parser.error(str(exc))      # usage + one line on stderr, exit 2


def _dispatch(args, out) -> int:
    if args.command == "run":
        return _cmd_run(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "metrics":
        return _cmd_metrics(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "monitor":
        return _cmd_monitor(args, out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "postmortem":
        return _cmd_postmortem(args, out)
    if args.command == "list":
        return _cmd_list(out)
    if args.command == "specs":
        return _cmd_specs(out)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
