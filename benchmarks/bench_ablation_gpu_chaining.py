"""Ablation — GPU operator chaining (fused GWork, device-resident
intermediates).

A pipeline of element-wise GPU operators either submits one GWork per
operator (chaining off: every boundary pays a D2H + H2D round-trip over
PCIe) or fuses into a single GWork whose kernel stages run back-to-back
against device-resident buffers (chaining on).  A *d*-deep chain moves
``2d x input`` bytes unfused but only ``2 x input`` fused, so the saving
grows linearly with depth — and is largest on one-copy-engine GPUs
(C2050), where H2D and D2H serialize on the same DMA engine (§4.1.2).
"""

import numpy as np

from conftest import run_once
from paper import record_bench
from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FlinkConfig
from repro.gpu import KernelSpec

DEPTHS = (2, 3, 4, 5, 6)
#: 1- vs 2-copy-engine devices: half- vs full-duplex PCIe.
GPUS = ("c2050", "k20")
REAL_ELEMENTS = 5_000
SCALE = 1e3  # 5M nominal elements = 40 MB through the pipeline


def _session(fused: bool, gpu: str) -> GFlinkSession:
    config = ClusterConfig(
        n_workers=1, cpu=CPUSpec(cores=2), gpus_per_worker=(gpu,),
        flink=FlinkConfig(enable_gpu_chaining=fused))
    session = GFlinkSession(GFlinkCluster(config))
    session.register_kernel(KernelSpec(
        "double", lambda i, p: {"out": i["in"] * 2.0},
        flops_per_element=2.0, efficiency=0.5))
    session.register_kernel(KernelSpec(
        "inc", lambda i, p: {"out": i["in"] + 1.0},
        flops_per_element=1.0, efficiency=0.5))
    return session


def _run(fused: bool, depth: int, gpu: str) -> dict:
    session = _session(fused, gpu)
    data = np.arange(REAL_ELEMENTS, dtype=np.float64)
    ds = session.from_collection(data, element_nbytes=8, scale=SCALE,
                                 parallelism=2)
    for i in range(depth):
        ds = ds.gpu_map("double" if i % 2 == 0 else "inc")
    result = ds.collect()
    return {
        "seconds": result.metrics.makespan,
        "pcie": result.metrics.pcie_bytes,
        "values": sorted(result.value),
        "stage_seconds": dict(result.metrics.gpu_stage_seconds),
    }


def test_ablation_gpu_operator_chaining(benchmark):
    def measure():
        return {(gpu, depth, fused): _run(fused, depth, gpu)
                for gpu in GPUS
                for depth in DEPTHS
                for fused in (True, False)}

    out = run_once(benchmark, measure)

    print("\n== Ablation: GPU operator chaining (gpu_map pipeline) ==")
    print(f"{'gpu':>6} {'depth':>5}  {'fused s':>9} {'unfused s':>9} "
          f"{'speedup':>7}  {'PCIe MB fused':>13} {'unfused':>9} {'x':>5}")
    summary = {}
    for gpu in GPUS:
        for depth in DEPTHS:
            f, u = out[(gpu, depth, True)], out[(gpu, depth, False)]
            pcie_ratio = u["pcie"] / f["pcie"]
            speedup = u["seconds"] / f["seconds"]
            print(f"{gpu:>6} {depth:>5}  {f['seconds']:>9.3f} "
                  f"{u['seconds']:>9.3f} {speedup:>6.2f}x  "
                  f"{f['pcie'] / 1e6:>13.1f} {u['pcie'] / 1e6:>9.1f} "
                  f"{pcie_ratio:>4.1f}x")
            summary[f"{gpu}-depth{depth}"] = {
                "fused_s": round(f["seconds"], 4),
                "unfused_s": round(u["seconds"], 4),
                "speedup": round(speedup, 3),
                "pcie_fused_bytes": f["pcie"],
                "pcie_unfused_bytes": u["pcie"],
                "pcie_reduction": round(pcie_ratio, 2),
            }
    benchmark.extra_info["table"] = summary
    record_bench("ablation_gpu_chaining", summary)

    for gpu in GPUS:
        for depth in DEPTHS:
            f, u = out[(gpu, depth, True)], out[(gpu, depth, False)]
            # Chained results are byte-identical to unfused.
            assert f["values"] == u["values"], (gpu, depth)
            # A d-deep chain saves (d-1) round-trips: PCIe ratio ~= d.
            assert u["pcie"] >= (depth - 0.5) * f["pcie"], (gpu, depth)
            # Per-stage timings stay visible through the fused submission.
            expected = {"double", "inc"} if depth > 1 else {"double"}
            assert set(f["stage_seconds"]) == expected, (gpu, depth)

    # The acceptance bar: a 4-deep chain on the 1-copy-engine C2050 is
    # strictly faster fused, with PCIe reduced at least 2x.
    f4, u4 = out[("c2050", 4, True)], out[("c2050", 4, False)]
    assert f4["seconds"] < u4["seconds"]
    assert u4["pcie"] >= 2 * f4["pcie"]

    # Deeper chains save more wall time (the per-boundary round-trip is
    # the dominant cost of this transfer-bound pipeline).
    for gpu in GPUS:
        savings = [out[(gpu, d, False)]["seconds"]
                   - out[(gpu, d, True)]["seconds"] for d in DEPTHS]
        assert savings[-1] > savings[0], (gpu, savings)

    # Half-duplex C2050 gains relatively more than the full-duplex K20:
    # unfused, its D2H and H2D contend for the single copy engine.
    c2050_speedup = (out[("c2050", 6, False)]["seconds"]
                     / out[("c2050", 6, True)]["seconds"])
    k20_speedup = (out[("k20", 6, False)]["seconds"]
                   / out[("k20", 6, True)]["seconds"])
    print(f"depth-6 speedup: c2050 {c2050_speedup:.2f}x "
          f"vs k20 {k20_speedup:.2f}x")
