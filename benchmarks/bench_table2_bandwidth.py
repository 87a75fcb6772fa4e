"""Table 2 — Bandwidth of Transfer Channel for Host to Device.

Reproduces both columns: the GFlink transfer channel (off-heap direct buffer
through CUDAWrapper/CUDAStub) and the native path (C library straight to the
GPU), for the paper's eight transfer sizes (the ``table2-*`` rows of
``paper.py``).  The paper's observations: bandwidth rises with size, both
plateau beyond 256 KiB, and the native path only wins for small transfers
(the JNI redirect).
"""

from conftest import run_once
from harness import h2d_bandwidth
from paper import CLAIMS, TABLE2_BYTES, record_bench


def test_table2_transfer_channel_bandwidth(benchmark):
    def measure_all():
        return {path: [h2d_bandwidth(n, path) for n in TABLE2_BYTES]
                for path in ("gflink", "native")}

    result = run_once(benchmark, measure_all)
    print("\n== Table 2: Bandwidth of Transfer Channel (Host to Device) ==")
    print(f"{'Bytes':>9}  {'GFlink (sim)':>13} {'GFlink (paper)':>15}  "
          f"{'Native (sim)':>13} {'Native (paper)':>15}")
    rows = []
    for i, n in enumerate(TABLE2_BYTES):
        g, nat = result["gflink"][i], result["native"][i]
        print(f"{n:>9}  {g:>10.3f} MB/s "
              f"{CLAIMS[f'table2-gflink-{n}'].paper:>12.3f} MB/s"
              f"  {nat:>10.3f} MB/s "
              f"{CLAIMS[f'table2-native-{n}'].paper:>12.3f} MB/s")
        rows.append({"bytes": n, "gflink_mbps": round(g, 3),
                     "native_mbps": round(nat, 3)})
    benchmark.extra_info["table"] = rows
    record_bench("table2", {"rows": rows})

    # Within the row's tolerance of both paper columns at every size.
    for path, column in result.items():
        for n, measured in zip(TABLE2_BYTES, column):
            CLAIMS[f"table2-{path}-{n}"].check(measured)
    # Bandwidth increases with transferred bytes, then stabilizes (§6.7).
    assert result["gflink"] == sorted(result["gflink"])
    assert result["gflink"][-1] / result["gflink"][-3] < 1.02
    # Native wins for small transfers; the gap closes for large ones.
    assert result["native"][0] > result["gflink"][0]
    assert abs(result["native"][-1] - result["gflink"][-1]) \
        / result["native"][-1] < 0.01
