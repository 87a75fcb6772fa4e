"""Exchange accounting: traffic bookkeeping, columnar zero-copy, spill.

Companion to test_shuffle.py (functional routing): these tests pin down the
*accounting* semantics of the exchange layer — when bytes count as shuffled,
how sampled (scaled) partitions charge the wire, how merged partitions size
their elements, and what the columnar zero-copy and HDFS-spill paths record.
"""

import numpy as np
import pytest

from repro.common import Environment
from repro.common.network import Network, NetworkConfig
from repro.flink.config import FlinkConfig
from repro.flink.iterators import vectorized
from repro.flink.partition import Partition, split_evenly
from repro.flink.plan import ShipStrategy
from repro.flink.serialization import Serializer
from repro.flink.shuffle import COUNT_COMBINER, Exchange
from repro.hdfs import HDFS, DiskConfig

WORKERS = ["w0", "w1"]


def make_exchange(env, strategy, producers, n_consumers, net=None,
                  consumer_workers=None, **kw):
    net = net or Network(env, WORKERS, NetworkConfig(latency_s=0.0))
    ser = Serializer(1e9)
    if consumer_workers is None:
        consumer_workers = [WORKERS[j % len(WORKERS)]
                            for j in range(n_consumers)]
    return Exchange(env, net, ser, strategy, producers, n_consumers,
                    consumer_workers, **kw)


def run(env, exchange):
    proc = env.process(exchange.run())
    return env.run(until=proc)


def parts(elements, n, worker_cycle=WORKERS, element_nbytes=8.0, scale=1.0):
    ps = split_evenly(elements, n, element_nbytes, scale)
    for p in ps:
        p.worker = worker_cycle[p.index % len(worker_cycle)]
    return ps


def part(index, elements, worker, element_nbytes=8.0, scale=1.0):
    return Partition(index=index, elements=elements,
                     element_nbytes=element_nbytes, scale=scale,
                     worker=worker)


class TestBytesShuffledLocality:
    def test_local_gather_is_free_remote_is_counted(self):
        # Consumer 0 lives on w0: the w0 producer's bytes are a local move,
        # only the w1 producer crosses the wire.
        env = Environment()
        producers = [part(0, list(range(10)), "w0"),
                     part(1, list(range(10, 20)), "w1")]
        ex = make_exchange(env, ShipStrategy.GATHER, producers, 1,
                           consumer_workers=["w0"])
        result = run(env, ex)
        assert result.bytes_shuffled == pytest.approx(10 * 8.0)
        assert sorted(result.inputs[0].elements) == list(range(20))

    def test_all_local_shuffles_zero_bytes(self):
        env = Environment()
        producers = [part(0, list(range(10)), "w0"),
                     part(1, list(range(10, 20)), "w0")]
        ex = make_exchange(env, ShipStrategy.GATHER, producers, 1,
                           consumer_workers=["w0"])
        result = run(env, ex)
        assert result.bytes_shuffled == 0.0


class TestCombinerAccounting:
    COMBINER = (lambda kv: kv[0], lambda a, b: (a[0], a[1] + b[1]))

    def _run_scaled(self, scale):
        env = Environment()
        producers = parts([(i % 4, 1) for i in range(80)], 2,
                          element_nbytes=10.0, scale=scale)
        ex = make_exchange(env, ShipStrategy.HASH, producers, 2,
                           key_fn=lambda kv: kv[0], combiner=self.COMBINER)
        return run(env, ex)

    def test_combined_counts_keep_producer_scale(self):
        # A combined bucket is still a sample: each real partial stands for
        # `scale` nominal partials.  Shipped bytes and the merged partitions'
        # nominal counts must scale linearly with the producers' scale.
        unscaled = self._run_scaled(1.0)
        scaled = self._run_scaled(50.0)
        assert scaled.bytes_shuffled == pytest.approx(
            50.0 * unscaled.bytes_shuffled)
        total = sum(p.nominal_count for p in scaled.inputs)
        base = sum(p.nominal_count for p in unscaled.inputs)
        assert total == pytest.approx(50.0 * base)

    def test_merged_element_nbytes_weights_heterogeneous_producers(self):
        # Two producers with different element widths gather into one
        # consumer: its per-element size is the count-weighted mean, so the
        # merged nominal bytes equal the sum of what was shipped (picking
        # producers[0].element_nbytes would mis-size producer 1's share).
        env = Environment()
        producers = [part(0, [(0, i) for i in range(10)], "w0",
                          element_nbytes=8.0),
                     part(1, [(0, i) for i in range(30)], "w1",
                          element_nbytes=100.0)]
        ex = make_exchange(env, ShipStrategy.GATHER, producers, 1,
                           consumer_workers=["w0"], combiner=self.COMBINER)
        result = run(env, ex)
        merged = result.inputs[0]
        # One combined partial per producer (all keys equal).
        assert merged.nominal_count == pytest.approx(2.0)
        assert merged.element_nbytes == pytest.approx((8.0 + 100.0) / 2)
        assert merged.nominal_nbytes == pytest.approx(8.0 + 100.0)

    def test_count_combiner_ships_one_long_per_producer(self):
        env = Environment()
        producers = parts(list(range(90)), 3, element_nbytes=1000.0,
                          scale=7.0)
        ex = make_exchange(env, ShipStrategy.GATHER, producers, 1,
                           consumer_workers=["w0"], combiner=COUNT_COMBINER)
        result = run(env, ex)
        # Producers on w1 ship 8 bytes each, regardless of element width.
        remote = sum(1 for p in producers if p.worker != "w0")
        assert result.bytes_shuffled == pytest.approx(8.0 * remote)
        merged = result.inputs[0]
        assert merged.element_nbytes == pytest.approx(8.0)
        # The counts themselves carry the nominal (scaled) total.
        assert sum(merged.elements) == pytest.approx(90 * 7.0)


class TestOnlyConsumers:
    def test_restricts_shipping_and_blanks_other_slots(self):
        def run_with(only):
            env = Environment()
            producers = parts(list(range(40)), 2)
            ex = make_exchange(env, ShipStrategy.HASH, producers, 4,
                               key_fn=lambda x: x, only_consumers=only)
            return run(env, ex)

        full = run_with(None)
        restricted = run_with({1})
        assert restricted.bytes_shuffled < full.bytes_shuffled
        assert [p is None for p in restricted.inputs] == [
            True, False, True, True]
        assert sorted(restricted.inputs[1].elements) == sorted(
            x for x in range(40) if x % 4 == 1)


class TestColumnarZeroCopy:
    def columnar_exchange(self, env, columnar=True,
                          strategy=ShipStrategy.HASH, n=40, q=4, **kw):
        """Two producers of int64 keys.  ``columnar=False`` is the row
        reference, selected the way the product selects it: list payloads
        under an unmarked key function."""
        arrs = np.array_split(np.arange(n, dtype=np.int64), 2)
        if not columnar:
            arrs = [a.tolist() for a in arrs]
        producers = [part(i, a, WORKERS[i % 2]) for i, a in enumerate(arrs)]
        if strategy is ShipStrategy.HASH:
            kw.setdefault("key_fn", vectorized(lambda arr: arr) if columnar
                          else (lambda x: x))
        return make_exchange(env, strategy, producers, q, **kw)

    def test_routes_identically_to_row_path(self):
        outs = {}
        for on in (True, False):
            env = Environment()
            ex = self.columnar_exchange(env, columnar=on)
            result = run(env, ex)
            outs[on] = [np.asarray(p.elements) for p in result.inputs]
            assert (result.bytes_zero_copy > 0) == on
        for a, b in zip(outs[True], outs[False]):
            assert np.array_equal(a, b)
        # bytes_shuffled is a property of the data, not the wire format.

    def test_bytes_shuffled_independent_of_wire_format(self):
        totals = {}
        for on in (True, False):
            env = Environment()
            ex = self.columnar_exchange(env, columnar=on)
            totals[on] = run(env, ex).bytes_shuffled
        assert totals[True] == pytest.approx(totals[False])

    def test_zero_copy_bypasses_serde_accounting(self):
        env = Environment()
        ex = self.columnar_exchange(env)
        result = run(env, ex)
        stats = ex.serializer.stats()
        assert stats.bytes_serialized == 0.0
        assert result.bytes_zero_copy > 0
        assert stats.bytes_zero_copy == pytest.approx(result.bytes_zero_copy)

    def test_zero_copy_is_faster_at_scale(self):
        # 50k rows per producer: per-record serde dwarfs the per-block
        # descriptor cost the columnar path charges.
        times = {}
        for on in (True, False):
            env = Environment()
            ex = self.columnar_exchange(env, columnar=on, n=100_000)
            run(env, ex)
            times[on] = env.now
        assert times[True] < times[False]

    def test_rebalance_preserves_round_robin_order(self):
        got = {}
        for on in (True, False):
            env = Environment()
            ex = self.columnar_exchange(
                env, columnar=on, strategy=ShipStrategy.REBALANCE, n=37, q=3)
            result = run(env, ex)
            got[on] = [list(np.asarray(p.elements)) for p in result.inputs]
        assert got[True] == got[False]

    def test_count_combiner_stays_on_row_path(self):
        env = Environment()
        ex = self.columnar_exchange(
            env, strategy=ShipStrategy.GATHER, q=1, combiner=COUNT_COMBINER)
        result = run(env, ex)
        assert result.bytes_zero_copy == 0.0

    def test_unvectorized_key_fn_stays_on_row_path(self):
        env = Environment()
        ex = self.columnar_exchange(env, key_fn=lambda x: int(x))
        result = run(env, ex)
        assert result.bytes_zero_copy == 0.0


class TestSpill:
    def make_spilling_exchange(self, env, threshold, n=100):
        net = Network(env, WORKERS, NetworkConfig(latency_s=0.0))
        fs = HDFS(env, WORKERS, net, replication=1,
                  disk=DiskConfig(read_bps=100e6, write_bps=100e6,
                                  seek_s=0.0))
        producers = [part(0, list(range(n // 2)), "w0"),
                     part(1, list(range(n // 2, n)), "w1")]
        ex = make_exchange(env, ShipStrategy.GATHER, producers, 1, net=net,
                           consumer_workers=["w0"], hdfs=fs,
                           flink=FlinkConfig(shuffle_spill_nbytes=threshold))
        return ex, fs

    def test_oversized_payloads_spill_through_hdfs(self):
        env = Environment()
        ex, fs = self.make_spilling_exchange(env, threshold=100.0)
        result = run(env, ex)
        # Both destination payloads (400 B each) exceed the threshold.
        assert result.bytes_spilled == pytest.approx(2 * 50 * 8.0)
        assert sorted(result.inputs[0].elements) == list(range(100))
        # Scratch files are deleted once consumed.
        assert fs.namenode.list_files() == []

    def test_small_payloads_do_not_spill(self):
        env = Environment()
        ex, fs = self.make_spilling_exchange(env, threshold=1e9)
        result = run(env, ex)
        assert result.bytes_spilled == 0.0
        assert fs.namenode.list_files() == []

    def test_spill_takes_longer_than_direct_wire(self):
        times = {}
        for threshold in (100.0, 1e9):
            env = Environment()
            ex, _ = self.make_spilling_exchange(env, threshold)
            run(env, ex)
            times[threshold] = env.now
        assert times[100.0] > times[1e9]
