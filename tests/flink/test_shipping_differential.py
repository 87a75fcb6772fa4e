"""One sender loop against the shipping it replaced.

``Exchange._send`` carries every charge it has not fired into the next thing
the sender must wait for.  The code it replaced — ``_send_buckets`` /
``_ship_payload`` (a timeout per serde charge, loopback included),
verbatim below for the strategies that remain, over the engine's
``Network`` — is the
oracle, over every strategy x price
list x spill x ``only_consumers`` x worker layout x cost table, alone or
beside other exchanges and HDFS traffic on the same network.  In the style
of ``tests/common/test_zero_wait_events.py`` there are two regimes:

* **No exact ties** (every producer at its own prime scale, so no two
  shipments are equal-sized or add up to equal sums): both paths reach the
  same simulated instant, to the last bit, at every sender's finish and at
  every exchange's end, with the same traffic accounting.
* **Exact ties** (equal-sized buckets, zero-byte shipments): removing
  events removes heap hops, and heap order is what breaks a tie, so two
  senders that reach one port at exactly the same instant may be served in
  the other order.  What is moved does not change; see ``TestExactTies``.

Two of the cost tables are there to provoke same-instant grants: ``dyadic``
prices everything in powers of two (sums are exact, so equal sizes tie to
the last bit) and ``free`` charges zero seconds for serde and latency
(whole chains of events share one timestamp).
"""

import itertools
from typing import Any, Generator, List, Optional

import numpy as np
from hypothesis import given, strategies as st

from repro.common import Environment
from repro.common.network import Network, NetworkConfig
from repro.common.simclock import Event
from repro.flink.config import FlinkConfig
from repro.flink.iterators import vectorized
from repro.flink.partition import Partition
from repro.flink.payload import n_wire_blocks, real_len
from repro.flink.plan import ShipStrategy
from repro.flink.serialization import Serializer
from repro.flink.shuffle import COUNT_COMBINER, Exchange
from repro.hdfs import HDFS, DiskConfig
from tests.common.test_zero_wait_events import counting_steps
from tests.flink.conftest import assert_ports_free, depth, make_payload

# The retired shipping path, verbatim: the one clock body kept of the
# frozen engine copies.  It alone catches the zero-copy descriptor cost paid
# on one side only (tests/reference/test_mutants.py): no job-level check
# moves when a framed block's receive-side parse is dropped.

# -- the shipping path: a timeout per charge ---------------------------------------

class PerChargeExchange(Exchange):
    """An :class:`Exchange` that ships the way ``shuffle.py`` did before the
    one sender loop: ``_send_buckets``, each bucket through
    ``_ship_payload`` — serialize, move and deserialize as three separate
    events per destination payload, loopback included.  The routed driver
    is here because it is what called them; bucketing, pricing, merging and
    spilling are the engine's."""

    def _run_routed(self) -> Generator[Event, None, List[Partition]]:
        q = self.n_consumers
        keys = self._key_columns()
        zero_copy = self._zero_copy(keys)
        # Per consumer: one bucket per producer, and what they stand for.
        parts: List[List[Any]] = [[] for _ in range(q)]
        nominal, nominal_nbytes = [0.0] * q, [0.0] * q
        senders = []
        for part, part_keys in zip(self.producers, keys):
            buckets = self._buckets(part, part_keys)
            if self.combiner is COUNT_COMBINER:
                buckets = [[real_len(b) * part.scale] for b in buckets]
                counts = [1.0 for _ in buckets]
                element_nbytes = 8.0  # partial counts travel as one long each
            else:
                # Combined buckets are still samples: each real group stands
                # for `scale` nominal groups, so shipped counts keep the
                # producer's scale.
                counts = [real_len(b) * part.scale for b in buckets]
                element_nbytes = part.element_nbytes
            for j, (bucket, count) in enumerate(zip(buckets, counts)):
                parts[j].append(bucket)
                nominal[j] += count
                nominal_nbytes[j] += count * element_nbytes
            senders.append(self.env.process(
                self._send_buckets(part, buckets, counts, element_nbytes,
                                   zero_copy),
                name=f"shuffle-send-{part.index}"))
        if senders:
            yield self.env.all_of(senders)
        unit = (8.0 if self.combiner is COUNT_COMBINER
                else self._producer_element_nbytes())
        return [self._consumer_input(j, self._merge(parts[j], zero_copy),
                                     nominal[j], nominal_nbytes[j], unit)
                if self._want(j) else None for j in range(q)]

    def _send_buckets(self, part: Partition, buckets: List[Any],
                      counts: List[float], element_nbytes: float,
                      zero_copy: bool) -> Generator[Event, None, None]:
        # Pre-combine compute is charged by the caller via the combiner's
        # operator cost; here we charge shipping: serialize once, then wire
        # time per destination.
        for j, (bucket, count) in enumerate(zip(buckets, counts)):
            if count <= 0 or not self._want(j):
                continue
            nbytes = count * element_nbytes
            dst = self.consumer_workers[j]
            yield from self._ship_payload(
                part.worker, dst, nbytes, count, bucket, zero_copy,
                spill_tag=f"{part.index}-{j}")

    def _ship_payload(self, src: str, dst: str, nbytes: float, count: float,
                      payload: Any, zero_copy: bool,
                      spill_tag: Optional[str] = None
                      ) -> Generator[Event, None, None]:
        """Move one destination payload under its price list.

        A payload that carries a ``spill_tag`` goes through HDFS instead of
        direct exchange buffers when oversized.
        """
        blocks = 0
        if zero_copy:
            blocks = n_wire_blocks(payload, nbytes,
                                   self.flink.pipeline_block_nbytes)
            # Sender frames block descriptors; bytes bypass serde entirely.
            yield self.env.timeout(
                self.serializer.zero_copy_time(nbytes, blocks))
        else:
            yield self.env.timeout(
                self.serializer.serialize_time(nbytes, count))
        if (spill_tag is not None and self.hdfs is not None
                and nbytes > self.flink.shuffle_spill_nbytes):
            yield from self._spill(src, dst, nbytes, spill_tag)
        else:
            yield from self.network.transfer(src, dst, int(nbytes))
        if zero_copy:
            # Receiver re-parses the block descriptors; no per-row deser.
            yield self.env.timeout(blocks * self.serializer.block_header_s)
        else:
            yield self.env.timeout(
                self.serializer.deserialize_time(nbytes, count))
        if src != dst:
            self.bytes_shuffled += nbytes
        if zero_copy:
            self.bytes_zero_copy += nbytes


NEW = (Exchange, Network)
RETIRED = (PerChargeExchange, Network)

#: name -> (nodes, producer workers, consumer workers); both cycled.
LAYOUTS = {
    # The engine's own: subtask i of either side on worker i % n, so every
    # sender has loopback buckets and all walk destinations in one order.
    "aligned": (3, [0, 1, 2], [0, 1, 2]),
    "shifted": (3, [0, 1, 2], [1, 2, 0]),
    # Several senders behind one egress port, two consumers behind one
    # ingress port.
    "shared_nic": (3, [0, 0, 1], [1, 2, 2]),
    "one_node": (1, [0], [0]),           # all loopback, no NIC at all
    "disjoint": (4, [0, 1], [2, 3]),     # no loopback
}

#: name -> (Serializer arguments, NetworkConfig).
COSTS = {
    "calibrated": ((1e9,), NetworkConfig()),
    "dyadic": ((2.0 ** 30, 2.0 ** -26, 2.0 ** -19),
               NetworkConfig(bandwidth_bps=2.0 ** 30, latency_s=2.0 ** -13,
                             loopback_bps=2.0 ** 33)),
    "free": ((float("inf"), 0.0, 0.0),
             NetworkConfig(latency_s=0.0)),
}

#: The routed strategies: a FORWARD edge never goes through an exchange.
STRATEGIES = [s.value for s in ShipStrategy if not s.is_streaming]


def key_fn_for(kind):
    if kind == "list":
        return lambda row: int(row[0])
    return vectorized(lambda block: block[:, 0].astype(np.int64))


class RecordingEnvironment(Environment):
    """Notes the instant every process finishes, by name."""

    def __init__(self):
        super().__init__()
        self.finished = []

    def process(self, generator, name=None):
        proc = super().process(generator, name)
        proc.callbacks.append(
            lambda _: self.finished.append((proc.name, self.now)))
        return proc


def hdfs_traffic(env, hdfs, nodes):
    """A writer and two remote readers (one reporting progress) that
    contend with the exchanges for the same NIC ports."""
    hdfs.namenode.create_file("/traffic")
    block = yield from hdfs.append_block("/traffic", None, 3000,
                                         writer_node=nodes[0])
    landed = []
    yield from hdfs.read_block(block, nodes[-1])
    yield from hdfs.read_block(block, nodes[-1],
                               progress=([1000, 2000], landed.append))
    assert landed == [1000.0, 2000.0]


def run_case(classes, case):
    exchange_cls, network_cls = classes
    n_nodes, producer_nodes, consumer_nodes = LAYOUTS[case["layout"]]
    nodes = [f"w{i}" for i in range(n_nodes)]
    serde, net_config = COSTS[case["costs"]]
    env = RecordingEnvironment()
    net = network_cls(env, nodes, net_config)
    serializer = Serializer(*serde)
    hdfs = HDFS(env, nodes, net, replication=1,
                disk=DiskConfig(read_bps=2.0 ** 27, write_bps=2.0 ** 27,
                                seek_s=0.0))
    exchanges, ends = [], {}
    for spec in case["exchanges"]:
        kind = spec["kind"]
        producers = [
            Partition(i, make_payload(kind, [(k, 0.5) for k in keys]), 16.0,
                      scale, nodes[producer_nodes[i % len(producer_nodes)]])
            for i, (keys, scale) in enumerate(zip(spec["keys"],
                                                  spec["scales"]))]
        q = spec["q"]
        exchanges.append(exchange_cls(
            env, net, serializer, ShipStrategy(spec["strategy"]), producers,
            q, [nodes[consumer_nodes[j % len(consumer_nodes)]]
                for j in range(q)],
            key_fn=key_fn_for(kind), only_consumers=spec["only"],
            hdfs=hdfs if case["spill"] else None,
            flink=FlinkConfig(shuffle_spill_nbytes=case["spill"] or 1.0)))

    def drive(exchange, delay):
        yield env.timeout(delay)
        result = yield from exchange.run()
        ends[exchange] = (
            env.now, result.bytes_shuffled, result.bytes_zero_copy,
            result.bytes_spilled,
            [None if part is None else
             (part.worker, part.nominal_count, part.real_count)
             for part in result.inputs])

    for exchange, spec in zip(exchanges, case["exchanges"]):
        env.process(drive(exchange, spec["delay"]), name="drive")
    if case["traffic"]:
        env.process(hdfs_traffic(env, hdfs, nodes), name="traffic")
    env.run()
    assert len(ends) == len(exchanges)
    assert_ports_free(net)
    return {
        "now": env.now,
        "ends": [ends[exchange] for exchange in exchanges],
        # Spill scratch files are numbered by a process-wide counter.
        "finished": sorted((name.split("/.shuffle/")[0], at)
                           for name, at in env.finished),
        "serde": serializer.stats(),
        "nic": [(net.bytes_sent(n), net.bytes_received(n)) for n in nodes],
        "disk": (hdfs.total_bytes_read(), hdfs.total_bytes_written()),
    }


# -- cases -----------------------------------------------------------------------

#: Producer scales of the tie-free regime: no two shipments anywhere in a
#: case are equal-sized or add up to equal sums.
PRIMES = [101.0, 103.0, 107.0, 109.0, 113.0, 127.0, 131.0, 137.0, 139.0,
          149.0, 151.0, 157.0]


def exchange_spec(strategy, kind, keys, q, only=None, delay=0.0):
    """Keys per producer; a gather has one consumer."""
    if strategy == "gather":
        q = 1
    if only is not None:
        only = {j for j in only if j < q}
    return {"strategy": strategy, "kind": kind, "keys": keys, "q": q,
            "only": only, "delay": delay, "scales": [3.0] * len(keys)}


def untied(case):
    """The same case with every producer at its own prime scale."""
    primes = iter(PRIMES)
    return dict(case, exchanges=[
        dict(spec, scales=[next(primes) for _ in spec["keys"]])
        for spec in case["exchanges"]])


#: Producers' keys: equal-sized buckets under HASH and REBALANCE for q = 3,
#: and a skewed set with an empty producer.
EQUAL = [list(range(6))] * 3
SKEWED = [[0, 0, 0, 1, 5, 7, 7, 9], [], [2, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4]]


def single_exchanges(key_sets):
    for layout, costs, strategy, kind, keys, spill, only in itertools.product(
            LAYOUTS, COSTS, STRATEGIES, ["list", "2d"], key_sets,
            [None, 200.0, 8000.0], [None, {0, 2}]):
        yield {"layout": layout, "costs": costs, "spill": spill,
               "traffic": False,
               "exchanges": [exchange_spec(strategy, kind, keys, 3, only)]}


def concurrent_exchanges():
    """Two exchanges at once (the second starting at the same instant or
    mid-way through the first) beside HDFS traffic, on one network."""
    for layout, costs, (first, second), delay in itertools.product(
            ["aligned", "shared_nic"], COSTS,
            [("hash", "hash"), ("hash", "rebalance"), ("rebalance", "gather"),
             ("gather", "hash")],
            [0.0, 2.0 ** -14]):
        yield {"layout": layout, "costs": costs,
               "spill": 8000.0 if delay else None, "traffic": True,
               "exchanges": [exchange_spec(first, "list", EQUAL, 3),
                             exchange_spec(second, "2d", SKEWED, 3,
                                           delay=delay)]}


keys_st = st.lists(st.integers(0, 9), min_size=1, max_size=12)


@st.composite
def exchange_specs(draw):
    producers = draw(st.one_of(
        st.lists(keys_st, min_size=1, max_size=4),
        # Equal row counts per bucket on every producer.
        st.builds(lambda n, reps: [list(range(6)) * reps] * n,
                  st.integers(1, 4), st.integers(1, 2))))
    return exchange_spec(
        draw(st.sampled_from(STRATEGIES)),
        draw(st.sampled_from(["list", "2d"])), producers,
        draw(st.sampled_from([1, 2, 3, 6])),
        only=draw(st.one_of(st.none(),
                            st.sets(st.integers(0, 7), max_size=4))),
        delay=draw(st.sampled_from([0.0, 2.0 ** -14, 1e-5])))


def untied_case(one_empty, **case):
    """At most one producer of a case has emitted nothing — two zero-byte
    shipments are as equal-sized as shipments get — and none where serde is
    free: there a zero-byte shipment is a chain of zero seconds, tied with
    whatever else starts at that instant."""
    first = case["exchanges"][0]
    if one_empty and case["costs"] != "free":
        case["exchanges"][0] = dict(first, keys=[[]] + first["keys"][1:])
    return untied(case)


def tied_case(all_empty, **case):
    """Every producer at one scale; maybe a first exchange of nothing but
    zero-byte shipments."""
    first = case["exchanges"][0]
    if all_empty:
        case["exchanges"][0] = dict(first, keys=[[] for _ in first["keys"]])
    return case


CASE_FIELDS = dict(
    layout=st.sampled_from(sorted(LAYOUTS)),
    costs=st.sampled_from(sorted(COSTS)),
    spill=st.sampled_from([None, 200.0, 8000.0]),
    traffic=st.booleans(),
    exchanges=st.lists(exchange_specs(), min_size=1, max_size=3))


def accounting(out):
    """What does not depend on who wins a tie."""
    return ([end[1:] for end in out["ends"]], out["serde"], out["nic"],
            out["disk"])


class TestOneSenderLoopEqualsTheShippingItReplaced:
    """No two senders ever reach a port at the same instant after different
    histories: every instant and every count is the retired path's."""

    def test_every_strategy_layout_price_list_and_cost_table(self):
        seen = set()
        for case in map(untied, itertools.chain(
                single_exchanges([EQUAL, SKEWED]), concurrent_exchanges())):
            out = run_case(NEW, case)
            assert out == run_case(RETIRED, case), case
            spec = case["exchanges"][0]
            seen.add((spec["strategy"], out["ends"][0][2] > 0,
                      out["ends"][0][3] > 0, out["nic"] == [(0, 0)]))
        # Both price lists, with and without a spill, under every strategy.
        for strategy in STRATEGIES:
            for zero_copy, spilled in itertools.product([False, True],
                                                        repeat=2):
                assert (strategy, zero_copy, spilled, False) in seen
        assert any(all_loopback for *_, all_loopback in seen)

    @given(case=st.builds(untied_case, one_empty=st.booleans(),
                          **CASE_FIELDS))
    @depth(tier1=150, full=4000)
    def test_generated_sizes_layouts_and_concurrent_traffic(self, case):
        assert run_case(NEW, case) == run_case(RETIRED, case)

    def test_the_oracle_really_ships_the_old_way(self):
        """Same clock, more events: the retired path fires a timeout per
        serde charge and per loopback copy."""
        case = untied({"layout": "aligned", "costs": "calibrated",
                       "spill": None, "traffic": False,
                       "exchanges": [exchange_spec("hash", "list", EQUAL, 3)]})
        fired = {}
        for classes in (NEW, RETIRED):
            with counting_steps() as fired[classes]:
                run_case(classes, case)
        # 3 senders x 3 buckets, one of each sender's a loopback.  Retired:
        # serialize, deserialize and the loopback memcpy are timeouts, the
        # wire of a cross-node bucket a port service.  The loop: a flush per
        # cross-node bucket and one at the end, and the port service of each
        # cross-node bucket.  (+ 1: the driver's start delay.)
        assert (fired[RETIRED]["Timeout"], fired[RETIRED]["Service"]) \
            == (3 * (2 * 3 + 1) + 1, 3 * 2)
        assert (fired[NEW]["Timeout"], fired[NEW]["Service"]) \
            == (3 * (2 + 1) + 1, 3 * 2)


class TestExactTies:
    """Equal-sized buckets: senders reach the same port at the same instant.

    The ordering statement of the sender loop: a sender whose charges were
    fused holds the heap position of the moment its chain began (its last
    real wait), not of the moment its last separate charge would have been
    created, so which of two *tied* senders is granted the port first can
    differ from the retired path's.  Their instants then trade places; what
    the exchange moved, and when an exchange running alone ends, do not
    change.  Both paths ship over the engine's ``Network``, so the sender
    loop is all that differs.
    """

    def test_tied_senders_may_trade_places_but_the_exchange_ends_alike(self):
        traded = set()
        for case in single_exchanges([EQUAL]):
            out, old = run_case(NEW, case), run_case(RETIRED, case)
            assert accounting(out) == accounting(old), case
            assert (out["now"], out["ends"]) == (old["now"], old["ends"]), case
            assert sorted(at for _, at in out["finished"]) \
                == sorted(at for _, at in old["finished"]), case
            if out["finished"] != old["finished"]:
                traded.add((case["layout"], case["exchanges"][0]["strategy"]))
        # It does happen — where senders differ only in *which* of their
        # buckets is the loopback one — and only there.
        assert traded == {("aligned", "hash"), ("aligned", "rebalance")}

    def test_concurrent_exchanges_move_the_same_bytes_whoever_wins(self):
        for case in concurrent_exchanges():
            assert accounting(run_case(NEW, case)) \
                == accounting(run_case(RETIRED, case)), case

    @given(case=st.builds(tied_case, all_empty=st.booleans(), **CASE_FIELDS))
    @depth(tier1=100, full=2000)
    def test_generated_ties_move_the_same_bytes_whoever_wins(self, case):
        assert accounting(run_case(NEW, case)) \
            == accounting(run_case(RETIRED, case))
