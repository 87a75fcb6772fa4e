"""One routed path against the two it replaced.

``Exchange._buckets`` routes row lists and NumPy/GStruct blocks through one
routine.  The two routines it replaced — ``_row_buckets`` and
``_columnar_buckets``, verbatim in ``tests/flink/retired.py`` — are the
oracle: on generated exchanges (strategy x producer formats x a key zoo x
combiner kinds x ``only_consumers`` x spill) both must hand every consumer
the same bytes in the same row types, at the same simulated instant, with
the same traffic accounting.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common import Environment
from repro.common.network import Network, NetworkConfig
from repro.flink.config import FlinkConfig
from repro.flink.iterators import vectorized
from repro.flink.partition import Partition
from repro.flink.payload import segment_sum
from repro.flink.plan import ShipStrategy
from repro.flink.serialization import Serializer
from repro.flink.shuffle import COUNT_COMBINER, Exchange
from repro.hdfs import HDFS, DiskConfig
from tests.flink.conftest import depth, make_payload
from tests.flink.retired import TwoPathExchange

WORKERS = ["w0", "w1", "w2"]

# 1e308 + 1e308 in a vectorized reducer: NumPy warns, Python's add does not.
pytestmark = pytest.mark.filterwarnings(
    "ignore:(overflow|invalid value) encountered in (scalar )?add")


# -- the key zoo -----------------------------------------------------------------
# Rows carry a small int in field 0; an extractor maps it into one family of
# keys.  Element extractors see one row (tuple, 1-D row view or np.void).

ELEMENT_KEYS = {
    "negative": lambda i: i - 4,
    "beyond_int64": lambda i: 2**63 + i,
    "beyond_uint64": lambda i: 2**64 + i,
    "numpy_int": lambda i: np.int64(i - 4),
    "numpy_float": lambda i: np.float64(i) / 2,
    "bool": lambda i: i % 2 == 0,
    "float": lambda i: i + 0.5,
    "signed_zero": lambda i: -0.0 if i % 2 else 0.0,
    "str": lambda i: f"key-{i}",
    "tuple": lambda i: (i % 3, str(i)),
    # 1 and 1.0 are one dict key but hash to different buckets.
    "int_or_float": lambda i: i // 2 if i % 2 else float(i // 2),
}


def first_column(block):
    return block["k"] if block.dtype.names else block[:, 0]


# Vectorized extractors see the producer's block (row lists are lifted).
COLUMN_KEYS = {
    "int64": lambda c: c.astype(np.int64) - 4,
    "uint64": lambda c: c.astype(np.uint64) + np.uint64(2**63),
    "int8": lambda c: (c.astype(np.int64) % 5).astype(np.int8),
    "float64": lambda c: c.astype(np.float64) + 0.5,
    "signed_zero": lambda c: np.where(c.astype(np.int64) % 2, -0.0, 0.0),
    "bool": lambda c: c.astype(np.int64) % 2 == 0,
    "str": lambda c: np.char.add("key-", c.astype(np.int64).astype(str)),
}


def make_key_fn(name):
    if name is None:
        return None
    family, which = name.split(":")
    if family == "element":
        to_key = ELEMENT_KEYS[which]
        return lambda row: to_key(int(row[0]))
    to_column = COLUMN_KEYS[which]
    return vectorized(lambda block: to_column(first_column(block)))


# -- combiners -------------------------------------------------------------------

def element_sum(a, b):
    return (a[0], a[1] + b[1])


@vectorized
def block_sum(block, starts):
    out = block[starts]
    if block.dtype.names:
        out["v"] = segment_sum(block["v"], starts)
    else:
        out[:, 1] = segment_sum(block[:, 1], starts)
    return out


def make_combiner(name, key_name, key_fn):
    """``None``, a pair keyed on the routing key *object*, a pair keyed on
    an equal but distinct extractor, ReduceOp's keyless pre-fold, a
    free-form callable, or the count."""
    if name is None:
        return None
    if name == "count":
        return COUNT_COMBINER
    if name == "free_form":
        return lambda bucket: bucket[1:3]
    if name == "fold":
        return (lambda row: 0, element_sum)
    keyed, reducer = name.split("+")
    combiner_key = key_fn if keyed == "same" else make_key_fn(key_name)
    return (combiner_key, block_sum if reducer == "block" else element_sum)


# -- one exchange, either bucketing ----------------------------------------------

def run_case(exchange_cls, case):
    env = Environment()
    net = Network(env, WORKERS, NetworkConfig(latency_s=0.0))
    producers = [Partition(i, make_payload(kind, rows), 16.0, scale,
                           WORKERS[i % len(WORKERS)])
                 for i, (kind, rows, scale) in enumerate(case["producers"])]
    q = case["q"]
    key_fn = make_key_fn(case["key"])
    kw = {}
    if case["spill"]:
        kw["hdfs"] = HDFS(env, WORKERS, net, replication=1,
                          disk=DiskConfig(read_bps=100e6, write_bps=100e6,
                                          seek_s=0.0))
        kw["flink"] = FlinkConfig(shuffle_spill_nbytes=64.0)
    exchange = exchange_cls(
        env, net, Serializer(1e9), ShipStrategy(case["strategy"]), producers,
        q, [WORKERS[(j + 1) % len(WORKERS)] for j in range(q)],
        key_fn=key_fn,
        combiner=make_combiner(case["combiner"], case["key"], key_fn),
        only_consumers=case["only"], **kw)
    result = env.run(until=env.process(exchange.run()))
    return {
        "now": env.now,
        "shuffled": result.bytes_shuffled,
        "zero_copy": result.bytes_zero_copy,
        "spilled": result.bytes_spilled,
        "serde": exchange.serializer.stats(),
        "inputs": [None if part is None else
                   (part.index, part.worker, part.element_nbytes, part.scale,
                    part.nominal_count, fingerprint(part.elements))
                   for part in result.inputs],
    }


def fingerprint(payload):
    """Format, row types and bytes of a consumer payload."""
    if isinstance(payload, np.ndarray):
        return ("block", str(payload.dtype), payload.shape, payload.tobytes())
    return ("rows", [
        (type(row).__name__, str(row.dtype), row.tobytes())
        if isinstance(row, (np.ndarray, np.generic))
        else (type(row).__name__, repr(row))
        for row in payload])


# -- cases -----------------------------------------------------------------------

STRATEGIES = ["hash", "rebalance", "gather", "broadcast"]
# One format for every producer, or row lists beside blocks.
FORMATS = [["list"], ["2d"], ["struct"], ["list", "2d"], ["list", "struct"]]
KEYS = ([f"element:{name}" for name in ELEMENT_KEYS]
        + [f"column:{name}" for name in COLUMN_KEYS])


def combiners_for(key):
    names = [None, "count", "free_form", "fold"]
    if key is not None:
        names += ["same+element", "twin+element"]
        if key.startswith("column:"):
            names += ["same+block", "twin+block"]
    return names


def swept_cases():
    """Every strategy x format mix x key family x combiner kind, on fixed
    rows: three producers, the middle one having emitted nothing."""
    rows = [[(i * 7 % 10, float(i) - 3.5) for i in range(17)], [],
            [(i * 3 % 10, 0.25 * i) for i in range(9)]]
    for strategy in STRATEGIES:
        for formats in FORMATS:
            kinds = [formats[0], formats[-1], formats[-1]]
            for key in (KEYS if strategy == "hash" else [None]):
                for combiner in combiners_for(key):
                    yield {"strategy": strategy,
                           "q": 1 if strategy == "gather" else 5,
                           "producers": [(kind, r, 3.0)
                                         for kind, r in zip(kinds, rows)],
                           "key": key, "combiner": combiner,
                           "only": None, "spill": False}


values_st = st.one_of(
    st.integers(-50, 50).map(float),
    st.sampled_from([0.0, -0.0, 0.1, 1e308, 5e-324, float("inf")]))
rows_st = st.lists(st.tuples(st.integers(0, 9), values_st), max_size=25)


@st.composite
def generated_cases(draw):
    strategy = draw(st.sampled_from(STRATEGIES))
    q = 1 if strategy == "gather" else draw(st.integers(1, 7))
    formats = draw(st.sampled_from(FORMATS))
    producers = []
    for _ in range(draw(st.integers(1, 4))):
        # Any producer may have emitted nothing: an empty row list or an
        # empty block.
        producers.append((draw(st.sampled_from(formats)),
                          draw(st.one_of(st.just([]), rows_st)),
                          draw(st.sampled_from([1.0, 3.0]))))
    key = draw(st.sampled_from(KEYS)) if strategy == "hash" else None
    only = draw(st.one_of(st.none(),
                          st.sets(st.integers(0, q - 1), max_size=q)))
    return {"strategy": strategy, "q": q, "producers": producers,
            "key": key,
            "combiner": draw(st.sampled_from(combiners_for(key))),
            "only": only, "spill": draw(st.booleans())}


class TestOneRoutedPathEqualsTheTwoItReplaced:
    def test_every_strategy_format_key_and_combiner(self):
        price_lists = set()
        for case in swept_cases():
            out = run_case(Exchange, case)
            assert out == run_case(TwoPathExchange, case), case
            price_lists.add((case["strategy"], out["zero_copy"] > 0,
                             case["combiner"]))
        # The sweep prices both ways under every strategy, and reaches the
        # combine-before-route branch of either format.
        for strategy in STRATEGIES:
            assert {(strategy, True, None),
                    (strategy, False, None)} <= price_lists
        assert {("hash", True, "same+block"), ("hash", True, "twin+block"),
                ("hash", False, "same+block"),
                ("hash", False, "same+element")} <= price_lists

    @given(case=generated_cases())
    @depth(tier1=100, full=2500)
    def test_generated_rows_only_consumers_and_spill(self, case):
        assert run_case(Exchange, case) == run_case(TwoPathExchange, case)
