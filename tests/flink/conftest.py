"""Shared fixtures for Flink substrate tests: a small, fast cluster."""

import os
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from repro.flink import Cluster, ClusterConfig, CPUSpec, FlinkConfig, FlinkSession
from repro.flink.pipeline import PipelinedExecutor


def make_cluster(n_workers=2, cores=2, **flink_overrides):
    flink = FlinkConfig(**flink_overrides) if flink_overrides else FlinkConfig()
    config = ClusterConfig(n_workers=n_workers,
                           cpu=CPUSpec(cores=cores),
                           flink=flink)
    return Cluster(config)


#: A GStruct-style record: the structured twin of a ``(k, v)`` tuple.
RECORD = np.dtype([("k", np.int64), ("v", np.float64)])


def make_payload(kind, rows):
    """The same ``(k, v)`` rows as a row list (``"list"``), the stacked 2-D
    float block (``"2d"``) or a structured GStruct block (``"struct"``)."""
    if kind == "list":
        return list(rows)
    if kind == "struct":
        return np.array(rows, dtype=RECORD)
    return np.array(rows, dtype=np.float64).reshape(len(rows), 2)


def at_depth(tier1, full):
    """``tier1`` in the tier-1 suite, ``full`` when ``scripts/ci.sh`` sets
    ``REPRO_FULL_DEPTH=1``."""
    return full if os.environ.get("REPRO_FULL_DEPTH") else tier1


def depth(tier1, full):
    """Hypothesis settings for a generated differential: :func:`at_depth`
    examples."""
    return settings(max_examples=at_depth(tier1, full), deadline=None)


def assert_ports_free(network):
    """Network conservation once the work is over, faults and membership
    changes included: no NIC port still held, no claim still queued."""
    for ports in (network._egress, network._ingress):
        for node, port in ports.items():
            assert port.holder is None, f"{node}: port still held"
            assert not port.queue, f"{node}: claim queued"


@contextmanager
def barriered():
    """The reference clock: jobs run inside this block stream nothing.

    Every operator is made an exchange boundary (it waits for its inputs'
    final partitions), so operator waves never overlap — the upper bound
    the pipelined clock is compared against, and the shape the exact
    slot-ratio tests need.  Results are unaffected.
    """
    with mock.patch.object(PipelinedExecutor, "_streaming_mode",
                           lambda self, op: False):
        yield


@pytest.fixture
def cluster():
    return make_cluster()


@pytest.fixture
def session(cluster):
    return FlinkSession(cluster)
