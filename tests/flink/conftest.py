"""Shared fixtures for Flink substrate tests: a small, fast cluster."""

from contextlib import contextmanager
from unittest import mock

import pytest

from repro.flink import Cluster, ClusterConfig, CPUSpec, FlinkConfig, FlinkSession
from repro.flink.pipeline import PipelinedExecutor


def make_cluster(n_workers=2, cores=2, **flink_overrides):
    flink = FlinkConfig(**flink_overrides) if flink_overrides else FlinkConfig()
    config = ClusterConfig(n_workers=n_workers,
                           cpu=CPUSpec(cores=cores),
                           flink=flink)
    return Cluster(config)


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
