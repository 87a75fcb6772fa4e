"""Fault-tolerance tests."""

import pytest

from repro.common.errors import JobExecutionError
from repro.flink import FailureInjector, FlinkSession
from tests.flink.conftest import make_cluster


class TestFaultTolerance:
    def test_job_survives_transient_failures(self):
        cluster = make_cluster()
        injector = FailureInjector(plan={("flaky-map", 0): 2})
        session = FlinkSession(cluster, failure_injector=injector)
        result = session.from_collection(list(range(10)), parallelism=2) \
            .map(lambda x: x * 2, name="flaky-map").collect()
        assert sorted(result.value) == [x * 2 for x in range(10)]
        assert injector.failures_injected == 2
        assert result.metrics.retries == 2

    def test_job_fails_after_retry_budget(self):
        cluster = make_cluster(max_task_retries=2)
        injector = FailureInjector(plan={("doomed", 0): 99})
        session = FlinkSession(cluster, failure_injector=injector)
        with pytest.raises(JobExecutionError, match="doomed"):
            session.from_collection([1], parallelism=1) \
                .map(lambda x: x, name="doomed").collect()

    def test_retries_cost_time(self):
        def run(fail_times):
            cluster = make_cluster()
            injector = FailureInjector(plan={("m", 0): fail_times})
            session = FlinkSession(cluster, failure_injector=injector)
            return session.from_collection(list(range(10)), parallelism=1) \
                .map(lambda x: x, name="m").count().seconds

        assert run(2) > run(0)

    def test_custom_failure_policy(self):
        cluster = make_cluster()
        injector = FailureInjector(
            should_fail=lambda op, sub, attempt: op == "x" and attempt == 0)
        session = FlinkSession(cluster, failure_injector=injector)
        result = session.from_collection([1, 2], parallelism=2) \
            .map(lambda v: v, name="x").collect()
        assert sorted(result.value) == [1, 2]
        assert result.metrics.retries == 2  # both subtasks failed once
