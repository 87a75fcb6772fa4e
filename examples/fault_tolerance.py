"""The reliability tour — §1.1: "Reliability thus acts as the main driver
for constructing our system, GFlink, on top of Flink."

Three failure stories, end to end:

1. a Flink task crashes twice and is re-executed (task-retry);
2. a GPU kernel suffers transient device faults and the GWork is retried
   through the same path;
3. an HDFS datanode dies and reads fail over to surviving replicas.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro.core import GFlinkCluster, GFlinkSession
from repro.flink import ClusterConfig, CPUSpec, FailureInjector
from repro.gpu import KernelSpec


def cluster_config():
    return ClusterConfig(n_workers=3, cpu=CPUSpec(cores=2),
                         gpus_per_worker=("c2050",))


def story_1_task_retry():
    injector = FailureInjector(plan={("flaky-map", 0): 2})
    session = GFlinkSession(GFlinkCluster(cluster_config()),
                            failure_injector=injector)
    result = session.from_collection(list(range(100)), parallelism=4) \
        .map(lambda x: x * 2, name="flaky-map").collect()
    assert sorted(result.value) == [2 * x for x in range(100)]
    print(f"1. task retry       : subtask failed "
          f"{injector.failures_injected}x, job still exact "
          f"({result.metrics.retries} retries, "
          f"{result.seconds:.2f} s)")


def story_2_gpu_fault():
    state = {"calls": 0}

    def flaky_kernel(bufs, params):
        state["calls"] += 1
        if state["calls"] <= 2:
            raise RuntimeError("simulated ECC error")
        return {"out": bufs["in"] * 2.0}

    session = GFlinkSession(GFlinkCluster(cluster_config()))
    session.register_kernel(KernelSpec(
        "flaky", flaky_kernel, flops_per_element=1.0, efficiency=0.5))
    data = np.arange(64, dtype=np.float64)
    result = session.from_collection(data, element_nbytes=8,
                                     parallelism=1) \
        .gpu_map_partition("flaky").collect()
    assert np.allclose(sorted(result.value), sorted(data * 2))
    print(f"2. GPU fault retry  : kernel crashed twice, GWork resubmitted, "
          f"results exact ({result.metrics.retries} retries)")


def story_3_hdfs_failover():
    cluster = GFlinkCluster(cluster_config())
    cluster.load_hdfs_file("/data", [(list(range(50)), 400),
                                     (list(range(50, 100)), 400)])
    victim = cluster.hdfs.locate("/data")[0].replicas[0]
    cluster.hdfs.datanodes[victim].fail()
    session = GFlinkSession(cluster)
    result = session.read_hdfs("/data", element_nbytes=8).collect()
    assert sorted(result.value) == list(range(100))
    print(f"3. HDFS failover    : datanode {victim} dead, reads served "
          f"from surviving replicas")


def main():
    print("GFlink reliability tour (the paper's §1.1 driver):")
    story_1_task_retry()
    story_2_gpu_fault()
    story_3_hdfs_failover()


if __name__ == "__main__":
    main()
