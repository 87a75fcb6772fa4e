"""The checks must be able to fail: one mutant of ``src`` at a time.

A mutant is a function or method of the engine recompiled from its own
source with one snippet replaced, patched in for the length of a test (and
into every module that imported it by name).  **Value mutants** change an
answer; the tier-1 sweep of ``test_plans.py`` (the very settings tier-1
runs, derandomized, so what it reaches is fixed) must fail under each.
**Clock mutants** leave every answer alone and move the simulated clock
(the profiler's move what a trace is said to show); each must trip the
check named beside it, which is what decides whether a frozen copy of
retired code is still needed to pin it.
"""

import contextlib
import importlib
import inspect
import textwrap
from unittest import mock

import pytest

from tests.reference.test_plans import sweep


def patched(target, *edits, also=()):
    """``module:qualname`` recompiled with each ``(old, new)`` edit, patched
    in ``module`` and in the modules named by ``also``."""
    modname, qualname = target.split(":")
    module = importlib.import_module(modname)
    *path, name = qualname.split(".")
    owner = module
    for attr in path:
        owner = getattr(owner, attr)
    source = textwrap.dedent(inspect.getsource(vars(owner)[name]))
    for old, new in edits:
        assert source.count(old) == 1, (target, old)
        source = source.replace(old, new)
    namespace = dict(vars(module))
    exec(compile(source, f"<mutant of {target}>", "exec"), namespace)
    stack = contextlib.ExitStack()
    for where in [owner] + [importlib.import_module(m) for m in also]:
        stack.enter_context(mock.patch.object(where, name, namespace[name]))
    return stack


VALUE_MUTANTS = {
    "hash_bucket drops its integral-float branch": lambda: patched(
        "repro.flink.shuffle:hash_bucket",
        ("    if isinstance(key, float) and key.is_integer():\n"
         "        return int(key) % n\n", "")),
    "payload.cut loses the last bucket": lambda: patched(
        "repro.flink.payload:cut",
        ("for lo, hi in zip(cuts, cuts[1:])]",
         "for lo, hi in zip(cuts, cuts[1:])][:-1] + [routed[:0]]"),
        ("    return buckets\n", "    return buckets[:-1] + [[]]\n"),
        also=["repro.flink.shuffle"]),
    "segment_fold starts each segment at its second row": lambda: patched(
        "repro.flink.payload:segment_fold",
        ("out = column[starts]",
         "out = column[np.minimum(starts + 1, len(column) - 1)]"),
        also=["repro.flink.iterators"]),
    "group_plan's distinct-key path keeps the key-sorted order": lambda: (
        patched("repro.flink.payload:group_plan",
                ("GroupPlan(perm[run_order], ", "GroupPlan(perm, "),
                also=["repro.flink.shuffle", "repro.flink.iterators"])),
    "fold_by_key keeps the last row": lambda: patched(
        "repro.flink.iterators:fold_by_key",
        ("table[key] = reduce_fn(table[key], x)", "table[key] = x")),
    "_output_scale is off by the producer's scale": lambda: patched(
        "repro.flink.plan:MapOp._output_scale",
        ("return part.scale\n", "return part.scale * part.scale\n")),
    "the GPU fallback runs a different kernel": lambda: patched(
        "repro.core.gdst:_cpu_fallback",
        ("            spec = registry.get(kernel_name)\n            in_arrays",
         "            spec = registry.get('ref_keep' if kernel_name != "
         "'ref_keep' else 'ref_double')\n            in_arrays")),
    "the lineage walk recomputes the wrong partition index": lambda: patched(
        "repro.flink.pipeline:PipelinedExecutor._missing",
        ("not alive(parts[i].worker)",
         "not alive(parts[(i + 1) % len(parts)].worker)")),
}


@pytest.mark.parametrize("name", sorted(VALUE_MUTANTS))
def test_the_tier1_sweep_catches_each_value_mutant(name):
    with VALUE_MUTANTS[name]():
        with pytest.raises(Exception):
            sweep(shrink=False)


def pinned_event_budget():
    from tests.common.test_zero_wait_events import TestEventBudget
    TestEventBudget().test_pagerank_cpu_job_steps_and_events_per_shipped_bucket(
        False)


def shipping_oracle():
    """One zero-copy hash exchange, against the retired per-charge loop."""
    from tests.flink import test_shipping_differential as shipping
    case = shipping.untied(next(
        case for case in shipping.single_exchanges([shipping.EQUAL])
        if case["exchanges"][0]["strategy"] == "hash"
        and case["exchanges"][0]["kind"] == "2d"))
    assert shipping.run_case(shipping.NEW, case) \
        == shipping.run_case(shipping.RETIRED, case)


def cached_blocks_skip_h2d():
    from tests.core.test_gstream import TestCachingBehaviour
    TestCachingBehaviour().test_second_submission_skips_h2d()


def paper_table_fig5a():
    from tests.test_paper_table import SWEEPS, TestEngineHoldsTheTable
    claim = next(claim for claim in SWEEPS if claim.id == "fig5a")
    TestEngineHoldsTheTable().test_headline_factor_at_the_mid_table1_size(
        claim)


def profile_subtraction():
    """An interval of ``minus`` reaching into the next one of ``base``."""
    from repro.obs import profile
    base, minus = [(0.0, 1.0), (2.0, 3.0)], [(0.5, 2.5)]
    assert profile._subtract(base, minus) == [(0.0, 0.5), (2.5, 3.0)]


def profile_check(qualname):
    """The ``Class.method`` check of tests/obs/test_profile.py."""
    def check():
        from tests.obs import test_profile
        cls, method = qualname.split(".")
        getattr(getattr(test_profile, cls)(), method)()
    return check


#: name -> (the mutant, the check that catches it).
CLOCK_MUTANTS = {
    "Exchange._send: a shipment's deserialize fires before its transfer": (
        lambda: patched(
            "repro.flink.shuffle:Exchange._send",
            ("        spills = (",
             "        owed.append(blocks * serializer.block_header_s if zero_copy"
             "\n                    else serializer.deserialize_time(nbytes, "
             "count))\n        spills = ("),
            ("        if zero_copy:\n            # Receiver re-parses the block "
             "descriptors; no per-row deser.\n            owed.append(blocks * "
             "serializer.block_header_s)\n        else:\n            "
             "owed.append(serializer.deserialize_time(nbytes, count))\n", "")),
        pinned_event_budget),
    "the zero-copy descriptor cost is paid on one side only": (
        lambda: patched(
            "repro.flink.shuffle:Exchange._send",
            ("            owed.append(blocks * serializer.block_header_s)",
             "            owed.append(0.0)")),
        shipping_oracle),
    "a cached GWork block pays H2D again": (
        lambda: patched(
            "repro.core.gstream:GStream._pipeline",
            ("                    pin = entry\n"
             "            if probing:",
             "                    pin = entry\n"
             "                    yield from transfer(device, pin.buffer, blk,"
             " primary, comm_mode)\n"
             "            if probing:")),
        cached_blocks_skip_h2d),
    "the stage loop charges after it transforms instead of before": (
        lambda: patched(
            "repro.flink.plan:_StageChain.execute_subtask",
            ("        yield from ctx.charge(stage.cost, part.nominal_count,\n"
             "                              part.nominal_nbytes, stage.udf)\n"
             "        part = stage.functional_output(part, ctx.subtask_index,\n"
             "                                       ctx.worker.name)\n",
             "        part = stage.functional_output(part, ctx.subtask_index,\n"
             "                                       ctx.worker.name)\n"
             "        yield from ctx.charge(stage.cost, part.nominal_count,\n"
             "                              part.nominal_nbytes, stage.udf)\n")),
        paper_table_fig5a),
    "the profiler's subtraction steps past an interval reaching into the "
    "next": (
        lambda: patched(
            "repro.obs.profile:_subtract",
            ("            if cursor >= hi:\n                break\n",
             "            if cursor >= hi:\n                j += 1\n"
             "                break\n")),
        profile_subtraction),
    "the profiler's union merges across a gap wider than one tick": (
        lambda: patched(
            "repro.obs.profile:_union",
            ("out[-1][1] + TICK_S", "out[-1][1] + 2 * TICK_S"),
            also=["tests.obs.test_profile"]),
        profile_check(
            "TestIntervalMath.test_union_merges_within_one_tick_only")),
    "the profiler's intersection drops a pair starting at one instant": (
        lambda: patched(
            "repro.obs.profile:_intersect",
            ("        if hi > lo:",
             "        if hi > lo and a[i][0] != b[j][0]:")),
        profile_check("TestCriticalPath.test_kernel_wins_overlap_priority")),
    "the critical path claims sched before kernel": (
        lambda: patched(
            "repro.obs.profile:_attribute_window",
            ("        t0, t1, ((cat, trace.worker_cover(worker, cat, t0, "
             "t1))\n"
             "                 for cat in _ENGINES + (\"hdfs\",)))",
             "        t0, t1, [(\"sched\", [(t0, t1)])] + [\n"
             "            (cat, trace.worker_cover(worker, cat, t0, t1))\n"
             "            for cat in _ENGINES + (\"hdfs\",)])")),
        profile_check(
            "TestCriticalPath.test_fine_spans_refine_task_segments")),
    "device_utilization counts H2D / D2H overlap twice": (
        lambda: patched(
            "repro.obs.profile:device_utilization",
            ("        copy_busy = _length(copies)",
             "        copy_busy = (_length(_union(device[\"h2d\"]))\n"
             "                     + _length(_union(device[\"d2h\"])))")),
        profile_check("TestUtilization.test_overlapping_copies_count_once")),
    "operator shares are divided by the makespan, not the operator's wall": (
        lambda: patched(
            "repro.obs.profile:classify_operators",
            ("{k: v / wall for k, v in sorted(shares.items())}",
             "{k: v / (trace.window()[1] - trace.window()[0])\n"
             "                       for k, v in sorted(shares.items())}")),
        profile_check("TestOperatorClassification.test_cpu_bound")),
}


@pytest.mark.parametrize("name", sorted(CLOCK_MUTANTS))
def test_the_named_check_catches_each_clock_mutant(name):
    mutant, check = CLOCK_MUTANTS[name]
    with mutant():
        with pytest.raises(AssertionError):
            check()
