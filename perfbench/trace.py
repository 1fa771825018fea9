"""Spans and counters around the public entry points of each layer.

Only the traced run installs these wrappers; the timed runs execute the
program untouched. Each wrapper replaces a name where its caller looks it up
(``executor`` binds ``greedy_plan`` and ``rewrite_plan`` at import time, so
they are patched there; ``_scan`` imports ``should_apply`` at call time, so it
is patched on ``repro.exec.sip``). Spans nest: a span's self time is its
duration minus the time covered by spans opened inside it, and each span's
self time is charged to a phase, so the phases of one query add up to the
time its outermost spans cover.
"""
from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import pyspark.core.context
import pyspark.sql.classic.dataframe

import repro.core.semijoin_reduce
import repro.data.imdb
import repro.data.snb
import repro.data.tpch
import repro.exec.executor
import repro.exec.inlj
import repro.exec.sip
import repro.plan.optimizer
from repro.core.bitmask import SemiJoinMasks
from repro.core.catalog import Catalog
from repro.core.rid_index import RIDIndex
from repro.exec.executor import PlanExecutor
from repro.exec.inlj import GraphExecutor
from repro.plan.nodes import MergeJoinNode, joins_of

MB = 1 << 20


class Record:
    """Spans and counters of one query execution or one catalog build."""

    def __init__(self) -> None:
        self.total: dict[str, float] = defaultdict(float)  # span name -> seconds
        self.phase: dict[str, float] = defaultdict(float)  # phase -> self seconds
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, float] = defaultdict(float)
        self.broadcasts: list[tuple[object, int]] = []  # (broadcast, pickled bytes)
        self.result_df = None  # the DataFrame whose toPandas produced the result


class Tracer:
    def __init__(self) -> None:
        self.rec: Record | None = None
        self._stack: list[list] = []  # open spans: [phase, child seconds]
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ wrapping
    def _wrap(self, owner, attr: str, name: str, phase: str | None, after=None) -> None:
        raw = vars(owner)[attr]
        is_cm = isinstance(raw, classmethod)
        fn = raw.__func__ if is_cm else raw
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.rec
            if rec is None:
                return fn(*args, **kwargs)
            # A phase of None inherits the phase of the enclosing span.
            ph = phase or (tracer._stack[-1][0] if tracer._stack else "other")
            frame = [ph, 0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][1] += dt
                rec.total[name] += dt
                rec.calls[name] += 1
                rec.phase[ph] += dt - frame[1]
            if after is not None:
                after(rec, ph, args, result)
            return result

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, classmethod(wrapper) if is_cm else wrapper)

    def install(self) -> None:
        w = self._wrap
        for mod, fn in ((repro.data.snb, "snb_tables"), (repro.data.imdb, "imdb_tables"),
                        (repro.data.tpch, "tpch_tables")):
            w(mod, fn, "data.generate", "setup")
        w(Catalog, "register", "catalog.register", "setup")
        w(Catalog, "predefine_join", "catalog.predefine", "setup")
        w(Catalog, "build_rid_index", "catalog.index", "setup")
        w(Catalog, "finalize", "catalog.finalize", "setup")
        w(repro.plan.optimizer, "filtered_cardinalities", "plan.stats", "plan")
        w(repro.exec.inlj, "filtered_cardinalities", "plan.stats", "plan")
        w(repro.exec.executor, "greedy_plan", "plan.order", "plan")
        w(repro.exec.executor, "rewrite_plan", "rewrite", "rewrite", _count_rewrite)
        w(PlanExecutor, "execute_plan", "execute", "spark.build")
        w(PlanExecutor, "_subtree_sets", "sip.rid_sets", "sip")
        w(PlanExecutor, "_driver_scan_rids", "sip.scan", "sip")
        w(repro.core.semijoin_reduce, "propagate", "sip.propagate", "sip")
        w(SemiJoinMasks, "from_rids", "bitmask.build", "sip", _count_mask)
        w(SemiJoinMasks, "combine", "bitmask.build", "sip")
        w(RIDIndex, "lookup_many", "rid_index.lookup", None)
        w(RIDIndex, "pairs", "rid_index.lookup", None)
        w(repro.exec.sip, "should_apply", "scansj.gate", None, _count_gate)
        w(GraphExecutor, "execute", "inlj.execute", "spark.build")
        w(repro.exec.inlj, "_derive_order", "inlj.order", "plan")
        w(repro.exec.inlj, "_extend_df", "inlj.extend", None)
        w(pyspark.core.context.SparkContext, "broadcast", "spark.broadcast", None,
          _keep_broadcast)
        w(pyspark.sql.classic.dataframe.DataFrame, "toPandas", "spark.exec", "spark.exec",
          _keep_df)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def _count_rewrite(rec: Record, phase, args, plan) -> None:
    for j in joins_of(plan):
        kind = "sjoin_idxm" if isinstance(j, MergeJoinNode) else j.kind
        if kind.startswith("sjoin"):
            rec.count[f"rewrite.{kind}"] += 1


def _count_mask(rec: Record, phase, args, masks) -> None:
    rec.count["bitmask.masks"] += 1
    rec.count["sip.rids_passed"] += masks.selected_rows()
    rec.count["bitmask.zones_active"] += int(masks.zone.sum())
    rec.count["bitmask.zones_total"] += int(masks.zone.size)


def _count_gate(rec: Record, phase, args, applied) -> None:
    masks = args[0]
    if applied:
        rec.count["scansj.applied"] += 1
        rec.count["scansj.rows_pruned"] += masks.n_rows - masks.selected_rows()
    else:
        rec.count["scansj.skipped"] += 1


def _keep_broadcast(rec: Record, phase, args, bc) -> None:
    rec.broadcasts.append((bc, os.path.getsize(bc._path)))


def _keep_df(rec: Record, phase, args, result) -> None:
    rec.result_df = args[0]


def spark_scan_rows(df) -> int:
    """Rows emitted by cached-table scans, from the executed plan's SQL metrics."""
    total = 0
    todo = [df._jdf.queryExecution().executedPlan()]
    while todo:
        node = todo.pop()
        if node.nodeName() == "InMemoryTableScan":
            m = node.metrics().get("numOutputRows")
            if m.isDefined():
                total += int(m.get().value())
        children = node.children()
        todo.extend(children.apply(i) for i in range(children.size()))
    return total


def job_counts(spark, group: str) -> tuple[int, int, int]:
    """(jobs, stages, tasks) run under a job group."""
    sc = spark.sparkContext
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    st = sc.statusTracker()
    jobs = st.getJobIdsForGroup(group)
    stages = tasks = 0
    for jid in jobs:
        info = st.getJobInfo(jid)
        for sid in info.stageIds if info else ():
            s = st.getStageInfo(sid)
            if s is not None:
                stages += 1
                tasks += s.numTasks
    return len(jobs), stages, tasks


def broadcast_stats(rec: Record) -> tuple[int, float, int]:
    """(count, MB, still valid) of the broadcasts made during a query; one
    that nothing destroyed is still valid after the query returns."""
    live = sum(int(bc._jbroadcast.isValid()) for bc, _ in rec.broadcasts)
    return len(rec.broadcasts), sum(size for _, size in rec.broadcasts) / MB, live
