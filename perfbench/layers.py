"""Per-layer metrics from the traced run.

Untraced and traced rounds alternate; the tracing overhead is the traced
round total minus the untraced one. Every other metric is a per-round sum
over the workload's queries for one system (GRainDB unless the name says
otherwise), reported as the median over traced rounds. Set-up metrics are
medians over the catalog builds. One record per query and system, with its
phases and the remainder of its wall time they leave unexplained, goes to a
JSON-lines file.
"""
from __future__ import annotations

import json
import statistics
from collections import defaultdict

from perfbench.trace import MB, broadcast_stats, job_counts, spark_scan_rows

PHASES = ("plan", "rewrite", "sip", "spark.build", "spark.exec")


def _inspect(spark, q: str, s: str, dt: float, out, rec) -> dict:
    """What the trace saw of one execution, read after its wall time ended."""
    jobs, stages, tasks = job_counts(spark, f"{q}/{s}")
    n_bc, bc_mb, live = broadcast_stats(rec)
    info = {
        "query": q, "system": s, "wall_ms": dt * 1000,
        "phases_ms": {p: rec.phase.get(p, 0.0) * 1000 for p in PHASES},
        "remainder_ms": (dt - sum(rec.phase.values())) * 1000,
        "spans_ms": {k: v * 1000 for k, v in rec.total.items()},
        "calls": dict(rec.calls),
        "counts": dict(rec.count),
        "spark": {"jobs": jobs, "stages": stages, "tasks": tasks,
                  "scan_rows": spark_scan_rows(rec.result_df) if rec.result_df else 0},
        "broadcasts": n_bc, "broadcast_mb": bc_mb, "broadcasts_live": live,
        "counted_scan_rows": out.metrics.total_scanned,
        "rows": len(out.result),
    }
    rec.broadcasts.clear()  # let the broadcasts be collected
    rec.result_df = None
    return info


def _round_metrics(recs: list[dict]) -> dict[str, float]:
    by = defaultdict(list)
    for r in recs:
        by[r["system"]].append(r)
    g, d, f = by["GRainDB"], by["DuckDB"], by["GraphflowDB"]

    def span(rs, name):
        return sum(r["spans_ms"].get(name, 0.0) for r in rs)

    def phase(rs, name):
        return sum(r["phases_ms"][name] for r in rs)

    def count(rs, name):
        return sum(r["counts"].get(name, 0) for r in rs)

    def spark(rs, name):
        return sum(r["spark"][name] for r in rs)

    def total(rs, key):
        return sum(r[key] for r in rs)

    applied, skipped = count(g, "scansj.applied"), count(g, "scansj.skipped")
    return {
        "plan.stats_ms": span(g, "plan.stats"),
        "plan.order_ms": span(g, "plan.order") - span(g, "plan.stats"),
        "rewrite.ms": span(g, "rewrite"),
        "rewrite.sjoin": count(g, "rewrite.sjoin"),
        "rewrite.sjoin_idxr": count(g, "rewrite.sjoin_idxr"),
        "rewrite.sjoin_idxm": count(g, "rewrite.sjoin_idxm"),
        "sip.ms": phase(g, "sip"),
        "sip.rid_sets_ms": span(g, "sip.rid_sets"),
        "sip.scan_ms": span(g, "sip.scan"),
        "sip.propagate_ms": span(g, "sip.propagate"),
        "sip.rids_passed": count(g, "sip.rids_passed"),
        "bitmask.build_ms": span(g, "bitmask.build"),
        "bitmask.masks": count(g, "bitmask.masks"),
        "bitmask.zones_active": count(g, "bitmask.zones_active"),
        "bitmask.zones_total": count(g, "bitmask.zones_total"),
        "rid_index.lookup_ms": span(g, "rid_index.lookup"),
        "scansj.applied": applied,
        "scansj.skipped": skipped,
        "scansj.applied_ratio": applied / (applied + skipped) if applied + skipped else 0.0,
        "scansj.rows_pruned": count(g, "scansj.rows_pruned"),
        "scansj.counted_scan_rows": total(g, "counted_scan_rows"),
        "spark.scan_rows": spark(g, "scan_rows"),
        "spark.build_ms": phase(g, "spark.build"),
        "spark.exec_ms": phase(g, "spark.exec"),
        "spark.jobs": spark(g, "jobs"),
        "spark.stages": spark(g, "stages"),
        "spark.tasks": spark(g, "tasks"),
        "spark.broadcasts": total(g, "broadcasts"),
        "spark.broadcast_mb": total(g, "broadcast_mb"),
        "spark.broadcasts_live": total(g, "broadcasts_live"),
        "graindb.wall_ms": total(g, "wall_ms"),
        "graindb.remainder_ms": total(g, "remainder_ms"),
        "duckdb.plan_ms": phase(d, "plan"),
        "duckdb.counted_scan_rows": total(d, "counted_scan_rows"),
        "duckdb.spark.scan_rows": spark(d, "scan_rows"),
        "duckdb.spark.build_ms": phase(d, "spark.build"),
        "duckdb.spark.exec_ms": phase(d, "spark.exec"),
        "duckdb.spark.jobs": spark(d, "jobs"),
        "duckdb.spark.stages": spark(d, "stages"),
        "duckdb.spark.tasks": spark(d, "tasks"),
        "duckdb.wall_ms": total(d, "wall_ms"),
        "duckdb.remainder_ms": total(d, "remainder_ms"),
        "inlj.order_ms": span(f, "inlj.order"),
        "inlj.extends": sum(r["calls"].get("inlj.extend", 0) for r in f),
        "inlj.index_broadcast_mb": total(f, "broadcast_mb"),
        "inlj.broadcasts_live": total(f, "broadcasts_live"),
        "inlj.build_ms": phase(f, "spark.build"),
        "inlj.exec_ms": phase(f, "spark.exec"),
        "inlj.spark.tasks": spark(f, "tasks"),
        "graphflow.wall_ms": total(f, "wall_ms"),
        "graphflow.remainder_ms": total(f, "remainder_ms"),
        "result.rows": total(recs, "rows"),
    }


UNITS = {"_ms": "ms", "_s": "s", "_mb": "MB", "_ratio": "ratio"}


def _unit(name: str) -> str:
    if name.endswith(".ms"):
        return "ms"
    return next((u for suffix, u in UNITS.items() if name.endswith(suffix)), "count")


def per_layer(bench, tracer, rounds, first, setup_recs, spark_start_s, path) -> dict:
    """Run alternating untraced and traced rounds through ``rounds`` (which
    calls back once per round) and return the per-layer metrics."""
    spark = bench.spark
    untraced, traced, records = [], [], []

    def on_round(r):
        if len(untraced) == len(traced):
            untraced.append(sum(dt for _q, _s, dt, _o, _r in bench.round(r)))
            return
        tracer.install()
        try:
            done = bench.round(r, traced=True)
        finally:
            tracer.uninstall()
        traced.append(sum(dt for _q, _s, dt, _o, _r in done))
        records.append([_inspect(spark, q, s, dt, out, rec) for q, s, dt, out, rec in done])

    cold, seen = 0.0, set()
    for q, _s, _dt, _out, rec in first:
        if q not in seen:  # the first execution of a query computes its statistics
            seen.add(q)
            cold += rec.total.get("plan.stats", 0.0)
        rec.broadcasts.clear()
        rec.result_df = None
    rounds(on_round)
    per_round = [_round_metrics(recs) for recs in records]
    m = {k: statistics.median(pr[k] for pr in per_round) for k in per_round[0]}
    cat = bench.cat
    m.update({
        "spark.start_s": spark_start_s,
        "data.generate_s": statistics.median(r.total["data.generate"] for r in setup_recs),
        "catalog.register_s": statistics.median(r.total["catalog.register"] for r in setup_recs),
        "catalog.predefine_s": statistics.median(r.total["catalog.predefine"] for r in setup_recs),
        "catalog.index_s": statistics.median(r.total["catalog.index"] for r in setup_recs),
        "catalog.finalize_s": statistics.median(r.total["catalog.finalize"] for r in setup_recs),
        "catalog.pandas_mb": sum(
            t.pdf.memory_usage(deep=True).sum() + t.pdf_original.memory_usage(deep=True).sum()
            for t in cat.tables.values()) / MB,
        "catalog.spark_cached_mb": sum(
            i.memSize() for i in spark.sparkContext._jsc.sc().getRDDStorageInfo()) / MB,
        "catalog.index_mb": sum(i.nbytes() for i in cat.indices.values()) / MB,
        "plan.stats_cold_ms": cold * 1000,
        "trace.overhead_ms": (statistics.median(traced) - statistics.median(untraced)) * 1000,
    })
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        for i, r in enumerate(setup_recs):
            f.write(json.dumps({"setup": i, "spans_ms": {k: v * 1000 for k, v in r.total.items()},
                                "calls": dict(r.calls)}) + "\n")
        for i, recs in enumerate(records):
            for r in recs:
                f.write(json.dumps({"round": i, **r}) + "\n")
    print(f"trace records: {path}")
    for r in records[-1]:
        print(f"trace {r['query']} {r['system']}: wall {r['wall_ms']:.1f} ms = " + " + ".join(
            f"{p} {v:.1f}" for p, v in r["phases_ms"].items() if v) +
            f" + remainder {r['remainder_ms']:.1f}")
    return {k: (v, _unit(k)) for k, v in m.items()}
