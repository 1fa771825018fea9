"""One benchmark run: set-up, warm-up, timed or traced rounds, checks."""
from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

from pyspark.sql import SparkSession

from perfbench import checks, layers
from perfbench.checks import result_fault
from perfbench.trace import Record, Tracer
from perfbench.workloads import SYSTEMS, WORKLOADS, digest_lines
from repro.exec.executor import PlanExecutor
from repro.exec.inlj import GraphExecutor

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"  # Spark scratch space and trace records
CORES = 2
SETUPS = 3
WARMUP_ROUNDS = (2, 4)  # at least, at most
WARM_FALL = 0.10  # a round this much faster than the one before is still warming up
MIN_ROUNDS = 3


def peak_rss_mb(pid: int | str) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for process {pid}")


def cpu_ticks() -> tuple[int, int]:
    """(all, stolen) CPU ticks of the host so far, from /proc/stat."""
    with open("/proc/stat") as f:
        ticks = [int(x) for x in f.readline().split()[1:]]
    return sum(ticks[:8]), ticks[7]


def host_load(since: tuple[int, int]) -> str:
    """Load average and the share of CPU time stolen by other guests since
    ``since``, printed with every run so a loaded host shows next to the
    numbers."""
    total, steal = cpu_ticks()
    share = (steal - since[1]) / max(1, total - since[0])
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return f"host: loadavg {load}, steal {share:.1%}, nproc {os.cpu_count()}"


def start_spark():
    tmp = OUT / "tmp"
    # Spark's block manager, shuffle files and PySpark's broadcast files all
    # go under the checkout; the environment variable wins over the conf.
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    cores = min(CORES, os.cpu_count() or 1)
    spark = (
        SparkSession.builder.master(f"local[{cores}]").appName("perfbench")
        .config("spark.driver.memory", "2g")
        # C1 only: the JIT reaches its steady state within a round, where the
        # default tiered compiler keeps speeding up for minutes.
        .config("spark.driver.extraJavaOptions",
                f"-XX:TieredStopAtLevel=1 -XX:+UseSerialGC -Xms1g -Xmn512m -Djava.io.tmpdir={tmp}")
        .config("spark.sql.shuffle.partitions", str(2 * cores))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.execution.arrow.maxRecordsPerBatch", "8192")
        .config("spark.sql.adaptive.enabled", "false")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait for its JVM (and the Python workers it started)."""
    proc = spark.sparkContext._gateway.proc
    spark.stop()
    proc.stdin.close()  # the launcher exits when its stdin closes
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class Bench:
    """Runs rounds of (query, system) operations and checks their results."""

    def __init__(self, spark, cat, specs, refs, tracer=None):
        self.spark, self.cat, self.specs, self.refs = spark, cat, specs, refs
        self.systems = SYSTEMS
        self.pex = PlanExecutor(spark, cat)
        self.gex = GraphExecutor(spark, cat)
        self.tracer = tracer
        self.attempted = self.failed = self.wrong = 0
        self.last: dict[tuple[str, str], object] = {}  # (query, system) -> last outcome

    def _execute(self, system: str, spec):
        # Methods are looked up per call, so the traced run's wrappers apply.
        if system == "GraphflowDB":
            return self.gex.execute(spec)
        return self.pex.execute(spec, mode=system)

    def op(self, q: str, system: str, traced: bool = False):
        """One execution: (seconds, outcome or None, trace record or None)."""
        self.attempted += 1
        rec = None
        if traced:
            self.spark.sparkContext.setJobGroup(f"{q}/{system}", "perfbench")
            rec = self.tracer.rec = Record()
        try:
            t0 = time.perf_counter()
            out = self._execute(system, self.specs[q])
            dt = time.perf_counter() - t0
        except Exception:
            self.failed += 1
            print(f"FAILED {q} {system}\n{traceback.format_exc()}", file=sys.stderr)
            return None, None, None
        finally:
            if traced:
                self.tracer.rec = None
                self.spark.sparkContext._jsc.clearJobGroup()
        fault = result_fault(out.result, self.refs[q])
        if fault:
            self.wrong += 1
            print(f"WRONG {q} {system}: {fault}", file=sys.stderr)
        self.last[(q, system)] = out
        return dt, out, rec

    def round(self, r: int, traced: bool = False) -> list[tuple[str, str, float, object, object]]:
        """Every query under every system; the system order rotates with the
        query and the round, so drift hits all systems alike."""
        done = []
        n = len(self.systems)
        for i, q in enumerate(self.specs):
            k = (i + r) % n
            for s in self.systems[k:] + self.systems[:k]:
                dt, out, rec = self.op(q, s, traced)
                if dt is not None:
                    done.append((q, s, dt, out, rec))
        return done

    def warm_up(self, trace_first: bool = False):
        """Rounds until the round total stops falling by more than WARM_FALL,
        at most WARMUP_ROUNDS[1] of them. Returns (rounds run, the first
        round's operations)."""
        lo, hi = WARMUP_ROUNDS
        prev = first = None
        for r in range(hi):
            done = self.round(r, traced=trace_first and r == 0)
            first = done if r == 0 else first
            total = sum(dt for _q, _s, dt, _o, _r in done)
            print(f"warm-up round {r}: {total:.3f} s")
            if r + 1 >= lo and total > (1 - WARM_FALL) * prev:
                return r + 1, first
            prev = total
        print(f"WARNING: round totals still falling after {hi} warm-up rounds", file=sys.stderr)
        return hi, first

    def result_checks(self) -> dict[str, str | None]:
        """Per query: row counts agree across systems, and GRainDB's counted
        scanned rows are at most DuckDB's."""
        out = {}
        for q in self.specs:
            rows = {s: len(self.last[(q, s)].result) for s in self.systems if (q, s) in self.last}
            out[f"rowcount {q}"] = (
                None if len(set(rows.values())) == 1 and len(rows) == len(self.systems)
                else f"row counts differ: {rows}"
            )
            d, g = self.last.get((q, "DuckDB")), self.last.get((q, "GRainDB"))
            out[f"scanned {q}"] = (
                None if d and g and g.metrics.total_scanned <= d.metrics.total_scanned
                else "GRainDB counted more scanned rows than DuckDB"
            )
        return out


def setup(spark, wl, seed: int, tracer):
    """Build the catalog SETUPS times; keep the last. Returns (catalog,
    seconds per build, trace record per build)."""
    cat, secs, recs = None, [], []
    for _ in range(SETUPS):
        if cat is not None:
            cat.unpersist()
        if tracer is not None:
            tracer.rec = Record()
        t0 = time.perf_counter()
        cat = wl.build_catalog(spark, seed)
        secs.append(time.perf_counter() - t0)
        if tracer is not None:
            recs.append(tracer.rec)
            tracer.rec = None
    return cat, secs, recs


def timed_rounds(seconds: float, first_round: int, on_round) -> int:
    """At least MIN_ROUNDS rounds; after that a round starts only if it is
    expected to end within ``seconds`` of the first."""
    t_start = time.perf_counter()
    r, last = first_round, 0.0
    while r - first_round < MIN_ROUNDS or time.perf_counter() - t_start + last <= seconds:
        t0 = time.perf_counter()
        on_round(r)
        last = time.perf_counter() - t0
        r += 1
    return r - first_round


def end_to_end(bench, seconds: float, first_round: int, setup_s, jvm_pid) -> dict:
    lat: dict[tuple[str, str], list[float]] = defaultdict(list)

    def on_round(r):
        done = bench.round(r)
        for q, s, dt, _out, _rec in done:
            lat[(q, s)].append(dt)
        print(f"round {r}: {sum(dt for _q, _s, dt, _o, _r in done):.3f} s")

    n = timed_rounds(seconds, first_round, on_round)
    print(f"timed rounds: {n}")
    med = {k: statistics.median(v) for k, v in lat.items()}
    for q in bench.specs:
        print(f"median {q}: " + ", ".join(
            f"{s} {med[(q, s)] * 1000:.1f} ms" for s in bench.systems if (q, s) in med))
    total = {}
    for s in bench.systems:
        missing = [q for q in bench.specs if (q, s) not in med]
        if missing:
            # A sum over the remaining queries would read faster than it is.
            print(f"no timing metrics for {s}: no sample of {','.join(missing)}", file=sys.stderr)
            continue
        per_query = [med[(q, s)] for q in bench.specs]
        total[s] = sum(per_query)
        print(f"{s}: {total[s]:.3f} s over the timed queries, "
              f"p50 {statistics.median(per_query) * 1000:.1f} ms")
    # Absolute latencies follow the load other guests put on the host, which
    # changes between runs; the systems run interleaved query by query, so
    # their ratio within a run does not.
    m = {"setup_s": (statistics.median(setup_s), "s")}
    for s, key in (("GRainDB", "graindb"), ("GraphflowDB", "graphflow")):
        if s in total and "DuckDB" in total:
            m[f"{key}_vs_duckdb"] = (total[s] / total["DuckDB"], "ratio")
    m["python_rss_mb"] = (peak_rss_mb("self"), "MB")
    m["jvm_rss_mb"] = (peak_rss_mb(jvm_pid), "MB")
    return m


def run(args) -> dict:
    """The result object: correctness, operation counts and metrics."""
    t_run = time.perf_counter()

    def stage(what: str) -> None:
        print(f"[{time.perf_counter() - t_run:6.1f} s] {what}")

    wl = WORKLOADS[args.workload]
    specs = wl.specs()
    tables = wl.tables(args.seed)  # regenerated apart from the catalog
    print(f"workload {wl.name} scale={wl.scale} seed={args.seed} queries={','.join(specs)}")
    for line in digest_lines(tables, specs):
        print(line)
    refs = checks.references(tables, specs)
    stage("inputs and references ready")

    tracer = Tracer() if args.trace else None
    ticks = cpu_ticks()
    t0 = time.perf_counter()
    spark = start_spark()
    spark_start_s = time.perf_counter() - t0
    stage("Spark started")
    try:
        if tracer is not None:
            tracer.install()
        cat, setup_s, setup_recs = setup(spark, wl, args.seed, tracer)
        print("setup_s: " + ", ".join(f"{s:.3f}" for s in setup_s))
        stage("set up")
        bench = Bench(spark, cat, specs, refs, tracer)
        warm, first = bench.warm_up(trace_first=tracer is not None)
        print(f"warm-up rounds: {warm}")
        stage("warmed up")
        if tracer is None:
            metrics = end_to_end(bench, args.seconds, warm, setup_s,
                                 spark.sparkContext._gateway.proc.pid)
        else:
            tracer.uninstall()
            metrics = layers.per_layer(
                bench, tracer, lambda on_round: timed_rounds(args.seconds, warm, on_round),
                first, setup_recs, spark_start_s, OUT / f"trace-{wl.name}-{args.seed}.jsonl")
        stage("measured")
        # After the timed section: catalog properties and agreement across systems.
        faults = {**checks.catalog_checks(cat, tables), **bench.result_checks()}
        stage("checked")
    finally:
        stop_spark(spark)
    bad = {k: v for k, v in faults.items() if v}
    for k, v in bad.items():
        print(f"CHECK FAILED {k}: {v}", file=sys.stderr)
    print(f"checks: {len(faults)} run, {len(bad)} failed; executions: {bench.attempted} run, "
          f"{bench.failed} raised, {bench.wrong} wrong")
    print(host_load(ticks))
    return {
        "correct": bench.wrong == 0 and not bad,
        "attempted": bench.attempted + len(faults),
        "failed": bench.failed + bench.wrong + len(bad),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
