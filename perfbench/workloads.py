"""The benchmark's three workloads and the inputs they hand to the program.

Each workload names its data module (table generator and catalog builder,
which predefines the joins and builds the RID indices), its query specs, and
the subset of queries the benchmark times. The program sees only the
generated tables and the query specs; scale and seed belong to the benchmark.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from types import ModuleType
from typing import Callable

import pandas as pd

from repro.bench import workloads_job, workloads_snb, workloads_tpch
from repro.data import imdb, snb, tpch
from repro.plan.spec import QuerySpec

SYSTEMS = ("DuckDB", "GRainDB", "GraphflowDB")


@dataclass(frozen=True)
class Workload:
    name: str
    scale: float
    data: ModuleType  # defines <kind>_tables(scale, seed) and <kind>_catalog(spark, scale, seed)
    kind: str
    all_specs: Callable[[], dict[str, QuerySpec]]
    queries: tuple[str, ...]

    def specs(self) -> dict[str, QuerySpec]:
        every = self.all_specs()
        return {q: every[q] for q in self.queries}

    def tables(self, seed: int) -> dict[str, pd.DataFrame]:
        return getattr(self.data, f"{self.kind}_tables")(self.scale, seed)

    def build_catalog(self, spark, seed: int):
        # Looked up on the module at call time, so a traced run sees the
        # generator wrapper it installs there.
        return getattr(self.data, f"{self.kind}_catalog")(spark, self.scale, seed)


# Each subset covers every rewrite the paper describes (SJoin, reverse
# semijoin through a RID index, join merging) and is small enough for several
# interleaved rounds per run; README.md lists what each query exercises.
WORKLOADS = {
    "snb": Workload("snb", 0.02, snb, "snb", workloads_snb.specs, ("IC1-2", "IC2")),
    "job": Workload("job", 0.02, imdb, "imdb", workloads_job.first_variants,
                    ("Q3a", "Q8a", "Q13a")),
    # At SF 0.055 lineitem has 330,000 rows, so Q17's mask of 1,300-2,100
    # lineitem RIDs prunes more than APPLY_MIN_PRUNED_ROWS (300,000) rows and
    # is applied as a broadcast bitmap; Q12's mask on orders is skipped.
    "tpch": Workload("tpch", 0.055, tpch, "tpch", workloads_tpch.specs, ("Q12", "Q17")),
}


def digest_frame(df: pd.DataFrame) -> str:
    h = hashlib.sha256(",".join(map(str, df.columns)).encode())
    h.update(pd.util.hash_pandas_object(df, index=False).to_numpy().tobytes())
    return h.hexdigest()[:16]


def digest_lines(tables: dict[str, pd.DataFrame], specs: dict[str, QuerySpec]) -> list[str]:
    """One line per generated table and per query's SQL, so a change to the
    inputs is visible next to the numbers."""
    lines = [f"table {n} rows={len(df)} sha256={digest_frame(df)}" for n, df in tables.items()]
    lines += [
        f"query {q} sha256={hashlib.sha256(s.to_sql().encode()).hexdigest()[:16]}"
        for q, s in specs.items()
    ]
    return lines
