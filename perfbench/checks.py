"""Correctness checks against references built apart from the catalog.

Query results are compared with DuckDB running each spec's SQL over freshly
regenerated tables, never over the catalog's own copies, so a change to how
the catalog stores its data cannot change the reference. The catalog itself
is checked for the properties the method relies on: materialized RIDs point
at the right rows, dangling keys stay null, and RID-index degrees match the
pointers they index.
"""
from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd

from perfbench.workloads import digest_frame


def canonical(pdf: pd.DataFrame) -> pd.DataFrame:
    """Column order, float rounding and row order fixed, so two results that
    hold the same bag of rows compare equal."""
    pdf = pdf[sorted(pdf.columns)].reset_index(drop=True).copy()
    for c in pdf.columns:
        if pd.api.types.is_float_dtype(pdf[c]):
            pdf[c] = pdf[c].round(6)
    return pdf.sort_values(list(pdf.columns)).reset_index(drop=True)


def references(tables: dict[str, pd.DataFrame], specs: dict) -> dict[str, pd.DataFrame]:
    con = duckdb.connect()
    try:
        for name, df in tables.items():
            con.register(name, df)
        return {q: canonical(con.execute(s.to_sql()).fetchdf()) for q, s in specs.items()}
    finally:
        con.close()


def result_fault(got: pd.DataFrame, ref: pd.DataFrame) -> str | None:
    try:
        pd.testing.assert_frame_equal(canonical(got), ref, check_dtype=False)
    except AssertionError as e:
        return str(e).splitlines()[0] if str(e) else "result differs from reference"
    return None


def _rid_fault(con, f: pd.DataFrame, fk: tuple[str, ...], p: pd.DataFrame,
               pk: tuple[str, ...], rid: pd.Series) -> str | None:
    fr = f[list(fk)].reset_index(drop=True).assign(__rid=pd.Series(rid).reset_index(drop=True))
    pr = p[list(pk)].reset_index(drop=True).assign(__pos=np.arange(len(p), dtype=np.int64))
    con.register("f", fr)
    con.register("p", pr)
    keys = " AND ".join(f'p."{b}" = f."{a}"' for a, b in zip(fk, pk))
    bad_ptr = con.execute(
        f"SELECT count(*) FROM f LEFT JOIN p ON p.__pos = f.__rid "
        f"WHERE f.__rid IS NOT NULL AND NOT coalesce({keys}, false)"
    ).fetchone()[0]
    missed = con.execute(
        f"SELECT count(*) FROM f WHERE f.__rid IS NULL "
        f"AND EXISTS (SELECT 1 FROM p WHERE {keys})"
    ).fetchone()[0]
    con.unregister("f")
    con.unregister("p")
    if bad_ptr or missed:
        return f"{bad_ptr} RIDs point at a row with another key, {missed} matching keys are null"
    return None


def catalog_checks(cat, tables: dict[str, pd.DataFrame]) -> dict[str, str | None]:
    """Check name -> fault (None when it holds)."""
    out: dict[str, str | None] = {}
    for name, ref in tables.items():
        held = cat.table(name).pdf[list(ref.columns)]
        out[f"rows {name}"] = (
            None if digest_frame(held) == digest_frame(ref)
            else "catalog rows differ from the regenerated table"
        )
    con = duckdb.connect()
    try:
        for (f_table, fk), pj in cat.predefined.items():
            rid = cat.table(f_table).pdf[pj.rid_col]
            out[f"rid {f_table}.{'+'.join(fk)}"] = _rid_fault(
                con, tables[f_table], fk, tables[pj.p_table], pj.pk_cols, rid
            )
    finally:
        con.close()
    for (f_table, fk), idx in cat.indices.items():
        pj = cat.predefined[(f_table, fk)]
        rid = cat.table(f_table).pdf[pj.rid_col]
        ptr = rid.dropna().to_numpy(dtype=np.int64)
        n_p = len(tables[pj.p_table])
        deg = np.diff(idx.offsets)
        fault = None
        if len(deg) != n_p:
            fault = f"index has {len(deg)} keys, {pj.p_table} has {n_p} rows"
        elif int(deg.sum()) != len(ptr):
            fault = f"degrees sum to {int(deg.sum())}, {len(ptr)} non-null pointers"
        elif not np.array_equal(deg, np.bincount(ptr, minlength=n_p)):
            fault = "per-key degree differs from the pointers to that key"
        out[f"index {f_table}.{'+'.join(fk)}"] = fault
    return out
