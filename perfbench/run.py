"""End-to-end benchmark: DuckDB mode, GRainDB and the INLJ executor on Spark.

    python3 perfbench/run.py --workload {snb,job,tpch} --seed N --seconds S --trace {0,1}

One run is one fresh process with its own local Spark. It builds the
workload's catalog several times (set-up), warms up until round latency stops
falling, then runs rounds of every query under every system, interleaved
query by query, for ``--seconds``. Every execution is checked against DuckDB
over regenerated tables, and the catalog against the properties the method
relies on. With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rounds and reports the
per-layer metrics, writing one record per query and system to
``.perfbench/``. The last line of standard output is the result as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("snb", "job", "tpch"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # The program is not installed: import it from the checkout, here and in
    # Spark's Python workers, which unpickle broadcast RID indices.
    sys.path[:0] = [str(SRC), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
    # Temporary files of this process, of PySpark's launcher and of both JVMs
    # stay under the checkout; the JVMs write no perf-data files to /tmp.
    tmp = ROOT / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = "-XX:-UsePerfData"
    from perfbench.bench import run

    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
