"""Reproduce one of the paper's result tables: III, VI, VII or VIII.

Usage: spark-submit jobs/run_table.py {3,6,7,8}   (or: python jobs/run_table.py N)
Env: REPRO_SCALE (default 0.6), REPRO_SEED, REPRO_FAST=1 for a quick pass.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from _common import get_spark  # noqa: E402

from repro.experiments import run_table3, run_table6, run_table7, run_table8  # noqa: E402

TABLES = {"3": run_table3, "6": run_table6, "7": run_table7, "8": run_table8}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("table", choices=sorted(TABLES))
    n = ap.parse_args().table
    spark = get_spark(f"feataug-table{n}")
    spark.sparkContext.setLogLevel("ERROR")
    TABLES[n](spark)
    spark.stop()


if __name__ == "__main__":
    main()
