"""Experiment harnesses for the paper's tables (see DESIGN.md §6).

Each ``run_tableN`` takes the session SparkSession, runs the table's grid,
returns a tidy pandas DataFrame, writes ``results/tableN.csv`` and prints a
paper-shaped pivot. Scale and budgets are environment-tunable:
``REPRO_SCALE`` (default 0.6), ``REPRO_SEED`` (default 0).
"""
from repro.experiments.harness import (
    DEFAULT_SCALE,
    budget_from_env,
    results_dir,
    save_and_print,
)
from repro.experiments.grids import run_table3, run_table6, run_table7, run_table8
from repro.experiments.table1_2 import table1_rows, table2_rows
from repro.experiments.table4_5 import table4_rows, table5_rows

__all__ = [
    "DEFAULT_SCALE", "budget_from_env", "results_dir", "save_and_print",
    "table1_rows", "table2_rows", "table4_rows", "table5_rows",
    "run_table3", "run_table6", "run_table7", "run_table8",
]
