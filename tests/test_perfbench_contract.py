"""The benchmark's contract with ``repro``, checked in tier 1.

``perfbench/`` patches ``repro`` where callers look names up and checks each
scenario's output against DuckDB. Its modules are imported here by path and
not changed, so a renamed boundary or a broken output check fails this test
and not only a benchmark run.
"""
import importlib.util
import sys
from pathlib import Path

from repro.core.config import TINY
from repro.core.feataug import DatasetContext, run_feataug

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """Import ``perfbench/<name>.py`` as the top-level module ``name``, the
    way the benchmark's modules import each other."""
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_boundaries_fire_and_output_checks_pass(spark, tiny_tmall):
    tracer, layers, checks = (_load(n) for n in ("tracer", "layers", "checks"))
    tr = tracer.Tracer()
    layers.install(tr)
    try:
        with tr.span("setup"):
            ctx = DatasetContext(spark, tiny_tmall, TINY, seed=0)
        with tr.span("scenario"):
            out = run_feataug(ctx, "LR")
    finally:
        tr.restore()
    try:
        layers.check_fired(tr)
        assert checks.check_output(out, ctx.executor.view,
                                   ctx.executor.R.toPandas()) == []
    finally:
        ctx.close()
