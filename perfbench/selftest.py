"""Self-tests of the benchmark's own code.

Run from the repository root:

    python3 perfbench/selftest.py

The file name keeps it out of the repository's pytest collection.
"""
from __future__ import annotations

import dataclasses
import sys
import time
import types
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pandas as pd  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _patched_attrs():
    """(owner, attr) of every boundary ``layers.install`` patches."""
    tr = Tracer()
    layers.install(tr)
    out = [(owner, attr) for owner, attr, _ in tr._patches]
    tr.restore()
    return out


class TracerTest(unittest.TestCase):
    def test_restores_every_wrapped_function(self):
        attrs = _patched_attrs()
        self.assertTrue(attrs)
        before = {(o, a): vars(o).get(a) for o, a in attrs}
        with Tracer() as tr:
            layers.install(tr)
            for o, a in attrs:
                self.assertIsNot(vars(o).get(a), before[(o, a)], f"{a} not wrapped")
        for o, a in attrs:
            self.assertIs(vars(o).get(a), before[(o, a)], f"{o!r}.{a} not restored")

    def test_restores_inherited_attribute_by_deleting_it(self):
        class Base:
            def f(self):
                return 1

        class Child(Base):
            pass

        with Tracer() as tr:
            tr.wrap(Child, "f", "f")
            self.assertIn("f", vars(Child))
            self.assertEqual(Child().f(), 1)
        self.assertNotIn("f", vars(Child))

    def _nested_run(self):
        ns = types.SimpleNamespace()
        ns.leaf = lambda: time.sleep(0.002)

        def mid():
            time.sleep(0.001)
            ns.leaf()
            ns.leaf()

        ns.mid = mid
        tr = Tracer()
        with tr:
            tr.wrap(ns, "leaf", "leaf")
            tr.wrap(ns, "mid", "mid")
            for run in range(2):
                tr.run = run
                with tr.span("root"):
                    ns.mid()
                    ns.leaf()
        return tr

    def test_children_nest_inside_parents(self):
        tr = self._nested_run()
        self.assertEqual([sp["name"] for sp in tr.spans[:5]],
                         ["root", "mid", "leaf", "leaf", "leaf"])
        for sp in tr.spans:
            if sp["parent"] is not None:
                parent = tr.spans[sp["parent"]]
                self.assertLessEqual(parent["start"], sp["start"])
                self.assertLessEqual(sp["end"], parent["end"])
                self.assertEqual(parent["run"], sp["run"])

    def test_self_times_sum_to_root(self):
        tr = self._nested_run()
        selfs = tr.self_times()
        for i, sp in enumerate(tr.spans):
            if sp["name"] == "root":
                tree = {i}
                for j in range(i + 1, len(tr.spans)):
                    if tr.spans[j]["parent"] in tree:
                        tree.add(j)
                total = sum(selfs[j] for j in tree)
                self.assertAlmostEqual(total, sp["end"] - sp["start"], delta=1e-9)
                self.assertTrue(all(selfs[j] >= 0 for j in tree))

    def test_span_survives_exception(self):
        tr = Tracer()
        with self.assertRaises(ValueError):
            with tr.span("boom"):
                raise ValueError
        self.assertTrue(tr.spans[0]["error"])
        self.assertIsNotNone(tr.spans[0]["end"])


class ChecksTest(unittest.TestCase):
    R = pd.DataFrame({"k": [1, 1, 1, 1, 2, 2, 3],
                      "v": [5, 5, 7, 7, 9, 4, None],
                      "w": [0, 0, 0, 1, 0, 0, 0]})
    SQL = "SELECT k, MODE(v) AS feature FROM r WHERE w = 0 GROUP BY k"

    def _check(self, values):
        got = pd.DataFrame({"k": [1, 2, 3], "feature": values})
        m = checks._MODE.fullmatch(self.SQL)
        self.assertIsNotNone(m)
        checks._check_mode(got, m, self.R)

    def test_mode_accepts_any_most_frequent_value(self):
        self._check([5.0, 9.0, None])
        self._check([5.0, 4.0, None])

    def test_mode_rejects_other_values(self):
        with self.assertRaises(AssertionError):
            self._check([7.0, 9.0, None])
        with self.assertRaises(AssertionError):
            self._check([5.0, 9.0, 1.0])


class InputsTest(unittest.TestCase):
    def test_same_seed_same_rows(self):
        df = pd.DataFrame({"a": range(50), "b": [str(i) for i in range(50)]})
        pd.testing.assert_frame_equal(workloads.permute_rows(df, 3),
                                      workloads.permute_rows(df, 3))
        other = workloads.permute_rows(df, 4)
        self.assertFalse(other.equals(workloads.permute_rows(df, 3)))
        pd.testing.assert_frame_equal(other.sort_values("a").reset_index(drop=True), df)

    def test_workload_inputs_repeat_for_a_seed(self):
        import run

        spark, proc = run.start_spark()
        try:
            wl = dataclasses.replace(workloads.WORKLOADS["tmall_lr_cold"], scale=0.12)
            (b1, r1), (b2, r2) = (workloads.make_inputs(spark, wl, 5) for _ in range(2))
            pd.testing.assert_frame_equal(r1, r2)
            pd.testing.assert_frame_equal(b1.R.toPandas(), r1)
            pd.testing.assert_frame_equal(b1.D_pandas, b2.D_pandas)
            _, r3 = workloads.make_inputs(spark, wl, 6)
            self.assertFalse(r3.equals(r1))
        finally:
            run.stop_spark(spark, proc)


class SummaryTest(unittest.TestCase):
    def test_reports_every_end_to_end_metric(self):
        import run

        samples = [{"problems": [], "setup_s": 2.0, "scenario_s": w, "reference_s": r,
                    "scenario_ref": w / r, "test_loss": 0.2}
                   for w, r in ((1.0, 0.05), (1.5, 0.075), (3.0, 0.1))]
        result = run.summarise({"samples": samples, "peak_rss_mb": 180.0,
                                "jvm_peak_rss_mb": 900.0}, trace=False)
        self.assertEqual(set(result["metrics"]), set(run.END_TO_END))
        self.assertAlmostEqual(result["metrics"]["scenario_ref"]["value"], 20.0)
        self.assertEqual((result["attempted"], result["failed"]), (3, 0))

    def test_reference_kernel_takes_measurable_time(self):
        import hostinfo

        self.assertGreater(min(hostinfo.reference_s() for _ in range(3)), 1e-3)


if __name__ == "__main__":
    unittest.main()
