"""FeatAug core: predicate-aware SQL query generation over Spark DataFrames.

Modules:

- :mod:`repro.core.config` — search-budget profiles,
- :mod:`repro.core.template` — query templates (Definition 1) & encodings,
- :mod:`repro.core.space` — query vectors / pools (Definition 2, §V-A),
- :mod:`repro.core.sqlgen` — query vector → Spark SQL text (also DuckDB),
- :mod:`repro.core.executor` — Catalyst execution, SQL-text result cache,
  driver-side Definition-3 merge,
- :mod:`repro.core.tpe` — Tree-structured Parzen Estimator (§V-B),
- :mod:`repro.core.proxy` — MI / Spearman / LR low-cost proxies (§V-C, §VI-C),
- :mod:`repro.core.evaluator` — downstream-model loss (Problem 1),
- :mod:`repro.core.generation` — warm-up + TPE query generation (§V),
- :mod:`repro.core.qti` — beam-search template identification (§VI),
- :mod:`repro.core.feataug` — the end-to-end framework (Figure 2).
"""
