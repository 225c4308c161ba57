"""The wall-clock benchmark: join and serving, end to end and layer by layer.

Four workloads run against the front doors only (``SimilarityEngine.run``,
the ``python -m repro.server`` CLI, ``SimilarityClient``, ``QueryRequest``),
check every output against an exact oracle and print each metric by the
name ``BENCHMARK.json`` gives it.  See ``README.md`` in this directory.
"""
