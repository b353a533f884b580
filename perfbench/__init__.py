"""End-to-end benchmark for the DataSpread reproduction.

Three seeded, closed-loop, single-client workloads drive the public API
(``WorkbookService``, ``Session``, ``DBTableRegion``) and report latency,
throughput, memory, set-up and recovery time; a traced run splits the
time across the ``repro`` packages.  See ``perfbench/README.md``.
"""
