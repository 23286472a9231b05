"""The repo benchmark: five workloads, timed from outside ``src/``.

``python -m bench --workload W --seed S --seconds T --trace 0|1`` runs
one workload and prints one JSON result as its last line; without
``--workload`` it runs all five, each in a fresh interpreter.  Names,
units and regression bounds live in ``BENCHMARK.json`` at the repo
root; ``bench/README.md`` is the glossary.
"""

#: Pinned to 1 before numpy loads, and recorded in every result file.
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
