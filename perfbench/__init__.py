"""End-to-end and per-layer benchmark of the ``repro`` serving and batch paths.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the program built from ``src/`` of the checkout it
is started in and prints one JSON result as the last line of stdout.  See
``perfbench/workloads.py`` for what each workload does and why.
"""
