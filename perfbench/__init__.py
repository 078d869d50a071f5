"""Closed-loop benchmark of the tdsim CLI; run ``python3 perfbench/run.py --help``."""
