"""Wall-clock benchmark of the ringids pipeline; run ``python3 perfbench/run.py --help``."""
