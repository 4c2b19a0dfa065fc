"""Experiment harnesses: ``tables`` holds one spec per task and runs the
paper's Tables 2, 4, 5 and 6 from them; ``common`` holds the per-method
plumbing (``run_modis``, true evaluation of outputs, table layout).
EXPERIMENTS.md records paper-vs-measured values.
"""
