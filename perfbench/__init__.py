"""End-to-end and per-layer benchmark of the EquiTruss build, update and serving path.

Run ``python3 perfbench/run.py --help`` from the root of a checkout.
"""
