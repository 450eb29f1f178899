"""Optimal partisan districting under uncertainty.

Solve the designer's districting problem as a linear program, verify the
structure of optimal plans (single-dipped, pack-and-pair, regime taxonomy,
dual certificates), evaluate closed-form benchmark plans, and estimate the
aggregate-uncertainty ratio gamma from precinct-level election returns.
"""

__version__ = "0.1.0"
