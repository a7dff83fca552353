"""Certified numerics for the standard complex contact structure:
exact Legendrian disk calculus, obstacle cylinder sets with derivative
bound certificates, a push-out construction of Fatou-Bieberbach domains
avoiding them, and directed Kobayashi norm brackets.
"""

# No compiled extension exists; kept because perfbench/worker.py reads it.
USING_SPEEDUPS = False

__version__ = "0.1.0"

__all__ = ["USING_SPEEDUPS", "__version__"]
