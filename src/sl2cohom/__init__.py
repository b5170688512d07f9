"""Exact Farrell-Tate cohomology data for rank-one S-arithmetic groups."""

__version__ = "0.1.0"
