"""Paper-claim benchmarks: one test per figure or table of the paper.

A package, so pytest roots it at the repository and the tests import
their shared helpers as ``benchmarks.conftest`` from any directory.
"""
