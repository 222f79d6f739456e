"""Cubic tricirculant graphs via voltage covers: construction, symmetry
analysis, and exhaustive classification checks. The package root exports
nothing: every name is imported from its module, as `tricirc.families.t1`.
"""
