"""Exact machinery for forward-referencing word-equation systems: solvable
pointwise over closed permutation groups of the naturals, blockable by root
obstructions over free groups."""
