"""Exact machinery for forward-referencing word-equation systems: solvable
pointwise over closed permutation groups of the naturals, blockable by root
obstructions over free groups."""

from .freegrp import diagonalize, has_root, no_root_exponent, reverify
from .scale import WitnessIndex, build_scale, check_witness, find_witness, obeys_certificate
from .solver import LimitAutomorphism, approx, verify_solution
