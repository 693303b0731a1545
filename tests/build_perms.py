"""Test builders for Perm values, each through the validating Perm(mapping)."""

from grpeq.perm import Perm


def transposition(a, b):
    """The swap of the distinct points a and b."""
    return Perm({a: b, b: a})


def cycle(points):
    """The cycle points[0] -> points[1] -> ... -> points[0] on distinct
    points; the identity for fewer than two."""
    return Perm({p: points[(i + 1) % len(points)] for i, p in enumerate(points)})
