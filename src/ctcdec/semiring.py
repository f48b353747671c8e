"""Tropical (min, +) weight algebra in the negative-natural-log domain.

Weights are plain floats: smaller is better, 0.0 is the identity for
extension (times) and +inf is the absorbing "no path" element (zero).
"""

import math

Weight = float

ZERO: Weight = math.inf
ONE: Weight = 0.0


def plus(a: Weight, b: Weight) -> Weight:
    """Semiring sum: min of the two costs."""
    return a if a <= b else b


def times(a: Weight, b: Weight) -> Weight:
    """Semiring product: cost accumulation along a path."""
    if a == ZERO or b == ZERO:
        return ZERO
    return a + b

