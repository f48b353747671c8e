"""Tropical (min, +) weight algebra in the negative-natural-log domain.

Weights are plain floats: smaller is better, 0.0 is the identity for
extension (times) and +inf is the absorbing "no path" element (zero).
"""

import math

Weight = float

ZERO: Weight = math.inf
ONE: Weight = 0.0

