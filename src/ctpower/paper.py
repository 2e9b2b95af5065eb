"""The paper's closed forms, each stated once, as numpy expressions.

Each takes scalars or arrays of values that a channel spec or an input
family has already validated, and checks nothing; ``verify`` compares the
engine with them.  They state the abstract's claims: GHZ (MS at d = 0)
meets the bound C = 1/3, its NCF the classical 2/3; a theta channel's NCF
is max(a^2, b^2) on its matched circle, so C reaches the bound for a^2 in
[1/3, 2/3], exactly where its 3-tangle reaches 8/9.
"""
import numpy as np

CLASSICAL_POWER = 1.0 / 3.0  # the bound on C: 1 - the classical fidelity 2/3
TANGLE_BOUND = 8.0 / 9.0  # the least 3-tangle of a theta channel with C >= 1/3


def ms_ncf(d, k0, k1):
    """|k0|^4 + |k1|^4 + 2|d| |k0|^2 |k1|^2: the NCF of input (k0, k1)
    through an MS channel."""
    p0 = k0.real**2 + k0.imag**2
    p1 = k1.real**2 + k1.imag**2
    return p0 * p0 + p1 * p1 + 2.0 * np.abs(d) * p0 * p1


def theta_ncf(a, b, e2):
    """max(a^2, b^2) + min(a^2, b^2) e2: the NCF through a theta channel
    about axis k of an input with e2 = |<sigma_k>|^2."""
    a2, b2 = a * a, b * b
    return np.maximum(a2, b2) + np.minimum(a2, b2) * e2


def ms_sphere_average(d):
    """2/3 + |d|/3: an MS channel's NCF averaged over the Bloch sphere."""
    return 2.0 / 3.0 + np.abs(d) / 3.0


def matched_average(a2):
    """max(a^2, 1 - a^2): a theta channel's NCF, flat on its matched circle."""
    return np.maximum(a2, 1.0 - a2)


def ms_tangle(c):
    """c^2: the 3-tangle of an MS channel."""
    return c * c


def theta_tangle(a2):
    """4 a^2 (1 - a^2): the 3-tangle of a theta channel."""
    return 4.0 * a2 * (1.0 - a2)
