"""Shared constructions for the test modules."""

import numpy as np

from infostab import InformationMeasure, PowerFamily, ShannonInfo, pow0


def kappa(alpha):
    return 1.0 / (2.0 ** (1.0 - alpha) - 1.0)


def exact_measure(alpha, max_n=8, perturbations=()):
    """The degree-alpha entropy sequence: generator x -> H_2(1-x, x)."""
    if alpha == 1.0:
        return InformationMeasure(ShannonInfo(), 1.0, max_n, perturbations)
    k = kappa(alpha)
    return InformationMeasure(PowerFamily(k, k, alpha), alpha, max_n, perturbations)


def fundamental_defect(f, alpha, pts):
    """The fundamental equation's defect evaluated point by point: the oracle
    of the node-table kernel, which must match it bit for bit."""
    x = pts[:, 0]
    y = pts[:, 1]
    rx = 1.0 - x
    ry = 1.0 - y
    return (
        f(x)
        + pow0(rx, alpha) * f(np.minimum(y / rx, 1.0))
        - f(y)
        - pow0(ry, alpha) * f(np.minimum(x / ry, 1.0))
    )
