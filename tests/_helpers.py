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


def recursivity_oracle(m, P):
    """The level-n splitting defect from three eval_rows calls on whole
    matrices: the oracle of recursivity_defect's one-pass blocks, which must
    match it bit for bit."""
    s = P[:, 0] + P[:, 1]
    merged = np.concatenate([s[:, None], P[:, 2:]], axis=1)
    level2 = np.stack([P[:, 0] / s, P[:, 1] / s], axis=1)
    return m.eval_rows(P) - m.eval_rows(merged) - pow0(s, m.alpha_value) * m.eval_rows(level2)


def recursive_measure(m, P):
    """I_n by the splitting recursion written recursively, level n first: the
    oracle of the measure's unrolled evaluation, which must match it bit for
    bit."""
    n = P.shape[1]
    if n == 2:
        return np.asarray(m.generator(P[:, 1]), dtype=float)
    s = P[:, 0] + P[:, 1]
    merged = np.concatenate([s[:, None], P[:, 2:]], axis=1)
    out = recursive_measure(m, merged) + pow0(s, m.alpha_value) * np.asarray(
        m.generator(P[:, 1] / s)
    )
    for pert in m.perturbations:
        if pert.level == n:
            out = out + pert.values(P)
    return out
