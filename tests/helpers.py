"""Shared random-instance generators for the test suite."""

import math

import numpy as np

from codiv import DiscreteMeasure, PreconditionError, SignedMeasure, perturb


def random_probability(rng, n, floor=0.05, zeros=0) -> DiscreteMeasure:
    """Random probability vector, optionally with exact zeros at `zeros` points."""
    mass = rng.random(n) + floor
    if zeros:
        idx = rng.choice(n, size=zeros, replace=False)
        mass[idx] = 0.0
    return DiscreteMeasure(mass / math.fsum(mass))


def random_dominated(rng, p0: DiscreteMeasure, floor=0.05, zeros=0) -> DiscreteMeasure:
    """Random probability measure dominated by p0 (zero wherever p0 is zero)."""
    mass = (rng.random(p0.support_size) + floor) * (p0.mass > 0)
    if zeros:
        pos = np.flatnonzero(p0.mass > 0)
        if pos.size > 1 and zeros < pos.size:
            idx = rng.choice(pos, size=zeros, replace=False)
            mass[idx] = 0.0
    return DiscreteMeasure(mass / math.fsum(mass))


def random_direction(rng, p0: DiscreteMeasure, scale=1.0) -> SignedMeasure:
    """Zero-total-mass signed direction dominated by p0."""
    supp = p0.mass > 0
    v = np.zeros(p0.support_size)
    v[supp] = rng.uniform(-1.0, 1.0, int(np.sum(supp)))
    v[supp] -= v[supp].mean()
    v *= scale
    mu = SignedMeasure(v)
    assert abs(mu.total) <= 1e-12
    return mu


def perturbs_to_probability(p0: DiscreteMeasure, mu: SignedMeasure, t: float) -> bool:
    """True when perturb makes p0 + t*mu a measure that is a probability within 1e-12."""
    try:
        return perturb(p0, mu, t).is_probability
    except PreconditionError:
        return False


def random_kernel(rng, n_in, n_out) -> np.ndarray:
    rows = rng.random((n_in, n_out)) + 0.02
    return rows / rows.sum(axis=1, keepdims=True)
