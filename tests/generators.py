"""Seeded random instance generators shared by the module and acceptance tests,
the controllability test the plant generator draws against, and the
membership test the polytope tests check the gauge with."""

import numpy as np

from ddinv.experiment import PlantModel
from ddinv.lp import LinearProgram
from ddinv.numerics import numerical_rank


def random_box_lp(rng, max_vars=4, max_rows=8):
    """Random LP with box bounds on every variable, so the feasible region is
    bounded and the basic-point oracle is conclusive. Mixes feasible and
    infeasible instances."""
    n = int(rng.integers(1, max_vars + 1))
    rows = int(rng.integers(1, max_rows + 1))
    lhs = rng.uniform(-1.0, 1.0, size=(rows, n))
    rhs = rng.uniform(-0.4, 1.0, size=rows)
    objective = rng.uniform(-1.0, 1.0, size=n)
    half = rng.uniform(0.5, 1.5, size=n)
    return LinearProgram(num_vars=n, objective=objective,
                         ineq_lhs=lhs, ineq_rhs=rhs,
                         lower_bounds=-half, upper_bounds=half)


def lp_with_known_point(rng, max_vars=4, max_rows=8):
    """Random LP feasible by construction; returns (lp, witness point)."""
    n = int(rng.integers(1, max_vars + 1))
    rows = int(rng.integers(1, max_rows + 1))
    witness = rng.uniform(-0.8, 0.8, size=n)
    lhs = rng.uniform(-1.0, 1.0, size=(rows, n))
    rhs = lhs @ witness + rng.uniform(0.0, 1.0, size=rows)
    objective = rng.uniform(-1.0, 1.0, size=n)
    prob = LinearProgram(num_vars=n, objective=objective,
                         ineq_lhs=lhs, ineq_rhs=rhs,
                         lower_bounds=np.full(n, -2.0), upper_bounds=np.full(n, 2.0))
    return prob, witness


def unbounded_lp(rng, max_vars=4, max_rows=6):
    """LP unbounded by construction: the last variable has no upper bound,
    every inequality row treats it nonpositively, and the objective pushes
    it up."""
    n = int(rng.integers(2, max_vars + 1))
    rows = int(rng.integers(1, max_rows + 1))
    lhs = rng.uniform(-1.0, 1.0, size=(rows, n))
    lhs[:, -1] = -np.abs(lhs[:, -1])
    rhs = np.abs(rng.uniform(0.1, 1.0, size=rows))
    objective = rng.uniform(-1.0, 1.0, size=n)
    objective[-1] = -rng.uniform(0.5, 1.0)
    lower = np.full(n, -1.0)
    upper = np.full(n, 1.0)
    upper[-1] = np.inf
    return LinearProgram(num_vars=n, objective=objective,
                         ineq_lhs=lhs, ineq_rhs=rhs,
                         lower_bounds=lower, upper_bounds=upper)


def mixed_bounds_lp(rng, max_vars=5, max_rows=6):
    """Random LP whose variables are free, bounded below, bounded above or
    ranged, with inequality rows of either right-hand-side sign (the
    negative ones start on an artificial), equality rows of which the last
    may repeat a combination of the others, and a zero objective one time
    in four. Feasible, infeasible and unbounded instances all occur."""
    n = int(rng.integers(1, max_vars + 1))
    kind = rng.integers(0, 4, size=n)
    lower = np.where((kind == 1) | (kind == 3), rng.uniform(-1.0, 0.0, size=n), -np.inf)
    upper = np.where((kind == 2) | (kind == 3), rng.uniform(0.0, 1.0, size=n), np.inf)
    rows = int(rng.integers(0, max_rows + 1))
    ineq = rng.uniform(-1.0, 1.0, size=(rows, n))
    ineq_rhs = rng.uniform(-0.5, 1.0, size=rows)
    eqs = int(rng.integers(0, min(n, 3) + 1))
    eq = rng.uniform(-1.0, 1.0, size=(eqs, n))
    eq_rhs = rng.uniform(-0.5, 0.5, size=eqs)
    if eqs >= 2 and rng.random() < 0.5:
        weights = rng.uniform(-1.0, 1.0, size=eqs - 1)
        eq[-1], eq_rhs[-1] = weights @ eq[:-1], weights @ eq_rhs[:-1]
    objective = rng.uniform(-1.0, 1.0, size=n) * (rng.random() >= 0.25)
    return LinearProgram(num_vars=n, objective=objective, eq_lhs=eq, eq_rhs=eq_rhs,
                         ineq_lhs=ineq, ineq_rhs=ineq_rhs,
                         lower_bounds=lower, upper_bounds=upper)


def random_cset_rows(rng, n, max_extra=3):
    """Rows of a random validated-ready C-set: a box with per-face scaling
    plus a few random cutting halfplanes. Always bounded with the origin
    interior."""
    scale = rng.uniform(0.5, 1.5, size=2 * n)
    rows = np.vstack([np.eye(n), -np.eye(n)]) / scale[:, None]
    extra = int(rng.integers(0, max_extra + 1))
    for _ in range(extra):
        direction = rng.normal(size=n)
        norm = np.linalg.norm(direction)
        if norm < 1e-9:
            continue
        rows = np.vstack([rows, direction[None, :] / (norm * rng.uniform(0.7, 1.4))])
    return rows


def contains(cset, x, scale=1.0, tol=1e-9):
    """True when x lies in scale * set, within tol on each row."""
    x = np.asarray(x, dtype=float).reshape(-1)
    return bool(np.all(cset.h_matrix @ x <= scale + tol))


def box_input_rows(m, limit):
    """Input box |u_i| <= limit as halfspace rows."""
    return np.vstack([np.eye(m), -np.eye(m)]) / limit


def controllability_matrix(plant):
    blocks = []
    power = np.eye(plant.n)
    for _ in range(plant.n):
        blocks.append(power @ plant.b_matrix)
        power = plant.a_matrix @ power
    return np.hstack(blocks)


def is_controllable(plant):
    return numerical_rank(controllability_matrix(plant)) == plant.n


def random_controllable_plant(rng, n, m, spectral_radius=None):
    """Draw (A, B) with Gaussian entries, rejecting uncontrollable pairs.
    When spectral_radius is given, A is rescaled to it."""
    for _ in range(100):
        a = rng.normal(size=(n, n))
        if spectral_radius is not None:
            top = np.max(np.abs(np.linalg.eigvals(a)))
            if top > 0:
                a = a * (spectral_radius / top)
        b = rng.normal(size=(n, m))
        plant = PlantModel(a, b)
        if is_controllable(plant):
            return plant
    raise RuntimeError("could not draw a controllable pair")
