"""Bundled demonstration problem.

An unstable second-order plant with a single input, a quadrilateral state
constraint set and a symmetric input interval. Small enough to solve in
milliseconds, rich enough to exercise every code path.
"""

import numpy as np

from .experiment import (ExperimentData, PlantModel, build_data_matrices,
                         random_input_sequence, simulate)
from .polytopes import InputPolytope, PolyhedralCSet, validate_cset

STATE_ROWS = np.array([
    [1.0 / 5.0, 2.0 / 5.0],
    [-1.0 / 5.0, -2.0 / 5.0],
    [-3.0 / 20.0, 1.0 / 5.0],
    [3.0 / 20.0, -1.0 / 5.0],
])

INPUT_ROWS = np.array([[1.0 / 7.0], [-1.0 / 7.0]])  # |u| <= 7

A_MATRIX = np.array([[4.0 / 5.0, 1.0 / 2.0], [-2.0 / 5.0, 6.0 / 5.0]])
B_MATRIX = np.array([[0.0], [1.0]])

DEFAULT_SEED = 7
DEFAULT_SAMPLES = 20
DEFAULT_X0 = np.array([1.0, 0.0])


def demo_state_set() -> PolyhedralCSet:
    return validate_cset(STATE_ROWS)


def demo_input_set() -> InputPolytope:
    return InputPolytope(INPUT_ROWS)


def demo_plant() -> PlantModel:
    return PlantModel(A_MATRIX, B_MATRIX)


def demo_experiment(seed: int = DEFAULT_SEED, samples: int = DEFAULT_SAMPLES) -> ExperimentData:
    """One open-loop run from DEFAULT_X0 with uniform random input on
    [-1, 1], the data everything in the examples is synthesized from."""
    plant = demo_plant()
    rng = np.random.default_rng(seed)
    inputs = random_input_sequence(rng, samples, plant.m)
    states = simulate(plant, DEFAULT_X0, inputs)
    return build_data_matrices(inputs, states)
