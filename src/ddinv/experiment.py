"""Open-loop experiments, closed-loop simulation, and the rank conditions
on the collected data.

States and inputs are stored time-major: a length-T input sequence is a
(T, m) array and the matching state sequence is (T+1, n). The data matrices
stack the same samples column-wise, one column per sampling instant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import images, numerical_rank, unit_rows


@dataclass
class PlantModel:
    """Discrete-time linear plant x+ = A x + B u."""

    a_matrix: np.ndarray
    b_matrix: np.ndarray

    def __post_init__(self):
        self.a_matrix = np.atleast_2d(np.asarray(self.a_matrix, dtype=float))
        self.b_matrix = np.atleast_2d(np.asarray(self.b_matrix, dtype=float))
        n = self.a_matrix.shape[0]
        if self.a_matrix.shape != (n, n):
            raise ValueError("A must be square")
        if self.b_matrix.shape[0] != n:
            raise ValueError("B row count must match A")
        if not (np.all(np.isfinite(self.a_matrix)) and np.all(np.isfinite(self.b_matrix))):
            raise ValueError("A and B must be finite")

    @property
    def n(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def m(self) -> int:
        return self.b_matrix.shape[1]


@dataclass
class ExperimentData:
    """Data matrices from one experiment of length T.

    u0t holds u(0)..u(T-1), x0t holds x(0)..x(T-1) and x1t holds x(1)..x(T),
    all column per instant.
    """

    u0t: np.ndarray
    x0t: np.ndarray
    x1t: np.ndarray

    def __post_init__(self):
        self.u0t = np.atleast_2d(np.asarray(self.u0t, dtype=float))
        self.x0t = np.atleast_2d(np.asarray(self.x0t, dtype=float))
        self.x1t = np.atleast_2d(np.asarray(self.x1t, dtype=float))
        T = self.u0t.shape[1]
        if T < 1:
            raise ValueError("data needs at least one sample")
        if self.x0t.shape[1] != T or self.x1t.shape[1] != T:
            raise ValueError("data matrices must share the sample count")
        if self.x0t.shape[0] != self.x1t.shape[0]:
            raise ValueError("state matrices must share the row count")
        if not all(np.all(np.isfinite(mat)) for mat in (self.u0t, self.x0t, self.x1t)):
            raise ValueError("data matrices must be finite")

    @property
    def samples(self) -> int:
        return self.u0t.shape[1]

    @property
    def n(self) -> int:
        return self.x0t.shape[0]

    @property
    def m(self) -> int:
        return self.u0t.shape[0]


def simulate(plant: PlantModel, x0, inputs, disturbances=None) -> np.ndarray:
    """Roll the plant forward on (T, m) inputs; returns the (T+1, n) state
    sequence."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape != (plant.n,):
        raise ValueError("x0 dimension does not match the plant")
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    T = inputs.shape[0]
    if disturbances is not None:
        disturbances = np.atleast_2d(np.asarray(disturbances, dtype=float)).reshape(T, plant.n)
    states = np.zeros((T + 1, plant.n))
    states[0] = x0
    for t in range(T):
        nxt = plant.a_matrix @ states[t] + plant.b_matrix @ inputs[t]
        if disturbances is not None:
            nxt = nxt + disturbances[t]
        states[t + 1] = nxt
    return states


def rollout(f_matrix, starts, steps: int) -> np.ndarray:
    """States x(t+1) = F x(t) from every start at once, time on the first
    axis: shape (steps + 1,) + starts.shape. An unstable F may overflow to
    inf and NaN, which is left to the caller to judge."""
    starts = np.asarray(starts, dtype=float)
    states = np.empty((steps + 1,) + starts.shape)
    states[0] = starts
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(steps):
            states[t + 1] = images(f_matrix, states[t])
    return states


def simulate_closed_loop(plant: PlantModel, gain, x0, steps: int):
    """Run x+ = (A + B K) x; returns (states, inputs), the inputs K x of
    every state but the last. This is the rollout `ddinv simulate` writes
    for a model problem, bit for bit."""
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    states = rollout(plant.a_matrix + plant.b_matrix @ gain,
                     np.asarray(x0, dtype=float).reshape(-1), steps)
    return states, images(gain, states[:-1])


def build_data_matrices(inputs, states) -> ExperimentData:
    """Arrange one experiment into the three shifted data matrices."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=float))
    states = np.atleast_2d(np.asarray(states, dtype=float))
    T = inputs.shape[0]
    if states.shape[0] != T + 1:
        raise ValueError("need T+1 states for T inputs")
    return ExperimentData(u0t=inputs.T.copy(), x0t=states[:T].T.copy(), x1t=states[1:].T.copy())


def hankel(sequence, start: int, depth: int, width: int) -> np.ndarray:
    """Block Hankel matrix of a vector sequence: block (r, c) is the sample
    at start + r + c. For a signal of dimension s the result is (s*depth, width)."""
    seq = np.asarray(sequence, dtype=float)
    if seq.ndim == 1:
        seq = seq.reshape(-1, 1)
    if depth < 1 or width < 1:
        raise ValueError("depth and width must be positive")
    if start < 0 or start + depth + width - 1 > seq.shape[0]:
        raise ValueError("sequence too short for the requested window")
    return np.vstack([seq[start + r : start + r + width].T for r in range(depth)])


def is_persistently_exciting(inputs, order: int) -> bool:
    """Excitation of a given order: the depth-order Hankel matrix of the
    (T, m) signal has full row rank, ranked with each row at unit size so
    that no input's units move the verdict."""
    seq = np.asarray(inputs, dtype=float)
    T, sigma = seq.shape
    width = T - order + 1
    if width < 1:
        return False
    hank = hankel(seq, 0, order, width)
    return numerical_rank(unit_rows(hank)) == sigma * order


def stacked_data_matrix(data: ExperimentData) -> np.ndarray:
    """Inputs stacked over states, one column per sampling instant."""
    return np.vstack([data.u0t, data.x0t])


def data_has_full_row_rank(data: ExperimentData) -> bool:
    """The stacked input/state data matrix has rank m + n. This is the
    condition under which the data replace the model without loss. Rows are
    ranked at unit size, so the verdict does not move with the units."""
    return numerical_rank(unit_rows(stacked_data_matrix(data))) == data.m + data.n


def min_samples(n: int, m: int) -> int:
    """Smallest experiment length that can make the stacked data matrix
    full row rank with an exciting input."""
    return (m + 1) * n + m


def random_input_sequence(rng, samples: int, m: int, amplitude: float = 1.0) -> np.ndarray:
    """Uniform i.i.d. input on [-amplitude, amplitude], the usual choice for
    making the excitation condition hold with probability one."""
    return rng.uniform(-amplitude, amplitude, size=(samples, m))
