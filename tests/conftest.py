import numpy as np
import pytest

from ddinv import demo, lp


@pytest.fixture(scope="session")
def demo_state_set():
    return demo.demo_state_set()


@pytest.fixture(scope="session")
def demo_input_set():
    return demo.demo_input_set()


@pytest.fixture(scope="session")
def demo_plant():
    return demo.demo_plant()


@pytest.fixture(scope="session")
def demo_data():
    return demo.demo_experiment()


@pytest.fixture(scope="session")
def demo_vertices():
    return np.array([[6.0, -0.5], [-6.0, 0.5], [-2.0, 3.5], [2.0, -3.5]])


@pytest.fixture()
def shift_solver_points(monkeypatch):
    """Call with a shift to move every point the simplex returns by it before
    lp.solve checks the point against its program."""
    def install(shift):
        original = lp._simplex

        def shifted(program):
            sol = original(program)
            if sol.primal is not None:
                sol.primal = sol.primal + shift
            return sol

        monkeypatch.setattr(lp, "_simplex", shifted)
    return install
