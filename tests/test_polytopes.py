import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddinv import polytopes
from ddinv.numerics import numerical_rank
from generators import random_cset_rows
from oracles import (bounded_coordinate_lps, polygon_rows_from_vertices, same_point_set,
                     vertex_oracle_2d, vertices_loop)


def test_unit_box_vertices():
    box = polytopes.validate_cset(np.vstack([np.eye(2), -np.eye(2)]))
    expected = [[1, 1], [1, -1], [-1, 1], [-1, -1]]
    assert same_point_set(box.vertices, expected, tol=1e-9)


def test_demo_quadrilateral_vertices(demo_state_set, demo_vertices):
    assert same_point_set(demo_state_set.vertices, demo_vertices, tol=1e-9)


def test_unbounded_set_is_rejected():
    # full-rank rows but no lower cap on the second coordinate
    with pytest.raises(polytopes.UnboundedSetError):
        polytopes.validate_cset(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))


def test_strip_is_rejected():
    # a strip fails the C-set conditions twice over; the rank check fires first
    with pytest.raises(polytopes.PolytopeError):
        polytopes.validate_cset(np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]]))


def test_rank_deficient_rows_rejected():
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.5, 0.0]])
    with pytest.raises(polytopes.PolytopeError):
        polytopes.validate_cset(rows)
    with pytest.raises(polytopes.RankDeficientError):
        polytopes.enumerate_vertices(np.array([[1.0, 0.0], [-2.0, 0.0],
                                               [3.0, 0.0], [0.5, 0.0]]))


def test_too_few_rows_rejected():
    with pytest.raises(polytopes.PolytopeError):
        polytopes.validate_cset(np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_hexagon_matches_pairwise_oracle():
    angles = np.arange(6) * np.pi / 3.0
    rows = np.column_stack([np.cos(angles), np.sin(angles)])
    hexagon = polytopes.validate_cset(rows)
    assert hexagon.vertices.shape[0] == 6
    assert same_point_set(hexagon.vertices, vertex_oracle_2d(rows))


def test_random_planar_sets_match_oracle():
    rng = np.random.default_rng(31)
    for _ in range(20):
        rows = random_cset_rows(rng, 2)
        cset = polytopes.validate_cset(rows)
        assert same_point_set(cset.vertices, vertex_oracle_2d(rows), tol=1e-6)


def test_duplicate_rows_do_not_duplicate_vertices():
    rows = np.vstack([np.eye(2), -np.eye(2), np.eye(2)])
    cset = polytopes.validate_cset(rows)
    assert cset.vertices.shape[0] == 4


def test_redundant_row_is_harmless():
    rows = np.vstack([np.eye(2), -np.eye(2), [[0.1, 0.1]]])
    cset = polytopes.validate_cset(rows)
    assert cset.vertices.shape[0] == 4


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000),
       factor=st.floats(0.0, 5.0, allow_nan=False))
def test_gauge_positive_homogeneity(seed, factor, demo_state_set):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-4.0, 4.0, size=2)
    base = polytopes.gauge(demo_state_set, x)
    scaled = polytopes.gauge(demo_state_set, factor * x)
    assert scaled == pytest.approx(factor * base, rel=1e-9, abs=1e-9)


def test_gauge_of_demo_point(demo_state_set):
    assert polytopes.gauge(demo_state_set, [3.0, -0.25]) == pytest.approx(0.5, abs=1e-12)
    assert polytopes.gauge(demo_state_set, [0.0, 0.0]) == 0.0


def test_vertices_sit_on_the_boundary(demo_state_set):
    for vert in demo_state_set.vertices:
        assert polytopes.gauge(demo_state_set, vert) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_contains_agrees_with_gauge(seed, demo_state_set):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-7.0, 7.0, size=2)
    scale = rng.uniform(0.2, 1.5)
    inside = polytopes.contains(demo_state_set, x, scale=scale)
    value = polytopes.gauge(demo_state_set, x)
    assert inside == (value <= scale + 1e-9)


def test_contains_scaled_copy(demo_state_set):
    for vert in demo_state_set.vertices:
        assert polytopes.contains(demo_state_set, 0.84 * vert, scale=0.84)
        assert not polytopes.contains(demo_state_set, 0.85 * vert, scale=0.84)


def test_planar_rebuild_from_vertices_is_idempotent():
    rng = np.random.default_rng(57)
    for _ in range(15):
        cset = polytopes.validate_cset(random_cset_rows(rng, 2))
        ordered = polytopes.ordered_vertices_2d(cset)
        rebuilt = polytopes.validate_cset(polygon_rows_from_vertices(ordered))
        assert same_point_set(rebuilt.vertices, cset.vertices, tol=1e-7)


def test_three_dimensional_box():
    box = polytopes.validate_cset(np.vstack([np.eye(3), -np.eye(3)]))
    assert box.vertices.shape == (8, 3)
    corners = np.array(np.meshgrid([1, -1], [1, -1], [1, -1])).T.reshape(-1, 3)
    assert same_point_set(box.vertices, corners, tol=1e-9)


def test_ordered_vertices_requires_plane():
    box = polytopes.validate_cset(np.vstack([np.eye(3), -np.eye(3)]))
    with pytest.raises(ValueError):
        polytopes.ordered_vertices_2d(box)


def test_disturbance_set_accepts_origin_vertex():
    dset = polytopes.DisturbanceSet(np.zeros((1, 2)))
    assert dset.dim == 2


def test_disturbance_set_box():
    verts = 0.05 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])
    dset = polytopes.DisturbanceSet(verts)
    assert dset.vertices.shape == (4, 2)


def test_disturbance_set_rejects_shifted_hull():
    with pytest.raises(ValueError):
        polytopes.DisturbanceSet(np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]]))


def test_input_polytope_validation():
    with pytest.raises(ValueError):
        polytopes.InputPolytope(np.array([[np.inf]]))
    interval = polytopes.InputPolytope([[1.0 / 7.0], [-1.0 / 7.0]])
    assert interval.dim == 1


def _same_vertices_as_loop(rows):
    # same values in the same order; array_equal counts -0.0 equal to 0.0
    got = polytopes.enumerate_vertices(rows)
    expected = vertices_loop(rows)
    return got.shape == expected.shape and np.array_equal(got, expected)


@pytest.mark.parametrize("k", range(3, 33))
def test_regular_polygon_vertices_match_loop(k):
    angles = 2.0 * np.pi * np.arange(k) / k
    assert _same_vertices_as_loop(np.column_stack([np.cos(angles), np.sin(angles)]))


@pytest.mark.parametrize("n", [2, 3])
def test_box_vertices_match_loop(n):
    # every subset holding a row and its negation is exactly singular
    assert _same_vertices_as_loop(np.vstack([np.eye(n), -np.eye(n)]))


def test_random_set_vertices_match_loop():
    rng = np.random.default_rng(83)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        assert _same_vertices_as_loop(random_cset_rows(rng, n, max_extra=6))


def test_duplicate_and_integer_rows_match_loop():
    rng = np.random.default_rng(84)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        extra = rng.integers(-2, 3, size=(int(rng.integers(1, 6)), n)).astype(float)
        assert _same_vertices_as_loop(np.vstack([np.eye(n), -np.eye(n), extra, np.eye(n)]))


def test_unbounded_set_raises_before_enumeration():
    # the loop alone would return the two corners (+-1, 1)
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert vertices_loop(rows).shape == (2, 2)
    with pytest.raises(polytopes.UnboundedSetError):
        polytopes.enumerate_vertices(rows)


def test_single_boundedness_lp_agrees_with_coordinate_lps():
    # Stiemke: full column rank H bounds {x : H x <= 1} exactly when
    # H^T y = 0 has a solution y >= 1; random rows give both outcomes
    rng = np.random.default_rng(57)
    verdicts = []
    while len(verdicts) < 600:
        n = int(rng.integers(2, 5))
        rows = rng.normal(size=(int(rng.integers(n + 1, n + 8)), n))
        rows /= rng.uniform(0.5, 1.5, size=(rows.shape[0], 1))
        if numerical_rank(rows) < n:
            continue
        try:
            polytopes._check_bounded(rows)
            bounded = True
        except polytopes.UnboundedSetError:
            bounded = False
        assert bounded == bounded_coordinate_lps(rows), rows
        verdicts.append(bounded)
    assert min(verdicts.count(True), verdicts.count(False)) >= 150


def test_unbounded_message_names_the_positive_span():
    with pytest.raises(polytopes.UnboundedSetError, match="positively span"):
        polytopes.validate_cset(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
