from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from ddinv import lp, polytopes
from ddinv.numerics import numerical_rank
from generators import contains, random_cset_rows
from oracles import (bounded_coordinate_lps, hull_holds_origin_highs,
                     polygon_rows_from_vertices, positively_spans_highs, same_point_set,
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
    inside = contains(demo_state_set, x, scale=scale)
    value = polytopes.gauge(demo_state_set, x)
    assert inside == (value <= scale + 1e-9)


def test_contains_scaled_copy(demo_state_set):
    for vert in demo_state_set.vertices:
        assert contains(demo_state_set, 0.84 * vert, scale=0.84)
        assert not contains(demo_state_set, 0.85 * vert, scale=0.84)


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


def _regular_polygon(k):
    angles = 2.0 * np.pi * np.arange(k) / k
    return np.column_stack([np.cos(angles), np.sin(angles)])


BOX_2D = np.vstack([np.eye(2), -np.eye(2)])
DIST_BOX = 0.05 * np.array([[1, 1], [1, -1], [-1, 1], [-1, -1]])


def _no_solver(prob):
    raise AssertionError("set checks must not call lp.solve")


@pytest.mark.parametrize("check", [
    lambda: polytopes.validate_cset(BOX_2D),
    lambda: polytopes.validate_cset(_regular_polygon(24)),
    lambda: polytopes.validate_cset(np.vstack([np.eye(3), -np.eye(3)])),
    lambda: polytopes.validate_cset([[2.0], [-0.5]]),
    lambda: polytopes.DisturbanceSet(DIST_BOX),
    lambda: polytopes.DisturbanceSet([[0.0, 0.1], [0.0, -0.2]]),
], ids=["box", "24-gon", "cube", "interval", "disturbance-box", "disturbance-segment"])
def test_set_checks_run_without_the_solver(monkeypatch, check):
    monkeypatch.setattr(lp, "solve", _no_solver)
    check()


def test_set_rejections_run_without_the_solver(monkeypatch):
    monkeypatch.setattr(lp, "solve", _no_solver)
    with pytest.raises(polytopes.UnboundedSetError):
        polytopes.validate_cset(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="must contain the origin"):
        polytopes.DisturbanceSet(np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]]))
    assert not hasattr(polytopes, "lp")


# every decade near unit size, and steps of 1e50 out to 1e-300 and 1e300
WIDE = 10.0 ** np.arange(-300, 301, 50)
SCALES = np.concatenate([10.0 ** np.arange(-9, 13), WIDE])


@pytest.mark.parametrize("rows, count", [
    *[(_regular_polygon(k), k) for k in (4, 8, 12, 16, 24)],
    (np.vstack([BOX_2D, np.eye(2)]), 4),
], ids=["4-gon", "8-gon", "12-gon", "16-gon", "24-gon", "duplicated-row-box"])
def test_scaled_sets_keep_every_vertex(rows, count):
    # {x : c H x <= 1} is the set shrunk by c: the same vertex count at
    # every scale, and the vertices of the unscaled set over c
    base = polytopes.validate_cset(rows).vertices
    assert base.shape[0] == count
    for scale in SCALES:
        verts = polytopes.validate_cset(scale * rows).vertices
        assert verts.shape[0] == count, scale
        assert same_point_set(scale * verts, base, tol=1e-9), scale


def test_tiny_octagon_keeps_every_vertex_without_a_warning():
    # the suite turns numpy's RuntimeWarning into an error, so this also
    # checks that no step overflows or underflows
    verts = polytopes.validate_cset(1e-300 * _regular_polygon(8)).vertices
    assert verts.shape[0] == 8
    assert same_point_set(1e-300 * verts, polytopes.validate_cset(_regular_polygon(8)).vertices,
                          tol=1e-9)


@pytest.mark.parametrize("top, bottom", [(1e-9, 1.0), (1e-200, 1.0), (1e-12, 1e-12)],
                         ids=["thin-row", "underflowing-row", "thin-row-pair"])
def test_rectangles_with_rows_of_any_size_keep_every_vertex(top, bottom):
    # the rank and boundedness checks see each row at unit size, so a row
    # far smaller than the others neither drops the rank nor opens the set
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, top], [0.0, -bottom]])
    verts = polytopes.validate_cset(rows).vertices
    expected = [(x, y) for x in (1.0, -1.0) for y in (1.0 / top, -1.0 / bottom)]
    assert verts.shape == (4, 2)
    assert np.allclose(sorted(map(tuple, verts)), sorted(expected), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("rows, reason", [
    ([[1.0, 0.0], [-1.0, 0.0], [0.0, 1e308], [0.0, -1.0]], "^rows too different in size"),
    ([[]], "^H has no columns"),
], ids=["row-subnormal-next-to-1e308", "no-columns"])
def test_degenerate_sets_are_one_clean_error(rows, reason):
    # scaled with the 1e308 row, the rows [+-1, 0] become subnormal; the
    # suite turns numpy's RuntimeWarning into an error, so no warning comes
    # before the set error
    with pytest.raises(polytopes.PolytopeError, match=reason):
        polytopes.validate_cset(np.array(rows))
    # with a 1e300 row every row stays normal, and the rectangle keeps its
    # four vertices
    rows = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1e300], [0.0, -1.0]])
    assert polytopes.validate_cset(rows).vertices.shape == (4, 2)


def test_vertex_whose_active_rows_are_nearly_parallel_is_refused():
    # the row [1, eps] cuts the box at (1, 0), where it and [1, 0] are the
    # only active rows; at eps = 1e-10 they are parallel to the rank rule
    with pytest.raises(polytopes.PolytopeError, match="^vertex lacks n independent active rows"):
        polytopes.validate_cset(np.vstack([BOX_2D, [1.0, 1e-10]]))
    cset = polytopes.validate_cset(np.vstack([BOX_2D, [1.0, 1e-8]]))
    assert same_point_set(cset.vertices, [[1, 1], [1, -1], [1, 0], [-1, 1], [-1, -1]], tol=1e-9)
    # four active rows at each vertex of the octahedron, more than n = 3
    octahedron = polytopes.validate_cset(np.array(list(product((1.0, -1.0), repeat=3))))
    assert same_point_set(octahedron.vertices, np.vstack([np.eye(3), -np.eye(3)]), tol=1e-12)


@pytest.mark.parametrize("scale", [1e-309, 4e-320])
def test_set_past_the_largest_float_is_a_clean_error(scale):
    # rows this small put the vertices past 1.8e308: a set error, no warning
    with pytest.raises(polytopes.PolytopeError, match="^set too large"):
        polytopes.validate_cset(scale * BOX_2D)


@pytest.mark.parametrize("power", [-990, -500, -1, 1, 500, 990])
def test_power_of_two_scales_keep_the_vertex_bits(power):
    # scaling H by 2^p scales the vertices by 2^-p exactly, in the same order
    for rows in (_regular_polygon(16), np.vstack([BOX_2D, np.eye(2)])):
        base = polytopes.validate_cset(rows).vertices
        verts = polytopes.validate_cset(np.ldexp(rows, power)).vertices
        assert np.array_equal(np.ldexp(verts, power), base), power


@pytest.mark.parametrize("rows", [
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]),
    np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [-1.0, -1.0, 0.0]]),
    np.array([[1.0], [2.0]]),
], ids=["half-strip", "3-d-slab-corner", "half-line"])
def test_scaled_unbounded_sets_stay_unbounded(rows):
    for scale in SCALES:
        with pytest.raises(polytopes.UnboundedSetError):
            polytopes.validate_cset(scale * rows)


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-7])
def test_thin_wedges_are_told_from_thin_triangles(eps):
    # {x1 + eps x2 <= 1, -x1 + eps x2 <= 1} runs off to x2 = -inf, and its
    # unit rows leave a residual of about 2 eps; a third row closes it
    wedge = np.array([[1.0, eps], [-1.0, eps]])
    with pytest.raises(polytopes.UnboundedSetError):
        polytopes._check_bounded(wedge)
    polytopes._check_bounded(np.vstack([wedge, [0.0, -1.0]]))


@pytest.mark.parametrize("verts, holds", [
    (DIST_BOX, True),
    (np.zeros((1, 2)), True),
    (np.array([[0.0, 0.1], [0.0, -0.2]]), True),
    (np.array([[-0.1, 0.0], [0.2, 0.0], [0.0, 0.3]]), True),
    (np.array([[0.0, 0.0], [0.2, 0.1], [0.1, 0.3]]), True),
    (np.array([[1.0, 1.0], [1.0, 2.0], [2.0, 1.0]]), False),
    (np.array([[0.1, 0.1], [0.2, 0.2]]), False),
    (np.array([[-0.3], [0.5]]), True),
    (np.array([[0.3], [0.5]]), False),
], ids=["box", "origin", "segment", "origin-on-edge", "origin-on-vertex", "shifted", "flat-shifted",
        "interval", "shifted-interval"])
def test_disturbance_verdict_does_not_depend_on_scale(verts, holds):
    for scale in np.concatenate([10.0 ** np.arange(-9, 10), WIDE]):
        dset = polytopes.DisturbanceSet.__new__(polytopes.DisturbanceSet)
        dset.vertices = scale * verts
        assert dset._hull_contains_origin() == holds, scale
        if holds:
            polytopes.DisturbanceSet(scale * verts)
        else:
            with pytest.raises(ValueError, match="must contain the origin"):
                polytopes.DisturbanceSet(scale * verts)


def _random_disturbance(rng, case):
    n = int(rng.integers(1, 4))
    nd = int(rng.integers({"edge": 2, "face": 3}.get(case, 1), 7))
    verts = rng.normal(size=(nd, n)) + rng.uniform(0.0, 1.5) * rng.normal(size=n)
    if case == "origin":
        verts = np.zeros((1, n))
    elif case == "segment":
        verts = np.outer(rng.normal(size=2) + rng.uniform(-1.0, 1.0), rng.normal(size=n))
    elif case == "flat":
        span = rng.normal(size=(int(rng.integers(1, n + 1)) - (n > 1), n))
        verts = rng.normal(size=(nd, span.shape[0])) @ span
        verts += rng.normal(size=n) * (rng.random() < 0.5)
    elif case == "vertex":
        verts[0] = 0.0
    elif case == "edge":
        verts[0] = -rng.uniform(0.2, 3.0) * verts[1]
    elif case == "face":
        weights = rng.dirichlet(np.ones(3))
        verts[2] = -(weights[0] * verts[0] + weights[1] * verts[1]) / weights[2]
    return verts


def test_hull_check_agrees_with_highs():
    rng = np.random.default_rng(59)
    cases = ["general", "origin", "segment", "flat", "vertex", "edge", "face"]
    verdicts = {case: [] for case in cases}
    for index in range(2100):
        case = cases[index % len(cases)]
        verts = _random_disturbance(rng, case)
        dset = polytopes.DisturbanceSet.__new__(polytopes.DisturbanceSet)
        dset.vertices = verts
        holds = hull_holds_origin_highs(verts)
        assert dset._hull_contains_origin() == holds, (case, verts.tolist())
        verdicts[case].append(holds)
    assert all(verdicts["origin"] + verdicts["vertex"] + verdicts["edge"] + verdicts["face"])
    for case in ("general", "segment", "flat"):
        assert 0 < sum(verdicts[case]) < len(verdicts[case]), case


def test_hull_check_on_many_vertices_agrees_with_highs():
    # one least-squares problem whatever the vertex count: 60 vertices in
    # 3-d, and the 2^n corners of the boxes that generate builds up to n = 8
    rng = np.random.default_rng(67)
    for shift in (0.0, 0.5, 3.0):
        verts = rng.normal(size=(60, 3)) + shift
        dset = polytopes.DisturbanceSet.__new__(polytopes.DisturbanceSet)
        dset.vertices = verts
        assert dset._hull_contains_origin() == hull_holds_origin_highs(verts), shift
    for n in (6, 7, 8):
        corners = 0.05 * np.array(list(product((1.0, -1.0), repeat=n)))
        polytopes.DisturbanceSet(corners)
        with pytest.raises(ValueError, match="must contain the origin"):
            polytopes.DisturbanceSet(corners + 0.06)


def test_least_squares_past_its_step_cap_is_a_clean_set_error(monkeypatch):
    monkeypatch.setattr(polytopes, "NNLS_ITER_FACTOR", 0)
    with pytest.raises(polytopes.PolytopeError, match="^boundedness check failed: no answer") as info:
        polytopes.validate_cset(BOX_2D)
    assert not isinstance(info.value, polytopes.UnboundedSetError)
    with pytest.raises(polytopes.PolytopeError, match="^disturbance hull check failed: no answer"):
        polytopes.DisturbanceSet(DIST_BOX)


def test_least_squares_matches_scipy_nnls():
    # the same method as scipy.optimize.nnls: the same residual, including
    # wide, tall and rank-deficient matrices and solutions on the boundary
    rng = np.random.default_rng(71)
    for _ in range(500):
        rows, cols = (int(v) for v in rng.integers(1, 9, size=2))
        mat = rng.normal(size=(rows, cols))
        if rng.random() < 0.3:
            mat[:, -1] = mat[:, 0]
        rhs = rng.normal(size=rows)
        weights, resid = polytopes._nonneg_least_squares(mat, rhs, "test")
        assert (weights >= 0.0).all()
        assert resid == pytest.approx(np.linalg.norm(mat @ weights - rhs), abs=1e-12)
        assert resid == pytest.approx(nnls(mat, rhs)[1], rel=1e-9, abs=1e-12), (mat, rhs)


def test_boundedness_check_agrees_with_highs_on_lines_and_near_parallel_rows():
    # n = 1 is bounded only with rows of both signs; a row copied with a 1e-6
    # change gives near-parallel pairs, whose unit rows nearly cancel in the
    # least squares
    rng = np.random.default_rng(61)
    verdicts = {1: [], "near-parallel": []}
    while min(len(v) for v in verdicts.values()) < 300:
        kind = 1 if len(verdicts[1]) < 300 else "near-parallel"
        n = 1 if kind == 1 else int(rng.integers(2, 5))
        rows = rng.normal(size=(int(rng.integers(n + 1, n + 6)), n))
        if kind != 1:
            copied = rows[rng.integers(rows.shape[0], size=int(rng.integers(1, 3)))]
            rows = np.vstack([rows, copied + 1e-6 * rng.normal(size=copied.shape)])
        if numerical_rank(rows) < n:
            continue
        try:
            polytopes._check_bounded(rows)
            bounded = True
        except polytopes.UnboundedSetError:
            bounded = False
        assert bounded == positively_spans_highs(rows), rows.tolist()
        # unit rows make the verdict blind to each row's scale
        scaled = rows * 10.0 ** rng.uniform(-8.0, 8.0, size=(rows.shape[0], 1))
        try:
            polytopes._check_bounded(scaled)
            assert bounded, rows.tolist()
        except polytopes.UnboundedSetError:
            assert not bounded, rows.tolist()
        verdicts[kind].append(bounded)
    for kind, seen in verdicts.items():
        assert 50 <= sum(seen) <= len(seen) - 50, kind
