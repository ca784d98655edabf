import re
import time
import warnings

import numpy as np
import pytest

from ddinv import svgplot
from ddinv.polytopes import ordered_vertices_2d
from oracles import frame_points


def _state_plane_limits(verts):
    xmin, ymin = verts.min(axis=0)
    xmax, ymax = verts.max(axis=0)
    pad_x = (xmax - xmin) * svgplot.MARGIN_FRAC
    pad_y = (ymax - ymin) * svgplot.MARGIN_FRAC
    return (xmin - pad_x, xmax + pad_x), (ymin - pad_y, ymax + pad_y)


def test_point_strings_match_the_per_point_frame():
    rng = np.random.default_rng(3)
    for _ in range(200):
        xlim = tuple(np.sort(rng.normal(scale=10.0, size=2)))
        ylim = tuple(np.sort(rng.normal(scale=10.0, size=2)))
        scale = rng.choice([1e-3, 1.0, 1e3, 1e12])
        points = rng.normal(scale=scale, size=(int(rng.integers(1, 40)), 2))
        assert (svgplot._points(svgplot._coords(points, xlim, ylim))
                == frame_points(points, xlim, ylim))


# up to 0.99 the ladder draws every power of lam above the floor, as the
# loop below does
@pytest.mark.parametrize("lam", [0.5, 0.84, 0.9, 0.95, 0.99, None])
def test_state_plane_scene_maps_every_point_as_the_per_point_frame(demo_state_set, lam):
    verts = ordered_vertices_2d(demo_state_set)
    trajectory = np.random.default_rng(4).uniform(-3.0, 3.0, size=(31, 2))
    scene = svgplot.state_plane_svg(verts, lam=lam, trajectory=trajectory)
    lims = _state_plane_limits(verts)
    factors = []
    factor = lam
    while lam is not None and factor >= svgplot.SHRINK_FLOOR:
        factors.append(factor)
        factor *= lam
    expected = ([frame_points(verts, *lims)]
                + [frame_points(verts * factor, *lims) for factor in factors]
                + [frame_points(trajectory, *lims)])
    assert re.findall(r'points="([^"]*)"', scene) == expected
    dots = re.findall(r'<circle cx="([^"]*)" cy="([^"]*)" r="2.5"', scene)
    assert " ".join(f"{sx},{sy}" for sx, sy in dots) == frame_points(trajectory, *lims)


@pytest.mark.parametrize("lam", [0.9999, 0.99999, 1.0 - 1e-6, 1.0 - 2.0 ** -53])
def test_contracted_copies_stay_few_as_lam_nears_one(demo_state_set, lam):
    # every power above the floor would be about 3.0 million copies at
    # 1 - 1e-6; every k-th is drawn instead, down to the floor
    verts = ordered_vertices_2d(demo_state_set)
    start = time.perf_counter()
    scene = svgplot.state_plane_svg(verts, lam=lam, trajectory=[[0.0, 0.0]])
    assert time.perf_counter() - start < 0.5
    copies = re.findall(r'points="([^"]*)" fill="none" stroke="#9ecae1"', scene)
    assert 150 <= len(copies) <= svgplot.MAX_COPIES
    lims = _state_plane_limits(verts)
    smallest = [frame_points(verts * factor, *lims)
                for factor in np.linspace(svgplot.SHRINK_FLOOR, 0.06, 2001)]
    assert copies[-1] in smallest


def test_input_scene_maps_every_point_as_the_per_point_frame():
    u = np.random.default_rng(5).uniform(-6.0, 6.0, size=30)
    scene = svgplot.input_signal_svg(u, -7.0, 5.0)
    span = max(7.0, 5.0, float(np.max(np.abs(u))))
    lims = (-0.5, 29.5), (-1.15 * span, 1.15 * span)
    points = [(float(t), float(value)) for t, value in enumerate(u)]
    assert re.findall(r'points="([^"]*)"', scene) == [frame_points(points, *lims)]
    levels = frame_points([(0.0, 0.0), (0.0, -7.0), (0.0, 5.0)], *lims).split()
    assert re.findall(r'<line x1="0" y1="([^"]*)"', scene) == [p.split(",")[1] for p in levels]


@pytest.mark.parametrize("lower, upper, u", [(-np.inf, 7.0, [0.5, -2.0, 1.0]),
                                             (-np.inf, np.inf, [0.0, 0.0])])
def test_input_band_with_an_open_side_has_only_finite_coordinates(lower, upper, u):
    scene = svgplot.input_signal_svg(u, lower, upper)
    assert "nan" not in scene and "inf" not in scene
    assert scene.count('stroke-dasharray="6 4"') == np.isfinite([lower, upper]).sum()


def test_points_too_far_out_for_the_screen_are_refused(demo_state_set):
    # finite points near the end of the float range overflow the mapping
    # onto the screen: both scenes refuse them, without a warning, rather
    # than draw inf coordinates
    verts = ordered_vertices_2d(demo_state_set)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite screen coordinates"):
            svgplot.state_plane_svg(verts, trajectory=[[1.0, 0.0], [1e307, -1e307]])
        # here the scale's span, 2.3 times the largest input, overflows
        with pytest.raises(ValueError, match="finite screen coordinates"):
            svgplot.input_signal_svg([0.5, 1e308], -1.0, 1.0)
        scene = svgplot.input_signal_svg([0.5, 1e307], -1.0, 1.0)
    assert "nan" not in scene and "inf" not in scene
