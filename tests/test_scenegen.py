import math

import pytest

from qpcomm.scenegen import Box, SceneConfig, generate


def surface_distance(point, box: Box) -> float:
    """Distance from a point to the box's sampled surface (sides + top),
    assuming the point is not outside the box footprint."""
    c, s = math.cos(-box.yaw), math.sin(-box.yaw)
    dx, dy = point[0] - box.center[0], point[1] - box.center[1]
    lx = c * dx - s * dy
    ly = s * dx + c * dy
    l, w, h = box.size
    lz = point[2] - (box.center[2] - h / 2)
    margins = [l / 2 - abs(lx), w / 2 - abs(ly), h - lz, lz]
    if min(margins) < -1e-6:
        return math.inf
    return min(abs(l / 2 - abs(lx)), abs(w / 2 - abs(ly)), abs(h - lz))


def test_determinism():
    cfg = SceneConfig(seed=4)
    a, boxes_a = generate(cfg)
    b, boxes_b = generate(cfg)
    assert a.points.tobytes() == b.points.tobytes()
    assert [x.to_dict() for x in boxes_a] == [x.to_dict() for x in boxes_b]


def test_ground_only():
    cfg = SceneConfig(seed=1, n_vehicles=0, ground_height=0.07)
    cloud, boxes = generate(cfg)
    assert boxes == []
    assert (cloud.xyz[:, 2] == 0.07).all()


def test_vehicle_points_on_box_surface():
    cfg = SceneConfig(seed=2, n_vehicles=3)
    cloud, boxes = generate(cfg)
    n_ground = round(cfg.ground_density * 100.0)
    vehicle_pts = cloud.xyz[n_ground:]
    assert vehicle_pts.shape[0] > 0
    for p in vehicle_pts[:: max(1, vehicle_pts.shape[0] // 200)]:
        assert min(surface_distance(p, b) for b in boxes) <= 1e-6


def test_points_within_extent():
    cfg = SceneConfig(seed=3, n_vehicles=5)
    cloud, _ = generate(cfg)
    for axis, (lo, hi) in enumerate(cfg.extent):
        assert (cloud.xyz[:, axis] >= lo).all()
        assert (cloud.xyz[:, axis] <= hi).all()


def test_point_count_tracks_density():
    cfg = SceneConfig(seed=5, n_vehicles=2)
    cloud, boxes = generate(cfg)
    area_ground = 100.0
    area_boxes = sum(
        2 * (b.size[0] + b.size[1]) * b.size[2] + b.size[0] * b.size[1] for b in boxes
    )
    expected = cfg.ground_density * area_ground + cfg.surface_density * area_boxes
    assert abs(len(cloud) - expected) <= 0.1 * expected


def test_intensity_classes():
    cfg = SceneConfig(seed=6, n_vehicles=2)
    cloud, _ = generate(cfg)
    n_ground = round(cfg.ground_density * 100.0)
    g = cloud.intensity[:n_ground]
    v = cloud.intensity[n_ground:]
    assert g.min() >= cfg.ground_intensity[0] and g.max() <= cfg.ground_intensity[1]
    assert v.min() >= cfg.vehicle_intensity[0] and v.max() <= cfg.vehicle_intensity[1]


def test_vehicles_do_not_overlap():
    cfg = SceneConfig(seed=7, n_vehicles=5, extent=((0, 16), (0, 16), (0, 1.2)))
    _, boxes = generate(cfg)
    for i, a in enumerate(boxes):
        for b in boxes[i + 1 :]:
            d = math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])
            ra = 0.5 * math.hypot(a.size[0], a.size[1])
            rb = 0.5 * math.hypot(b.size[0], b.size[1])
            assert d >= ra + rb


def test_placement_failure_raises():
    cfg = SceneConfig(
        seed=8,
        extent=((0.0, 5.0), (0.0, 5.0), (0.0, 1.2)),
        n_vehicles=12,
        max_place_attempts=50,
    )
    with pytest.raises(RuntimeError):
        generate(cfg)


def test_config_validation():
    with pytest.raises(ValueError):
        SceneConfig(ground_density=0.0)
    with pytest.raises(ValueError):
        SceneConfig(extent=((0, 10), (0, 10), (0, 0.5)))  # vehicles poke out


@pytest.mark.parametrize("field", ["seed", "n_vehicles"])
def test_negative_seed_and_vehicle_count_rejected(field):
    with pytest.raises(ValueError, match=field):
        SceneConfig(**{field: -1})
