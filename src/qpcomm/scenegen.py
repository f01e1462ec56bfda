"""Synthetic LiDAR-like scenes: a flat ground plane plus yawed box "vehicles"
sampled on their surfaces, with per-class intensity ranges.  Everything is a
pure function of the seed."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .geometry import MAX_POINTS, PointCloud, as_ints

# (low, high) ranges of a vehicle's uniformly drawn dimensions, in meters
VEHICLE_LENGTH = (2.2, 3.2)
VEHICLE_WIDTH = (1.2, 1.8)
VEHICLE_HEIGHT = (0.8, 1.1)
GROUND_HEIGHT = 0.05  # z of the ground plane and of every vehicle's base
GROUND_INTENSITY = (0.15, 0.35)
VEHICLE_INTENSITY = (0.45, 0.9)
MAX_PLACE_ATTEMPTS = 1000  # rejected vehicle placements before ``generate`` gives up


@dataclass
class SceneConfig:
    """A scene's parameters.  ``seed`` and ``n_vehicles`` are integers >= 0
    (an integral float is converted).  A config whose point count could
    exceed ``MAX_POINTS`` (2**26) is rejected before anything is allocated;
    the bound is the ground points plus, per vehicle, the surface points at
    the largest vehicle dimensions plus 5 (one per face for rounding)."""

    seed: int = 0
    extent: tuple = ((0.0, 10.0), (0.0, 10.0), (0.0, 1.2))
    n_vehicles: int = 4
    ground_density: float = 120.0  # points / m^2
    surface_density: float = 160.0  # points / m^2

    def __post_init__(self):
        self.seed, self.n_vehicles = as_ints((self.seed, self.n_vehicles), "seed and n_vehicles")
        if self.seed < 0 or self.n_vehicles < 0:
            raise ValueError("seed and n_vehicles must be >= 0")
        if not 0 < self.ground_density < math.inf or not 0 < self.surface_density < math.inf:
            raise ValueError("densities must be positive and finite")
        for lo, hi in self.extent:
            if not -math.inf < lo < hi < math.inf:
                raise ValueError("extent ranges must be finite and increasing")
        (z0, z1) = self.extent[2]
        if not z0 <= GROUND_HEIGHT < z1:
            raise ValueError("the ground height must lie inside the z extent")
        if self.n_vehicles and GROUND_HEIGHT + VEHICLE_HEIGHT[1] > z1:
            raise ValueError("vehicles would poke out of the z extent")
        (x0, x1), (y0, y1), _ = self.extent
        l, w, h = VEHICLE_LENGTH[1], VEHICLE_WIDTH[1], VEHICLE_HEIGHT[1]
        # a vehicle has at least 5 points, so capping the count keeps the product a float
        vehicles = min(self.n_vehicles, MAX_POINTS)
        bound = (self.ground_density * (x1 - x0) * (y1 - y0) + 1
                 + vehicles * (self.surface_density * (2 * (l + w) * h + l * w) + 5))
        if not bound <= MAX_POINTS:
            raise ValueError(f"the scene could hold {bound:.3g} points, more than {MAX_POINTS}")


@dataclass
class Box:
    """Yawed box resting on the ground: center is the geometric center,
    size is (length, width, height), yaw rotates about +z."""

    center: tuple
    size: tuple
    yaw: float

    def to_dict(self) -> dict:
        return asdict(self)


def _rot(yaw: float) -> np.ndarray:
    c, s = math.cos(yaw), math.sin(yaw)
    return np.array([[c, -s], [s, c]])


def _sample_faces(box: Box, density: float, rng: np.random.Generator) -> np.ndarray:
    """Uniform samples on the four side faces and the top face."""
    l, w, h = box.size
    pts = []
    # (face normal axis, half extents of the face plane)
    for axis, sign in ((0, -1), (0, 1), (1, -1), (1, 1)):
        area = (w if axis == 0 else l) * h
        n = max(1, round(density * area))
        u = rng.uniform(-0.5, 0.5, n)  # along the in-plane horizontal axis
        v = rng.uniform(0.0, 1.0, n)  # along height
        if axis == 0:
            local = np.column_stack([np.full(n, sign * l / 2), u * w, v * h])
        else:
            local = np.column_stack([u * l, np.full(n, sign * w / 2), v * h])
        pts.append(local)
    n_top = max(1, round(density * l * w))
    pts.append(
        np.column_stack(
            [
                rng.uniform(-0.5, 0.5, n_top) * l,
                rng.uniform(-0.5, 0.5, n_top) * w,
                np.full(n_top, h),
            ]
        )
    )
    local = np.vstack(pts)
    xy = local[:, :2] @ _rot(box.yaw).T + np.asarray(box.center[:2])
    z = local[:, 2] + (box.center[2] - h / 2)
    return np.column_stack([xy, z])


def generate(cfg: SceneConfig) -> tuple[PointCloud, list[Box]]:
    """Build one scene; returns the cloud and the ground-truth box list.

    Vehicle footprints are kept disjoint via bounding-circle rejection, and
    placement failure after ``MAX_PLACE_ATTEMPTS`` rejections raises.
    """
    rng = np.random.default_rng(cfg.seed)
    (x0, x1), (y0, y1), _ = cfg.extent

    boxes: list[Box] = []
    attempts = 0
    while len(boxes) < cfg.n_vehicles:
        l = rng.uniform(*VEHICLE_LENGTH)
        w = rng.uniform(*VEHICLE_WIDTH)
        h = rng.uniform(*VEHICLE_HEIGHT)
        yaw = rng.uniform(0.0, 2 * math.pi)
        radius = 0.5 * math.hypot(l, w)
        cx = rng.uniform(x0 + radius, x1 - radius)
        cy = rng.uniform(y0 + radius, y1 - radius)
        clash = any(
            math.hypot(cx - b.center[0], cy - b.center[1])
            < radius + 0.5 * math.hypot(b.size[0], b.size[1]) + 0.2
            for b in boxes
        )
        if clash:
            attempts += 1
            if attempts > MAX_PLACE_ATTEMPTS:
                raise RuntimeError(
                    f"could not place vehicle {len(boxes) + 1} after "
                    f"{MAX_PLACE_ATTEMPTS} rejections"
                )
            continue
        boxes.append(Box((cx, cy, GROUND_HEIGHT + h / 2), (l, w, h), yaw))

    n_ground = max(1, round(cfg.ground_density * (x1 - x0) * (y1 - y0)))
    ground_xy = np.column_stack(
        [rng.uniform(x0, x1, n_ground), rng.uniform(y0, y1, n_ground)]
    )
    ground = np.column_stack(
        [
            ground_xy,
            np.full(n_ground, GROUND_HEIGHT),
            rng.uniform(*GROUND_INTENSITY, n_ground),
        ]
    )

    chunks = [ground]
    for box in boxes:
        xyz = _sample_faces(box, cfg.surface_density, rng)
        inten = rng.uniform(*VEHICLE_INTENSITY, xyz.shape[0])
        chunks.append(np.column_stack([xyz, inten]))
    points = np.vstack(chunks)
    return PointCloud(points), boxes
