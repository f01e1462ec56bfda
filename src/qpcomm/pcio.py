"""Point-cloud file I/O.

Binary "QPCD" layout (all little-endian):

    magic   4 bytes  b"QPCD"
    version 1 byte   0x01
    count   u64
    points  count x 4 float32   (x, y, z, intensity)

CSV ingestion expects the exact header ``x,y,z,intensity``.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

from .geometry import PointCloud

QPCD_MAGIC = b"QPCD"
QPCD_VERSION = 1


class FormatError(ValueError):
    """Raised when a file does not match its declared format."""


def write_qpcd(path, cloud: PointCloud) -> None:
    """Raises ``ValueError`` for a value float32 cannot hold, which
    :func:`read_qpcd` would read back as inf."""
    path = Path(path)
    with np.errstate(over="ignore"):
        pts = cloud.points.astype("<f4")
    if not np.isfinite(pts).all():
        raise ValueError(f"{path}: a coordinate lies beyond the float32 range of QPCD")
    with open(path, "wb") as fh:
        fh.write(QPCD_MAGIC)
        fh.write(struct.pack("<B", QPCD_VERSION))
        fh.write(struct.pack("<Q", len(cloud)))
        fh.write(pts.tobytes())


def read_qpcd(path) -> PointCloud:
    path = Path(path)
    data = path.read_bytes()
    if len(data) < 13 or data[:4] != QPCD_MAGIC:
        raise FormatError(f"{path}: not a QPCD file")
    version = data[4]
    if version != QPCD_VERSION:
        raise FormatError(f"{path}: unsupported QPCD version {version}")
    (count,) = struct.unpack_from("<Q", data, 5)
    body = data[13:]
    if len(body) != count * 16:
        raise FormatError(f"{path}: expected {count * 16} payload bytes, got {len(body)}")
    pts = np.frombuffer(body, dtype="<f4").reshape(count, 4).astype(np.float64)
    return PointCloud(pts)


def read_csv_cloud(path) -> PointCloud:
    path = Path(path)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [c.strip() for c in header] != ["x", "y", "z", "intensity"]:
            raise FormatError(f"{path}: CSV header must be 'x,y,z,intensity'")
        rows = []
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise FormatError(f"{path}: row with {len(row)} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise FormatError(f"{path}: non-numeric value ({exc})") from exc
    pts = np.asarray(rows, dtype=np.float64).reshape(-1, 4)
    return PointCloud(pts)


def read_cloud(path) -> PointCloud:
    """Load a cloud from .qpcd or .csv, dispatched on the file extension."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        return read_csv_cloud(path)
    return read_qpcd(path)
