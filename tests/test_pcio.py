import numpy as np
import pytest

from qpcomm.geometry import PointCloud
from qpcomm.pcio import FormatError, read_cloud, read_csv_cloud, read_qpcd, write_qpcd


def test_qpcd_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.normal(size=(50, 3)), rng.random(50)]).astype("<f4")
    cloud = PointCloud(pts.astype(np.float64))
    path = tmp_path / "a.qpcd"
    write_qpcd(path, cloud)
    back = read_qpcd(path)
    np.testing.assert_array_equal(back.points, cloud.points)


def test_qpcd_layout(tmp_path):
    path = tmp_path / "one.qpcd"
    write_qpcd(path, PointCloud(np.array([[1.0, 2.0, 3.0, 0.5]])))
    raw = path.read_bytes()
    assert raw[:4] == b"QPCD"
    assert raw[4] == 1
    assert int.from_bytes(raw[5:13], "little") == 1
    assert np.frombuffer(raw[13:], dtype="<f4").tolist() == [1.0, 2.0, 3.0, 0.5]


@pytest.mark.parametrize("x", [1e308, -1e39])
def test_qpcd_rejects_coordinates_beyond_float32(tmp_path, x):
    # they would be written as inf, which read_qpcd rejects
    path = tmp_path / "far.qpcd"
    with pytest.raises(ValueError, match="float32 range"):
        write_qpcd(path, PointCloud(np.array([[x, 0.0, 0.0, 0.5]])))
    assert not path.exists()
    top = float(np.finfo(np.float32).max)
    write_qpcd(path, PointCloud(np.array([[top, -top, 0.0, 0.5]])))
    assert read_qpcd(path).points[0, :2].tolist() == [top, -top]


def test_qpcd_empty(tmp_path):
    path = tmp_path / "empty.qpcd"
    write_qpcd(path, PointCloud.empty())
    assert len(read_qpcd(path)) == 0


def test_qpcd_bad_magic(tmp_path):
    path = tmp_path / "bad.qpcd"
    path.write_bytes(b"NOPE" + bytes(20))
    with pytest.raises(FormatError):
        read_qpcd(path)


def test_qpcd_truncated(tmp_path):
    path = tmp_path / "trunc.qpcd"
    write_qpcd(path, PointCloud(np.array([[1.0, 2.0, 3.0, 0.5]])))
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(FormatError):
        read_qpcd(path)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x,y,z,intensity\n1.0,2.0,3.0,0.25\n-1.5,0.0,4.0,1.0\n")
    cloud = read_csv_cloud(path)
    np.testing.assert_array_equal(
        cloud.points, [[1.0, 2.0, 3.0, 0.25], [-1.5, 0.0, 4.0, 1.0]]
    )


def test_csv_bad_header(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("a,b,c,d\n1,2,3,4\n")
    with pytest.raises(FormatError):
        read_csv_cloud(path)


def test_csv_blank_rows_skipped(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x,y,z,intensity\n\n1.0,2.0,3.0,0.25\n\n")
    np.testing.assert_array_equal(read_csv_cloud(path).points, [[1.0, 2.0, 3.0, 0.25]])


def test_csv_non_numeric_value(tmp_path):
    path = tmp_path / "c.csv"
    path.write_text("x,y,z,intensity\n1.0,two,3.0,0.25\n")
    with pytest.raises(FormatError, match="non-numeric"):
        read_csv_cloud(path)


def test_read_cloud_dispatch(tmp_path):
    csv = tmp_path / "c.csv"
    csv.write_text("x,y,z,intensity\n0,0,0,0\n")
    qpcd = tmp_path / "c.qpcd"
    write_qpcd(qpcd, PointCloud(np.array([[0.0, 0.0, 0.0, 0.0]])))
    assert len(read_cloud(csv)) == 1
    assert len(read_cloud(qpcd)) == 1
