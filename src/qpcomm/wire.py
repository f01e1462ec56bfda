"""Bit-exact frame serialization, packetization, and volume accounting.

Frame byte stream ("QPFR", all little-endian):

    magic      4s   b"QPFR"
    version    u8   0x01
    agent_id   u32
    frame_id   u32
    k_occ      u32
    k_int      u32
    h          u32
    w          u32
    origin     3 x f64
    cell       3 x f64
    dims       3 x u32
    p_h, p_w   2 x u32
    pose       6 x f32  (x, y, z, roll, pitch, yaw)
    payload    packed index bits

The payload packs the occupancy indices then the intensity indices, row-major
over (i, j), each index in exactly ceil(log2 K) bits, MSB-first within the
field, fields concatenated without padding, final byte zero-filled.  h and w
are the latent shape the grid dims and the patch give; a reader checks
them against it, and a ``Frame`` in memory keeps only the grid and patch.
A frame file is exactly this byte stream on disk.

Packets carry successive ``mtu``-sized byte ranges of the stream (no header
replication).  One loss rule, in ``deserialize``: a latent cell is lost when
any byte its bit-field touches is missing, the latent-level version of the
all-or-nothing cell rule, and every cell is lost when any header byte is.
``receive`` is the one receive path: it places the packets once, into the
frame the receiver's grid, patch and codebooks give (no buffer is ever
longer than that frame), decodes that frame under the rule and fills the
lost cells, as row ids into each codebook's entries plus one fill row.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import IndexMap
from .geometry import CellRows, PatchSpec, VoxelGridSpec
from .pcio import FormatError
from .quantizer import Codebook
from .tolerance import FillPolicy, LossMask, fill_rows

FRAME_MAGIC = b"QPFR"
FRAME_VERSION = 1
_HEADER_FMT = "<4sBIIIIII3d3d3III6f"
HEADER_LEN = struct.calcsize(_HEADER_FMT)  # 121 bytes
# header bytes not modeled by the volume formula (everything beyond the pose)
HEADER_OVERHEAD_BEYOND_POSE = HEADER_LEN - 24
MIN_MTU = 64
DEFAULT_MTU = 1200
POSE_BITS = 6 * 32
_F32_MAX = float(np.finfo(np.float32).max)  # the largest |value| a pose field holds


@dataclass(frozen=True)
class Pose:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        if not all(abs(v) <= _F32_MAX for v in self.as_tuple()):
            raise ValueError("pose parameters must be finite float32 values")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.x, self.y, self.z, self.roll, self.pitch, self.yaw)


@dataclass
class Frame:
    agent_id: int
    frame_id: int
    k_occ: int
    k_int: int
    spec: VoxelGridSpec
    patch: PatchSpec
    pose: Pose
    payload: bytes

    def to_bytes(self) -> bytes:
        header = struct.pack(
            _HEADER_FMT,
            FRAME_MAGIC,
            FRAME_VERSION,
            self.agent_id,
            self.frame_id,
            self.k_occ,
            self.k_int,
            *self.patch.latent_shape(self.spec),
            *self.spec.origin,
            *self.spec.cell,
            *self.spec.dims,
            self.patch.p_h,
            self.patch.p_w,
            *self.pose.as_tuple(),
        )
        return header + self.payload

    @classmethod
    def _parse_header(cls, data: bytes) -> "Frame":
        """Parse the header fields only; the returned frame has an empty
        payload and is not length-validated."""
        if len(data) < HEADER_LEN:
            raise FormatError("frame shorter than its header")
        fields = struct.unpack_from(_HEADER_FMT, data)
        magic, version = fields[0], fields[1]
        if magic != FRAME_MAGIC:
            raise FormatError("bad frame magic")
        if version != FRAME_VERSION:
            raise FormatError(f"unsupported frame version {version}")
        agent_id, frame_id, k_occ, k_int, h, w = fields[2:8]
        try:
            spec = VoxelGridSpec(fields[8:11], fields[11:14], fields[14:17])
            patch = PatchSpec(fields[17], fields[18])
            pose = Pose(*fields[19:25])
            if (h, w) != patch.latent_shape(spec):
                raise ValueError(f"latent shape {h}x{w} does not match the grid and patch")
            if not (k_occ and k_int):
                raise ValueError("codebook size must be >= 1")
        except ValueError as exc:
            raise FormatError(f"bad frame header: {exc}") from exc
        return cls(agent_id, frame_id, k_occ, k_int, spec, patch, pose, b"")

    @classmethod
    def from_bytes(cls, data: bytes) -> "Frame":
        frame = cls._parse_header(data)
        frame.payload = data[HEADER_LEN:]
        expected = frame.payload_nbytes
        if len(frame.payload) != expected:
            raise FormatError(f"payload is {len(frame.payload)} bytes, expected {expected}")
        return frame

    @property
    def payload_nbits(self) -> int:
        h, w = self.patch.latent_shape(self.spec)
        return h * w * (bits_for(self.k_occ) + bits_for(self.k_int))

    @property
    def payload_nbytes(self) -> int:
        return (self.payload_nbits + 7) // 8

    @property
    def total_nbytes(self) -> int:
        return HEADER_LEN + self.payload_nbytes


@dataclass
class Packet:
    frame_id: int
    seq: int
    byte_offset: int
    payload: bytes

    def __post_init__(self):
        # the widths a packet trace stores
        for name, bits in (("frame_id", 32), ("seq", 16), ("byte_offset", 64)):
            if not 0 <= getattr(self, name) < 1 << bits:
                raise ValueError(f"{name} must fit in {bits} bits")


def bits_for(k: int) -> int:
    """Exact field width in bits for indices in [0, k)."""
    if k < 1:
        raise ValueError("codebook size must be >= 1")
    return max(0, (k - 1).bit_length())


def _pack_indices(values: np.ndarray, nbits: int) -> np.ndarray:
    """MSB-first bit matrix (n, nbits) for the given index values."""
    shifts = np.arange(nbits - 1, -1, -1, dtype=np.int64)
    return ((values.reshape(-1, 1) >> shifts) & 1).astype(np.uint8)


def check_ids(agent_id: int, frame_id: int) -> None:
    """The header stores both ids as u32."""
    if not (0 <= agent_id < 1 << 32 and 0 <= frame_id < 1 << 32):
        raise ValueError("agent_id and frame_id must lie in [0, 2**32)")


def serialize(im: IndexMap, pose: Pose, agent_id: int = 0, frame_id: int = 0) -> Frame:
    """Pack an index map (plus pose) into a frame byte stream."""
    check_ids(agent_id, frame_id)
    b_occ = bits_for(im.k_occ)
    b_int = bits_for(im.k_int)
    bits = np.concatenate(
        [
            _pack_indices(im.occ_indices.ravel(), b_occ).ravel(),
            _pack_indices(im.int_indices.ravel(), b_int).ravel(),
        ]
    )
    payload = np.packbits(bits).tobytes()
    return Frame(agent_id, frame_id, im.k_occ, im.k_int, im.spec, im.patch, pose, payload)


def _fields(bits: np.ndarray, n: int, b_occ: int, b_int: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-bit array ``bits`` over the payload as its (n, b_occ)
    occupancy and (n, b_int) intensity fields; a 0-bit field is (n, 0)."""
    bits = bits[: n * (b_occ + b_int)]
    return bits[: n * b_occ].reshape(n, b_occ), bits[n * b_occ :].reshape(n, b_int)


def deserialize(frame: Frame, missing: np.ndarray | None = None) -> tuple[IndexMap, LossMask]:
    """Unpack a frame into an index map plus the per-cell loss mask.

    ``missing`` is a boolean array over the full frame byte stream (True =
    byte never arrived); ``None`` means no byte is missing.  A cell is lost
    when any bit of its occupancy or intensity field lies in a missing byte,
    and every cell is lost when any header byte is missing; a lost cell's
    index values are forced to 0.
    """
    h, w = frame.patch.latent_shape(frame.spec)
    n = h * w
    b_occ = bits_for(frame.k_occ)
    b_int = bits_for(frame.k_int)
    payload_bits = np.unpackbits(np.frombuffer(frame.payload, dtype=np.uint8))
    occ_idx, int_idx = (
        f.astype(np.int64) @ (1 << np.arange(f.shape[1] - 1, -1, -1, dtype=np.int64))
        for f in _fields(payload_bits, n, b_occ, b_int)
    )

    missing = np.zeros(frame.total_nbytes, bool) if missing is None else np.asarray(missing, bool)
    if missing.shape[0] != frame.total_nbytes:
        raise ValueError("missing-byte mask length != frame length")
    lost_occ, lost_int = _fields(np.repeat(missing[HEADER_LEN:], 8), n, b_occ, b_int)
    lost = lost_occ.any(axis=1) | lost_int.any(axis=1) | missing[:HEADER_LEN].any()
    occ_idx[lost] = 0
    int_idx[lost] = 0

    ok = ~lost
    if (occ_idx[ok] >= frame.k_occ).any() or (int_idx[ok] >= frame.k_int).any():
        raise FormatError("decoded index out of range (corrupt payload)")
    occ_idx, int_idx = occ_idx.reshape(h, w), int_idx.reshape(h, w)
    im = IndexMap(occ_idx, int_idx, frame.k_occ, frame.k_int, frame.spec, frame.patch)
    return im, LossMask(lost.reshape(h, w))


def check_mtu(mtu: int) -> None:
    if mtu < MIN_MTU:
        raise ValueError(f"mtu must be >= {MIN_MTU}")


def packetize(frame: Frame, mtu: int) -> list[Packet]:
    """Split the frame byte stream into packets of at most ``mtu`` payload
    bytes covering it exactly and disjointly."""
    check_mtu(mtu)
    blob = frame.to_bytes()
    packets = []
    for seq, off in enumerate(range(0, len(blob), mtu)):
        packets.append(Packet(frame.frame_id, seq, off, blob[off : off + mtu]))
    return packets


def _place(packets, nbytes: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``nbytes`` of the stream as the packets carry them, and
    which of those bytes arrived.  A byte carried twice must carry the same
    value both times."""
    buf = np.zeros(nbytes, dtype=np.uint8)
    present = np.zeros(nbytes, dtype=bool)
    for p in packets:
        lo, hi = p.byte_offset, min(p.byte_offset + len(p.payload), nbytes)
        if lo >= hi:
            continue
        data = np.frombuffer(p.payload, dtype=np.uint8, count=hi - lo)
        seen = present[lo:hi]
        if (buf[lo:hi][seen] != data[seen]).any():
            raise FormatError("duplicate packets carry conflicting bytes")
        buf[lo:hi] = data
        present[lo:hi] = True
    return buf, present


def receive(
    packets,
    spec: VoxelGridSpec,
    patch: PatchSpec,
    cb_occ: Codebook,
    cb_int: Codebook,
    policy: FillPolicy,
) -> tuple[CellRows, CellRows, LossMask]:
    """The receiver: place the delivered packets into the frame the grid,
    patch and codebooks give, mark every latent cell whose bits touch a
    missing byte as lost, and fill the lost cells.

    Returns the occupancy and intensity ``CellRows`` of :func:`fill_rows`,
    (h, w) row ids into each codebook's entries plus one fill row, and the
    loss mask; no vector grid is built.  The grid, patch and codebooks are
    pre-shared, so they fix the
    frame length before any packet is read, and no buffer is longer than
    that frame, which :func:`deserialize` decodes on every path: a lost
    header byte loses every cell, and each lost cell is filled.  A header
    that arrived is only checked against the receiver's frame.
    Codebooks whose dimension is not the patch vector's, packets of more
    than one frame, duplicates with conflicting bytes, a header that
    disagrees with the receiver, a packet frame id that differs from the
    header's and bytes past the frame raise :class:`FormatError`, the first
    before any packet is read.
    """
    packets = list(packets)
    if len({p.frame_id for p in packets}) > 1:
        raise FormatError("packets from more than one frame")
    dim = patch.vector_dim(spec)
    if (cb_occ.dim, cb_int.dim) != (dim, dim):
        raise FormatError(f"codebook dims ({cb_occ.dim}, {cb_int.dim}) != patch vector dim {dim}")
    frame = Frame(0, 0, cb_occ.k, cb_int.k, spec, patch, Pose(), b"")
    nbytes = frame.total_nbytes
    buf, present = _place(packets, nbytes)
    if present[:HEADER_LEN].all():
        header = Frame._parse_header(buf[:HEADER_LEN].tobytes())
        if (header.spec, header.patch, header.k_occ, header.k_int) != (
            frame.spec, frame.patch, frame.k_occ, frame.k_int
        ):
            raise FormatError("frame header disagrees with the receiver's grid/patch/codebooks")
        if header.frame_id != packets[0].frame_id:
            raise FormatError("packet frame id differs from the header's")
    if any(p.byte_offset + len(p.payload) > nbytes for p in packets):
        raise FormatError("packets extend past the receiver's frame length")
    frame.payload = buf[HEADER_LEN:].tobytes()
    im, mask = deserialize(frame, ~present)
    return (*fill_rows(im, mask, policy, cb_occ, cb_int), mask)


def log2_volume(index_bits: int) -> float:
    """log2 of the bytes that carry ``index_bits`` of codebook indices plus
    the six 32-bit pose parameters."""
    return math.log2((index_bits + POSE_BITS) / 8)


def comm_volume_log2_bytes(n_vectors: int, k: int) -> float:
    """Communication volume, log2 of the frame byte count modeled as
    ``(2 * N * log2(K) + 6 * 32) / 8``: both index grids at log2(K) bits per
    cell plus six 32-bit pose parameters.  K must be a power of two for the
    bit cost to be well-defined.  Both are bounded by the header: N = h * w
    with h and w u32, and K a u32."""
    if not 1 <= n_vectors <= (2**32 - 1) ** 2:
        raise ValueError("n_vectors must lie in [1, (2**32 - 1)**2]")
    if not 2 <= k < 2**32 or (k & (k - 1)) != 0:
        raise ValueError("codebook size must be a power of two in [2, 2**32)")
    return log2_volume(2 * n_vectors * bits_for(k))


def write_frame(path, frame: Frame) -> None:
    Path(path).write_bytes(frame.to_bytes())


def read_frame(path) -> Frame:
    return Frame.from_bytes(Path(path).read_bytes())


_PACKET_HEAD_FMT = "<IHQ"
_PACKET_HEAD_LEN = struct.calcsize(_PACKET_HEAD_FMT)


def write_packet_trace(path, packets) -> None:
    """Length-prefixed packet records: u32 record length, then frame_id (u32),
    seq (u16), byte_offset (u64), payload."""
    with open(path, "wb") as fh:
        for p in packets:
            record = struct.pack(_PACKET_HEAD_FMT, p.frame_id, p.seq, p.byte_offset) + p.payload
            fh.write(struct.pack("<I", len(record)))
            fh.write(record)


def read_packet_trace(path) -> list[Packet]:
    data = Path(path).read_bytes()
    packets = []
    off = 0
    while off < len(data):
        if off + 4 > len(data):
            raise FormatError("truncated packet trace")
        (rec_len,) = struct.unpack_from("<I", data, off)
        off += 4
        if rec_len < _PACKET_HEAD_LEN or off + rec_len > len(data):
            raise FormatError("truncated packet record")
        frame_id, seq, byte_offset = struct.unpack_from(_PACKET_HEAD_FMT, data, off)
        payload = data[off + _PACKET_HEAD_LEN : off + rec_len]
        packets.append(Packet(frame_id, seq, byte_offset, payload))
        off += rec_len
    return packets
