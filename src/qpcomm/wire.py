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
field, fields concatenated without padding, final byte zero-filled.  A frame
file is exactly this byte stream on disk.

Packets carry successive ``mtu``-sized byte ranges of the stream (no header
replication); a latent cell is lost when any byte its bit-field touches is
missing, the latent-level version of the all-or-nothing cell rule.
``receive`` is the one receive path: reassemble, mark lost cells, fill them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import IndexMap
from .geometry import PatchSpec, VoxelGridSpec
from .pcio import FormatError
from .quantizer import Codebook
from .tolerance import FillPolicy, LossMask, fill

FRAME_MAGIC = b"QPFR"
FRAME_VERSION = 1
_HEADER_FMT = "<4sBIIIIII3d3d3III6f"
HEADER_LEN = struct.calcsize(_HEADER_FMT)  # 121 bytes
# header bytes not modeled by the volume formula (everything beyond the pose)
HEADER_OVERHEAD_BEYOND_POSE = HEADER_LEN - 24
MIN_MTU = 64
POSE_BITS = 6 * 32


class IncompleteFrameError(FormatError):
    """Raised when lost packets leave the frame header unrecoverable."""


@dataclass(frozen=True)
class Pose:
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0
    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.as_tuple()):
            raise ValueError("pose parameters must be finite")

    def as_tuple(self) -> tuple[float, ...]:
        return (self.x, self.y, self.z, self.roll, self.pitch, self.yaw)


@dataclass
class Frame:
    agent_id: int
    frame_id: int
    k_occ: int
    k_int: int
    h: int
    w: int
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
            self.h,
            self.w,
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
        return cls(agent_id, frame_id, k_occ, k_int, h, w, spec, patch, pose, b"")

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
        return self.h * self.w * (bits_for(self.k_occ) + bits_for(self.k_int))

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
        if not 0 <= self.seq < (1 << 16):
            raise ValueError("seq must fit in 16 bits")


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
    return Frame(
        agent_id,
        frame_id,
        im.k_occ,
        im.k_int,
        im.h,
        im.w,
        im.spec,
        im.patch,
        pose,
        payload,
    )


def _fields(bits: np.ndarray, n: int, b_occ: int, b_int: int) -> tuple[np.ndarray, np.ndarray]:
    """The per-bit array ``bits`` over the payload as its (n, b_occ)
    occupancy and (n, b_int) intensity fields; a 0-bit field is (n, 0)."""
    bits = bits[: n * (b_occ + b_int)]
    return bits[: n * b_occ].reshape(n, b_occ), bits[n * b_occ :].reshape(n, b_int)


def deserialize(frame: Frame, missing: np.ndarray | None = None) -> tuple[IndexMap, LossMask]:
    """Unpack a frame into an index map plus the per-cell loss mask.

    ``missing`` is an optional boolean array over the full frame byte stream
    (True = byte never arrived).  A cell is lost when any bit of its
    occupancy or intensity field lies in a missing byte; its index values are
    forced to 0.  With no loss the mask is all-present.  Missing header bytes
    raise :class:`IncompleteFrameError`.
    """
    n = frame.h * frame.w
    b_occ = bits_for(frame.k_occ)
    b_int = bits_for(frame.k_int)
    payload_bits = np.unpackbits(np.frombuffer(frame.payload, dtype=np.uint8))
    occ_idx, int_idx = (
        f.astype(np.int64) @ (1 << np.arange(f.shape[1] - 1, -1, -1, dtype=np.int64))
        for f in _fields(payload_bits, n, b_occ, b_int)
    )

    lost = np.zeros(n, dtype=bool)
    if missing is not None:
        missing = np.asarray(missing, dtype=bool)
        if missing.shape[0] != frame.total_nbytes:
            raise ValueError("missing-byte mask length != frame length")
        if missing[:HEADER_LEN].any():
            raise IncompleteFrameError("frame header bytes were lost")
        lost_occ, lost_int = _fields(np.repeat(missing[HEADER_LEN:], 8), n, b_occ, b_int)
        lost = lost_occ.any(axis=1) | lost_int.any(axis=1)
        occ_idx[lost] = 0
        int_idx[lost] = 0

    ok = ~lost
    if (occ_idx[ok] >= frame.k_occ).any() or (int_idx[ok] >= frame.k_int).any():
        raise FormatError("decoded index out of range (corrupt payload)")
    im = IndexMap(
        occ_idx.reshape(frame.h, frame.w),
        int_idx.reshape(frame.h, frame.w),
        frame.k_occ,
        frame.k_int,
        frame.spec,
        frame.patch,
    )
    return im, LossMask(lost.reshape(frame.h, frame.w))


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


def _read_header(packets: list) -> Frame | None:
    """The header the packets carry, or None when a header byte is missing."""
    if len({p.frame_id for p in packets}) > 1:
        raise FormatError("packets from more than one frame")
    head, head_present = _place(packets, HEADER_LEN)
    if not head_present.all():
        return None
    header = Frame._parse_header(head.tobytes())
    if header.frame_id != packets[0].frame_id:
        raise FormatError("packet frame id differs from the header's")
    return header


def _reassemble(packets: list, header: Frame) -> tuple[Frame, np.ndarray]:
    """Place the packets over the stream ``header`` declares: the header
    becomes the frame (zero-filled where bytes are missing), returned with
    the ``missing`` array over the full byte stream."""
    total = header.total_nbytes
    if any(p.byte_offset + len(p.payload) > total for p in packets):
        raise FormatError("packets extend past the declared frame length")
    buf, present = _place(packets, total)
    header.payload = buf[HEADER_LEN:].tobytes()
    return header, ~present


def reassemble(packets) -> tuple[Frame, np.ndarray]:
    """Rebuild a frame from delivered packets.

    Missing byte ranges are zero-filled; returns the frame plus a boolean
    ``missing`` array over the full byte stream.  The header is read first
    and fixes the stream length, so if any header byte is absent (or no
    packets arrived at all) :class:`IncompleteFrameError` is raised -- the
    whole frame counts as lost.  Packets of more than one frame, packets
    whose frame id differs from the header's, duplicates with conflicting
    bytes and bytes past the declared length raise :class:`FormatError`.
    """
    packets = list(packets)
    header = _read_header(packets)
    if header is None:
        raise IncompleteFrameError("no packets carried the whole frame header")
    return _reassemble(packets, header)


def receive(
    packets,
    spec: VoxelGridSpec,
    patch: PatchSpec,
    cb_occ: Codebook,
    cb_int: Codebook,
    policy: FillPolicy,
) -> tuple[np.ndarray, np.ndarray, LossMask]:
    """The receiver: reassemble the delivered packets, mark every latent
    cell whose bits touch a missing byte as lost, and fill the lost cells.

    Returns the (h, w, D) occupancy and intensity vector grids plus the loss
    mask.  The grid, patch and codebooks are pre-shared, so a lost header
    still leaves the stream configuration known: every cell of
    ``patch.latent_shape(spec)`` counts as lost and is filled.  A received
    header that disagrees with them raises :class:`FormatError` before the
    frame is reassembled, so the header cannot size the receiver's buffers.
    """
    expected = (spec, patch, cb_occ.k, cb_int.k)
    packets = list(packets)
    header = _read_header(packets)
    if header is None:
        h, w = patch.latent_shape(spec)
        zeros = np.zeros((h, w), dtype=np.int64)
        im = IndexMap(zeros, zeros, cb_occ.k, cb_int.k, spec, patch)
        mask = LossMask.all_lost(h, w)
    elif (header.spec, header.patch, header.k_occ, header.k_int) != expected:
        raise FormatError("frame header disagrees with the receiver's grid/patch/codebooks")
    else:
        im, mask = deserialize(*_reassemble(packets, header))
    occ_vec, int_vec = fill(im, mask, policy, cb_occ, cb_int)
    return occ_vec, int_vec, mask


def log2_volume(index_bits: int) -> float:
    """log2 of the bytes that carry ``index_bits`` of codebook indices plus
    the six 32-bit pose parameters."""
    return math.log2((index_bits + POSE_BITS) / 8)


def comm_volume_log2_bytes(n_vectors: int, k: int) -> float:
    """Communication volume, log2 of the frame byte count modeled as
    ``(2 * N * log2(K) + 6 * 32) / 8``: both index grids at log2(K) bits per
    cell plus six 32-bit pose parameters.  K must be a power of two for the
    bit cost to be well-defined."""
    if n_vectors < 1:
        raise ValueError("n_vectors must be >= 1")
    if k < 2 or (k & (k - 1)) != 0:
        raise ValueError("codebook size must be a power of two >= 2")
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
