import contextlib
import itertools
import math
import struct
from unittest import mock

import numpy as np
import pytest
from helpers import build_straddle_fixture, missing_bytes
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpcomm import wire
from qpcomm.codec import IndexMap
from qpcomm.geometry import PatchSpec, VoxelGridSpec
from qpcomm.pcio import FormatError
from qpcomm.quantizer import KIND_INT, Codebook
from qpcomm.tolerance import POLICIES, FillPolicy, fill
from qpcomm.wire import (
    HEADER_LEN,
    HEADER_OVERHEAD_BEYOND_POSE,
    Frame,
    Packet,
    Pose,
    bits_for,
    comm_volume_log2_bytes,
    deserialize,
    packetize,
    read_frame,
    read_packet_trace,
    receive,
    serialize,
    write_frame,
    write_packet_trace,
)


def make_spec(dims=(4, 4, 2)):
    return VoxelGridSpec((0.0, 0.0, 0.0), (0.5, 0.5, 0.25), dims)


def random_index_map(rng, h=None, w=None, k_occ=None, k_int=None):
    p_h, p_w = 2, 2
    h = h or int(rng.integers(1, 6))
    w = w or int(rng.integers(1, 6))
    k_occ = k_occ or int(rng.integers(1, 600))
    k_int = k_int or int(rng.integers(1, 600))
    spec = VoxelGridSpec(
        tuple(rng.normal(size=3)),
        tuple(rng.uniform(0.05, 1.0, 3)),
        (h * p_h, w * p_w, int(rng.integers(1, 5))),
    )
    return IndexMap(
        rng.integers(k_occ, size=(h, w)),
        rng.integers(k_int, size=(h, w)),
        k_occ,
        k_int,
        spec,
        PatchSpec(p_h, p_w),
    )


def byte_overlap_lost(im, missing):
    """Oracle: the cells whose occupancy or intensity bit-field touches a
    missing payload byte, as a flat boolean array."""
    b_occ = bits_for(im.k_occ)
    b_int = bits_for(im.k_int)
    n = im.h * im.w
    lost_bytes = set(np.flatnonzero(missing[HEADER_LEN:]).tolist())
    expected = np.zeros(n, dtype=bool)
    for c in range(n):
        spans = []
        if b_occ:
            spans.append((c * b_occ, (c + 1) * b_occ - 1))
        if b_int:
            spans.append((n * b_occ + c * b_int, n * b_occ + (c + 1) * b_int - 1))
        for lo, hi in spans:
            if set(range(lo // 8, hi // 8 + 1)) & lost_bytes:
                expected[c] = True
    return expected


def receive_indices(packets, im):
    """``receive`` with codebooks whose entry i is the constant vector i and
    the empty fill, so the vectors read back as the index map the receiver
    built (lost cells read 0); returned with the loss mask."""
    dim = im.patch.vector_dim(im.spec)
    cb_occ, cb_int = (
        Codebook.from_entries(np.repeat(np.arange(k, dtype=float)[:, None], dim, axis=1))
        for k in (im.k_occ, im.k_int)
    )
    occ, inten, mask = receive(packets, im.spec, im.patch, cb_occ, cb_int, FillPolicy.empty())
    got = IndexMap(
        occ.vectors()[..., 0].astype(np.int64), inten.vectors()[..., 0].astype(np.int64),
        im.k_occ, im.k_int, im.spec, im.patch,
    )
    return got, mask


def receiver_nbytes(im):
    """The frame length the receiver of ``im``'s configuration expects."""
    n_bits = im.h * im.w * (bits_for(im.k_occ) + bits_for(im.k_int))
    return HEADER_LEN + (n_bits + 7) // 8


class TestBitPacking:
    def test_bits_for(self):
        assert [bits_for(k) for k in (1, 2, 3, 4, 5, 8, 9, 2048)] == [0, 1, 2, 2, 3, 3, 4, 11]

    def test_single_cell_hand_packed(self):
        # h=w=1, K_occ=K_int=2, indices (1, 0) -> bits '10' -> byte 0x80
        spec = make_spec((2, 2, 1))
        im = IndexMap(np.array([[1]]), np.array([[0]]), 2, 2, spec, PatchSpec(2, 2))
        frame = serialize(im, Pose())
        assert frame.payload == b"\x80"

    def test_payload_length_example(self):
        # 11520 cells at K=2048: 2 * 11520 * 11 / 8 = 31680 bytes
        spec = VoxelGridSpec((0, 0, 0), (0.15625, 0.15625, 0.15), (640, 1152, 16))
        patch = PatchSpec(8, 8)
        rng = np.random.default_rng(0)
        im = IndexMap(
            rng.integers(2048, size=(80, 144)),
            rng.integers(2048, size=(80, 144)),
            2048,
            2048,
            spec,
            patch,
        )
        frame = serialize(im, Pose())
        assert len(frame.payload) == 31680
        assert frame.total_nbytes == 31680 + HEADER_LEN

    def test_roundtrip_random_maps(self):
        rng = np.random.default_rng(1)
        # (None, None) draws both sizes; K = 1 is a 0-bit field
        for k_occ, k_int in [(None, None)] * 60 + [(1, 300), (300, 1)] * 10:
            im = random_index_map(rng, k_occ=k_occ, k_int=k_int)
            frame = serialize(im, Pose(1.0, -2.0, 0.5, 0.1, 0.0, 3.0))
            back, mask = deserialize(frame)
            assert back == im
            assert mask.n_lost == 0
            # no mask means no byte missing
            again, present = deserialize(frame, np.zeros(frame.total_nbytes, dtype=bool))
            assert again == back and np.array_equal(present.lost, mask.lost)

    def test_frame_bytes_roundtrip(self):
        rng = np.random.default_rng(2)
        im = random_index_map(rng)
        frame = serialize(im, Pose(), agent_id=7, frame_id=42)
        blob = frame.to_bytes()
        again = Frame.from_bytes(blob)
        assert again.to_bytes() == blob
        assert (again.agent_id, again.frame_id) == (7, 42)

    def test_payload_length_content_independent(self):
        rng = np.random.default_rng(3)
        spec = make_spec()
        lengths = set()
        for _ in range(10):
            im = IndexMap(
                rng.integers(37, size=(2, 2)),
                rng.integers(37, size=(2, 2)),
                37,
                37,
                spec,
                PatchSpec(2, 2),
            )
            lengths.add(len(serialize(im, Pose()).payload))
        assert len(lengths) == 1

    def test_bad_magic_and_version(self):
        rng = np.random.default_rng(4)
        blob = bytearray(serialize(random_index_map(rng), Pose()).to_bytes())
        corrupt = bytearray(blob)
        corrupt[0:4] = b"XXXX"
        with pytest.raises(FormatError):
            Frame.from_bytes(bytes(corrupt))
        corrupt = bytearray(blob)
        corrupt[4] = 99
        with pytest.raises(FormatError):
            Frame.from_bytes(bytes(corrupt))


    @pytest.mark.parametrize(
        "fmt,offset,value",
        [("<d", 53, -1.0), ("<d", 53, math.nan), ("<I", 89, 0), ("<f", 97, math.inf)],
    )  # first cell size twice, p_h, pose x
    def test_invalid_header_field_is_a_format_error(self, fmt, offset, value):
        rng = np.random.default_rng(21)
        blob = bytearray(serialize(random_index_map(rng), Pose()).to_bytes())
        struct.pack_into(fmt, blob, offset, value)
        with pytest.raises(FormatError):
            Frame.from_bytes(bytes(blob))


    @pytest.mark.parametrize("offset,value", [(13, 0), (17, 0), (21, 3), (25, 1000)])
    def test_header_must_fit_the_grid(self, offset, value):
        # k_occ, k_int, h, w: a K of 0 or a latent shape the grid and patch do not give
        rng = np.random.default_rng(23)
        im = random_index_map(rng, h=2, w=2)
        frame = serialize(im, Pose())
        blob = bytearray(frame.to_bytes())
        struct.pack_into("<I", blob, offset, value)
        with pytest.raises(FormatError, match="bad frame header"):
            Frame.from_bytes(bytes(blob))
        packets = packetize(frame, 64)
        packets[0] = Packet(frame.frame_id, 0, 0, bytes(blob[:64]))
        with pytest.raises(FormatError, match="bad frame header"):
            receive_indices(packets, im)

    def test_pose_must_fit_float32(self):
        # the header stores each pose value as f32: the largest one round-trips
        top = float(np.finfo(np.float32).max)
        im = random_index_map(np.random.default_rng(25))
        again = Frame.from_bytes(serialize(im, Pose(top, -top)).to_bytes())
        assert again.pose.as_tuple() == (top, -top, 0.0, 0.0, 0.0, 0.0)
        for value in (1e39, -1e39, math.inf, math.nan, np.nextafter(top, math.inf)):
            with pytest.raises(ValueError, match="pose"):
                Pose(0.0, 0.0, 0.0, 0.0, 0.0, value)

    @pytest.mark.parametrize("agent_id,frame_id", [(-1, 0), (0, -1), (1 << 32, 0), (0, 1 << 32)])
    def test_ids_outside_u32_rejected(self, agent_id, frame_id):
        im = random_index_map(np.random.default_rng(24))
        with pytest.raises(ValueError, match="agent_id and frame_id"):
            serialize(im, Pose(), agent_id=agent_id, frame_id=frame_id)
        top = (1 << 32) - 1
        again = Frame.from_bytes(serialize(im, Pose(), agent_id=top, frame_id=top).to_bytes())
        assert (again.agent_id, again.frame_id) == (top, top)


class TestPacketize:
    def test_single_packet_when_small(self):
        rng = np.random.default_rng(5)
        im = random_index_map(rng, h=1, w=1, k_occ=2, k_int=2)
        frame = serialize(im, Pose())
        packets = packetize(frame, 1200)
        assert len(packets) == 1
        assert packets[0].byte_offset == 0

    def test_packet_count_and_coverage(self):
        spec = VoxelGridSpec((0, 0, 0), (0.15625, 0.15625, 0.15), (640, 1152, 16))
        rng = np.random.default_rng(6)
        im = IndexMap(
            rng.integers(2048, size=(80, 144)),
            rng.integers(2048, size=(80, 144)),
            2048,
            2048,
            spec,
            PatchSpec(8, 8),
        )
        frame = serialize(im, Pose())
        packets = packetize(frame, 1200)
        assert len(packets) == math.ceil((HEADER_LEN + 31680) / 1200)
        # disjoint, exact coverage
        covered = np.zeros(frame.total_nbytes, dtype=int)
        for p in packets:
            covered[p.byte_offset : p.byte_offset + len(p.payload)] += 1
        assert (covered == 1).all()

    def test_reassemble_bit_exact(self):
        rng = np.random.default_rng(7)
        im = random_index_map(rng, h=4, w=5, k_occ=300, k_int=12)
        frame = serialize(im, Pose())
        packets = packetize(frame, 64)
        rng.shuffle(packets)
        again, mask = receive_indices(packets, im)
        assert again == im
        assert mask.n_lost == 0

    def test_mtu_too_small(self):
        rng = np.random.default_rng(8)
        frame = serialize(random_index_map(rng), Pose())
        with pytest.raises(ValueError):
            packetize(frame, 63)

    def test_seq_limit(self):
        with pytest.raises(ValueError):
            Packet(0, 1 << 16, 0, b"")

    @pytest.mark.parametrize(
        "field,bits",
        [("frame_id", 32), ("seq", 16), ("byte_offset", 64)],
    )
    def test_fields_fit_the_trace(self, field, bits, tmp_path):
        # the widths a packet trace stores: u32 frame id, u16 seq, u64 offset
        for value in (-1, 1 << bits):
            with pytest.raises(ValueError, match=f"{field} must fit in {bits} bits"):
                Packet(**{"frame_id": 0, "seq": 0, "byte_offset": 0, field: value}, payload=b"")
        top = Packet(**{"frame_id": 0, "seq": 0, "byte_offset": 0, field: (1 << bits) - 1},
                     payload=b"x")
        write_packet_trace(tmp_path / "t.pkts", [top])
        assert read_packet_trace(tmp_path / "t.pkts") == [top]


class TestLossMapping:
    def test_all_payload_packets_lost(self):
        rng = np.random.default_rng(9)
        im = random_index_map(rng, h=4, w=4, k_occ=256, k_int=256)
        frame = serialize(im, Pose())
        packets = packetize(frame, 128)
        # keep only packets that cover the header
        kept = [p for p in packets if p.byte_offset < HEADER_LEN]
        assert all(p.byte_offset + len(p.payload) <= HEADER_LEN + 128 for p in kept)
        _, mask = receive_indices(kept, im)
        assert mask.n_lost == mask.lost.size  # every cell touches a lost byte?

    def test_missing_mask_checked(self):
        frame = serialize(random_index_map(np.random.default_rng(16)), Pose())
        with pytest.raises(ValueError, match="mask length"):
            deserialize(frame, np.zeros(frame.total_nbytes - 1, dtype=bool))
        # one missing header byte loses every cell, and every index reads 0
        missing = np.zeros(frame.total_nbytes, dtype=bool)
        missing[HEADER_LEN - 1] = True
        back, mask = deserialize(frame, missing)
        assert mask.lost.all() and mask.lost.shape == (back.h, back.w)
        assert not back.occ_indices.any() and not back.int_indices.any()

    def test_lost_cells_match_byte_overlap_oracle(self):
        rng = np.random.default_rng(11)
        # (None, None) draws both sizes; K = 1 is a 0-bit field
        for k_occ, k_int in [(None, None)] * 20 + [(1, 300), (300, 1)] * 10:
            im = random_index_map(rng, h=4, w=6, k_occ=k_occ, k_int=k_int)
            frame = serialize(im, Pose())
            mtu = int(rng.choice([64, 96, 128]))
            packets = packetize(frame, mtu)
            keep = rng.random(len(packets)) > 0.35
            keep[0] = True  # keep the header start
            if HEADER_LEN > mtu:
                keep[: math.ceil(HEADER_LEN / mtu)] = True
            delivered = [p for p, k in zip(packets, keep) if k]
            missing = missing_bytes(delivered, frame.total_nbytes)
            back, mask = receive_indices(delivered, im)
            np.testing.assert_array_equal(mask.lost.ravel(), byte_overlap_lost(im, missing))
            # present cells keep their original indices
            ok = ~mask.lost
            np.testing.assert_array_equal(back.occ_indices[ok], im.occ_indices[ok])
            np.testing.assert_array_equal(back.int_indices[ok], im.int_indices[ok])

    def test_out_of_range_index_is_a_format_error_unless_lost(self):
        # K = 100 takes 7 bits, so the field values 100..127 are invalid
        rng = np.random.default_rng(13)
        im = random_index_map(rng, h=2, w=2, k_occ=100, k_int=100)
        frame = serialize(im, Pose())
        payload = bytearray(frame.payload)
        payload[0] |= 0xFE  # cell (0, 0)'s occupancy field is the top 7 bits: 127
        frame.payload = bytes(payload)
        with pytest.raises(FormatError, match="out of range") as excinfo:
            deserialize(frame)
        assert excinfo.type is FormatError
        missing = np.zeros(frame.total_nbytes, dtype=bool)
        missing[HEADER_LEN] = True
        back, mask = deserialize(frame, missing)
        assert mask.lost[0, 0] and back.occ_indices[0, 0] == 0


seeds = st.integers(0, 2**32 - 1)
mtus = st.sampled_from([64, 80, 128, 200])


class TestReassemblyContracts:
    """Any delivery of a frame's packets to ``receive`` yields the exact
    index map, the byte-overlap loss mask, or a typed error -- never a
    silent wrong frame."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=seeds, mtu=mtus, mtu2=mtus)
    def test_subsets_permutations_and_identical_duplicates(self, data, seed, mtu, mtu2):
        rng = np.random.default_rng(seed)
        im = random_index_map(rng, h=int(rng.integers(1, 10)), w=int(rng.integers(1, 10)))
        frame = serialize(im, Pose(), frame_id=int(rng.integers(2**32)))
        # two packetizations: duplicates may cover overlapping, shifted ranges
        pool = packetize(frame, mtu) + packetize(frame, mtu2)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=3 * len(pool)))
        delivered = [pool[i] for i in picks]
        covered = ~missing_bytes(delivered, frame.total_nbytes)
        back, mask = receive_indices(delivered, im)
        if covered[:HEADER_LEN].all():
            np.testing.assert_array_equal(mask.lost.ravel(), byte_overlap_lost(im, ~covered))
        else:
            assert mask.lost.all()  # the header is lost: so is every cell
        ok = ~mask.lost
        np.testing.assert_array_equal(back.occ_indices[ok], im.occ_indices[ok])
        np.testing.assert_array_equal(back.int_indices[ok], im.int_indices[ok])
        assert not back.occ_indices[~ok].any() and not back.int_indices[~ok].any()
        if covered.all():
            assert back == im

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=seeds, mtu=mtus, ids=st.tuples(seeds, seeds))
    def test_mixed_frames_rejected(self, data, seed, mtu, ids):
        assume(ids[0] != ids[1])
        rng = np.random.default_rng(seed)
        im = random_index_map(rng)
        a = packetize(serialize(im, Pose(), frame_id=ids[0]), mtu)
        b = packetize(serialize(random_index_map(rng), Pose(x=1.0), frame_id=ids[1]), mtu)
        mixed = data.draw(st.lists(st.sampled_from(a), min_size=1)) + data.draw(
            st.lists(st.sampled_from(b), min_size=1)
        )
        with pytest.raises(FormatError) as excinfo:
            receive_indices(data.draw(st.permutations(mixed)), im)
        assert excinfo.type is FormatError

    def test_header_of_one_frame_with_payload_of_another_rejected(self):
        rng = np.random.default_rng(16)
        ims = [random_index_map(rng, h=4, w=4, k_occ=64, k_int=64) for _ in range(2)]
        first = packetize(serialize(ims[0], Pose(), frame_id=1), 64)
        second = packetize(serialize(ims[1], Pose(x=5.0), frame_id=2), 64)
        with pytest.raises(FormatError):
            receive_indices(first[:1] + second[1:], ims[0])

    def test_packet_frame_id_must_match_header(self):
        rng = np.random.default_rng(17)
        im = random_index_map(rng)
        frame = serialize(im, Pose(), frame_id=5)
        relabeled = [Packet(6, p.seq, p.byte_offset, p.payload) for p in packetize(frame, 64)]
        with pytest.raises(FormatError, match="frame id differs"):
            receive_indices(relabeled, im)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=seeds, mtu=mtus)
    def test_conflicting_duplicate_rejected(self, data, seed, mtu):
        rng = np.random.default_rng(seed)
        im = random_index_map(rng)
        packets = packetize(serialize(im, Pose()), mtu)
        p = data.draw(st.sampled_from(packets))
        payload = bytearray(p.payload)
        payload[data.draw(st.integers(0, len(payload) - 1))] ^= data.draw(st.integers(1, 255))
        forged = Packet(p.frame_id, p.seq, p.byte_offset, bytes(payload))
        with pytest.raises(FormatError) as excinfo:
            receive_indices(data.draw(st.permutations(packets + [forged])), im)
        assert excinfo.type is FormatError

    @pytest.mark.parametrize("offset", [2**63, 2**64 - 1])
    def test_huge_offset_rejected_without_allocating(self, offset, tmp_path):
        rng = np.random.default_rng(18)
        im = random_index_map(rng)
        frame = serialize(im, Pose())
        packets = packetize(frame, 64)
        rogue = Packet(frame.frame_id, len(packets), offset, b"\x01")
        for delivered in (packets + [rogue], packets[1:] + [rogue]):  # with and without header
            with pytest.raises(FormatError, match="past the receiver's frame"):
                receive_indices(delivered, im)
        path = tmp_path / "t.pkts"
        write_packet_trace(path, [rogue] + packets)
        with pytest.raises(FormatError, match="past the receiver's frame"):
            receive_indices(read_packet_trace(path), im)

    def test_packet_past_declared_length_rejected(self):
        rng = np.random.default_rng(19)
        im = random_index_map(rng)
        frame = serialize(im, Pose())
        packets = packetize(frame, 64)
        extra = Packet(frame.frame_id, len(packets), frame.total_nbytes, b"\x00")
        with pytest.raises(FormatError, match="past the receiver's frame"):
            receive_indices(packets + [extra], im)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), seed=seeds, mtu=mtus)
    def test_place_sees_only_the_receivers_frame_length(self, data, seed, mtu):
        # the sender's grid may differ from the receiver's, and rogue packets
        # may claim any offset a trace can store
        rng = np.random.default_rng(seed)
        receiver = random_index_map(rng)
        sender = receiver if data.draw(st.booleans()) else random_index_map(rng)
        frame = serialize(sender, Pose(), frame_id=7)
        honest = data.draw(st.lists(st.sampled_from(packetize(frame, mtu)), max_size=12))
        rogues = data.draw(
            st.lists(
                st.builds(
                    lambda off, payload: Packet(7, 0, off, payload),
                    st.one_of(st.integers(0, 2 * frame.total_nbytes), st.integers(0, 2**64 - 1)),
                    st.binary(max_size=8),
                ),
                max_size=3,
            )
        )
        delivered = data.draw(st.permutations(honest + rogues))
        with mock.patch.object(wire, "_place", wraps=wire._place) as place:
            with contextlib.suppress(FormatError):
                _, mask = receive_indices(delivered, receiver)
                assert mask.lost.shape == (receiver.h, receiver.w)
        assert [c.args[1] for c in place.call_args_list] == [receiver_nbytes(receiver)]


class TestReceive:
    @pytest.fixture()
    def setup(self):
        rng = np.random.default_rng(20)
        im = random_index_map(rng, h=4, w=5, k_occ=16, k_int=8)
        dim = im.patch.vector_dim(im.spec)
        cb_occ = Codebook.from_entries(rng.random((16, dim)))
        cb_int = Codebook.from_entries(rng.random((8, dim)), kind=KIND_INT)
        fill_occ, fill_int = rng.random(dim), rng.random(dim)
        return im, cb_occ, cb_int, fill_occ, fill_int

    def test_full_delivery_is_the_code_vectors(self, setup):
        im, cb_occ, cb_int, fill_occ, fill_int = setup
        packets = packetize(serialize(im, Pose()), 64)
        occ, inten, mask = receive(
            packets[::-1], im.spec, im.patch, cb_occ, cb_int, FillPolicy.empty()
        )
        assert mask.n_lost == 0
        np.testing.assert_array_equal(occ.ids, im.occ_indices)
        np.testing.assert_array_equal(inten.ids, im.int_indices)
        np.testing.assert_array_equal(occ.vectors(), cb_occ.entries[im.occ_indices])
        np.testing.assert_array_equal(inten.vectors(), cb_int.entries[im.int_indices])

    @pytest.mark.parametrize("policy", ["empty", "learned_constant", "neighbor_copy"])
    def test_header_loss_fills_every_cell(self, setup, policy):
        im, cb_occ, cb_int, fill_occ, fill_int = setup
        packets = packetize(serialize(im, Pose()), 64)
        fp = FillPolicy(policy, fill_occ, fill_int)
        for delivered in ([], packets[1:]):
            occ, inten, mask = receive(delivered, im.spec, im.patch, cb_occ, cb_int, fp)
            occ_vec, int_vec = occ.vectors(), inten.vectors()
            assert mask.lost.shape == (im.h, im.w) and mask.lost.all()
            want_occ, want_int = (
                (np.zeros_like(fill_occ), np.zeros_like(fill_int))
                if policy == "empty"
                else (fill_occ, fill_int)
            )
            np.testing.assert_array_equal(occ_vec, np.broadcast_to(want_occ, occ_vec.shape))
            np.testing.assert_array_equal(int_vec, np.broadcast_to(want_int, int_vec.shape))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_receive_is_fill_of_deserialize_for_every_subset(self, policy):
        # one loss rule: whatever subset arrives, header included or not,
        # receive decodes exactly what deserialize gives under that subset's
        # missing bytes, and fills it
        rng = np.random.default_rng(28)
        for k_occ, k_int in [(None, None)] * 6 + [(1, 40), (40, 1)]:
            im = random_index_map(rng, k_occ=k_occ, k_int=k_int)
            frame = serialize(im, Pose(), frame_id=int(rng.integers(2**32)))
            packets = packetize(frame, int(rng.choice([64, 80])))
            dim = im.patch.vector_dim(im.spec)
            cb_occ = Codebook.from_entries(rng.random((im.k_occ, dim)))
            cb_int = Codebook.from_entries(rng.random((im.k_int, dim)), kind=KIND_INT)
            fp = FillPolicy(policy, rng.random(dim), rng.random(dim))
            for keep in itertools.product((False, True), repeat=len(packets)):
                delivered = list(itertools.compress(packets, keep))
                missing = missing_bytes(delivered, frame.total_nbytes)
                want_im, want_mask = deserialize(frame, missing)
                want = (*fill(want_im, want_mask, fp, cb_occ, cb_int), want_mask.lost)
                occ, inten, mask = receive(delivered, im.spec, im.patch, cb_occ, cb_int, fp)
                got = (occ.table[occ.ids], inten.table[inten.ids], mask.lost)
                for a, b in zip(got, want, strict=True):
                    assert a.tobytes() == b.tobytes()

    def test_header_disagreeing_with_receiver_rejected(self, setup):
        im, cb_occ, cb_int, fill_occ, fill_int = setup
        packets = packetize(serialize(im, Pose()), 64)
        policy = FillPolicy.empty()
        other_spec = VoxelGridSpec((9.0, 9.0, 9.0), im.spec.cell, im.spec.dims)
        with pytest.raises(FormatError):
            receive(packets, other_spec, im.patch, cb_occ, cb_int, policy)
        small = Codebook.from_entries(cb_occ.entries[:15])
        with pytest.raises(FormatError):
            receive(packets, im.spec, im.patch, small, cb_int, policy)


    def test_header_checked_before_the_frame_is_allocated(self, setup, monkeypatch):
        im, cb_occ, cb_int, fill_occ, fill_int = setup
        # a self-consistent header for 1000x1000 latent cells (about 0.9 MB of
        # payload) sent to a receiver configured for 4x5 cells
        dims = (2000, 2000, im.spec.dims[2])
        big = VoxelGridSpec(im.spec.origin, im.spec.cell, dims)
        header = Frame(0, 0, cb_occ.k, cb_int.k, big, im.patch, Pose(), b"")
        sizes = []
        place = wire._place

        def spy(packets, nbytes):
            sizes.append(nbytes)
            return place(packets, nbytes)

        monkeypatch.setattr(wire, "_place", spy)
        with pytest.raises(FormatError, match="disagrees"):
            receive(packetize(header, 64), im.spec, im.patch, cb_occ, cb_int,
                    FillPolicy.empty())
        assert sizes == [receiver_nbytes(im)]  # never the header's 0.9 MB

    def test_codebook_dim_checked_before_any_packet_is_read(self, setup, monkeypatch):
        # a codebook of another D would otherwise be looked up h * w times first
        im, cb_occ, cb_int, fill_occ, fill_int = setup
        wide = Codebook.from_entries(np.zeros((cb_int.k, cb_int.dim + 1)), kind=KIND_INT)
        monkeypatch.setattr(wire, "_place", mock.Mock(side_effect=AssertionError))
        with pytest.raises(FormatError, match="codebook dims"):
            receive(packetize(serialize(im, Pose()), 64), im.spec, im.patch, cb_occ, wide,
                    FillPolicy.empty())

    def test_one_header_parse_per_receive(self, setup, monkeypatch):
        im, cb_occ, cb_int, fill_occ, fill_int = setup
        packets = packetize(serialize(im, Pose()), 64)
        calls = []
        parse, place = Frame._parse_header, wire._place

        def parse_spy(data):
            calls.append("parse")
            return parse(data)

        def place_spy(packets, nbytes):
            calls.append("place")
            return place(packets, nbytes)

        monkeypatch.setattr(Frame, "_parse_header", staticmethod(parse_spy))
        monkeypatch.setattr(wire, "_place", place_spy)
        for delivered, want in [
            (packets, ["place", "parse"]),
            (packets[:-1], ["place", "parse"]),
            (packets[1:], ["place"]),  # the header is lost: nothing to parse
        ]:
            calls.clear()
            receive(delivered, im.spec, im.patch, cb_occ, cb_int, FillPolicy.empty())
            assert calls == want

    def test_negative_offset_cannot_fill_the_frame_end(self):
        # 4x4 cells at K = 16: a 137-byte frame in packets at 0, 64 and 128.
        # A packet at offset -6 would carry header bytes 115-118 and, sliced
        # from the end, mark frame bytes 131-134 present: 8 cells instead of
        # 16 would count as lost, and decode wrong intensities
        im = random_index_map(np.random.default_rng(26), h=4, w=4, k_occ=16, k_int=16)
        frame = serialize(im, Pose())
        assert frame.total_nbytes == 137
        packets = packetize(frame, 64)
        with pytest.raises(ValueError, match="byte_offset"):
            Packet(frame.frame_id, len(packets), -6, frame.to_bytes()[115:119])
        _, mask = receive_indices(packets[:-1], im)
        assert mask.n_lost == 16

    def test_stray_bytes_rejected_with_the_header_lost(self, setup):
        # without a header the receiver still knows its frame: bytes past it
        # and conflicting duplicates are errors, not ignored
        im, cb_occ, cb_int, fill_occ, fill_int = setup
        frame = serialize(im, Pose())
        packets = packetize(frame, 64)
        last = packets[-1]
        # the frame's last byte, as sent, and one byte past it
        stray = Packet(frame.frame_id, len(packets), frame.total_nbytes - 1,
                       frame.to_bytes()[-1:] + b"\x00")
        flipped = bytes(b ^ 1 for b in last.payload)
        forged = Packet(last.frame_id, last.seq, last.byte_offset, flipped)
        for rogue, message in ((stray, "past the receiver's frame"), (forged, "conflicting")):
            with pytest.raises(FormatError, match=message):
                receive(packets[1:] + [rogue], im.spec, im.patch, cb_occ, cb_int,
                        FillPolicy.empty())


class TestStraddleFixture:
    def test_straddling_cell_lost_on_either_packet_drop(self):
        w, bits, mtu = build_straddle_fixture()
        k = 1 << bits
        rng = np.random.default_rng(12)
        spec = VoxelGridSpec((0, 0, 0), (1, 1, 1), (1, w, 1))
        im = IndexMap(
            rng.integers(k, size=(1, w)),
            rng.integers(k, size=(1, w)),
            k,
            k,
            spec,
            PatchSpec(1, 1),
        )
        frame = serialize(im, Pose())
        packets = packetize(frame, mtu)
        assert len(packets) >= 4
        last = len(packets) - 1

        # drop the final packet: exactly the straddling cell is lost
        _, mask = receive_indices(packets[:-1], im)
        assert mask.n_lost == 1
        assert mask.lost[0, w - 1]

        # drop the second-to-last packet instead: the straddling cell is
        # lost again (its field begins in that packet)
        delivered = packets[: last - 1] + [packets[last]]
        _, mask = receive_indices(delivered, im)
        assert mask.lost[0, w - 1]
        assert mask.n_lost >= 1


class TestCommVolume:
    @pytest.mark.parametrize(
        "k,expected", [(2048, 14.95), (1024, 14.81), (512, 14.66)]
    )
    def test_reference_values(self, k, expected):
        assert comm_volume_log2_bytes(11520, k) == pytest.approx(expected, abs=0.01)

    def test_formula_exact(self):
        # independent arithmetic: log2((2*N*log2(K) + 192) / 8)
        for n, k in [(11520, 2048), (1024, 64), (1, 2)]:
            expected = math.log2((2 * n * math.log2(k) + 6 * 32) / 8)
            assert comm_volume_log2_bytes(n, k) == expected

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            comm_volume_log2_bytes(100, 100)
        with pytest.raises(ValueError):
            comm_volume_log2_bytes(100, 1)
        with pytest.raises(ValueError):
            comm_volume_log2_bytes(0, 8)

    def test_bounded_by_the_header_fields(self):
        # N = h * w with h and w u32, and K a u32: the largest frame is a finite float
        assert comm_volume_log2_bytes((2**32 - 1) ** 2, 2**31) < 70
        for n in ((2**32 - 1) ** 2 + 1, 10**400):
            with pytest.raises(ValueError, match="n_vectors must lie in"):
                comm_volume_log2_bytes(n, 8)
        for k in (2**32, 2**100):
            with pytest.raises(ValueError, match="power of two in"):
                comm_volume_log2_bytes(8, k)

    def test_actual_size_explained_by_header_overhead(self):
        # actual frame bytes == ceil(model payload bytes) + documented header
        # overhead beyond the 6-float pose
        rng = np.random.default_rng(13)
        for k in (16, 256, 2048):
            h, w = 8, 16
            spec = VoxelGridSpec((0, 0, 0), (1, 1, 1), (h, w, 1))
            im = IndexMap(
                rng.integers(k, size=(h, w)),
                rng.integers(k, size=(h, w)),
                k,
                k,
                spec,
                PatchSpec(1, 1),
            )
            frame = serialize(im, Pose())
            model_bits = 2 * h * w * math.log2(k) + 6 * 32
            assert frame.total_nbytes == math.ceil((model_bits - 6 * 32) / 8) + 24 + (
                HEADER_OVERHEAD_BEYOND_POSE
            )
            formula = comm_volume_log2_bytes(h * w, k)
            actual = math.log2(frame.total_nbytes)
            assert actual - formula == pytest.approx(
                math.log2(frame.total_nbytes / (model_bits / 8)), abs=1e-12
            )


class TestFiles:
    def test_frame_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        im = random_index_map(rng)
        frame = serialize(im, Pose(), agent_id=3)
        path = tmp_path / "f.qpfr"
        write_frame(path, frame)
        assert path.read_bytes()[:4] == b"QPFR"
        again = read_frame(path)
        assert again.to_bytes() == frame.to_bytes()

    def test_packet_trace_roundtrip(self, tmp_path):
        rng = np.random.default_rng(15)
        frame = serialize(random_index_map(rng), Pose())
        packets = packetize(frame, 64)
        path = tmp_path / "t.pkts"
        write_packet_trace(path, packets)
        again = read_packet_trace(path)
        assert len(again) == len(packets)
        for a, b in zip(again, packets):
            assert (a.frame_id, a.seq, a.byte_offset, a.payload) == (
                b.frame_id,
                b.seq,
                b.byte_offset,
                b.payload,
            )

    def test_truncated_length_prefix(self, tmp_path):
        frame = serialize(random_index_map(np.random.default_rng(17)), Pose())
        path = tmp_path / "t.pkts"
        write_packet_trace(path, packetize(frame, 64)[:1])
        path.write_bytes(path.read_bytes() + b"\x01\x00")  # half of the next record's length
        with pytest.raises(FormatError, match="truncated packet trace"):
            read_packet_trace(path)

    def test_pose_must_be_finite(self):
        with pytest.raises(ValueError):
            Pose(x=float("nan"))
