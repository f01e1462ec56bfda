import math
import struct

import numpy as np
import pytest
from helpers import build_straddle_fixture
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qpcomm import wire
from qpcomm.codec import IndexMap
from qpcomm.geometry import PatchSpec, VoxelGridSpec
from qpcomm.pcio import FormatError
from qpcomm.quantizer import KIND_INT, Codebook
from qpcomm.tolerance import FillPolicy
from qpcomm.wire import (
    HEADER_LEN,
    HEADER_OVERHEAD_BEYOND_POSE,
    Frame,
    IncompleteFrameError,
    Packet,
    Pose,
    bits_for,
    comm_volume_log2_bytes,
    deserialize,
    packetize,
    read_frame,
    read_packet_trace,
    reassemble,
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
        frame = serialize(random_index_map(rng, h=2, w=2), Pose())
        blob = bytearray(frame.to_bytes())
        struct.pack_into("<I", blob, offset, value)
        with pytest.raises(FormatError, match="bad frame header"):
            Frame.from_bytes(bytes(blob))
        packets = packetize(frame, 64)
        packets[0] = Packet(frame.frame_id, 0, 0, bytes(blob[:64]))
        with pytest.raises(FormatError, match="bad frame header"):
            reassemble(packets)

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
        again, missing = reassemble(packets)
        assert again.to_bytes() == frame.to_bytes()
        assert not missing.any()

    def test_mtu_too_small(self):
        rng = np.random.default_rng(8)
        frame = serialize(random_index_map(rng), Pose())
        with pytest.raises(ValueError):
            packetize(frame, 63)

    def test_seq_limit(self):
        with pytest.raises(ValueError):
            Packet(0, 1 << 16, 0, b"")


class TestLossMapping:
    def test_all_payload_packets_lost(self):
        rng = np.random.default_rng(9)
        im = random_index_map(rng, h=4, w=4, k_occ=256, k_int=256)
        frame = serialize(im, Pose())
        packets = packetize(frame, 128)
        # keep only packets that cover the header
        kept = [p for p in packets if p.byte_offset < HEADER_LEN]
        assert all(p.byte_offset + len(p.payload) <= HEADER_LEN + 128 for p in kept)
        again, missing = reassemble(kept)
        _, mask = deserialize(again, missing)
        assert mask.n_lost == mask.lost.size  # every cell touches a lost byte?

    def test_no_packets_raises(self):
        with pytest.raises(IncompleteFrameError):
            reassemble([])

    def test_header_loss_raises(self):
        rng = np.random.default_rng(10)
        im = random_index_map(rng, h=3, w=3, k_occ=64, k_int=64)
        frame = serialize(im, Pose())
        packets = packetize(frame, 64)
        again_ok, _ = reassemble(packets)
        assert again_ok.to_bytes() == frame.to_bytes()
        with pytest.raises(IncompleteFrameError):
            reassemble(packets[1:])

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
            again, missing = reassemble(delivered)
            back, mask = deserialize(again, missing)
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
    """Any delivery of a frame's packets yields the exact frame, the
    byte-overlap loss mask, or a typed error -- never a silent wrong frame."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), seed=seeds, mtu=mtus, mtu2=mtus)
    def test_subsets_permutations_and_identical_duplicates(self, data, seed, mtu, mtu2):
        rng = np.random.default_rng(seed)
        im = random_index_map(rng, h=int(rng.integers(1, 10)), w=int(rng.integers(1, 10)))
        frame = serialize(im, Pose(), frame_id=int(rng.integers(2**32)))
        blob = np.frombuffer(frame.to_bytes(), dtype=np.uint8)
        # two packetizations: duplicates may cover overlapping, shifted ranges
        pool = packetize(frame, mtu) + packetize(frame, mtu2)
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=3 * len(pool)))
        delivered = [pool[i] for i in picks]
        covered = np.zeros(blob.size, dtype=bool)
        for p in delivered:
            covered[p.byte_offset : p.byte_offset + len(p.payload)] = True

        if not covered[:HEADER_LEN].all():
            with pytest.raises(IncompleteFrameError):
                reassemble(delivered)
            return
        again, missing = reassemble(delivered)
        np.testing.assert_array_equal(missing, ~covered)
        got = np.frombuffer(again.to_bytes(), dtype=np.uint8)
        np.testing.assert_array_equal(got[covered], blob[covered])
        assert not got[~covered].any()
        back, mask = deserialize(again, missing)
        np.testing.assert_array_equal(mask.lost.ravel(), byte_overlap_lost(im, missing))
        ok = ~mask.lost
        np.testing.assert_array_equal(back.occ_indices[ok], im.occ_indices[ok])
        np.testing.assert_array_equal(back.int_indices[ok], im.int_indices[ok])
        if covered.all():
            assert back == im and again.frame_id == frame.frame_id

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=seeds, mtu=mtus, ids=st.tuples(seeds, seeds))
    def test_mixed_frames_rejected(self, data, seed, mtu, ids):
        assume(ids[0] != ids[1])
        rng = np.random.default_rng(seed)
        a = packetize(serialize(random_index_map(rng), Pose(), frame_id=ids[0]), mtu)
        b = packetize(serialize(random_index_map(rng), Pose(x=1.0), frame_id=ids[1]), mtu)
        mixed = data.draw(st.lists(st.sampled_from(a), min_size=1)) + data.draw(
            st.lists(st.sampled_from(b), min_size=1)
        )
        with pytest.raises(FormatError) as excinfo:
            reassemble(data.draw(st.permutations(mixed)))
        assert excinfo.type is FormatError

    def test_header_of_one_frame_with_payload_of_another_rejected(self):
        rng = np.random.default_rng(16)
        ims = [random_index_map(rng, h=4, w=4, k_occ=64, k_int=64) for _ in range(2)]
        first = packetize(serialize(ims[0], Pose(), frame_id=1), 64)
        second = packetize(serialize(ims[1], Pose(x=5.0), frame_id=2), 64)
        with pytest.raises(FormatError):
            reassemble(first[:1] + second[1:])

    def test_packet_frame_id_must_match_header(self):
        rng = np.random.default_rng(17)
        frame = serialize(random_index_map(rng), Pose(), frame_id=5)
        relabeled = [Packet(6, p.seq, p.byte_offset, p.payload) for p in packetize(frame, 64)]
        with pytest.raises(FormatError):
            reassemble(relabeled)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), seed=seeds, mtu=mtus)
    def test_conflicting_duplicate_rejected(self, data, seed, mtu):
        rng = np.random.default_rng(seed)
        packets = packetize(serialize(random_index_map(rng), Pose()), mtu)
        p = data.draw(st.sampled_from(packets))
        payload = bytearray(p.payload)
        payload[data.draw(st.integers(0, len(payload) - 1))] ^= data.draw(st.integers(1, 255))
        forged = Packet(p.frame_id, p.seq, p.byte_offset, bytes(payload))
        with pytest.raises(FormatError) as excinfo:
            reassemble(data.draw(st.permutations(packets + [forged])))
        assert excinfo.type is FormatError

    @pytest.mark.parametrize("offset", [2**63, 2**64 - 1])
    def test_huge_offset_rejected_without_allocating(self, offset, tmp_path):
        rng = np.random.default_rng(18)
        frame = serialize(random_index_map(rng), Pose())
        packets = packetize(frame, 64)
        rogue = Packet(frame.frame_id, len(packets), offset, b"\x01")
        with pytest.raises(FormatError):
            reassemble(packets + [rogue])
        path = tmp_path / "t.pkts"
        write_packet_trace(path, [rogue] + packets)
        with pytest.raises(FormatError):
            reassemble(read_packet_trace(path))

    def test_packet_past_declared_length_rejected(self):
        rng = np.random.default_rng(19)
        frame = serialize(random_index_map(rng), Pose())
        packets = packetize(frame, 64)
        extra = Packet(frame.frame_id, len(packets), frame.total_nbytes, b"\x00")
        with pytest.raises(FormatError):
            reassemble(packets + [extra])


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
        occ_vec, int_vec, mask = receive(
            packets[::-1], im.spec, im.patch, cb_occ, cb_int, FillPolicy.empty()
        )
        assert mask.n_lost == 0
        np.testing.assert_array_equal(occ_vec, cb_occ.entries[im.occ_indices])
        np.testing.assert_array_equal(int_vec, cb_int.entries[im.int_indices])

    @pytest.mark.parametrize("policy", ["empty", "learned_constant", "neighbor_copy"])
    def test_header_loss_fills_every_cell(self, setup, policy):
        im, cb_occ, cb_int, fill_occ, fill_int = setup
        packets = packetize(serialize(im, Pose()), 64)
        fp = FillPolicy(policy, fill_occ, fill_int)
        for delivered in ([], packets[1:]):
            occ_vec, int_vec, mask = receive(delivered, im.spec, im.patch, cb_occ, cb_int, fp)
            assert mask.lost.shape == (im.h, im.w) and mask.lost.all()
            want_occ, want_int = (
                (np.zeros_like(fill_occ), np.zeros_like(fill_int))
                if policy == "empty"
                else (fill_occ, fill_int)
            )
            np.testing.assert_array_equal(occ_vec, np.broadcast_to(want_occ, occ_vec.shape))
            np.testing.assert_array_equal(int_vec, np.broadcast_to(want_int, int_vec.shape))

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
        header = Frame(0, 0, cb_occ.k, cb_int.k, 1000, 1000, big, im.patch, Pose(), b"")
        sizes = []
        place = wire._place

        def spy(packets, nbytes):
            sizes.append(nbytes)
            return place(packets, nbytes)

        monkeypatch.setattr(wire, "_place", spy)
        with pytest.raises(FormatError, match="disagrees"):
            receive(packetize(header, 64), im.spec, im.patch, cb_occ, cb_int,
                    FillPolicy.empty())
        assert sizes and max(sizes) <= HEADER_LEN

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
            (packets, ["place", "parse", "place"]),
            (packets[:-1], ["place", "parse", "place"]),
            (packets[1:], ["place"]),  # the header is lost: nothing to parse
        ]:
            calls.clear()
            receive(delivered, im.spec, im.patch, cb_occ, cb_int, FillPolicy.empty())
            assert calls == want


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
        again, missing = reassemble(packets[:-1])
        _, mask = deserialize(again, missing)
        assert mask.n_lost == 1
        assert mask.lost[0, w - 1]

        # drop the second-to-last packet instead: the straddling cell is
        # lost again (its field begins in that packet)
        delivered = packets[: last - 1] + [packets[last]]
        again, missing = reassemble(delivered)
        _, mask = deserialize(again, missing)
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

    def test_pose_must_be_finite(self):
        with pytest.raises(ValueError):
            Pose(x=float("nan"))
