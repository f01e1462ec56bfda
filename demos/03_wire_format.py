"""The wire format, bit for bit.

Serializes an index map into a frame, compares the actual byte count against
the communication-volume formula, splits the frame into packets, and shows
what ``receive`` rebuilds from them, in any order and with a packet lost.
Also prints the reference-configuration numbers (11520 latent cells, dual
codebooks of size 2048/1024/512).
"""

import math

import numpy as np

import qpcomm as q
from qpcomm.wire import HEADER_LEN, HEADER_OVERHEAD_BEYOND_POSE

rng = np.random.default_rng(3)

# reference configuration: 80 x 144 latent cells, K = 2048 -> 11 bits/index
spec = q.VoxelGridSpec((0, 0, 0), (0.15625, 0.15625, 0.15), (640, 1152, 16))
patch = q.PatchSpec(8, 8)
im = q.IndexMap(
    rng.integers(2048, size=(80, 144)), rng.integers(2048, size=(80, 144)),
    2048, 2048, spec, patch,
)
frame = q.serialize(im, q.Pose(x=1.5, yaw=0.3), agent_id=2, frame_id=17)
print(f"header: {HEADER_LEN} bytes ({HEADER_OVERHEAD_BEYOND_POSE} beyond the 6-float pose)")
print(f"payload: {len(frame.payload)} bytes for {im.n_cells} cells x 2 streams x 11 bits")
print(f"frame:  {frame.total_nbytes} bytes total")

for k in (2048, 1024, 512):
    print(f"volume formula, K={k:>4}: {q.comm_volume_log2_bytes(11520, k):.2f} log2(bytes)")
print(f"actual frame:        {math.log2(frame.total_nbytes):.2f} log2(bytes)")

bandwidth = 1e6 / 0.1  # 1 MB per 100 ms
ms = q.latency_for_volume(frame.total_nbytes, bandwidth) * 1e3
print(f"transfer time at 1 MB/100 ms: {ms:.2f} ms per frame")

im_back, mask = q.deserialize(q.Frame.from_bytes(frame.to_bytes()))
print("index map roundtrip:", im_back == im, "| lost cells:", mask.n_lost)

packets = q.packetize(frame, mtu=1200)
print(f"packetize: {len(packets)} packets of <= 1200 bytes")
# the receiver shares the grid, patch and codebooks (random ones stand in
# for trained codebooks here), so it knows the frame length before any packet
dim = patch.vector_dim(spec)
cb_occ = q.Codebook.from_entries(rng.random((2048, dim)))
cb_int = q.Codebook.from_entries(rng.random((2048, dim)))
receiver = (spec, patch, cb_occ, cb_int, q.FillPolicy.empty())
# each stream arrives as CellRows: (h, w) row ids into the codebook's entries
# plus one fill row, so cell (i, j)'s vector is table[ids[i, j]]
occ, inten, mask = q.receive(packets[::-1], *receiver)
exact = (occ.vectors() == cb_occ.entries[im.occ_indices]).all() and (
    inten.vectors() == cb_int.entries[im.int_indices]
).all()
print("received in reverse order: code vectors exact:", exact, "| lost cells:", mask.n_lost)
_, _, mask = q.receive(packets[:-1], *receiver)
print(f"last packet dropped: {mask.n_lost} of {im.n_cells} cells lost")
