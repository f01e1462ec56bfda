"""qpcomm: a quantized point-cloud communication codec and lossy-channel
simulator.

Scans become their occupied voxels, placed in flattened patch vectors and
quantized through a pair of trained codebooks into compact index grids.
The indices travel as a bit-packed frame split into packets; a seeded channel
drops packets, lost latent cells are substituted by a fill policy, and the
receiver reconstructs a point cloud whose fidelity and communication volume
are measured.
"""

from .channel import ChannelConfig, ChannelReport, latency_for_volume, transmit
from .codec import (
    DecodeConfig,
    IndexMap,
    decode_voxels,
    encode,
    encode_voxels,
    intensity_mse,
    occupancy_bce,
    occupancy_bce_rows,
    vq_loss,
)
from .geometry import (
    CellRows,
    IntensityGrid,
    OccupancyGrid,
    PatchSpec,
    PointCloud,
    VoxelGridSpec,
    Voxels,
    assemble_grid,
    occupied_voxels,
    patchify,
    threshold_voxels,
    training_vectors,
    voxelize,
)
from .metrics import EvalReport, SweepResult, chamfer, evaluate_roundtrip, sweep
from .pcio import FormatError, read_cloud, read_csv_cloud, read_qpcd, write_qpcd
from .quantizer import (
    Codebook,
    QuantizerConfig,
    nearest,
    quantize,
    read_codebook,
    train_codebook,
    train_dual,
    write_codebook,
)
from .scenegen import Box, SceneConfig, generate
from .seeds import derive_seed
from .tolerance import (
    FillPolicy,
    LossMask,
    confidence_filter,
    expand_to_grid,
    fill,
    fill_rows,
    fit_fill_vector,
    mask_random,
)
from .wire import (
    Frame,
    Packet,
    Pose,
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

__version__ = "0.1.0"
