"""Training the dual codebooks.

Fits an occupancy codebook and an intensity codebook to the patch vectors of
a few scenes, inspects the training trace and code usage, evaluates the
quantization loss terms, and shows the codebook file roundtrip.
"""

import tempfile
from pathlib import Path

import numpy as np

import qpcomm as q
from qpcomm.quantizer import QuantizerConfig, train_dual

spec = q.VoxelGridSpec((0, 0, 0), (0.15625, 0.15625, 0.15), (64, 64, 8))
patch = q.PatchSpec(2, 2)
dim = patch.vector_dim(spec)

clouds = [q.generate(q.SceneConfig(seed=seed))[0] for seed in range(4)]
occ_samples, int_samples = q.training_vectors(clouds, spec, patch)
print(f"training on {occ_samples.shape[0]} patch vectors of dimension {dim}")

cfg = dict(k=64, dim=dim, dead_limit=0)
cb_occ, cb_int = train_dual(
    occ_samples, int_samples,
    QuantizerConfig(seed=1, **cfg), QuantizerConfig(seed=2, **cfg),
)
for cb, name in ((cb_occ, "occupancy"), (cb_int, "intensity")):
    errs = cb.trace.errors
    print(
        f"{name}: {len(errs) - 1} passes, error {errs[0]:.4f} -> {errs[-1]:.4f}, "
        f"{int((cb.usage > 0).sum())}/{cb.k} codes in use"
    )

occupancy, intensity, _ = q.voxelize(q.generate(q.SceneConfig(seed=9))[0], spec)
terms = q.vq_loss(occupancy, cb_occ, patch)
print(
    f"held-out scene occupancy loss terms: reconstruction {terms.reconstruction_term:.4f}, "
    f"codebook {terms.codebook_term:.4f}, commitment {terms.commitment_term:.4f}"
)

fill = q.fit_fill_vector(occ_samples)
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "occ.qpcb"
    q.write_codebook(path, cb_occ, fill=fill)
    loaded, fill_back = q.read_codebook(path)
    # QPCB stores entries as float32
    same = np.array_equal(loaded.entries, cb_occ.entries.astype(np.float32))
    print(
        f"file roundtrip: {path.stat().st_size} bytes, entries equal as float32 "
        f"{same}, fill block {fill_back is not None}"
    )
