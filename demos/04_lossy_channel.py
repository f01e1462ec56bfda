"""Packet loss, cell loss, and what filling buys you.

Runs one scene through the full transmit path at increasing drop rates and
compares reconstruction fidelity under the three fill policies.  Lost latent
cells cover whole voxel blocks, so even moderate packet loss removes visible
chunks of geometry; the fitted constant fill restores the typical structure
(here: the ground plane) and keeps the error curve flat much longer.
"""

import qpcomm as q
from qpcomm.quantizer import QuantizerConfig, train_dual

spec = q.VoxelGridSpec((0, 0, 0), (0.15625, 0.15625, 0.15), (64, 64, 8))
patch = q.PatchSpec(2, 2)
dim = patch.vector_dim(spec)

scenes = [q.generate(q.SceneConfig(seed=s))[0] for s in range(3)]
occ_s, int_s = q.training_vectors(scenes, spec, patch)
cb_occ, cb_int = train_dual(
    occ_s, int_s,
    QuantizerConfig(k=64, dim=dim, seed=1, dead_limit=0),
    QuantizerConfig(k=64, dim=dim, seed=2, dead_limit=0),
)
fill_occ, fill_int = q.fit_fill_vector(occ_s), q.fit_fill_vector(int_s)

policies = {
    "empty": q.FillPolicy.empty(),
    "learned_constant": q.FillPolicy.learned_constant(fill_occ, fill_int),
    "neighbor_copy": q.FillPolicy.neighbor_copy(fill_occ, fill_int),
}
p_values = [0.0, 0.1, 0.2, 0.3, 0.4]

print(f"{'policy':<17}" + "".join(f"  p={p:<6}" for p in p_values))
for name, policy in policies.items():
    row = []
    for p in p_values:
        result = q.sweep(
            scenes, [p], 10, cb_occ, cb_int, spec, patch, policy,
            mtu=128, master_seed=4,
        )
        mean = result.aggregates[0]["mean_chamfer"]
        row.append("  n/a   " if mean is None else f"  {mean:.4f}")
    print(f"{name:<17}" + "".join(row))

print()
print("mean chamfer distance in meters over 3 scenes x 10 seeded trials;")
print(f"voxel diagonal {spec.voxel_diagonal:.3f} m is the lossless-regime bound")
