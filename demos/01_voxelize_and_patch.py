"""From raw points to patch vectors and back.

Generates a synthetic scene, discretizes it onto a voxel grid, cuts the grid
into flattened patch vectors (the unit that later gets quantized), and shows
that the patch decomposition is exactly invertible.
"""

import numpy as np

import qpcomm as q

spec = q.VoxelGridSpec(origin=(0, 0, 0), cell=(0.15625, 0.15625, 0.15), dims=(64, 64, 8))
patch = q.PatchSpec(2, 2)

cloud, boxes = q.generate(q.SceneConfig(seed=42, n_vehicles=4))
print(f"scene: {len(cloud)} points, {len(boxes)} vehicles")
print(f"grid:  {spec.dims} voxels of {spec.cell} m, diagonal {spec.voxel_diagonal:.3f} m")

occupancy, intensity, dropped = q.voxelize(cloud, spec)
print(f"voxelize: {occupancy.n_occupied} occupied voxels, {dropped} points out of range")
print(f"mean occupied intensity: {intensity.data[occupancy.data > 0].mean():.3f}")

occ_vec, int_vec = q.patchify(occupancy, intensity, patch)
h, w = patch.latent_shape(spec)
dim = patch.vector_dim(spec)
print(f"patchify: {h}x{w} latent cells, vector dimension {dim}")

distinct = np.unique(occ_vec.reshape(-1, dim), axis=0).shape[0]
print(f"distinct occupancy patterns in this scene: {distinct} of {h * w} cells")

# the receiver's inverse: reassemble each stream's grid, then threshold occupancy
# at 0.5 and zero the intensity of unoccupied voxels
occ_back, int_back = q.threshold_grids(
    q.assemble_grid(occ_vec, patch, spec), q.assemble_grid(int_vec, patch, spec), spec
)
print("roundtrip exact:",
      np.array_equal(occ_back.data, occupancy.data)
      and np.array_equal(int_back.data, intensity.data))
