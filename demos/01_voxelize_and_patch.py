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

# the dense inverse: the vectors reassemble into the occupancy grid
print("assembled grid exact:", np.array_equal(q.assemble_grid(occ_vec, patch, spec), occupancy.data))

# the receiver's inverse reads each cell's vector as a row of a table (here one
# row per cell): a voxel is occupied where its entry is at least 0.5 and takes
# its entry of the intensity vectors.  The result is the cloud's occupied
# voxels, the sparse form of the grids above
cells = np.arange(h * w).reshape(h, w)
back = q.threshold_voxels(q.CellRows(cells, occ_vec.reshape(-1, dim)),
                          q.CellRows(cells, int_vec.reshape(-1, dim)), patch, spec)
truth = q.occupied_voxels(cloud, spec)
print("roundtrip exact:",
      np.array_equal(back.ids, truth.ids) and np.array_equal(back.means, truth.means))
