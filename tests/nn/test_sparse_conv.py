"""Tests for the SparseConv layers, including dense-grid equivalence."""

import itertools

import numpy as np
import pytest

from repro.mapping.kernel_map import kernel_map_mergesort
from repro.nn import (
    SparseConv,
    SparseConvTranspose,
    Trace,
    new_param_rng,
    sparse_conv_apply,
)
from repro.nn.ghost import GhostFeatures
from repro.nn.models.registry import build_trace
from repro.nn.trace import LayerKind
from repro.pointcloud import SparseTensor
from repro.pointcloud.coords import kernel_offsets


def dense_conv3d_reference(grid, weights, kernel_size=3):
    """Direct dense 3D convolution for equivalence testing.

    ``grid``: (X, Y, Z, C_in) dense feature volume; ``weights``:
    (K^3, C_in, C_out) in lexicographic offset order (matching
    kernel_offsets).  'Same' padding, stride 1.
    """
    X, Y, Z, c_in = grid.shape
    c_out = weights.shape[2]
    half = (kernel_size - 1) // 2
    offsets = list(
        itertools.product(range(-half, kernel_size - half), repeat=3)
    )
    out = np.zeros((X, Y, Z, c_out))
    for w_idx, (dx, dy, dz) in enumerate(offsets):
        for x in range(X):
            for y in range(Y):
                for z in range(Z):
                    sx, sy, sz = x + dx, y + dy, z + dz
                    if 0 <= sx < X and 0 <= sy < Y and 0 <= sz < Z:
                        out[x, y, z] += grid[sx, sy, sz] @ weights[w_idx]
    return out


class TestSparseConvApply:
    def test_matches_dense_conv_on_full_grid(self, rng):
        """On a fully-dense grid, sparse conv == regular 3D convolution."""
        shape = (3, 3, 3)
        coords = np.array(
            list(itertools.product(range(3), repeat=3)), dtype=np.int64
        )
        feats = rng.normal(size=(27, 2))
        weights = rng.normal(size=(27, 2, 3))
        maps = kernel_map_mergesort(coords, coords, 3, 1)
        got = sparse_conv_apply(feats, weights, maps, 27)
        grid = np.zeros((*shape, 2))
        grid[tuple(coords.T)] = feats
        expect = dense_conv3d_reference(grid, weights)[tuple(coords.T)]
        assert np.allclose(got, expect)

    def test_matches_dense_conv_on_sparse_grid(self, rng):
        """With holes in the grid, outputs only at occupied sites
        (submanifold) and contributions only from occupied neighbors."""
        all_sites = np.array(
            list(itertools.product(range(4), repeat=3)), dtype=np.int64
        )
        keep = rng.random(len(all_sites)) < 0.3
        keep[0] = True
        coords = all_sites[keep]
        feats = rng.normal(size=(len(coords), 2))
        weights = rng.normal(size=(27, 2, 2))
        maps = kernel_map_mergesort(coords, coords, 3, 1)
        got = sparse_conv_apply(feats, weights, maps, len(coords))
        grid = np.zeros((4, 4, 4, 2))
        grid[tuple(coords.T)] = feats
        expect = dense_conv3d_reference(grid, weights)[tuple(coords.T)]
        assert np.allclose(got, expect)

    def test_identity_kernel(self, rng):
        coords = rng.integers(0, 5, size=(30, 3))
        from repro.pointcloud.coords import unique_coords

        coords, _ = unique_coords(coords)
        feats = rng.normal(size=(len(coords), 4))
        weights = np.zeros((27, 4, 4))
        weights[13] = np.eye(4)  # center offset only
        maps = kernel_map_mergesort(coords, coords, 3, 1)
        out = sparse_conv_apply(feats, weights, maps, len(coords))
        assert np.allclose(out, feats)

    def test_weight_shape_validation(self, rng):
        maps = kernel_map_mergesort(
            np.array([[0, 0, 0]]), np.array([[0, 0, 0]]), 3, 1
        )
        with pytest.raises(ValueError):
            sparse_conv_apply(np.zeros((1, 2)), np.zeros((2, 2)), maps, 1)


class TestSparseConvLayer:
    def test_submanifold_preserves_coords(self, voxel_tensor):
        conv = SparseConv(8, 16, 3, 1)
        out = conv(voxel_tensor)
        assert np.array_equal(out.coords, voxel_tensor.coords)
        assert out.channels == 16

    def test_strided_downsamples(self, voxel_tensor):
        conv = SparseConv(8, 16, 2, 2)
        out = conv(voxel_tensor)
        assert out.tensor_stride == 2
        assert out.n < voxel_tensor.n

    def test_trace_records_full_pipeline(self, voxel_tensor):
        conv = SparseConv(8, 16, 2, 2, name="down")
        trace = Trace()
        conv(voxel_tensor, trace)
        kinds = [s.kind for s in trace.specs]
        assert kinds == [
            LayerKind.MAP_QUANT,
            LayerKind.MAP_KERNEL,
            LayerKind.GATHER,
            LayerKind.SPARSE_CONV,
            LayerKind.SCATTER,
        ]
        conv_spec = trace.specs[3]
        assert conv_spec.n_maps > 0
        assert conv_spec.params["maps"].n_maps == conv_spec.n_maps

    def test_map_cache_hit_flagged(self, voxel_tensor):
        conv1 = SparseConv(8, 8, 3, 1, name="a")
        conv2 = SparseConv(8, 8, 3, 1, name="b")
        cache = {}
        trace = Trace()
        out = conv1(voxel_tensor, trace, cache)
        conv2(out, trace, cache)
        kmaps = trace.by_kind(LayerKind.MAP_KERNEL)
        assert kmaps[0].params["cached"] is False
        assert kmaps[1].params["cached"] is True

    def test_map_cache_tells_apart_clouds_with_equal_fingerprints(self):
        """Two clouds agreeing on point count, stride and coordinate sum
        must not share maps: the second needs its own weights 10/16."""
        conv = SparseConv(1, 1, 3, 1)
        first = SparseTensor(np.array([[0, 0, 0], [0, 0, 1]]), np.ones((2, 1)))
        second = SparseTensor(np.array([[0, 0, 0], [0, 1, 0]]), np.ones((2, 1)))
        cache = {}
        trace = Trace()
        conv(first, trace, cache)
        conv(second, trace, cache)
        first_maps, second_maps = (
            s.params["maps"] for s in trace.by_kind(LayerKind.SPARSE_CONV)
        )
        assert set(first_maps.weight_idx.tolist()) == {12, 13, 14}
        assert set(second_maps.weight_idx.tolist()) == {10, 13, 16}
        assert second_maps.as_set() == kernel_map_mergesort(
            second.coords, second.coords, 3, 1
        ).as_set()
        assert [s.params["cached"] for s in trace.by_kind(LayerKind.MAP_KERNEL)] == [
            False, False
        ]

    def test_channel_mismatch_raises(self, voxel_tensor):
        with pytest.raises(ValueError):
            SparseConv(4, 8)(voxel_tensor)

    def test_weightless_layer_runs_ghosts_and_refuses_real_features(
        self, voxel_tensor
    ):
        conv = SparseConv(8, 16, 3, 2, new_param_rng(0, weightless=True),
                          name="enc1.down")
        full = SparseConv(8, 16, 3, 2, new_param_rng(0), name="enc1.down")
        ghost_in = voxel_tensor.with_features(GhostFeatures(voxel_tensor.n, 8))
        ghost_trace, full_trace = Trace(), Trace()
        out = conv(ghost_in, ghost_trace)
        want = full(voxel_tensor, full_trace)
        assert out.features.shape == want.features.shape
        assert ghost_trace.specs == full_trace.specs
        with pytest.raises(ValueError, match=r"enc1\.down: a weightless layer"):
            conv(voxel_tensor)

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            SparseConv(4, 8, 3, 3)


class TestSparseConvTranspose:
    def test_upsample_to_skip_cloud(self, voxel_tensor):
        down = SparseConv(8, 16, 2, 2)
        coarse = down(voxel_tensor)
        up = SparseConvTranspose(16, 8, 2)
        fine = up(coarse, voxel_tensor)
        assert np.array_equal(fine.coords, voxel_tensor.coords)
        assert fine.tensor_stride == voxel_tensor.tensor_stride
        assert fine.channels == 8

    def test_transpose_maps_mirror_forward_maps(self, voxel_tensor):
        """The up-conv map set is the transpose of the down-conv map set."""
        down = SparseConv(8, 8, 2, 2)
        coarse = down(voxel_tensor)
        fwd = down.build_maps(voxel_tensor, coarse)
        up = SparseConvTranspose(8, 8, 2)
        bwd = up.build_maps(coarse, voxel_tensor)
        fwd_pairs = set(zip(fwd.in_idx.tolist(), fwd.out_idx.tolist()))
        bwd_pairs = set(zip(bwd.out_idx.tolist(), bwd.in_idx.tolist()))
        assert fwd_pairs == bwd_pairs

    def test_every_fine_point_covered(self, voxel_tensor):
        """Generative transpose: every fine voxel receives its coarse parent."""
        down = SparseConv(8, 8, 2, 2)
        coarse = down(voxel_tensor)
        up = SparseConvTranspose(8, 8, 2)
        maps = up.build_maps(coarse, voxel_tensor)
        assert set(maps.out_idx.tolist()) == set(range(voxel_tensor.n))

    def test_requires_finer_output(self, voxel_tensor):
        up = SparseConvTranspose(8, 8, 2)
        with pytest.raises(ValueError):
            up.build_maps(voxel_tensor, voxel_tensor.downsample(2))

    def test_same_stride_never_borrows_a_submanifold_map(self, voxel_tensor):
        """With a same-stride conv's maps in the cache, a same-stride
        transpose still fails instead of swapping those maps."""
        cache = {}
        SparseConv(8, 8, 2, 1)(voxel_tensor, None, cache)
        with pytest.raises(ValueError):
            SparseConvTranspose(8, 8, 2)(voxel_tensor, voxel_tensor, None, cache)

    @pytest.mark.parametrize("ksize", [2, 3])
    @pytest.mark.parametrize("levels", [1, 2])
    def test_maps_taken_from_strided_twin_are_row_identical(
        self, voxel_tensor, ksize, levels
    ):
        cache = {}
        fine = voxel_tensor
        for _ in range(levels - 1):
            fine = SparseConv(8, 8, 2, 2)(fine, None, cache)
        trace = Trace()
        coarse = SparseConv(8, 8, ksize, 2)(fine, trace, cache)
        SparseConvTranspose(8, 8, ksize)(coarse, fine, trace, cache)
        down_maps, up_maps = (
            s.params["maps"] for s in trace.by_kind(LayerKind.SPARSE_CONV)
        )
        want = kernel_map_mergesort(
            coarse.coords, fine.coords,
            offsets=-kernel_offsets(ksize) * fine.tensor_stride,
        )
        assert np.array_equal(up_maps.in_idx, want.in_idx)
        assert np.array_equal(up_maps.out_idx, want.out_idx)
        assert np.array_equal(up_maps.weight_idx, want.weight_idx)
        assert up_maps.kernel_volume == want.kernel_volume
        # Taken from the twin, not recomputed; still modelled as computed.
        assert np.shares_memory(up_maps.in_idx, down_maps.out_idx)
        up_kmap = trace.by_kind(LayerKind.MAP_KERNEL)[-1]
        assert up_kmap.params["cached"] is False

    def test_minknet_decoder_upsamples_record_computed_maps(self):
        trace = build_trace("MinkNet(o)", scale=0.1, seed=0)
        ups = [s for s in trace.by_kind(LayerKind.MAP_KERNEL)
               if s.name.startswith("dec") and s.name.endswith(".up.kmap")]
        assert len(ups) == 4
        assert all(s.params["cached"] is False for s in ups)
