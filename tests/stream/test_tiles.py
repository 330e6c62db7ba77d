"""Grid primitives every stream frame is mapped with.

Frames are served whole: voxelize groups a frame's points into grid cells
and kernel maps join each cell to the cells within the kernel's reach.
These tests pin those primitives: cell coordinates and grouping,
neighbourhood completeness against an exhaustive oracle, kernel offsets
and ranking keys — including the degenerate shapes (one point, one cell,
empty query sets).  (The module and class names are historical: the tile
front they once tested is gone, and the test ids are kept.)
"""

import numpy as np
import pytest

from repro.mapping.kernel_map import kernel_map
from repro.pointcloud.coords import (
    coords_to_keys,
    kernel_offsets,
    keys_to_coords,
    lexicographic_sort,
    quantize,
    quantize_unique,
    voxelize,
)


@pytest.fixture
def cloud(rng):
    return rng.uniform(-10, 10, size=(400, 3))


def _triples(table):
    return set(zip(table.in_idx.tolist(), table.out_idx.tolist(),
                   table.weight_idx.tolist()))


def _chebyshev_pairs(coords, reach=1):
    """Exhaustive oracle: every (in, out) cell pair within ``reach``."""
    gap = np.abs(coords[:, None, :] - coords[None, :, :]).max(axis=2)
    ins, outs = np.nonzero(gap <= reach)
    return set(zip(ins.tolist(), outs.tolist()))


class TestTileCoords:
    """Cell coordinates: floats floor into voxels, integer coordinates
    floor-divide into coarser cells."""

    def test_float_floor(self):
        pts = np.array([[0.1, -0.1, 3.9], [4.0, 7.99, -8.0]])
        coords, inverse = voxelize(pts, 4.0)
        assert coords[inverse].tolist() == [[0, -1, 0], [1, 1, -2]]

    def test_integer_floor_divide(self):
        coords = np.array([[0, -1, 15], [16, 31, -16]])
        assert quantize(coords, 16).tolist() == [[0, -16, 0], [16, 16, -16]]
        out, inverse = quantize_unique(coords, 16)
        assert out[inverse].tolist() == [[0, -16, 0], [16, 16, -16]]

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            voxelize(np.zeros(5), 1.0)
        with pytest.raises(ValueError):
            quantize(np.zeros(5, dtype=np.int64), 2)


class TestPartition:
    """Grouping a frame's points by cell (voxelize's inverse map)."""

    def test_partition_covers_every_point_once(self, cloud):
        coords, inverse = voxelize(cloud, 4.0)
        assert len(inverse) == len(cloud)
        counts = np.bincount(inverse, minlength=len(coords))
        assert len(counts) == len(coords) and counts.min() >= 1
        assert coords[inverse].tolist() == np.floor(cloud / 4.0).tolist()

    def test_indices_keep_original_order_within_tile(self, cloud, rng):
        """Cells come out in ranking-key order whatever the point order,
        and each point's cell follows it through a shuffle."""
        coords, inverse = voxelize(cloud, 4.0)
        assert np.all(np.diff(coords_to_keys(coords)) > 0)
        perm = rng.permutation(len(cloud))
        shuffled_coords, shuffled_inverse = voxelize(cloud[perm], 4.0)
        assert np.array_equal(shuffled_coords, coords)
        assert np.array_equal(shuffled_inverse, inverse[perm])

    def test_unoccupied_tile_is_empty(self, cloud):
        coords, inverse = voxelize(cloud, 4.0)
        far = coords_to_keys(np.array([[500, 500, 500]]))[0]
        assert far not in set(coords_to_keys(coords).tolist())
        assert not np.any(np.all(coords[inverse] == 500, axis=1))

    def test_unchanged_tiles_digest_equal_across_frames(self, rng):
        """Points entering/leaving one region change no other cell's
        points."""
        frame0 = rng.uniform(0, 40, size=(600, 3))
        extra = rng.uniform(0, 4, size=(30, 3))  # churn confined to one cell
        keep = ~np.all((frame0 >= 0) & (frame0 < 4), axis=1)
        frame1 = np.concatenate([frame0[keep], extra])
        c0, inv0 = voxelize(frame0, 4.0)
        c1, inv1 = voxelize(frame1, 4.0)
        k0 = {k: i for i, k in enumerate(coords_to_keys(c0).tolist())}
        k1 = {k: i for i, k in enumerate(coords_to_keys(c1).tolist())}
        churn = int(coords_to_keys(np.array([[0, 0, 0]]))[0])
        shared = set(k0) & set(k1) - {churn}
        assert shared  # the scenario is non-trivial
        for key in shared:
            members0 = frame0[inv0 == k0[key]]
            members1 = frame1[inv1 == k1[key]]
            assert np.array_equal(members0, members1)


class TestNeighborhood:
    """Kernel-map neighbourhoods: every cell within the kernel's reach,
    nothing else."""

    def test_halo_indices_ascending_and_complete(self, cloud):
        coords, _ = voxelize(cloud, 4.0)
        table = kernel_map(coords, coords, kernel_size=3)
        assert np.all(np.diff(table.weight_idx) >= 0)
        for w in range(table.kernel_volume):
            assert np.all(np.diff(table.out_idx[table.weight_idx == w]) > 0)
        for out in range(5):
            got = table.in_idx[table.out_idx == out]
            inside = np.all(np.abs(coords - coords[out]) <= 1, axis=1)
            assert sorted(got.tolist()) == np.flatnonzero(inside).tolist()

    def test_halo_zero_is_own_tile(self, cloud):
        coords, _ = voxelize(cloud, 4.0)
        table = kernel_map(coords, coords, kernel_size=1)
        assert np.array_equal(table.in_idx, np.arange(len(coords)))
        assert np.array_equal(table.out_idx, np.arange(len(coords)))

    def test_neighborhood_digest_covers_every_constituent(self, rng):
        pts = rng.uniform(0, 12, size=(300, 3))
        coords, _ = voxelize(pts, 4.0)
        # Moving any one cell -- here the last -- must change the maps.
        moved = coords.copy()
        moved[-1] += 5
        assert _triples(kernel_map(coords, coords)) != _triples(
            kernel_map(moved, moved))

    def test_canonical_concat_matches_halo_set(self, cloud):
        coords, _ = voxelize(cloud, 4.0)
        table = kernel_map(coords, coords, kernel_size=3)
        pairs = set(zip(table.in_idx.tolist(), table.out_idx.tolist()))
        assert len(pairs) == len(table.in_idx)  # no duplicate maps
        assert pairs == _chebyshev_pairs(coords)


class TestHaloBox:
    def test_counts(self):
        assert len(kernel_offsets(1, 3)) == 1
        assert len(kernel_offsets(3, 3)) == 27
        assert len(kernel_offsets(5, 2)) == 25
        assert set(kernel_offsets(3, 3).ravel().tolist()) == {-1, 0, 1}

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            kernel_offsets(-1, 3)
        with pytest.raises(ValueError):
            kernel_offsets(0, 3)


class TestBatchedPasses:
    def test_digest_all_matches_per_key_digests(self, cloud):
        """Packing every cell at once equals packing each cell alone, and
        unpacking round-trips."""
        coords, _ = voxelize(cloud, 4.0)
        keys = coords_to_keys(coords)
        assert len(keys) == len(coords)
        for row, key in zip(coords, keys):
            assert coords_to_keys(row[None, :])[0] == key
        assert np.array_equal(keys_to_coords(keys, 3), coords)
        assert np.array_equal(lexicographic_sort(coords), coords)



class TestVectorizedAssembly:
    """Kernel maps over whole cell sets equal the exhaustive oracle —
    including every degenerate shape."""

    def test_fill_neighborhoods_matches_oracle_canonicals(self, cloud):
        coords, _ = voxelize(cloud, 4.0)
        oracle = _triples(kernel_map(coords, coords, algorithm="bruteforce"))
        for algorithm in ("mergesort", "hash"):
            assert _triples(kernel_map(coords, coords,
                                       algorithm=algorithm)) == oracle

    def test_single_point_tile(self):
        coords, inverse = voxelize(np.array([[1.0, 1.0, 1.0]]), 4.0)
        assert coords.tolist() == [[0, 0, 0]] and inverse.tolist() == [0]
        table = kernel_map(coords, coords, kernel_size=3)
        assert table.in_idx.tolist() == [0] and table.out_idx.tolist() == [0]
        assert table.weight_idx.tolist() == [13]  # the centre offset

    def test_one_tile_world(self, rng):
        pts = rng.uniform(0, 8, (64, 3))
        coords, inverse = voxelize(pts, 64.0)
        assert coords.tolist() == [[0, 0, 0]]
        assert np.all(inverse == 0)
        out, out_inverse = quantize_unique(rng.integers(0, 8, (64, 3)), 64)
        assert out.tolist() == [[0, 0, 0]] and np.all(out_inverse == 0)

    def test_absent_query_key_yields_empty_run(self, rng):
        coords, _ = quantize_unique(rng.integers(0, 16, (100, 3)), 1)
        absent = np.array([[40, 40, 40]])
        for algorithm in ("mergesort", "hash", "bruteforce"):
            table = kernel_map(coords, absent, algorithm=algorithm)
            assert len(table.in_idx) == 0

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_both_coord_dtypes(self, rng, dtype):
        coords, _ = quantize_unique(rng.integers(0, 64, (500, 3)), 1)
        typed = coords.astype(dtype)
        oracle = _triples(kernel_map(coords, coords, algorithm="bruteforce"))
        for algorithm in ("mergesort", "hash"):
            assert _triples(kernel_map(typed, typed,
                                       algorithm=algorithm)) == oracle

    def test_empty_query_set(self, rng):
        coords, _ = quantize_unique(rng.integers(0, 32, (100, 3)), 1)
        empty = np.empty((0, 3), dtype=np.int64)
        table = kernel_map(coords, empty)
        assert len(table.in_idx) == 0 and table.kernel_volume == 27
