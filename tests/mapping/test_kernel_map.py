"""Tests for the three kernel-mapping algorithms (paper Fig. 9)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.mapping import (
    kernel_map,
    kernel_map_bruteforce,
    kernel_map_hash,
    kernel_map_mergesort,
)
from repro.mapping.maps import MapTable
from repro.pointcloud.coords import coords_to_keys, kernel_offsets


@pytest.fixture
def small_tensor(indoor_cloud):
    return indoor_cloud.voxelize(0.2)


class TestAgreement:
    def test_submanifold_all_algorithms_agree(self, small_tensor):
        coords = small_tensor.coords
        ref = kernel_map_bruteforce(coords, coords, 3, 1)
        for algo in (kernel_map_hash, kernel_map_mergesort):
            assert algo(coords, coords, 3, 1).as_set() == ref.as_set()

    def test_strided_all_algorithms_agree(self, small_tensor):
        coords = small_tensor.coords
        out = small_tensor.downsample(2).coords
        ref = kernel_map_bruteforce(coords, out, 2, 1)
        for algo in (kernel_map_hash, kernel_map_mergesort):
            assert algo(coords, out, 2, 1).as_set() == ref.as_set()

    def test_explicit_offsets_agree(self, small_tensor):
        coords = small_tensor.coords
        out = small_tensor.downsample(2).coords
        offsets = -kernel_offsets(2, 3)  # transposed-conv relation
        ref = kernel_map_bruteforce(out, coords, offsets=offsets)
        got = kernel_map_mergesort(out, coords, offsets=offsets)
        assert got.as_set() == ref.as_set()


class TestSemantics:
    def test_center_offset_yields_identity_maps(self, small_tensor):
        coords = small_tensor.coords
        maps = kernel_map_mergesort(coords, coords, 3, 1)
        center_w = 13  # offset (0,0,0) in the 27-neighborhood
        center = [
            (i, o) for i, o, w in zip(
                maps.in_idx, maps.out_idx, maps.weight_idx
            ) if w == center_w
        ]
        assert len(center) == small_tensor.n
        assert all(i == o for i, o in center)

    def test_maps_satisfy_offset_relation(self, small_tensor):
        coords = small_tensor.coords
        out = small_tensor.downsample(2).coords
        offsets = kernel_offsets(2, 3) * small_tensor.tensor_stride
        maps = kernel_map_mergesort(coords, out, 2, 1)
        for i, o, w in zip(maps.in_idx, maps.out_idx, maps.weight_idx):
            assert np.array_equal(coords[i], out[o] + offsets[w])

    def test_every_output_has_at_least_one_map_when_downsampling(
        self, small_tensor
    ):
        out = small_tensor.downsample(2)
        maps = kernel_map_mergesort(
            small_tensor.coords, out.coords, 2, small_tensor.tensor_stride
        )
        covered = set(maps.out_idx.tolist())
        # Every output voxel was created by quantizing at least one input.
        assert covered == set(range(out.n))

    def test_no_duplicate_maps(self, small_tensor):
        coords = small_tensor.coords
        maps = kernel_map_mergesort(coords, coords, 3, 1)
        assert len(maps.as_set()) == maps.n_maps

    def test_empty_output_cloud(self):
        coords = np.array([[0, 0, 0], [1, 1, 1]])
        maps = kernel_map_mergesort(coords, np.empty((0, 3), dtype=np.int64))
        assert maps.n_maps == 0
        assert maps.kernel_volume == 27

    def test_disjoint_clouds_have_no_maps(self):
        a = np.array([[0, 0, 0]])
        b = np.array([[100, 100, 100]])
        maps = kernel_map_mergesort(a, b, 3, 1)
        assert maps.n_maps == 0

    def test_stride_scales_offsets(self):
        # Input at stride 2: neighbors are 2 apart, not 1.
        coords = np.array([[0, 0, 0], [2, 0, 0]])
        out = np.array([[0, 0, 0]])
        maps = kernel_map_mergesort(coords, out, 3, tensor_stride=2)
        assert (0, 0) in {(i, o) for i, o in zip(maps.in_idx, maps.out_idx)}
        assert maps.n_maps == 2  # both inputs are in-reach at stride 2

    def test_dispatcher(self, small_tensor):
        coords = small_tensor.coords
        got = kernel_map(coords, coords, algorithm="hash")
        assert got.n_maps > 0
        with pytest.raises(ValueError):
            kernel_map(coords, coords, algorithm="quantum")

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            kernel_map_mergesort(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_bad_offsets_shape_raises(self):
        with pytest.raises(ValueError):
            kernel_map_mergesort(
                np.zeros((2, 3), dtype=int),
                np.zeros((2, 3), dtype=int),
                offsets=np.zeros((4, 2), dtype=int),
            )


class TestSubmanifoldProperty:
    def test_outputs_never_dilate(self, small_tensor):
        """Section 3: 'the nonzero points will never dilate' - submanifold
        conv outputs sit exactly on the input cloud."""
        coords = small_tensor.coords
        maps = kernel_map_mergesort(coords, coords, 3, 1)
        assert maps.out_idx.max() < small_tensor.n
        assert maps.in_idx.max() < small_tensor.n

    def test_map_count_bounded_by_kernel_volume(self, small_tensor):
        coords = small_tensor.coords
        maps = kernel_map_mergesort(coords, coords, 3, 1)
        assert maps.n_maps <= 27 * small_tensor.n
        per_out = maps.maps_per_output(small_tensor.n)
        assert per_out.max() <= 27
        assert per_out.min() >= 1  # center offset always hits


def per_offset_mergesort(in_coords, out_coords, offsets):
    """Row-order reference: one merge per offset, each shifted input cloud
    packed (and range-checked) on its own — the direct transcription of
    Fig. 9 that ``kernel_map_mergesort`` must match row for row."""
    in_coords = np.asarray(in_coords, dtype=np.int64)
    out_coords = np.asarray(out_coords, dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if len(in_coords) == 0 or len(out_coords) == 0:
        return MapTable(empty, empty, empty, kernel_volume=len(offsets))
    in_order = np.argsort(coords_to_keys(in_coords), kind="stable")
    sorted_in = in_coords[in_order]
    out_keys = coords_to_keys(out_coords)
    out_order = np.argsort(out_keys, kind="stable")
    sorted_out_keys = out_keys[out_order]
    ins, outs, weights = [], [], []
    for w, delta in enumerate(offsets):
        shifted_keys = coords_to_keys(sorted_in - delta[None, :])
        pos = np.searchsorted(sorted_out_keys, shifted_keys)
        pos_clipped = np.minimum(pos, len(sorted_out_keys) - 1)
        hit = (pos < len(sorted_out_keys)) & (
            sorted_out_keys[pos_clipped] == shifted_keys
        )
        ins.append(in_order[np.flatnonzero(hit)])
        outs.append(out_order[pos[hit]])
        weights.append(np.full(int(hit.sum()), w, dtype=np.int64))
    return MapTable(
        np.concatenate(ins), np.concatenate(outs), np.concatenate(weights),
        kernel_volume=len(offsets),
    )


def assert_same_rows(got: MapTable, want: MapTable) -> None:
    assert got.kernel_volume == want.kernel_volume
    assert np.array_equal(got.in_idx, want.in_idx)
    assert np.array_equal(got.out_idx, want.out_idx)
    assert np.array_equal(got.weight_idx, want.weight_idx)


EDGE = 1 << 20  # packable coordinates span [-EDGE, EDGE - 1] per axis

small_clouds = hnp.arrays(
    np.int64, st.tuples(st.integers(0, 30), st.just(3)),
    elements=st.integers(-4, 4),
)


@st.composite
def cloud_pairs(draw):
    """(in, out) clouds: sorted or shuffled, with or without duplicate
    coordinates, and out either the same cloud or another one."""
    cloud = draw(small_clouds)
    if draw(st.booleans()):
        cloud = np.unique(cloud, axis=0)
    if draw(st.booleans()):
        cloud = cloud[draw(st.permutations(range(len(cloud))))]
    relation = draw(st.sampled_from(["same", "quantized", "other"]))
    if relation == "same":
        out = cloud
    elif relation == "quantized":
        out = np.unique(np.floor_divide(cloud, 2) * 2, axis=0).reshape(-1, 3)
    else:
        out = draw(small_clouds)
    return cloud, out


class TestMergesortRowOrder:
    """``kernel_map_mergesort`` against the per-offset reference loop."""

    @given(pair=cloud_pairs(), ksize=st.integers(1, 3), stride=st.integers(1, 4))
    @settings(max_examples=150, deadline=None)
    def test_kernel_offsets_match_reference(self, pair, ksize, stride):
        in_coords, out_coords = pair
        offsets = kernel_offsets(ksize, 3) * stride
        assert_same_rows(
            kernel_map_mergesort(in_coords, out_coords, offsets=offsets),
            per_offset_mergesort(in_coords, out_coords, offsets),
        )

    @given(
        pair=cloud_pairs(),
        offsets=hnp.arrays(
            np.int64, st.tuples(st.integers(1, 9), st.just(3)),
            elements=st.integers(-3, 3),
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_explicit_offsets_match_reference(self, pair, offsets):
        in_coords, out_coords = pair
        assert_same_rows(
            kernel_map_mergesort(in_coords, out_coords, offsets=offsets),
            per_offset_mergesort(in_coords, out_coords, offsets),
        )

    @given(offsets=hnp.arrays(
        np.int64, st.tuples(st.integers(0, 4), st.just(3)),
        elements=st.integers(-2, 2),
    ))
    @settings(max_examples=60, deadline=None)
    def test_symmetric_offsets_match_reference(self, offsets):
        """Symmetric sets with a zero centre: the half-probe shortcut."""
        offsets = np.concatenate([offsets, np.zeros((1, 3), np.int64), -offsets[::-1]])
        cloud = np.unique(
            np.random.default_rng(len(offsets)).integers(-3, 4, (40, 3)), axis=0
        )
        assert_same_rows(
            kernel_map_mergesort(cloud, cloud, offsets=offsets),
            per_offset_mergesort(cloud, cloud, offsets),
        )

    def test_duplicates_defeat_the_symmetry_shortcut(self):
        """A duplicated point maps only onto the first copy (stable order),
        so the centre rows are not the identity."""
        cloud = np.array([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        got = kernel_map_mergesort(cloud, cloud, 3, 1)
        assert_same_rows(got, per_offset_mergesort(cloud, cloud, kernel_offsets(3)))
        centre = got.weight_idx == 13
        assert got.out_idx[centre].tolist() == [0, 0, 2]

    @pytest.mark.parametrize("n", [0, 1])
    def test_tiny_clouds(self, n):
        cloud = np.arange(3 * n, dtype=np.int64).reshape(n, 3)
        for out in (cloud, np.zeros((1, 3), dtype=np.int64)):
            assert_same_rows(
                kernel_map_mergesort(cloud, out, 3, 1),
                per_offset_mergesort(cloud, out, kernel_offsets(3)),
            )


def rows_or_error(fn, *args, **kwargs):
    """``fn``'s table, or ``None`` where it raises ``ValueError``."""
    try:
        return fn(*args, **kwargs)
    except ValueError:
        return None


@st.composite
def aligned_clouds(draw):
    """``(s, cloud)``: ``s`` times small integers, ``s`` a power of two or
    3, optionally moved next to either end of the packable range (some
    draws leave it), shuffled, with duplicates, or with one point nudged
    off the grid."""
    s = draw(st.sampled_from([1, 2, 3, 4, 8]))
    cloud = np.unique(draw(small_clouds) * s, axis=0).reshape(-1, 3)
    if draw(st.booleans()):
        cloud = cloud + np.array([
            draw(st.sampled_from([0, -EDGE, EDGE])) + s * draw(st.integers(-6, 6))
            for _ in range(3)
        ])
    if len(cloud) and draw(st.booleans()):
        cloud = np.concatenate([cloud, cloud[: draw(st.integers(1, len(cloud)))]])
    if len(cloud) and draw(st.booleans()):
        cloud = cloud[draw(st.permutations(range(len(cloud))))]
    if len(cloud) and s > 1 and draw(st.integers(0, 3)) == 0:
        cloud = cloud.copy()
        cloud[draw(st.integers(0, len(cloud) - 1)), draw(st.integers(0, 2))] += 1
    return s, cloud


class TestKeyStructureShortcuts:
    """The column (submanifold) and parent (strided) shortcuts of
    ``kernel_map_mergesort`` on grid-aligned clouds, and their fallbacks,
    against the per-offset reference loop."""

    @given(drawn=aligned_clouds())
    @settings(max_examples=200, deadline=None)
    def test_submanifold_matches_reference(self, drawn):
        s, cloud = drawn
        offsets = kernel_offsets(3) * s
        want = rows_or_error(per_offset_mergesort, cloud, cloud, offsets)
        got = rows_or_error(kernel_map_mergesort, cloud, cloud, offsets=offsets)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_rows(got, want)

    @given(
        drawn=aligned_clouds(),
        outputs=st.sampled_from(["parents", "subset", "parents+others"]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_strided_matches_reference(self, drawn, outputs, data):
        s, cloud = drawn
        parents = np.unique(np.floor_divide(cloud, 2 * s) * 2 * s, axis=0)
        parents = parents.reshape(-1, 3)
        if outputs == "subset":
            keep = data.draw(hnp.arrays(bool, len(parents)))
            out = parents[keep]
        elif outputs == "parents+others":
            others = data.draw(small_clouds) * 2 * s
            out = np.concatenate([parents, others])
            out = out[data.draw(st.permutations(range(len(out))))]
        else:
            out = parents
        offsets = kernel_offsets(2) * s
        want = rows_or_error(per_offset_mergesort, cloud, out, offsets)
        got = rows_or_error(kernel_map_mergesort, cloud, out, offsets=offsets)
        assert (got is None) == (want is None)
        if want is not None:
            assert_same_rows(got, want)

    @pytest.fixture
    def searches(self, monkeypatch):
        """Every ``np.searchsorted`` call made while the test runs."""
        calls = []
        real = np.searchsorted

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "searchsorted", counted)
        return calls

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_submanifold_columns_search_four_times(self, small_tensor, searches,
                                                   stride):
        tensor = small_tensor
        while tensor.tensor_stride < stride:
            tensor = tensor.downsample(2)
        offsets = kernel_offsets(3) * stride
        got = kernel_map_mergesort(tensor.coords, tensor.coords, offsets=offsets)
        assert len(searches) == 4  # one per (dx, dy) column, 13 without
        assert_same_rows(
            got, per_offset_mergesort(tensor.coords, tensor.coords, offsets)
        )

    @pytest.mark.parametrize("stride", [1, 2, 4])
    def test_strided_parents_search_once(self, small_tensor, searches, stride):
        tensor = small_tensor
        while tensor.tensor_stride < stride:
            tensor = tensor.downsample(2)
        parents = tensor.downsample(2).coords
        offsets = kernel_offsets(2) * stride
        got = kernel_map_mergesort(tensor.coords, parents, offsets=offsets)
        assert len(searches) == 1  # 8 without
        # Every input maps exactly once: onto its parent.
        assert got.n_maps == tensor.n
        assert_same_rows(got, per_offset_mergesort(tensor.coords, parents, offsets))

    @pytest.mark.parametrize("case, sub_searches, strided_searches", [
        ("stride 3", 13, 8),
        ("unaligned point", 13, 8),
        # Duplicates defeat the half-probe; a duplicate still has one parent.
        ("duplicates", 27, 1),
    ])
    def test_fallbacks(self, small_tensor, searches, case, sub_searches,
                       strided_searches):
        cloud, s = small_tensor.downsample(2).coords, 2
        if case == "stride 3":
            cloud, s = small_tensor.coords * 3, 3
        elif case == "unaligned point":
            cloud = cloud.copy()
            cloud[0] += 1
        else:
            cloud = np.concatenate([cloud, cloud[:1]])
        parents = np.unique(np.floor_divide(cloud, 2 * s) * 2 * s, axis=0)
        sub = kernel_map_mergesort(cloud, cloud, offsets=kernel_offsets(3) * s)
        assert len(searches) == sub_searches
        strided = kernel_map_mergesort(cloud, parents, offsets=kernel_offsets(2) * s)
        assert len(searches) == sub_searches + strided_searches
        assert_same_rows(sub, per_offset_mergesort(cloud, cloud, kernel_offsets(3) * s))
        assert_same_rows(
            strided, per_offset_mergesort(cloud, parents, kernel_offsets(2) * s)
        )


edge_values = (
    st.integers(-EDGE, -EDGE + 2)
    | st.integers(EDGE - 3, EDGE - 1)
    | st.integers(-2, 2)
)


class TestPackableRange:
    """One bounding-box test stands in for packing every shifted cloud."""

    @given(
        cloud=hnp.arrays(
            np.int64, st.tuples(st.integers(1, 6), st.just(3)),
            elements=edge_values,
        ),
        offsets=hnp.arrays(
            np.int64, st.tuples(st.integers(1, 5), st.just(3)),
            elements=st.integers(-3, 3)
            | st.integers(EDGE - 2, EDGE + 2)
            | st.integers(-2 * EDGE - 1, -2 * EDGE + 3),
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_raises_exactly_when_a_shift_leaves_the_field(self, cloud, offsets):
        shifted = cloud[:, None, :] - offsets[None, :, :]
        leaves = bool(np.any((shifted < -EDGE) | (shifted > EDGE - 1)))
        if leaves:
            with pytest.raises(ValueError, match="packable range"):
                per_offset_mergesort(cloud, cloud, offsets)
            with pytest.raises(ValueError, match="packable range"):
                kernel_map_mergesort(cloud, cloud, offsets=offsets)
        else:
            assert_same_rows(
                kernel_map_mergesort(cloud, cloud, offsets=offsets),
                per_offset_mergesort(cloud, cloud, offsets),
            )

    def test_unpackable_offset_with_packable_shifts(self):
        offsets = np.array([[EDGE + 1, 0, 0]])
        with pytest.raises(ValueError):
            coords_to_keys(offsets)
        in_coords = np.array([[EDGE - 1, 0, 0]])
        out_coords = np.array([[-2, 0, 0]])
        got = kernel_map_mergesort(in_coords, out_coords, offsets=offsets)
        assert got.as_set() == {(0, 0, 0)}
        assert_same_rows(got, per_offset_mergesort(in_coords, out_coords, offsets))

    def test_edge_cloud_with_unit_kernel(self):
        cloud = np.array([[EDGE - 1, -EDGE, 0], [0, 0, 0]])
        with pytest.raises(ValueError, match="packable range"):
            kernel_map_mergesort(cloud, cloud, 3, 1)
        inner = np.array([[EDGE - 2, -EDGE + 1, 0], [0, 0, 0]])
        assert_same_rows(
            kernel_map_mergesort(inner, inner, 3, 1),
            per_offset_mergesort(inner, inner, kernel_offsets(3)),
        )
