"""Spatial tile partitioning and per-tile content addressing.

A *tile* is an axis-aligned grid cell of side ``tile_size`` (meters for
continuous clouds, voxel units for integer coordinates).  Tiling is the
unit of incremental reuse in the streaming subsystem: a mapping op over a
frame decomposes into per-tile sub-problems whose inputs are the tile's
own points plus a *halo* of neighboring tiles, and each sub-problem is
content-addressed with the same BLAKE2b digest discipline
:class:`~repro.engine.MapCache` uses — digest over the raw bytes (dtype
and shape included) of exactly the arrays the sub-result depends on, plus
a canonical rendering of the op params.  Unchanged regions of consecutive
frames therefore produce *equal* sub-keys even though the whole-frame
arrays differ.

Order matters as much as content: sub-results store positions into their
input slices, so a digest must cover point *order*, not just the point
set.  Partitions preserve each tile's points in original-array order, and
halos are materialized in ascending global-index order — both are stable
between frames when points only enter/leave elsewhere, which is exactly
what the world-frame sequence generator guarantees.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

__all__ = [
    "TilePartition",
    "content_digest",
    "halo_box",
    "hash_part",
    "partition",
    "tile_coords",
]

_DIGEST_SIZE = 16


def tile_coords(points: np.ndarray, tile_size) -> np.ndarray:
    """Integer tile coordinates ``floor(p / tile_size)`` per point."""
    points = np.asarray(points)
    if points.ndim != 2:
        raise ValueError(f"points must be (N, D), got {points.shape}")
    if np.issubdtype(points.dtype, np.integer):
        return np.floor_divide(points, int(tile_size))
    return np.floor(points / float(tile_size)).astype(np.int64)


def _pack(tiles: np.ndarray) -> np.ndarray:
    """Pack tile coordinates into orderable int64 keys (21 bits per axis,
    the library-wide ranking-key convention)."""
    from ..pointcloud.coords import coords_to_keys

    return coords_to_keys(tiles)


#: dtype -> encoded tag; ``str(dtype)`` recomputes the name each call and
#: is a measurable cost at tile granularity (thousands of digests/frame).
_DTYPE_TAGS: dict = {}


def _dtype_tag(dtype) -> bytes:
    tag = _DTYPE_TAGS.get(dtype)
    if tag is None:
        tag = str(dtype).encode()
        _DTYPE_TAGS[dtype] = tag
    return tag


def hash_part(h, part) -> None:
    """Feed one part into a hash state, canonically encoded.

    The one definition of the per-part encoding (array = dtype tag +
    ``repr(shape)`` + raw bytes; bytes raw; everything else ``repr``).
    :func:`content_digest` builds on it; so do the whole-call probes and
    the legacy per-tile oracle's sub-keys.  The serving planner's
    fixed-width tile keys (:mod:`repro.stream.plan`) hash parameters
    through it too, but assemble per-tile keys by concatenating component
    digests instead of re-hashing parts per tile.
    """
    if isinstance(part, np.ndarray):
        arr = np.ascontiguousarray(part)
        h.update(_dtype_tag(arr.dtype))
        h.update(repr(arr.shape).encode())
        h.update(arr.tobytes())
    elif isinstance(part, bytes):
        h.update(part)
    else:
        h.update(repr(part).encode())


def content_digest(*parts) -> bytes:
    """BLAKE2b digest over arrays (bytes + dtype + shape) and str/bytes parts."""
    h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
    for part in parts:
        hash_part(h, part)
    return h.digest()


def _ranges(starts, lens, total: int):
    """Concatenation of ``arange(s, s + l)`` runs, fully vectorized.

    Every run length must be >= 1 and ``total == lens.sum()``.  Three
    O(total) passes replace a Python loop over runs — the gather
    primitive behind the batched neighborhood assembly.
    """
    out = np.ones(total, dtype=np.int64)
    starts = np.asarray(starts, dtype=np.int64)
    lens = np.asarray(lens, dtype=np.int64)
    out[0] = starts[0]
    bnd = np.cumsum(lens)[:-1]
    out[bnd] = starts[1:] - (starts[:-1] + lens[:-1]) + 1
    return np.cumsum(out)


class TilePartition:
    """One cloud split into tiles, with per-tile indices and digests.

    ``indices(key)`` returns the positions of a tile's points in the
    original array, in original order (stable ``argsort`` grouping), so a
    tile's content — and therefore its digest — is independent of every
    other tile.
    """

    def __init__(self, points: np.ndarray, tile_size) -> None:
        self.points = np.asarray(points)
        self.tile_size = tile_size
        tiles = tile_coords(self.points, tile_size)
        self._ndim = tiles.shape[1]
        self._keys = _pack(tiles)
        order = np.argsort(self._keys, kind="stable")
        sorted_keys = self._keys[order]
        unique_keys, starts = np.unique(sorted_keys, return_index=True)
        self._groups: dict[int, np.ndarray] = {}
        bounds = np.append(starts, len(sorted_keys))
        # The batched plan path consumes these directly: the sort
        # permutation, the per-tile segment bounds within it, and the
        # occupied keys as an array (ascending — the iteration order of
        # _groups below, which is built in that order).
        self._order = order
        self._bounds = bounds
        self._ukeys = unique_keys
        for i, key in enumerate(unique_keys.tolist()):
            self._groups[key] = order[bounds[i]:bounds[i + 1]]
        self._digests: dict[int, bytes] = {}
        self._all_digests: list[bytes] | None = None
        self._digest_mat: np.ndarray | None = None
        self._packed: np.ndarray | None = None
        self._neighborhoods: dict[tuple[int, int], tuple[bytes, np.ndarray]] = {}
        self._sorted_neighborhoods: dict[tuple[int, int], tuple] = {}
        # Batched assembly caches: neighborhood tables per (halo,
        # query-keys), and the per-(key, halo) sorted-halo memo of the
        # plan path.
        self._nbhd_mats: dict = {}
        self._sorted_halos: dict[tuple[int, int], tuple] = {}

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def keys(self):
        """Occupied tile keys (ascending)."""
        return self._groups.keys()

    @property
    def unique_keys(self) -> np.ndarray:
        """Occupied tile keys as an int64 array (ascending).  Read-only by
        convention — the batched planner searches it with searchsorted."""
        return self._ukeys

    def indices(self, key: int) -> np.ndarray:
        """Original-array positions of the tile's points (original order),
        or an empty index array for an unoccupied tile."""
        idx = self._groups.get(key)
        if idx is None:
            return np.empty(0, dtype=np.intp)
        return idx

    def digest(self, key: int) -> bytes:
        """Content digest of one tile (cached; empty tiles digest too)."""
        d = self._digests.get(key)
        if d is None:
            d = content_digest(self.points[self.indices(key)])
            self._digests[key] = d
        return d

    # ------------------------------------------------------------------
    # Batched passes: packed buffers, bulk digests, bulk neighborhoods
    # ------------------------------------------------------------------

    def packed(self) -> np.ndarray:
        """The points gathered into tile-sorted order, C-contiguous.

        One gather shared by every batched pass: tile ``i``'s points are
        rows ``_bounds[i]:_bounds[i+1]``, each tile's rows in original
        order (the stable-argsort grouping), so a byte slice of this
        buffer *is* ``points[indices(key)].tobytes()``.  Cached.
        """
        if self._packed is None:
            self._packed = np.ascontiguousarray(self.points[self._order])
        return self._packed

    def digest_all(self) -> list[bytes]:
        """Per-tile content digests for every occupied tile at once.

        Bit-identical to calling :meth:`digest` per key, but computed
        over one packed buffer: no per-tile array temporaries, only the
        unavoidable per-tile hash finalization.  Returns the digests in
        ascending-key order (aligned with :attr:`unique_keys`) and fills
        the per-key cache as a side effect.
        """
        if self._all_digests is not None:
            return self._all_digests
        packed = self.packed()
        ncols = packed.shape[1]
        row_bytes = packed.dtype.itemsize * ncols
        mv = memoryview(packed).cast("B")
        tag = _dtype_tag(packed.dtype)
        bounds = self._bounds.tolist()
        digests = []
        for i, key in enumerate(self._ukeys.tolist()):
            lo, hi = bounds[i], bounds[i + 1]
            h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
            h.update(tag)
            h.update(repr((hi - lo, ncols)).encode())
            h.update(mv[lo * row_bytes:hi * row_bytes])
            d = h.digest()
            digests.append(d)
            self._digests[key] = d
        self._all_digests = digests
        return digests

    def digest_matrix(self) -> np.ndarray:
        """Per-tile digests stacked as an ``(n_tiles, 16)`` uint8 matrix.

        The gatherable form of :meth:`digest_all` — the batched
        neighborhood assembly pulls rows of it with fancy indexing instead
        of probing a dict per tile.  Cached.
        """
        if self._digest_mat is None:
            digests = self.digest_all()
            self._digest_mat = np.frombuffer(
                b"".join(digests), dtype=np.uint8
            ).reshape(len(digests), _DIGEST_SIZE)
        return self._digest_mat

    def fill_neighborhoods(self, halo: int, qkeys: np.ndarray | None = None):
        """Every query tile's halo-box neighborhood in one sweep.

        Each of the ``(2 * halo + 1)^D`` box slots contributes the whole
        tile found there.  Returns ``(digests, flat, bounds)`` aligned
        with ``qkeys`` (default: every occupied tile): one 16-byte digest
        per query key — BLAKE2b over its row of the stacked fixed-width
        slot-digest matrix, absent cells all-zero — plus the canonical
        index concatenation as one flat array with per-query run bounds,
        element-identical to the oracle's :meth:`neighborhood`.  No
        per-tile dict probes, no per-tile concatenates; the only per-tile
        work left is the hash finalization.  Cached per (halo, qkeys).
        """
        cache_key = (halo, None if qkeys is None else qkeys.tobytes())
        cached = self._nbhd_mats.get(cache_key)
        if cached is not None:
            return cached
        if qkeys is None:
            qkeys = self._ukeys
        deltas = _delta_keys(halo, self._ndim)
        ukeys = self._ukeys
        n_tiles = len(ukeys)
        nq = len(qkeys)
        n_slots = len(deltas)
        if nq == 0:
            result = ([], np.empty(0, dtype=np.intp),
                      np.zeros(1, dtype=np.int64))
            self._nbhd_mats[cache_key] = result
            return result
        box = qkeys[:, None] + deltas[None, :]
        if n_tiles:
            pos = np.searchsorted(ukeys, box)
            pos_c = np.minimum(pos, n_tiles - 1)
            present = (pos < n_tiles) & (ukeys[pos_c] == box)
        else:
            pos_c = np.zeros((nq, n_slots), dtype=np.int64)
            present = np.zeros((nq, n_slots), dtype=bool)
        # Row-major over (query, slot): the canonical concatenation order.
        p = pos_c[present]
        dmat = np.zeros((nq, n_slots, _DIGEST_SIZE), dtype=np.uint8)
        dmat[present] = self.digest_matrix()[p]
        run = self._bounds[p + 1] - self._bounds[p]
        lens = np.zeros((nq, n_slots), dtype=np.int64)
        lens[present] = run
        bounds = np.concatenate([[0], np.cumsum(lens.sum(axis=1))])
        total = int(bounds[-1])
        flat = (self._order[_ranges(self._bounds[p], run, total)]
                if total else np.empty(0, dtype=np.intp))
        row_bytes = n_slots * _DIGEST_SIZE
        buf = dmat.tobytes()
        digests = [
            hashlib.blake2b(buf[t * row_bytes:(t + 1) * row_bytes],
                            digest_size=_DIGEST_SIZE).digest()
            for t in range(nq)
        ]
        result = (digests, flat, bounds)
        self._nbhd_mats[cache_key] = result
        return result

    def sorted_halo(self, key: int, halo: int, canonical: np.ndarray):
        """``(perm_digest, sorted_halo)`` for one tile of the plan path.

        ``canonical`` is the tile's slice of a :meth:`fill_neighborhoods`
        flat array; the interleave permutation that sorts it to ascending
        global index is digested (16 bytes) rather than hashed into every
        sub-key raw — the neighborhood digest already fixes the per-tile
        lengths, so the permutation bytes alone identify the interleaving.
        Cached per ``(key, halo)``: the argsort is the one per-tile cost
        the batched assembly cannot remove, so it must not repeat across
        the ops of one frame.
        """
        cached = self._sorted_halos.get((key, halo))
        if cached is not None:
            return cached
        if len(canonical) == 0:
            result = (bytes(_DIGEST_SIZE), canonical)
        else:
            perm = np.argsort(canonical, kind="stable").astype(np.int32)
            result = (
                hashlib.blake2b(perm.tobytes(),
                                digest_size=_DIGEST_SIZE).digest(),
                canonical[perm],
            )
        self._sorted_halos[(key, halo)] = result
        return result

    def sorted_neighborhood(self, key: int, halo: int):
        """``(halo_digest, interleave_perm, sorted_halo)`` for one tile.

        ``sorted_halo`` is the canonical halo concatenation re-ordered to
        ascending global index (the tie-break order sub-results are
        computed under) and ``interleave_perm`` the permutation that got
        it there (``None`` for an empty halo).  The per-tile oracle keys a
        tile by the halo digest plus this permutation rather than the
        halo's point bytes: the permutation depends only on the relative
        interleaving of the constituent tiles, so it is stable across
        frames exactly when the halo itself is.  Cached per ``(key,
        halo)``.
        """
        cached = self._sorted_neighborhoods.get((key, halo))
        if cached is not None:
            return cached
        digest, canonical = self.neighborhood(key, halo)
        if len(canonical) == 0:
            result = (digest, None, canonical)
        else:
            perm = np.argsort(canonical, kind="stable").astype(np.int32)
            result = (digest, perm, canonical[perm])
        self._sorted_neighborhoods[(key, halo)] = result
        return result

    def neighborhood(self, key: int, halo: int) -> tuple[bytes, np.ndarray]:
        """``(digest, canonical_indices)`` of the halo box around a tile.

        The digest covers each constituent tile's content in fixed
        relative-offset order (``b"\\x00"`` for unoccupied cells); the
        canonical index array concatenates the constituent tiles in that
        same order, each tile's points in original order.  The pair is the
        foundation of relocatable sub-results: a stored value indexed into
        the canonical concatenation means the same points wherever (and
        whenever) an equal digest recurs.  Cached per ``(key, halo)``.
        """
        cached = self._neighborhoods.get((key, halo))
        if cached is not None:
            return cached
        h = hashlib.blake2b(digest_size=_DIGEST_SIZE)
        parts = []
        for box_key in (key + _delta_keys(halo, self._ndim)).tolist():
            idx = self._groups.get(box_key)
            if idx is None:
                h.update(b"\x00")
            else:
                h.update(self.digest(box_key))
                parts.append(idx)
        canonical = (
            np.concatenate(parts) if parts else np.empty(0, dtype=np.intp)
        )
        result = (h.digest(), canonical)
        self._neighborhoods[(key, halo)] = result
        return result

    def halo_indices(self, key: int, halo: int) -> np.ndarray:
        """Ascending original-array positions of all points within ``halo``
        tiles (Chebyshev) of the tile behind ``key`` — itself included."""
        return np.sort(self.neighborhood(key, halo)[1])


@functools.lru_cache(maxsize=32)
def _delta_keys(halo: int, ndim: int) -> np.ndarray:
    """Packed-key deltas of the halo box: the per-axis bit fields of
    :func:`~repro.pointcloud.coords.coords_to_keys` are additive for
    in-range offsets, so ``key(tile + delta) == key(tile) + delta_key``."""
    from ..pointcloud.coords import key_deltas

    return key_deltas(halo_box(halo, ndim))


@functools.lru_cache(maxsize=32)
def halo_box(halo: int, ndim: int) -> np.ndarray:
    """All integer offsets in ``{-halo..halo}^ndim``, lexicographic order.

    Cached (it runs once per tile per op call) — treat the result as
    read-only.
    """
    if halo < 0:
        raise ValueError(f"halo must be >= 0, got {halo}")
    rng = np.arange(-halo, halo + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * ndim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def partition(points: np.ndarray, tile_size) -> TilePartition:
    """Convenience constructor for :class:`TilePartition`."""
    return TilePartition(points, tile_size)
