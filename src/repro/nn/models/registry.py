"""Benchmark registry — paper Table 2 plus trace generation helpers.

Maps each benchmark notation used in the paper's figures to its model,
dataset and input pipeline, and provides :func:`build_trace`, the single
entry point every experiment runner uses to obtain a workload trace.

``published`` records accuracy numbers from the papers cited in Table 2
(reproduction note: we cannot re-train without the real datasets, so figures
that plot accuracy use these constants; latency/energy axes are measured
from our models — see DESIGN.md).

Cloud sources
-------------
A benchmark notation may carry a cloud source suffix:
``"MinkNet(o)@stream:3f2a..."`` runs the MinkNet(o) network on a cloud
resolved by the registered ``stream`` scheme instead of the dataset
generator — the ``seed`` then selects which cloud (e.g. a frame index
within a registered sequence) and the resolver supplies the model seed, so
a sourced workload key ``(notation, scale, seed)`` still fully determines
both input and weights.  Schemes are registered by the subsystem that owns
them (see :mod:`repro.stream.sequence`); tokens are content digests of the
source configuration, so equal tokens mean equal clouds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

import numpy as np

from ...pointcloud.datasets import generate_sample, get_dataset
from ..ghost import GhostFeatures
from ..trace import Trace
from .dgcnn import DGCNNPartSeg
from .frustum import FrustumPointNet2
from .minkunet import MinkowskiUNet, mini_minkunet
from .pointnet import PointNetCls
from .pointnet2 import PointNet2MSGPartSeg, PointNet2SSGCls, PointNet2SSGSemSeg

__all__ = [
    "Benchmark",
    "BENCHMARKS",
    "get_benchmark",
    "build_trace",
    "run_benchmark",
    "register_cloud_scheme",
    "resolve_geometry_only",
    "split_notation",
]


@dataclass(frozen=True)
class Benchmark:
    """One row of Table 2.

    ``coords_only_mapping`` declares that the network's mapping operations
    read coordinates only — no feature value decides which maps exist — so
    its trace is a pure function of geometry and it may run geometry-only
    (:func:`run_benchmark`).  Declared: the SparseConv models and
    PointNet++(c), (ps) and (s).  Not declared: PointNet, DGCNN (its
    dynamic graph runs kNN on features) and F-PointNet++ (its frustum
    masks threshold logits).  A declared model's factory also takes
    ``weightless=``.
    """

    notation: str
    application: str
    dataset: str
    family: str  # "pointnet++" | "sparseconv"
    model_factory: Callable[..., object]  # (seed); declared also weightless=
    coords_only_mapping: bool = False
    voxel_size: float | None = None  # set for sparseconv models
    mesorasi_compatible: bool = False  # delayed aggregation applies
    n_points: int | None = None  # override the dataset's nominal size
    published: dict = field(default_factory=dict, hash=False, compare=False)


def _minknet_indoor(seed: int, weightless: bool = False) -> MinkowskiUNet:
    model = MinkowskiUNet(n_classes=13, seed=seed, weightless=weightless)
    model.notation = "MinkNet(i)"
    return model


def _minknet_outdoor(seed: int, weightless: bool = False) -> MinkowskiUNet:
    model = MinkowskiUNet(n_classes=19, seed=seed, weightless=weightless)
    model.notation = "MinkNet(o)"
    return model


BENCHMARKS: dict[str, Benchmark] = {
    "PointNet": Benchmark(
        notation="PointNet",
        application="classification",
        dataset="modelnet40",
        family="pointnet++",
        model_factory=lambda seed: PointNetCls(seed=seed),
        mesorasi_compatible=True,
        published={"accuracy": 89.2},
    ),
    "PointNet++(c)": Benchmark(
        notation="PointNet++(c)",
        application="classification",
        dataset="modelnet40",
        family="pointnet++",
        model_factory=lambda seed, weightless=False: PointNet2SSGCls(
            seed=seed, weightless=weightless
        ),
        coords_only_mapping=True,
        mesorasi_compatible=True,
        published={"accuracy": 90.7},
    ),
    "PointNet++(ps)": Benchmark(
        notation="PointNet++(ps)",
        application="part segmentation",
        dataset="shapenet",
        family="pointnet++",
        model_factory=lambda seed, weightless=False: PointNet2MSGPartSeg(
            seed=seed, weightless=weightless
        ),
        coords_only_mapping=True,
        mesorasi_compatible=True,
        published={"instance_miou": 85.1},
    ),
    "DGCNN": Benchmark(
        notation="DGCNN",
        application="part segmentation",
        dataset="shapenet",
        family="pointnet++",
        model_factory=lambda seed: DGCNNPartSeg(seed=seed),
        mesorasi_compatible=True,
        published={"instance_miou": 85.2},
    ),
    "F-PointNet++": Benchmark(
        notation="F-PointNet++",
        application="detection",
        dataset="kitti",
        family="pointnet++",
        model_factory=lambda seed: FrustumPointNet2(seed=seed),
        mesorasi_compatible=True,
        published={"car_ap_moderate": 70.4},
    ),
    "PointNet++(s)": Benchmark(
        notation="PointNet++(s)",
        application="segmentation",
        dataset="s3dis",
        family="pointnet++",
        model_factory=lambda seed, weightless=False: PointNet2SSGSemSeg(
            seed=seed, weightless=weightless
        ),
        coords_only_mapping=True,
        mesorasi_compatible=True,
        n_points=4096,  # S3DIS is processed in 4096-point blocks
        published={"miou": 53.5},
    ),
    "MinkNet(i)": Benchmark(
        notation="MinkNet(i)",
        application="segmentation",
        dataset="s3dis",
        family="sparseconv",
        model_factory=_minknet_indoor,
        coords_only_mapping=True,
        voxel_size=0.05,
        published={"miou": 65.4},
    ),
    "MinkNet(o)": Benchmark(
        notation="MinkNet(o)",
        application="segmentation",
        dataset="semantickitti",
        family="sparseconv",
        model_factory=_minknet_outdoor,
        coords_only_mapping=True,
        voxel_size=0.1,
        published={"miou": 61.1},
    ),
}

# The Fig. 16 co-design model is not part of Table 2 but shares the pipeline.
MINI_MINKUNET = Benchmark(
    notation="Mini-MinkowskiUNet",
    application="segmentation",
    dataset="s3dis",
    family="sparseconv",
    model_factory=lambda seed, weightless=False: mini_minkunet(
        seed=seed, weightless=weightless
    ),
    coords_only_mapping=True,
    voxel_size=0.08,
    published={"miou": 62.6},  # PointNet++(s) 53.5 + 9.1 (Section 5.2.2)
)


#: scheme -> resolver(token, scale, seed) -> (PointCloud, model_seed).
#: Registered by the subsystem owning the scheme (e.g. ``repro.stream``).
CLOUD_SCHEMES: dict[str, Callable] = {}


def register_cloud_scheme(scheme: str, resolver: Callable) -> None:
    """Register a cloud source scheme for ``"<benchmark>@<scheme>:<token>"``."""
    if ":" in scheme or "@" in scheme:
        raise ValueError(f"invalid scheme name {scheme!r}")
    CLOUD_SCHEMES[scheme] = resolver


def split_notation(notation: str) -> tuple[str, str | None]:
    """Split ``"bench@scheme:token"`` into ``(bench, "scheme:token")``."""
    base, sep, source = notation.partition("@")
    return base, (source if sep else None)


def _resolve_sourced_cloud(source: str, scale: float, seed: int):
    scheme, sep, token = source.partition(":")
    if not sep or scheme not in CLOUD_SCHEMES:
        raise KeyError(
            f"unknown cloud source {source!r}; "
            f"registered schemes: {sorted(CLOUD_SCHEMES)}"
        )
    return CLOUD_SCHEMES[scheme](token, scale, seed)


def get_benchmark(notation: str) -> Benchmark:
    notation, _ = split_notation(notation)
    if notation == MINI_MINKUNET.notation:
        return MINI_MINKUNET
    if notation not in BENCHMARKS:
        raise KeyError(
            f"unknown benchmark {notation!r}; known: {sorted(BENCHMARKS)}"
        )
    return BENCHMARKS[notation]


def _build_model(bench: Benchmark, seed: int, weightless: bool):
    """``bench``'s model; only declared factories take ``weightless``."""
    if weightless:
        return bench.model_factory(seed, weightless=True)
    return bench.model_factory(seed)


@lru_cache(maxsize=64)
def _resident_model(base_notation: str, model_seed: int, weightless: bool):
    """Model instances for sourced (streaming) workloads.

    A frame stream runs one network over many clouds; rebuilding the seeded
    weights per frame is pure overhead.  Models are stateless after
    construction — every ``__call__`` takes its inputs and trace explicitly
    — so sharing an instance cannot change a result.  ``weightless`` is
    part of the key: a geometry-only stream gets a weightless model (shape
    tokens, no weight values; see :mod:`repro.nn.ghost`), which a full run
    of the same ``(benchmark, seed)`` must never be handed.

    Sized for fleet serving (:mod:`repro.fleet`): a fleet session keeps
    one ``(base benchmark, model seed)`` pair resident per distinct-world
    stream, and a round-robin over more streams than slots would rebuild
    models every single round — so the bound comfortably exceeds any
    realistic concurrent stream x benchmark mix.
    """
    return _build_model(get_benchmark(base_notation), model_seed, weightless)


def resolve_geometry_only(benchmark: str, geometry_only: bool | str = "auto") -> bool:
    """The execution mode a serving session runs ``benchmark`` in.

    ``"auto"`` picks geometry-only exactly when the network declares
    ``coords_only_mapping``; ``False`` forces full features; ``True`` on
    an undeclared network raises, because its trace reads feature values
    and :func:`run_benchmark` would compute them anyway.
    """
    declared = get_benchmark(benchmark).coords_only_mapping
    if geometry_only == "auto":
        return declared
    if geometry_only and not declared:
        raise ValueError(
            f"{benchmark} cannot run geometry-only: it does not declare "
            f"coords_only_mapping (its mapping reads feature values)"
        )
    return bool(geometry_only)


def run_benchmark(
    notation: str, scale: float = 1.0, seed: int = 0, geometry_only: bool = False
) -> tuple[Trace, object]:
    """Run one benchmark functionally; return its trace and raw output.

    ``geometry_only`` skips feature arithmetic for networks that declare
    ``coords_only_mapping`` (the SparseConv models and PointNet++(c), (ps)
    and (s)): the model is built weightless, so no weight is drawn either,
    and its forward runs on :class:`~repro.nn.ghost.GhostFeatures` from
    the first layer on while every mapping operation still runs on the
    real coordinates.  The returned trace is bit-identical to a full
    functional run's and the raw output is a shape token instead of real
    logits.  Undeclared networks — PointNet, DGCNN (whose dynamic graph
    runs kNN on features) and F-PointNet++ (whose frustum masks threshold
    logits) — ignore the flag.
    """
    base, source = split_notation(notation)
    bench = get_benchmark(base)
    spec = get_dataset(bench.dataset)
    weightless = geometry_only and bench.coords_only_mapping
    if source is not None:
        cloud, model_seed = _resolve_sourced_cloud(source, scale, seed)
        model = _resident_model(base, model_seed, weightless)
    else:
        n_points = None
        if bench.n_points is not None:
            n_points = max(16, int(bench.n_points * scale))
        cloud = generate_sample(
            bench.dataset, seed=seed, scale=scale, n_points=n_points
        )
        model = _build_model(bench, seed, weightless)
    trace = Trace(name=notation)
    if bench.family == "sparseconv":
        voxel = bench.voxel_size if bench.voxel_size is not None else spec.voxel_size
        if weightless:
            tensor = cloud.voxelize(voxel)
            tensor = tensor.with_features(GhostFeatures(tensor.n, model.c_in))
        else:
            tensor = model.prepare_input(cloud, voxel)
        output = model(tensor, trace)
        trace.input_points = tensor.n
    else:
        if weightless:
            cloud = cloud.with_features(GhostFeatures(cloud.n, model.c_in))
        output = model(cloud, trace)
        trace.input_points = cloud.n
    return trace, output


@lru_cache(maxsize=64)
def build_trace(notation: str, scale: float = 1.0, seed: int = 0) -> Trace:
    """Cached trace construction — experiments share traces freely."""
    trace, _ = run_benchmark(notation, scale=scale, seed=seed)
    return trace
