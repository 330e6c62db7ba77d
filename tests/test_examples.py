"""Every example script must run end to end (small inputs via argv/env)."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def run_example(name: str, argv: list[str] | None = None) -> None:
    path = EXAMPLES / name
    old_argv = sys.argv
    sys.argv = [str(path)] + (argv or [])
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


def test_examples_exist():
    scripts = sorted(p.name for p in EXAMPLES.glob("*.py"))
    assert "quickstart.py" in scripts
    assert len(scripts) >= 3


def test_quickstart(capsys):
    run_example("quickstart.py")
    out = capsys.readouterr().out
    assert "PointAcc" in out and "speedup" in out


def test_lidar_segmentation(capsys):
    run_example("lidar_segmentation.py", ["--points", "2500"])
    out = capsys.readouterr().out
    assert "voxels segmented" in out
    assert "PointAcc vs GPU" in out


def test_edge_deployment(capsys):
    run_example("edge_deployment.py")
    out = capsys.readouterr().out
    assert "PointAcc.Edge" in out
    assert "Mini-MinkowskiUNet" in out


def test_mapping_unit_walkthrough(capsys):
    run_example("mapping_unit_walkthrough.py")
    out = capsys.readouterr().out
    assert "2 maps" in out  # the Fig. 9 example reproduces exactly
    assert "hash engine" in out


def test_streaming_inference(capsys):
    run_example("streaming_inference.py", ["--frames", "2", "--points", "1500"])
    out = capsys.readouterr().out
    assert "sustained" in out and "FPS" in out


def test_batch_serving(capsys):
    run_example("batch_serving.py", ["--repeats", "2", "--scale", "0.15"])
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "reuse" in out


def test_cluster_serving(capsys):
    run_example("cluster_serving.py",
                ["--shards", "2", "--requests", "6", "--scale", "0.1"])
    out = capsys.readouterr().out
    assert "shard requests" in out
    assert "rejected" in out
    assert "warm start" in out


def test_stream_serving(capsys):
    run_example("stream_serving.py", ["--frames", "3", "--scale", "0.12"])
    out = capsys.readouterr().out
    assert "traces: 3 built, 0 reused" in out
    assert "frames/s" in out
    assert "bit-identical -> True" in out


def test_memory_system_demo(capsys):
    run_example("memory_system_demo.py")
    out = capsys.readouterr().out
    assert "miss rate" in out
    assert "fusion saving" in out or "fused groups" in out

def test_fleet_serving(capsys):
    run_example("fleet_serving.py",
                ["--streams", "2", "--frames", "2", "--scale", "0.12"])
    out = capsys.readouterr().out
    assert "per-stream veh1: 2/2 completed" in out
    assert "bit-identical -> True" in out
