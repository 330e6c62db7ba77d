"""Span/tracer mechanics: nesting, balance, thread-locality, export."""

import json
import threading
import time

import pytest

from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    current_tracer,
    span,
    use_tracer,
)


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("frame") as frame:
                with span("plan"):
                    pass
                with span("execute") as ex:
                    with span("tier_io", tier="L1"):
                        pass
        assert tracer.roots == [frame]
        assert [c.name for c in frame.children] == ["plan", "execute"]
        assert [c.name for c in ex.children] == ["tier_io"]

    def test_durations_are_monotonic_and_nested(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("outer") as outer:
                with span("inner") as inner:
                    time.sleep(0.002)
        assert inner.duration > 0
        assert outer.duration >= inner.duration

    def test_counters_accumulate(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("probe") as sp:
                sp.count("hits", 3)
                sp.count("hits", 2)
        assert sp.counters == {"hits": 5.0}

    def test_attrs_recorded(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("tier_io", tier="TraceStore", way="get") as sp:
                pass
        assert sp.attrs == {"tier": "TraceStore", "way": "get"}


class TestBalanceUnderExceptions:
    def test_exception_closes_the_span(self):
        """A raising body must still pop the stack and stamp the duration
        — the tree stays well-formed for the dump."""
        tracer = Tracer()
        with use_tracer(tracer):
            with pytest.raises(ValueError):
                with span("frame"):
                    with span("plan"):
                        raise ValueError("boom")
            assert tracer.current() is None  # stack fully unwound
        (frame,) = tracer.roots
        assert frame.duration > 0
        (plan,) = frame.children
        assert plan.duration > 0

    def test_sibling_after_exception_attaches_correctly(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("frame") as frame:
                try:
                    with span("probe"):
                        raise KeyError("miss")
                except KeyError:
                    pass
                with span("execute"):
                    pass
        assert [c.name for c in frame.children] == ["probe", "execute"]


class TestDisabled:
    def test_no_tracer_returns_shared_null_span(self):
        assert current_tracer() is None
        assert span("anything", op="knn") is NULL_SPAN
        assert span("other") is NULL_SPAN  # the same shared object

    def test_null_span_supports_the_span_surface(self):
        with span("x") as sp:
            sp.count("hits", 3)
        assert sp.counters == {}
        assert sp.children == []
        assert sp.duration == 0.0

    def test_disabled_per_call_cost_is_tiny(self):
        """The disabled hook is one global read + one call: bound the
        per-site cost far below anything a frame would notice."""
        n = 50_000
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(n):
                with span("probe", op="knn"):
                    pass
            best = min(best, time.perf_counter() - t0)
        assert best / n < 20e-6  # 20us per disabled site is already absurd


class TestThreads:
    def test_side_thread_spans_do_not_interleave(self):
        tracer = Tracer()
        done = threading.Event()

        def side():
            with tracer.span("side_root"):
                done.wait(1.0)

        with use_tracer(tracer):
            thread = threading.Thread(target=side)
            thread.start()
            time.sleep(0.005)
            with span("main_root") as main_root:
                with span("child"):
                    pass
            done.set()
            thread.join(2.0)
        names = sorted(r.name for r in tracer.roots)
        assert names == ["main_root", "side_root"]
        # The side thread's span never landed under the main thread's tree.
        assert [c.name for c in main_root.children] == ["child"]

    def test_detached_span_attaches_where_the_caller_puts_it(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with tracer.detached("trace_build") as built:
                with span("inner"):
                    pass
            assert built not in tracer.roots
            with span("request") as req:
                req.children.insert(0, built)
        assert [c.name for c in req.children] == ["trace_build"]
        assert [c.name for c in built.children] == ["inner"]


class TestExport:
    def test_dump_jsonl_roundtrips(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("frame", index=0) as sp:
                sp.count("hits", 2)
                with span("plan"):
                    pass
        path = tmp_path / "trace.jsonl"
        n = tracer.dump_jsonl(str(path))
        assert n == 2
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1  # one root per line
        obj = json.loads(lines[0])
        assert obj["name"] == "frame"
        assert obj["attrs"] == {"index": 0}
        assert obj["counters"] == {"hits": 2.0}
        assert [c["name"] for c in obj["children"]] == ["plan"]
        assert obj["dur_ms"] >= obj["children"][0]["dur_ms"]

    def test_drain_empties_the_root_list(self):
        tracer = Tracer()
        with use_tracer(tracer):
            with span("a"):
                pass
        roots = tracer.drain()
        assert [r.name for r in roots] == ["a"]
        assert tracer.roots == []

    def test_spans_pickle(self):
        import pickle

        root = Span("request", {"index": 3})
        root.count("hits", 1)
        root.children.append(Span("backend"))
        clone = pickle.loads(pickle.dumps(root))
        assert clone.name == "request"
        assert clone.attrs == {"index": 3}
        assert [c.name for c in clone.children] == ["backend"]
