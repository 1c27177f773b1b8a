"""SimStats: the engine's observability counter/timer block."""

from repro.sim.engine import Simulator, UnitRateModel
from repro.sim.process import Segment, SimProcess
from repro.sim.stats import SimStats


class TestCounters:
    def test_count_accumulates(self):
        stats = SimStats()
        stats.count("resolves")
        stats.count("resolves", 2)
        assert stats.counters["resolves"] == 3

    def test_missing_counter_reads_zero_in_as_dict(self):
        assert "resolves" not in SimStats().as_dict()

    def test_reset_clears_everything(self):
        stats = SimStats()
        stats.count("x")
        with stats.timer("y"):
            pass
        stats.reset()
        assert stats.counters == {}
        assert stats.timings == {}


class TestTimers:
    def test_timer_accumulates_nonnegative(self):
        stats = SimStats()
        with stats.timer("resolve"):
            pass
        with stats.timer("resolve"):
            pass
        assert stats.timings["resolve"] >= 0.0

    def test_timer_reraises(self):
        stats = SimStats()
        try:
            with stats.timer("resolve"):
                raise ValueError("boom")
        except ValueError:
            pass
        assert "resolve" in stats.timings

    def test_nested_same_name_and_exceptions_accumulate_exactly(self, monkeypatch):
        # A fake clock that advances one second per read: each timed body
        # spans exactly its clock reads, so the totals are exact.
        clock = iter(range(100))
        monkeypatch.setattr(
            "repro.sim.stats.time.perf_counter", lambda: float(next(clock))
        )
        stats = SimStats()
        with stats.timer("resolve"):  # reads 0 and 3
            with stats.timer("resolve"):  # reads 1 and 2
                pass
        assert stats.timings == {"resolve": 3.0 + 1.0}
        try:
            with stats.timer("resolve"):  # reads 4 and 7
                with stats.timer("node"):  # reads 5 and 6
                    raise ValueError("boom")
        except ValueError:
            pass
        # both bodies were charged although the inner one raised
        assert stats.timings == {"resolve": 4.0 + 3.0, "node": 1.0}
        with stats.timer("resolve"):  # reads 8 and 9
            pass
        assert stats.timings == {"resolve": 7.0 + 1.0, "node": 1.0}


class TestRendering:
    def test_as_dict_prefixes_timings(self):
        stats = SimStats()
        stats.count("resolves", 4)
        with stats.timer("resolve"):
            pass
        flat = stats.as_dict()
        assert flat["resolves"] == 4
        assert "t_resolve" in flat

    def test_describe_lists_all_entries(self):
        stats = SimStats()
        stats.count("events_dispatched", 7)
        lines = stats.describe()
        assert lines[0].startswith("profile")
        assert any("events_dispatched" in line and "7" in line for line in lines)


class TestEngineIntegration:
    def test_engine_counts_events_and_resolves(self):
        sim = Simulator(UnitRateModel())

        def body(proc):
            yield Segment(work=1.0)
            yield Segment(work=2.0)

        sim.spawn(SimProcess(name="p", body=body, node="node0", core=0))
        sim.run()
        assert sim.stats.counters["events_dispatched"] > 0
        assert sim.stats.counters["resolves"] > 0
        assert sim.stats.timings["resolve"] >= 0.0

    def test_model_shares_the_engine_stats_block(self):
        sim = Simulator(UnitRateModel())
        assert sim.model.stats is sim.stats
