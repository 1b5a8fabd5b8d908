"""Tests for repro.runtime.faultinject."""

import pytest

from repro.runtime.faultinject import FaultInjector, FaultSpec, InjectedFault


def fire_sequence(injector, point, n=40):
    """Whether each of ``n`` calls through ``point`` faulted."""
    outcomes = []
    for _ in range(n):
        try:
            injector.call(point, lambda: "ok")
            outcomes.append(False)
        except InjectedFault:
            outcomes.append(True)
    return outcomes


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        a = FaultInjector(seed=7)
        b = FaultInjector(seed=7)
        for injector in (a, b):
            injector.register("p", probability=0.3)
        assert fire_sequence(a, "p") == fire_sequence(b, "p")

    def test_different_seeds_diverge(self):
        a = FaultInjector(seed=0)
        b = FaultInjector(seed=1)
        for injector in (a, b):
            injector.register("p", probability=0.5)
        assert fire_sequence(a, "p") != fire_sequence(b, "p")

    def test_points_have_independent_streams(self):
        # Interleaving calls to another point must not shift p's schedule.
        a = FaultInjector(seed=3)
        a.register("p", probability=0.5)
        solo = fire_sequence(a, "p")

        b = FaultInjector(seed=3)
        b.register("p", probability=0.5)
        b.register("q", probability=0.5)
        interleaved = []
        for _ in range(40):
            try:
                b.call("p", lambda: "ok")
                interleaved.append(False)
            except InjectedFault:
                interleaved.append(True)
            b.should_fire("q")  # advance q's stream between p calls
        assert interleaved == solo


class TestModes:
    def test_raise_mode_default_exception(self):
        injector = FaultInjector()
        injector.register("p")
        with pytest.raises(InjectedFault):
            injector.call("p", lambda: "ok")

    def test_raise_mode_custom_exception(self):
        injector = FaultInjector()
        injector.register("p", exception=lambda: OSError("disk gone"))
        with pytest.raises(OSError, match="disk gone"):
            injector.call("p", lambda: "ok")

    def test_times_budget_then_passthrough(self):
        injector = FaultInjector()
        injector.register("p", times=2)
        assert fire_sequence(injector, "p", n=5) == [
            True, True, False, False, False,
        ]
        # The same budget across a task handoff: worker crashes are
        # credited against kill budgets only, so "crash once, then
        # succeed" arrives spent while a raise schedule arrives intact.
        for mode, times, crashes, fired in (
            ("raise", 2, 1, 0),
            ("kill", 1, 1, 1),
        ):
            source = FaultInjector(seed=3)
            source.register("p", mode=mode, times=times)
            rebuilt = FaultInjector.from_task(source.to_task(), crashes)
            assert rebuilt.seed == 3
            assert rebuilt.spec("p").fired == fired, mode
            assert rebuilt.should_fire("p") is (mode == "raise")
        assert FaultInjector.from_task(None, 2) is None

    def test_corrupt_mode_damages_return_value(self):
        injector = FaultInjector()
        injector.register("p", mode="corrupt", times=1)
        assert injector.call("p", lambda: [1, 2]) is None  # default: None
        assert injector.call("p", lambda: [1, 2]) == [1, 2]

    def test_corrupt_mode_custom_function(self):
        injector = FaultInjector()
        injector.register(
            "p", mode="corrupt", corrupt=lambda value: value[::-1]
        )
        assert injector.call("p", lambda: [1, 2, 3]) == [3, 2, 1]

    def test_hang_mode_sleeps_then_returns(self):
        slept = []
        injector = FaultInjector(sleep=slept.append)
        injector.register("p", mode="hang", hang_seconds=12.5, times=1)
        assert injector.call("p", lambda: "ok") == "ok"
        assert slept == [12.5]

    def test_unregistered_point_is_passthrough(self):
        injector = FaultInjector()
        assert injector.call("nope", lambda: 41 + 1) == 42


class TestApi:
    def test_register_validates_mode_and_probability(self):
        injector = FaultInjector()
        with pytest.raises(ValueError, match="mode"):
            injector.register("p", mode="explode")
        with pytest.raises(ValueError, match="probability"):
            injector.register("p", probability=1.5)

    def test_register_returns_live_spec(self):
        injector = FaultInjector()
        spec = injector.register("p", times=1)
        assert isinstance(spec, FaultSpec)
        with pytest.raises(InjectedFault):
            injector.call("p", lambda: "ok")
        assert spec.fired == 1
        assert spec.calls == 1

    def test_stats_and_clear(self):
        injector = FaultInjector()
        injector.register("p", times=1)
        injector.register("q", times=0)
        fire_sequence(injector, "p", n=3)
        assert injector.stats() == {
            "p": {"calls": 3, "fired": 1},
            "q": {"calls": 0, "fired": 0},
        }
        injector.clear("p")
        assert injector.spec("p") is None
        injector.clear()
        assert injector.stats() == {}

    def test_args_forwarded(self):
        injector = FaultInjector()
        assert injector.call("p", lambda a, b=0: a + b, 40, b=2) == 42


class TestDiskDamageModes:
    """bitrot/truncate: the disk-fault modes behind artifacts:damage.

    They damage *files* (via damage_file), never call results — a
    damage-mode spec on a point must leave call() as a pass-through.
    """

    def write_target(self, tmp_path, data=b"0123456789" * 20):
        path = tmp_path / "entry.jsonl"
        path.write_bytes(data)
        return path

    def test_bitrot_flips_exactly_one_byte(self, tmp_path):
        injector = FaultInjector(seed=5)
        injector.register("p", mode="bitrot", times=1)
        path = self.write_target(tmp_path)
        before = path.read_bytes()
        assert injector.damage_file("p", path) == "bitrot"
        after = path.read_bytes()
        assert len(after) == len(before)
        assert sum(a != b for a, b in zip(before, after)) == 1

    def test_truncate_shortens_the_file(self, tmp_path):
        injector = FaultInjector(seed=5)
        injector.register("p", mode="truncate", times=1)
        path = self.write_target(tmp_path)
        before = path.read_bytes()
        assert injector.damage_file("p", path) == "truncate"
        after = path.read_bytes()
        assert len(after) < len(before)
        assert before.startswith(after)

    def test_same_seed_damages_the_same_byte(self, tmp_path):
        results = []
        for run in range(2):
            injector = FaultInjector(seed=11)
            injector.register("p", mode="bitrot", times=1)
            path = tmp_path / f"copy{run}.jsonl"
            path.write_bytes(b"0123456789" * 20)
            injector.damage_file("p", path)
            results.append(path.read_bytes())
        assert results[0] == results[1]

    def test_budget_limits_damage(self, tmp_path):
        injector = FaultInjector(seed=5)
        injector.register("p", mode="bitrot", times=1)
        first = self.write_target(tmp_path)
        assert injector.damage_file("p", first) == "bitrot"
        untouched = tmp_path / "second.jsonl"
        untouched.write_bytes(b"safe")
        assert injector.damage_file("p", untouched) is None
        assert untouched.read_bytes() == b"safe"

    def test_missing_file_refunds_the_budget(self, tmp_path):
        injector = FaultInjector(seed=5)
        injector.register("p", mode="bitrot", times=1)
        assert injector.damage_file("p", tmp_path / "absent.jsonl") is None
        # the budget survived the misfire and lands on a real file
        path = self.write_target(tmp_path)
        assert injector.damage_file("p", path) == "bitrot"

    def test_empty_file_refunds_the_budget(self, tmp_path):
        injector = FaultInjector(seed=5)
        injector.register("p", mode="bitrot", times=1)
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        assert injector.damage_file("p", empty) is None
        path = self.write_target(tmp_path)
        assert injector.damage_file("p", path) == "bitrot"

    def test_damage_modes_are_inert_in_call(self, tmp_path):
        injector = FaultInjector(seed=5)
        injector.register("p", mode="bitrot")
        injector.register("q", mode="truncate")
        assert injector.call("p", lambda: 42) == 42
        assert injector.call("q", lambda: "ok") == "ok"

    def test_non_damage_point_is_a_damage_file_noop(self, tmp_path):
        injector = FaultInjector(seed=5)
        injector.register("p", mode="raise")
        path = self.write_target(tmp_path)
        before = path.read_bytes()
        assert injector.damage_file("p", path) is None
        assert path.read_bytes() == before

    def test_export_specs_round_trips_damage_modes(self, tmp_path):
        injector = FaultInjector(seed=5)
        injector.register("p", mode="bitrot", times=2)
        path = self.write_target(tmp_path)
        injector.damage_file("p", path)

        rebuilt = FaultInjector.from_specs(injector.export_specs(), seed=5)
        spec = rebuilt.spec("p")
        assert spec.mode == "bitrot"
        assert spec.fired == 1  # the spent budget survived the hop
        second = tmp_path / "second.jsonl"
        second.write_bytes(b"0123456789" * 20)
        assert rebuilt.damage_file("p", second) == "bitrot"
        assert rebuilt.damage_file("p", second) is None  # budget exhausted
