"""Tests for the parallel sweep executor and its result cache."""

import dataclasses
import json

import pytest

from repro.config import CXL, CordConfig, SystemConfig
from repro.faults import parse_faults
from repro.harness import (
    CheckSpec,
    Executor,
    RunSpec,
    SweepError,
    default_executor,
    fig7_end_to_end,
    read_run_log,
    set_default_executor,
    spec_key,
)
from repro.harness.executor import _execute_spec, code_version
from repro.sim import DeadlockError
from repro.harness.experiments import default_config
from repro.litmus import LitmusTest, ld, poll_acq, st, st_rel
from repro.protocols.machine import Machine
from repro.workloads.micro import MicroSpec, build_micro_programs
from repro.workloads.openloop import OpenLoopSpec, build_openloop_programs
from repro.workloads.table2 import APPLICATIONS

MICRO = MicroSpec(store_granularity=64, sync_granularity=1024,
                  fanout=1, total_bytes=4 * 1024)

LITMUS_MP = LitmusTest(
    name="MP",
    locations={"X": 2, "Y": 1},
    programs=[
        [st("X", 1), st_rel("Y", 1)],
        [poll_acq("Y", 1, "r1"), ld("X", "r2")],
    ],
    forbidden=[{"P1:r1": 1, "P1:r2": 0}],
)


def sim_dict(record):
    """Record contents minus wall-clock time (which is never deterministic)."""
    data = record.to_dict()
    data.pop("wall_time_s")
    return data


def micro_spec(protocol="cord", **overrides):
    defaults = dict(
        kind="micro", protocol=protocol, workload=MICRO,
        config=default_config(CXL, hosts=2, cores_per_host=1),
        seed=0, experiment="test",
    )
    defaults.update(overrides)
    return RunSpec(**defaults)


class TestSpecKey:
    def test_same_spec_same_key(self):
        assert spec_key(micro_spec()) == spec_key(micro_spec())

    def test_protocol_changes_key(self):
        assert spec_key(micro_spec("cord")) != spec_key(micro_spec("so"))

    def test_workload_changes_key(self):
        other = dataclasses.replace(MICRO, total_bytes=8 * 1024)
        assert (spec_key(micro_spec())
                != spec_key(micro_spec(workload=other)))

    def test_cord_config_changes_key(self):
        assert (spec_key(micro_spec())
                != spec_key(micro_spec(cord_config=CordConfig(epoch_bits=4))))

    def test_code_version_changes_key(self):
        spec = micro_spec()
        assert (spec_key(spec, version="aaa")
                != spec_key(spec, version="bbb"))
        assert spec_key(spec) == spec_key(spec, version=code_version())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown workload kind"):
            micro_spec(kind="nope")

    def test_derived_seed_is_stable(self):
        spec = micro_spec(seed=None)
        assert spec.effective_seed == micro_spec(seed=None).effective_seed
        assert (spec.effective_seed
                != micro_spec(seed=None, protocol="so").effective_seed)


class TestPinnedKeys:
    """Cache keys (``version="pin"``) and derived seeds recorded for a
    handful of specs.  Canonicalization feeds both, so a change to it that
    moved a derived seed would move simulated results; it must not."""

    CONFIG = default_config(CXL, hosts=2, cores_per_host=1)
    #: name -> (RunSpec fields, key at ``version="pin"``, derived seed).
    RUNS = {
        "app": (
            dict(kind="app", protocol="cord", workload=APPLICATIONS["CR"]),
            "0d940cff62d7e6dab0215bdeef126fdb812dc551866259b472a2dfdab96bfe76",
            4085756589592194308),
        "micro": (
            dict(kind="micro", protocol="so", workload=MICRO),
            "4c74f4cc41102f3c15da336666d9d8618518ea910a5934139940413d60a05631",
            8826357288877320137),
        "openloop": (
            dict(kind="openloop", protocol="tardis",
                 workload=OpenLoopSpec(requests=8)),
            "fc7b18f00f3860f5a2237fb626a084988a9457fd717702c3ee2c6ed10516111b",
            5096412835184877376),
        "traced": (
            dict(kind="micro", protocol="cord", workload=MICRO, trace=True),
            "c0aafe41c6bdce882bc19cebfdfdec25f80054858a127fbe0cefda4a27e2913a",
            3258715457279352481),
        "faulted": (
            dict(kind="micro", protocol="cord", workload=MICRO,
                 faults=parse_faults("drop+dup")),
            "c9870380424e117447bfd1f0ebde2b58249e6b49d49b437f43154f4a039d1870",
            6228366710240699164),
    }
    #: name -> (CheckSpec fields besides the test, key at ``version="pin"``).
    CHECKS = {
        "default": (
            {},
            "6db2f7132d3819c0005509b6c275d9a84d8c6f74fb5aef30fe51765335218b7b",
        ),
        "tiny": (
            dict(cord_config=CordConfig(epoch_bits=2, counter_bits=2)),
            "adfc2e7d304fd8a574d07d852729b61f1b1873c7bd9e42efb4b2dbcefd7e0f17",
        ),
        "tso": (
            dict(protocol="so", tso=True),
            "40b9dfe60cd1dfc62b92548cde4a7cb19dd3338fe0055b1d4f1941d5f30a7eee",
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_run_spec_key_and_seed(self, name):
        fields, key, seed = self.RUNS[name]
        spec = RunSpec(config=self.CONFIG, **fields)
        assert spec.seed is None
        assert spec_key(spec, version="pin") == key
        assert spec.effective_seed == seed

    @pytest.mark.parametrize("name", sorted(CHECKS))
    def test_check_spec_key(self, name):
        fields, key = self.CHECKS[name]
        assert spec_key(CheckSpec(test=LITMUS_MP, **fields),
                        version="pin") == key

    def test_check_spec_storage_fields_stay_out_of_the_key(self):
        plain = CheckSpec(test=LITMUS_MP)
        stored = CheckSpec(test=LITMUS_MP, visited_db="visited",
                           spill_threshold=0)
        assert stored == plain
        assert spec_key(stored) == spec_key(plain)
        assert (spec_key(stored, version="pin")
                == self.CHECKS["default"][1])


def direct_micro_run(protocol="cord"):
    """The run ``micro_spec(protocol)`` describes, on a hand-built Machine."""
    config = default_config(CXL, hosts=2, cores_per_host=1)
    machine = Machine(config, protocol=protocol, seed=0)
    return machine.run(build_micro_programs(MICRO, config))


class TestRecord:
    def test_record_matches_direct_run(self):
        record = _execute_spec(micro_spec())
        direct = direct_micro_run()
        assert record.time_ns == direct.time_ns
        assert record.quiesce_ns == direct.quiesce_ns
        assert record.inter_host_bytes == direct.inter_host_bytes
        assert record.stats == direct.stats.as_dict()
        assert record.events > 0
        assert record.wall_time_s > 0

    @pytest.mark.parametrize("protocol", ["cord", "so"])
    def test_shared_accessors_answer_alike(self, protocol):
        record = _execute_spec(micro_spec(protocol))
        direct = direct_micro_run(protocol)
        assert list(record.stat_items()) == list(direct.stat_items())
        for accessor in ("inter_host_bytes", "inter_host_control_bytes",
                         "inter_host_data_bytes"):
            assert getattr(record, accessor) == getattr(direct, accessor)
        assert record.stall_ns() == direct.stall_ns() > 0
        for cause in ("wait_wt_ack", "wait_drain", "never_recorded"):
            assert record.stall_ns(cause) == direct.stall_ns(cause)
            assert (record.core_stall_ns(0, cause)
                    == direct.core_stall_ns(0, cause))
        for msg_type in ("wt_rlx", "wt_store", "wt_ack", "rel_ack"):
            for scope in ("inter_host", "intra_host"):
                assert (record.message_count(msg_type, scope)
                        == direct.message_count(msg_type, scope))

    def test_shared_accessors_read_no_derived_name(self):
        # stat() is portable for counters only: the record answers an
        # accumulator's derived names, the live result reads them as 0.0.
        config = default_config(CXL, hosts=2, cores_per_host=2)
        spec = RunSpec(kind="openloop", protocol="cord", config=config,
                       workload=OpenLoopSpec(requests=8), seed=0)
        record = _execute_spec(spec)
        direct = Machine(config, protocol="cord", seed=0).run(
            build_openloop_programs(spec.workload, config))
        derived = {name for name, _ in record.stat_items()
                   if record.stat(name) != direct.stat(name)}
        assert "openloop.delivery_latency_ns.max" in derived
        assert all(name.startswith("openloop.") for name in derived)
        asked, answers = [], []
        for stats in (record, direct):
            stat = stats.stat
            stats.stat = lambda name, stat=stat: asked.append(name) or stat(name)
            answers.append((
                stats.inter_host_bytes, stats.inter_host_control_bytes,
                stats.inter_host_data_bytes, stats.stall_ns(),
                stats.stall_ns("wait_wt_ack"),
                stats.core_stall_ns(0, "wait_drain"),
                stats.message_count("wt_rlx"),
                stats.message_count("wt_ack", "intra_host"),
            ))
        assert answers[0] == answers[1]
        assert len(asked) == 14 and not derived.intersection(asked)

    def test_json_round_trip_is_lossless(self):
        record = _execute_spec(micro_spec())
        restored = type(record).from_dict(
            json.loads(json.dumps(record.to_dict())), cached=True
        )
        assert restored.cached and not record.cached
        assert restored.to_dict() == record.to_dict()
        assert restored.storage_report().max_dir_bytes == \
            record.storage_report().max_dir_bytes

    def test_accumulator_tails_survive_the_cache(self, tmp_path):
        """Regression: records carrying accumulator stats used to come
        back from the cache without total/min/max (``as_dict`` dropped
        them), so cached and fresh records compared unequal."""
        from repro.sim import StatRegistry
        stats = StatRegistry()
        acc = stats.accumulator("net.latency")
        for value in (40.0, 10.0, 70.0):
            acc.add(value)
        record = _execute_spec(micro_spec())
        record.stats.update(stats.as_dict())
        restored = type(record).from_dict(
            json.loads(json.dumps(record.to_dict())), cached=True
        )
        assert restored.stats == record.stats
        assert restored.stat("net.latency.total") == 120.0
        assert restored.stat("net.latency.min") == 10.0
        assert restored.stat("net.latency.max") == 70.0


class TestCache:
    def test_second_map_is_all_hits(self, tmp_path):
        ex = Executor(cache_dir=tmp_path)
        specs = [micro_spec("cord"), micro_spec("so")]
        first = ex.map(specs)
        assert (ex.hits, ex.misses) == (0, 2)
        second = ex.map(specs)
        assert (ex.hits, ex.misses) == (2, 2)
        assert all(r.cached for r in second)
        assert [sim_dict(r) for r in first] == [sim_dict(r) for r in second]

    def test_order_preserved_with_mixed_hits(self, tmp_path):
        ex = Executor(cache_dir=tmp_path)
        ex.run(micro_spec("so"))
        records = ex.map([micro_spec("cord"), micro_spec("so")])
        assert [r.protocol for r in records] == ["cord", "so"]
        assert [r.cached for r in records] == [False, True]

    def test_corrupt_cache_entry_is_re_run(self, tmp_path):
        ex = Executor(cache_dir=tmp_path)
        record = ex.run(micro_spec())
        path = ex._cache_path(record.spec_key)
        path.write_text("{not json")
        again = ex.run(micro_spec())
        assert not again.cached
        assert sim_dict(again) == sim_dict(record)

    def test_no_cache_dir_disables_caching(self):
        ex = Executor()
        ex.run(micro_spec())
        ex.run(micro_spec())
        assert (ex.hits, ex.misses) == (0, 2)


class TestRunLog:
    def test_log_records_metadata_and_cache_flags(self, tmp_path):
        log = tmp_path / "runs.jsonl"
        ex = Executor(cache_dir=tmp_path / "cache", run_log=log)
        ex.map([micro_spec("cord"), micro_spec("so")])
        ex.run(micro_spec("cord"))
        lines = read_run_log(log)
        assert len(lines) == 3
        assert [line["cached"] for line in lines] == [False, False, True]
        first = lines[0]
        assert first["protocol"] == "cord"
        assert first["experiment"] == "test"
        assert first["sim_time_ns"] > 0
        assert first["wall_time_s"] > 0
        assert first["events"] > 0
        assert first["inter_host_msgs"] > 0


class TestParallel:
    def test_pool_matches_inline(self, tmp_path):
        specs = [micro_spec(p) for p in ("cord", "so", "mp")]
        inline = Executor().map(specs)
        pooled = Executor(jobs=2).map(specs)
        assert [sim_dict(r) for r in pooled] == [sim_dict(r) for r in inline]

    def test_invalid_jobs_rejected(self):
        with pytest.raises(ValueError):
            Executor(jobs=0)


class TestDuplicateSpecs:
    """Regression: identical specs in one sweep used to be simulated N times
    (and, under a pool, raced each other into the cache)."""

    def test_duplicates_simulate_once_and_fan_out(self, tmp_path, monkeypatch):
        import repro.harness.executor as executor_module
        calls = []
        real = executor_module._execute_spec

        def counting(spec, trace_dir=None):
            calls.append(spec)
            return real(spec, trace_dir)

        monkeypatch.setattr(executor_module, "_execute_spec", counting)
        ex = Executor(cache_dir=tmp_path)
        records = ex.map([micro_spec()] * 3)
        assert len(calls) == 1
        assert (ex.hits, ex.misses) == (2, 1)
        assert len(records) == 3
        assert len({id(r) for r in records}) == 1   # same record fanned out
        assert [sim_dict(r) for r in records[1:]] == [sim_dict(records[0])] * 2

    def test_mixed_duplicates_preserve_order(self, tmp_path):
        ex = Executor(cache_dir=tmp_path)
        records = ex.map([micro_spec("cord"), micro_spec("so"),
                          micro_spec("cord")])
        assert [r.protocol for r in records] == ["cord", "so", "cord"]
        assert (ex.hits, ex.misses) == (1, 2)
        assert sim_dict(records[0]) == sim_dict(records[2])


def livelock_spec(protocol="so", **overrides):
    """A spec guaranteed to exhaust its event budget (DeadlockError)."""
    overrides.setdefault("max_events", 10)
    return micro_spec(protocol, **overrides)


class TestSweepFailure:
    """Regression: one failing run used to abort the whole sweep with a bare
    worker exception and discard every completed sibling's record."""

    def test_inline_failure_names_spec_and_keeps_completed(self, tmp_path):
        good, bad = micro_spec("cord"), livelock_spec()
        ex = Executor(cache_dir=tmp_path)
        with pytest.raises(SweepError) as excinfo:
            ex.map([good, bad])
        assert "protocol='so'" in str(excinfo.value)
        assert "micro.g64" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, DeadlockError)
        assert excinfo.value.spec == bad
        # The completed run was cached before the raise.
        fresh = Executor(cache_dir=tmp_path)
        record = fresh.run(good)
        assert record.cached and (fresh.hits, fresh.misses) == (1, 0)

    def test_pool_failure_keeps_every_completed_record(self, tmp_path):
        good = [micro_spec("cord"), micro_spec("mp")]
        ex = Executor(jobs=2, cache_dir=tmp_path)
        with pytest.raises(SweepError) as excinfo:
            ex.map([good[0], livelock_spec(), good[1]])
        assert isinstance(excinfo.value.__cause__, DeadlockError)
        fresh = Executor(cache_dir=tmp_path)
        fresh.map(good)
        assert (fresh.hits, fresh.misses) == (2, 0)

    def test_sweep_error_survives_pickling(self):
        import pickle
        bad = livelock_spec()
        try:
            Executor().run(bad)
        except SweepError as error:
            restored = pickle.loads(pickle.dumps(error))
        else:
            pytest.fail("livelock spec did not raise")
        assert restored.spec == bad
        assert isinstance(restored.__cause__, DeadlockError)
        assert "protocol='so'" in str(restored)


@pytest.mark.slow
class TestFig7Acceptance:
    """The PR's acceptance criterion, on a reduced app set for speed."""

    def test_parallel_rows_byte_identical_and_warm_cache_is_pure_hits(
        self, tmp_path
    ):
        kwargs = dict(interconnects=(CXL,), apps=("CR", "TQH"))
        serial = fig7_end_to_end(**kwargs)
        ex = Executor(jobs=4, cache_dir=tmp_path)
        parallel = fig7_end_to_end(executor=ex, **kwargs)
        assert json.dumps(parallel) == json.dumps(serial)
        cold_misses = ex.misses
        warm = fig7_end_to_end(executor=ex, **kwargs)
        assert json.dumps(warm) == json.dumps(serial)
        assert ex.misses == cold_misses          # zero new simulations
        assert ex.hits == cold_misses


class TestDefaultExecutor:
    def test_default_is_serial_and_uncached(self):
        ex = default_executor()
        assert ex.jobs == 1 and ex.cache_dir is None

    def test_set_default_round_trips(self):
        mine = Executor(jobs=2)
        previous = set_default_executor(mine)
        try:
            assert default_executor() is mine
        finally:
            set_default_executor(previous)
