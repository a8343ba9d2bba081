"""Regressions for the SEQ timed/checker divergences the audit found.

Two real bugs lived in the original hand-written timed SEQ actors (the
untimed checker model always had the correct behaviour):

* **Per-directory commit counts.**  Release-like ``seq_store`` gating
  compared the store's sequence number against the count of commits *at
  its own directory slice* — but prior stores fan out across slices, so
  any producer that touched two slices before a Release deadlocked (the
  release's home slice could never observe the other slice's commits).
  The table interpreter gates on
  :class:`repro.protocols.seq.SeqCommitBoard`, the machine-global counts
  the checker always summed.

* **Fence-less fences.**  The hand-written port inherited the base no-op
  ``drain``, so a release fence ordered nothing; the checker has always
  blocked fences until the sequence stream drained.  Release fences now
  flush (acquire fences stay free — SEQ tracks nothing they order).
"""

import pytest

from repro import Machine, ProgramBuilder, SystemConfig
from repro.consistency.ops import Ordering


def _addresses_on_distinct_slices(machine, host):
    """Two data addresses in ``host`` homed on different directory slices."""
    amap = machine.address_map
    by_dir = {}
    for offset in range(0x1000, 0x10000, 64):
        addr = amap.address_in_host(host, offset)
        by_dir.setdefault(amap.home_directory(addr).index, addr)
        if len(by_dir) == 2:
            return sorted(by_dir.values())
    pytest.skip("config folds every address onto one slice")


class TestCrossSliceRelease:
    def test_release_after_stores_to_two_slices_completes(self):
        # Pre-fix this deadlocked: the Release's home slice waited forever
        # for a commit count only the *other* slice was incrementing.
        config = SystemConfig().scaled(hosts=2, cores_per_host=2)
        machine = Machine(config, protocol="seq8")
        amap = machine.address_map
        data_a, data_b = _addresses_on_distinct_slices(machine, 1)
        flag = amap.address_in_host(1, 0x400)
        producer = (ProgramBuilder("producer")
                    .store(data_a, value=7)
                    .store(data_b, value=9)
                    .release_store(flag, value=1)
                    .build())
        consumer = (ProgramBuilder("consumer")
                    .load_until(flag, 1)
                    .load(data_a, register="r0")
                    .load(data_b, register="r1")
                    .build())
        consumer_core = config.cores_per_host
        result = machine.run({0: producer, consumer_core: consumer})
        assert result.history.register(consumer_core, "r0") == 7
        assert result.history.register(consumer_core, "r1") == 9

    def test_release_commits_after_both_slices(self):
        config = SystemConfig().scaled(hosts=2, cores_per_host=2)
        machine = Machine(config, protocol="seq8")
        data_a, data_b = _addresses_on_distinct_slices(machine, 1)
        flag = machine.address_map.address_in_host(1, 0x400)
        producer = (ProgramBuilder("producer")
                    .store(data_a, value=7)
                    .store(data_b, value=9)
                    .release_store(flag, value=1)
                    .build())
        result = machine.run({0: producer})
        events = result.history.events
        flag_commit = next(e for e in events if e.addr == flag and e.is_store)
        for data in (data_a, data_b):
            commit = next(e for e in events if e.addr == data and e.is_store)
            assert commit.uid < flag_commit.uid


class TestReleaseFenceDrains:
    def test_release_fence_flushes_outstanding_seqs(self, two_hosts):
        machine = Machine(two_hosts, protocol="seq8")
        addr = machine.address_map.address_in_host(1, 0x1000)
        program = (ProgramBuilder("fencer")
                   .store(addr, value=1)
                   .fence(Ordering.RELEASE)
                   .build())
        result = machine.run({0: program})
        # Pre-fix: no flush traffic, no stall — the fence was a no-op.
        assert result.message_count("seq_flush") >= 1
        assert result.stall_ns("seq_drain") > 0

    def test_acquire_fence_stays_free(self, two_hosts):
        machine = Machine(two_hosts, protocol="seq8")
        addr = machine.address_map.address_in_host(1, 0x1000)
        program = (ProgramBuilder("fencer")
                   .store(addr, value=1)
                   .fence(Ordering.ACQUIRE)
                   .build())
        result = machine.run({0: program})
        assert result.stall_ns("seq_drain") == 0

    def test_drained_fence_sends_nothing(self, two_hosts):
        machine = Machine(two_hosts, protocol="seq8")
        program = ProgramBuilder("fencer").fence(Ordering.RELEASE).build()
        result = machine.run({0: program})
        assert result.message_count("seq_flush") == 0
