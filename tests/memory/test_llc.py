"""Tests for the LLC slice + directory entries."""

from repro.config import CacheConfig
from repro.memory import DirEntryState, LlcSlice


def make_slice():
    return LlcSlice(CacheConfig(64 * 1024, 8, 8))


class TestWriteThroughCommit:
    def test_commit_counts_stores_and_bytes(self):
        slc = make_slice()
        slc.commit_write_through()
        slc.commit_write_through()
        assert slc.write_through_commits == 2


class TestDirectoryEntries:
    def test_entry_created_on_demand(self):
        slc = make_slice()
        entry = slc.directory_entry(0x100)
        assert entry.state is DirEntryState.UNCACHED
        assert entry.owner is None
        assert entry.sharers == set()

    def test_entry_identity_stable(self):
        slc = make_slice()
        assert slc.directory_entry(0x100) is slc.directory_entry(0x100)

    def test_drop_entry(self):
        slc = make_slice()
        entry = slc.directory_entry(0x100)
        entry.sharers.add(3)
        slc.drop_entry(0x100)
        assert slc.directory_entry(0x100).sharers == set()

    def test_tracked_lines(self):
        slc = make_slice()
        slc.directory_entry(0x100)
        slc.directory_entry(0x200)
        assert slc.tracked_lines() == 2
