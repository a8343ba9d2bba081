"""Tests for physical address mapping."""

import pytest

from repro.config import SystemConfig
from repro.memory import AddressMap


@pytest.fixture
def amap():
    return AddressMap(SystemConfig())  # 8 hosts x 8 slices, 4 GB regions


class TestLineMath:
    def test_line_address_truncates(self, amap):
        assert amap.line_address(0) == 0
        assert amap.line_address(63) == 0
        assert amap.line_address(64) == 64
        assert amap.line_address(130) == 128

    def test_lines_spanned(self, amap):
        assert amap.lines_spanned(0, 1) == 1
        assert amap.lines_spanned(0, 64) == 1
        assert amap.lines_spanned(0, 65) == 2
        assert amap.lines_spanned(60, 8) == 2
        assert amap.lines_spanned(0, 4096) == 64


class TestHostMapping:
    def test_host_regions_are_contiguous(self, amap):
        region = amap.host_region_bytes
        assert amap.host_of(0) == 0
        assert amap.host_of(region - 1) == 0
        assert amap.host_of(region) == 1
        assert amap.host_of(7 * region) == 7

    def test_address_beyond_last_host_rejected(self, amap):
        with pytest.raises(ValueError):
            amap.host_of(8 * amap.host_region_bytes)

    def test_address_in_host_roundtrip(self, amap):
        addr = amap.address_in_host(3, 0x1234)
        assert amap.host_of(addr) == 3
        assert addr % amap.host_region_bytes == 0x1234

    def test_offset_outside_region_rejected(self, amap):
        with pytest.raises(ValueError):
            amap.address_in_host(0, amap.host_region_bytes)


class TestSliceInterleaving:
    def test_consecutive_lines_interleave_across_slices(self, amap):
        slices = [amap.slice_of(line * 64) for line in range(8)]
        assert slices == list(range(8))

    def test_same_line_same_slice(self, amap):
        assert amap.slice_of(0) == amap.slice_of(63)

    def test_home_directory_matches_host_and_slice(self, amap):
        addr = amap.address_in_host(2, 64)  # host 2, line 1 -> slice 1
        home = amap.home_directory(addr)
        assert home.kind == "dir"
        assert home.host == 2
        assert home.index == 2 * 8 + 1

    def test_home_directory_deterministic(self, amap):
        addr = amap.address_in_host(5, 0x8000)
        assert amap.home_directory(addr) == amap.home_directory(addr)

    def test_one_node_id_per_slice(self, amap):
        """Every address a slice homes resolves to the same ``NodeId``
        object, so a run keeps one per slice, not one per address."""
        line = amap.line_bytes
        slices = amap.config.slices_per_host
        addrs = [amap.address_in_host(2, 64 + k * slices * line + k)
                 for k in range(5)]
        homes = [amap.home_directory(addr) for addr in addrs]
        assert all(home is homes[0] for home in homes)
        assert homes[0] == ("dir", 2 * 8 + 1, 2)
        assert amap.home_directory(amap.address_in_host(2, 0)) is not homes[0]


class TestRuns:
    def test_run_addresses(self, amap):
        run = amap.run_in_host(3, 0x1000, 4, 64)
        assert list(run) == [amap.address_in_host(3, 0x1000 + i * 64)
                             for i in range(4)]

    def test_run_checks_its_last_access(self, amap):
        end = amap.host_region_bytes
        assert len(amap.run_in_host(0, end - 4 * 64, 4, 64)) == 4
        with pytest.raises(ValueError):
            amap.run_in_host(0, end - 4 * 64, 5, 64)

    def test_empty_run(self, amap):
        assert list(amap.run_in_host(1, 0x40, 0, 64)) == []
