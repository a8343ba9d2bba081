"""Memory substrate: address mapping, private caches and LLC slices."""

from repro.memory.address import AddressMap
from repro.memory.cache import CacheLine, Eviction, MesiState, SetAssocCache
from repro.memory.llc import DirectoryEntry, DirEntryState, LlcSlice

__all__ = [
    "AddressMap",
    "SetAssocCache",
    "CacheLine",
    "Eviction",
    "MesiState",
    "LlcSlice",
    "DirectoryEntry",
    "DirEntryState",
]
