"""Timed protocol actors: the table interpreter, WB, and the Machine."""

from repro.protocols.base import CorePort, DirectoryNode
from repro.protocols.machine import Machine, RunResult
from repro.protocols.spec import available_protocols
from repro.protocols.table import protocol_classes
from repro.protocols.wb import WbCorePort, WbDirectory

__all__ = [
    "Machine",
    "RunResult",
    "CorePort",
    "DirectoryNode",
    "protocol_classes",
    "available_protocols",
    "WbCorePort",
    "WbDirectory",
]
