"""Workload generators: Table 2 applications, sensitivity micro, ATA."""

from repro.workloads.ata import AtaSpec, build_ata_programs
from repro.workloads.base import (
    WorkloadSpec,
    build_workload_programs,
    consumer_core,
    producer_core,
)
from repro.workloads.micro import MicroSpec, build_micro_programs
from repro.workloads.openloop import OpenLoopSpec, build_openloop_programs
from repro.workloads.table2 import APPLICATIONS, CHAI, DOE, PANNOTIA, app, app_names

__all__ = [
    "WorkloadSpec",
    "build_workload_programs",
    "producer_core",
    "consumer_core",
    "MicroSpec",
    "build_micro_programs",
    "OpenLoopSpec",
    "build_openloop_programs",
    "AtaSpec",
    "build_ata_programs",
    "APPLICATIONS",
    "app",
    "app_names",
    "PANNOTIA",
    "CHAI",
    "DOE",
]
