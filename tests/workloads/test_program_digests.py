"""Pinned digests of the op streams every workload builder emits.

The builders are tuned for speed under the same rule as the engine: a
faster builder must emit exactly the programs the old one did.  Each
digest is a SHA-256 over every program's core id and name and, for each
op in order, the ``repr`` of all nine :class:`~repro.consistency.ops.MemOp`
fields (``meta`` as its sorted items), so a changed value, a changed type
(``1`` vs ``1.0``) or a reordered op all move it.

Covered: each Table-2 app at two iterations (perfbench's apps-closed
point) and at its default length, perfbench's 1 MB micro, the §5.3
default micro and a fan-out micro without issue gaps, perfbench's
open-loop spec at workload seeds 1 and 4242, the ``scale --quick``
open-loop grid, a deterministic fan-out open-loop spec, one ATA spec, and
the compiled programs of the litmus suites.

If a digest changes on purpose, print the new table with
``PYTHONPATH=src python tests/workloads/test_program_digests.py`` and
explain the change where it is committed.
"""

import hashlib
from typing import Callable, Dict, Iterable, List, Tuple

import pytest

from repro.config import CXL, SystemConfig
from repro.cpu.program import Program
from repro.harness.experiments import default_config
from repro.harness.scale import QUICK_LOADS, QUICK_SIZES
from repro.litmus.suite import classic_tests, full_suite
from repro.workloads import (
    AtaSpec,
    MicroSpec,
    OpenLoopSpec,
    build_ata_programs,
    build_micro_programs,
    build_openloop_programs,
    build_workload_programs,
)
from repro.workloads.table2 import APPLICATIONS

#: perfbench's open-loop arrival seeds, ``derive(seed, "arrivals")`` for
#: workload seeds 1 and 4242 (the faulted units replay seed 1's).
PERFBENCH_ARRIVAL_SEEDS = {1: 2119048171, 4242: 1210705782}


def _op_fields(op) -> Tuple:
    return (op.kind, op.addr, op.size, op.ordering, op.policy, op.value,
            op.register, op.duration_ns, sorted(op.meta.items()))


def _digest(cores: Iterable[Tuple[int, str, List]]) -> str:
    digest = hashlib.sha256()
    for core, name, ops in cores:
        digest.update(f"core {core} {name!r}\n".encode())
        for op in ops:
            digest.update(repr(_op_fields(op)).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def _programs_digest(programs: Dict[int, Program]) -> str:
    return _digest((core, programs[core].name, programs[core].ops)
                   for core in sorted(programs))


def _litmus_digest(tests) -> str:
    cores = []
    for test in tests:
        for thread, ops in enumerate(test.compile(test.default_config())):
            cores.append((thread, f"{test.name}.P{thread}", ops))
    return _digest(cores)


def _unique_tests(specs):
    seen = {}
    for spec in specs:
        seen.setdefault(spec.test.name, spec.test)
    return list(seen.values())


def _openloop_config(hosts: int, pods: int) -> SystemConfig:
    config = SystemConfig().scaled(hosts, 2).with_interconnect(CXL)
    return config.with_pods(pods) if pods > 1 else config


def _cases() -> Dict[str, Callable[[], str]]:
    apps = default_config(CXL)
    cases: Dict[str, Callable[[], str]] = {}
    for name, spec in APPLICATIONS.items():
        cases[f"app/{name}/it2"] = (
            lambda spec=spec: _programs_digest(
                build_workload_programs(spec.scaled(2), apps)))
        cases[f"app/{name}/default"] = (
            lambda spec=spec: _programs_digest(
                build_workload_programs(spec, apps)))

    two_hosts = default_config(CXL, hosts=2, cores_per_host=1)
    cases["micro/perfbench-1MB"] = lambda: _programs_digest(
        build_micro_programs(
            MicroSpec(store_granularity=64, sync_granularity=1024, fanout=1,
                      total_bytes=1024 * 1024), two_hosts))
    cases["micro/default"] = lambda: _programs_digest(
        build_micro_programs(MicroSpec(), two_hosts))
    cases["micro/fanout3-no-gap"] = lambda: _programs_digest(
        build_micro_programs(
            MicroSpec(store_granularity=32, sync_granularity=512, fanout=3,
                      total_bytes=8 * 1024, store_issue_ns=0.0),
            default_config(CXL, hosts=4, cores_per_host=1)))

    for seed, arrivals in PERFBENCH_ARRIVAL_SEEDS.items():
        cases[f"openloop/perfbench/seed{seed}"] = (
            lambda arrivals=arrivals: _programs_digest(build_openloop_programs(
                OpenLoopSpec(arrival="poisson", interarrival_ns=1_000.0,
                             requests=64, warmup=2, seed=arrivals),
                _openloop_config(16, 4))))
    for hosts, pods in QUICK_SIZES:
        for load in QUICK_LOADS:
            for rep in range(2):
                cases[f"openloop/scale-quick/h{hosts}p{pods}/{load:g}/rep{rep}"] = (
                    lambda hosts=hosts, pods=pods, load=load, rep=rep:
                    _programs_digest(build_openloop_programs(
                        OpenLoopSpec(arrival="poisson", interarrival_ns=load,
                                     requests=12, warmup=2, seed=rep),
                        _openloop_config(hosts, pods))))
    cases["openloop/deterministic-fanout2"] = lambda: _programs_digest(
        build_openloop_programs(
            OpenLoopSpec(arrival="deterministic", interarrival_ns=500.0,
                         requests=16, stores_per_request=3,
                         store_granularity=32, fanout=2, warmup=3, seed=7),
            _openloop_config(4, 1)))

    cases["ata/rounds12-h8"] = lambda: _programs_digest(
        build_ata_programs(AtaSpec(rounds=12), default_config(CXL, hosts=8)))

    cases["litmus/classic"] = lambda: _litmus_digest(classic_tests())
    cases["litmus/full-suite"] = lambda: _litmus_digest(
        _unique_tests(full_suite()))
    return cases


CASES = _cases()

PINNED = {
    "app/BigFFT/default":
        "7b679dfe8baa509d7a126c7115b3571202cfb33ed9fc7b4798985e35b5028d0b",
    "app/BigFFT/it2":
        "4d4e382d0ace444f1edf512472815a657297441bd7cb5a25c7ab9107e6317758",
    "app/CMC-2D/default":
        "4ef8af007053ab0e1b6c8c4f46f688e78d55448710420aea1e3be236ed652d91",
    "app/CMC-2D/it2":
        "9de6b5661749c57a2e7fadfd77a3828431bb4c2c2791780de00ee2237d4c8f3f",
    "app/CR/default":
        "3270f1e35b0d7ffe15e51b9be7ff2660784b6c8eadda0b877eb06231967342e7",
    "app/CR/it2":
        "6fd58d6ee9b0ba3511d8008078e833c12b91d1c0f5bd31cc6dec8b4bd339076c",
    "app/HSTI/default":
        "508eb1fd50a08d1a7841aac2950d515b9779ff17c54ac1b86a67d4f8600588a1",
    "app/HSTI/it2":
        "9d42571947c9b2f27e53f076115b0f547f0bb97e592c43855b2ef4fd7b8b61c0",
    "app/MOCFE/default":
        "b4a6a283b4a9dd204f150daac8138f65b324959eed35b185be027909fc9df745",
    "app/MOCFE/it2":
        "1653167097e23e2c58fad06bf40e19cef72e6a03f3ed4400cc7534c5668bb173",
    "app/PAD/default":
        "25f918ba40fa74139e8bfdc1d74ef6499886f893ac2ccc33a320c02f9e4a8ad7",
    "app/PAD/it2":
        "d56f840884e1ef4c3966aef26110fc89a2fc6fc0c2714527bcec3123879206c7",
    "app/PR/default":
        "43e8abe8e058cbf69d04e5665baf2546e87c49d8ec30ea5b2a9af56a3701630e",
    "app/PR/it2":
        "0c3bd33364ffb6fc822f2b088444e60043b1b2f15ff069df5af64adee9668cc4",
    "app/SSSP/default":
        "1e1dd2f0326b2e91ea95b5ed57850f2823cd963dd85d87d32c5eb55db423de51",
    "app/SSSP/it2":
        "591df3e2ce971c60d9db74a55fef18db847f6bb5b2ff9355274eaf78da59ff56",
    "app/TQH/default":
        "c1a3be52a9c7fb640eba3c886d81d5bed5f0688c88edeaede8edf16eaba5edd4",
    "app/TQH/it2":
        "0bd9efdaf2b06958c34ce076ef741ffa043ea6d942031e9947873e8eda4ca90d",
    "app/TRNS/default":
        "d0d85199cb1322f27c32ffc77b0a8362c8d1f49f89b42b8b3fd8aecc5455a972",
    "app/TRNS/it2":
        "9306aa6f92d595698388d928bd5aea3e2fb1f73221d879b5b8bd5b674d413f48",
    "ata/rounds12-h8":
        "078e35775c58f43896855a31962680ef29f96dd693e907adc8337b2b82e0181c",
    "litmus/classic":
        "6b1d29a3ec10442ecb3e7988d051a2365094d3cd9f7981515efd0d4f09a104d1",
    "litmus/full-suite":
        "f844f7bf375422b74ba0748abb08b200b14d0947a541b392f5282386e2bd64d6",
    "micro/default":
        "00005baf25eab06ac984089252b28658bc14ae412bc17dd38692dddb500ec9d9",
    "micro/fanout3-no-gap":
        "1e1b5575de7c3a8052662c8027832b97ff9a8f4276999112a131bfe453ae5f2b",
    "micro/perfbench-1MB":
        "0c6dd17a81db0017ba95f6f76d9646541ba55ed9155d62180d66f42540e4d8ee",
    "openloop/deterministic-fanout2":
        "bde755edd0afbec782010527b34d48ad736bd82b8eb5d33b0eb19a131e320c66",
    "openloop/perfbench/seed1":
        "44a520be3a230d4fb43538e067a128a2b125483737ee596ae262bc726dc7a493",
    "openloop/perfbench/seed4242":
        "a45c4f3209fefe739d2a4daccb79fde38c2306a5303b1d5fcd3af2c1e25120a9",
    "openloop/scale-quick/h2p1/1500/rep0":
        "859eab95681ed395a086edad2ec0112a24c894cba168155c5dc6891e842c30b2",
    "openloop/scale-quick/h2p1/1500/rep1":
        "069158d37c19ab88c1e979d1f4d056b9d3d9c9bbf5e8eab38fdc3f8a08ea7054",
    "openloop/scale-quick/h2p1/4000/rep0":
        "6f61ad5fcd1fe7f8baa2fcc509d65aa5b3c9d08a46f887acd9f5b9945ab30dc2",
    "openloop/scale-quick/h2p1/4000/rep1":
        "a82c51f4477793d38c4dc093525f775c85f1647027b06871d1dece1553f00979",
    "openloop/scale-quick/h4p1/1500/rep0":
        "4b0a67a7c192d02143c4c82f691bef70b13bb1a66644005d687663645f5e52d6",
    "openloop/scale-quick/h4p1/1500/rep1":
        "50b3d39556483c5524679c6b63e121cb3c632dc7133b051d6fec59b9542eedbb",
    "openloop/scale-quick/h4p1/4000/rep0":
        "22ae069db94847d4dfba1cf037582e735488d90e8c358f581e785ed572b527f9",
    "openloop/scale-quick/h4p1/4000/rep1":
        "d760871a56e470789788a3ee9b828b2f267c9e3dbc0009d234f4a3d4bce7b7e7",
    "openloop/scale-quick/h8p2/1500/rep0":
        "b410a2438210963000c711f190aeeb18ca803f46a154b39f434bb14c6c607d42",
    "openloop/scale-quick/h8p2/1500/rep1":
        "5c7dd9dee4f6c05823238b03806f7f8f04634a5de84ea08e00f23a98520330ab",
    "openloop/scale-quick/h8p2/4000/rep0":
        "a276dbcea5875acde5af026666e83bbf989f9749ecea4ef1b818c96cd533c24a",
    "openloop/scale-quick/h8p2/4000/rep1":
        "ee3d1972ab2a2735bb3747851df377ff850ec3edd030f93dcccb821285bcfb7d",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_program_digest_unchanged(name):
    assert CASES[name]() == PINNED[name], (
        f"{name}: the builder emits a different op stream")


def test_every_case_is_pinned():
    assert sorted(PINNED) == sorted(CASES)


if __name__ == "__main__":
    print("PINNED = {")
    for case in sorted(CASES):
        print(f'    "{case}":\n        "{CASES[case]()}",')
    print("}")
