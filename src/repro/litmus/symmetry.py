"""Automorphism discovery for litmus-test symmetry reduction (§4.5).

A litmus test's state graph is symmetric under a permutation of core ids,
locations and store values when the permuted system is *indistinguishable*
from the original: every thread's program maps op-for-op onto the image
thread's program, the protocols agree along each core orbit, the location
permutation induces a well-defined permutation of home directories, and
the forbidden/required outcome patterns are invariant as sets.  Each such
triple is an automorphism of the transition system (it commutes with every
core step and every message delivery, because the protocol state machines
are identical per core/directory and only ever see the permuted indices),
so exploration may collapse each orbit of states to one representative.
DESIGN.md §4.11 has the full soundness argument.

The group is tiny (litmus tests have ≤ 4 threads and ≤ 3 locations) and is
brute-forced once per :class:`~repro.litmus.model_checker.ModelChecker`
construction; tests with no symmetry pay nothing (the empty list disables
canonicalization entirely).

Value maps are *derived*, not enumerated: matching a store ``st(X, v)``
against its image ``st(π(X), w)`` binds ``τ(v) = w``; the map must come out
a bijection fixing 0 (the initial memory value).  Two semantic hazards
force ``τ`` to the identity:

* atomics — ``faa`` computes ``old + operand``, so a non-identity ``τ``
  would have to commute with addition;
* polls — ``LOAD_UNTIL`` fires on ``value >= op.value``, so ``τ`` would
  have to preserve order (and an order-preserving bijection of a finite
  value set is the identity anyway).

Per-core register renamings are likewise derived structurally, which is
what lets classically-symmetric shapes (SB, LB, 2+2W, IRIW, the FAA
atomicity test) qualify even though every thread uses globally unique
register names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations
from typing import Dict, List, Optional, Tuple

from repro.consistency.ops import MemOp, OpKind

__all__ = ["Automorphism", "find_automorphisms"]

#: Factorial guard: litmus tests are tiny; anything larger than this is a
#: generated stress case where the |threads|! × |locations|! enumeration
#: would dominate construction cost for no measured benefit.
_MAX_THREADS = 5
_MAX_LOCATIONS = 5


@dataclass
class Automorphism:
    """One non-identity symmetry of a litmus test's transition system.

    ``index`` keys the per-component permuted-freeze memos in the model
    checker.  All maps are total on the objects they are applied to:
    ``cores``/``regs`` cover every thread, ``dirs``/``addrs``/``values``
    fall back to the identity for indices outside the litmus footprint
    (callers use ``.get(x, x)``).
    """

    index: int
    cores: Tuple[int, ...]                 # σ: core i -> cores[i]
    regs: Tuple[Dict[str, str], ...]       # ρ_i: core i's register renaming
    locs: Dict[str, str]                   # π on symbolic location names
    addrs: Dict[int, int]                  # π on resolved addresses
    dirs: Dict[int, int]                   # induced home-directory map
    values: Dict[int, int] = field(default_factory=dict)   # τ on values

    @property
    def is_value_identity(self) -> bool:
        return all(k == v for k, v in self.values.items())


def _bind(mapping: Dict, inverse: Dict, a, b) -> bool:
    """Record ``mapping[a] = b`` if consistent with a bijection."""
    if a is None or b is None:
        return a is None and b is None
    known = mapping.get(a)
    if known is not None:
        return known == b
    if b in inverse:
        return False
    mapping[a] = b
    inverse[b] = a
    return True


_ADDRESSED = (OpKind.STORE, OpKind.LOAD, OpKind.LOAD_UNTIL, OpKind.ATOMIC)


def _match_programs(
    source: List[MemOp],
    target: List[MemOp],
    addrs: Dict[int, int],
    values: Dict[int, int],
    values_inv: Dict[int, int],
) -> Optional[Dict[str, str]]:
    """Op-for-op correspondence of ``source`` onto ``target``.

    Returns the derived register renaming, extending ``values`` (the
    shared value map) in place, or None if the programs do not match.
    """
    if len(source) != len(target):
        return None
    regs: Dict[str, str] = {}
    regs_inv: Dict[str, str] = {}
    for a, b in zip(source, target):
        if (a.kind is not b.kind or a.ordering is not b.ordering
                or a.size != b.size or a.policy is not b.policy
                or a.duration_ns != b.duration_ns):
            return None
        if (a.meta.get("via") != b.meta.get("via")
                or a.meta.get("atomic") != b.meta.get("atomic")):
            return None
        if a.kind in _ADDRESSED:
            if addrs.get(a.addr) != b.addr:
                return None
        elif a.addr != b.addr:
            return None
        if not _bind(regs, regs_inv, a.register, b.register):
            return None
        if not _bind(values, values_inv, a.value, b.value):
            return None
        if not _bind(values, values_inv,
                     a.meta.get("compare"), b.meta.get("compare")):
            return None
    return regs


def _map_outcome_key(
    key: str, sigma: Tuple[int, ...], regs: Tuple[Dict[str, str], ...],
    locs: Dict[str, str],
) -> Optional[str]:
    if key.startswith("mem:"):
        loc = key[4:]
        return "mem:" + locs[loc] if loc in locs else None
    head, _, register = key.partition(":")
    try:
        core = int(head[1:])
    except ValueError:
        return None
    if head[:1] != "P" or not (0 <= core < len(sigma)):
        return None
    return "P{}:{}".format(sigma[core], regs[core].get(register, register))


def _patterns_invariant(
    patterns: List[Dict[str, int]],
    sigma: Tuple[int, ...],
    regs: Tuple[Dict[str, str], ...],
    locs: Dict[str, str],
    values: Dict[int, int],
) -> bool:
    """The pattern *set* must be fixed by the candidate mapping."""
    original = {frozenset(p.items()) for p in patterns}
    mapped = set()
    for pattern in patterns:
        image = {}
        for key, val in pattern.items():
            new_key = _map_outcome_key(key, sigma, regs, locs)
            if new_key is None:
                return False
            image[new_key] = values.get(val, val)
        mapped.add(frozenset(image.items()))
    return mapped == original


def find_automorphisms(checker) -> List["Automorphism"]:
    """All non-identity automorphisms of ``checker``'s litmus test.

    ``checker`` is a :class:`~repro.litmus.model_checker.ModelChecker`
    (passed duck-typed to avoid a circular import); the search uses its
    compiled programs, per-thread protocols and address/home mapping so
    the result is valid for exactly the system being explored.
    """
    test = checker.test
    threads = test.threads
    locs = sorted(test.locations)
    if threads > _MAX_THREADS or len(locs) > _MAX_LOCATIONS:
        return []
    programs = checker.programs
    protocols = checker.core_protocols
    addr_of = {loc: test.resolve_address(checker.config, loc) for loc in locs}
    home_of = {loc: checker._home(addr_of[loc]) for loc in locs}

    has_atomic = any(op.kind is OpKind.ATOMIC for p in programs for op in p)
    has_poll = any(op.kind is OpKind.LOAD_UNTIL for p in programs for op in p)
    force_value_identity = has_atomic or has_poll

    autos: List[Automorphism] = []
    for sigma in permutations(range(threads)):
        if any(protocols[i] != protocols[sigma[i]] for i in range(threads)):
            continue
        for pi in permutations(locs):
            loc_map = dict(zip(locs, pi))
            if sigma == tuple(range(threads)) and all(
                    k == v for k, v in loc_map.items()):
                continue  # the identity — always in the group, never stored
            addrs = {addr_of[l]: addr_of[loc_map[l]] for l in locs}
            # The location permutation must induce a *function* on home
            # directories (two locations sharing a home must map to
            # locations sharing a home) that is a bijection.
            dirs: Dict[int, int] = {}
            consistent = True
            for loc in locs:
                image = home_of[loc_map[loc]]
                if dirs.setdefault(home_of[loc], image) != image:
                    consistent = False
                    break
            if not consistent or len(set(dirs.values())) != len(dirs):
                continue
            if set(dirs.values()) != set(dirs.keys()):
                continue  # must permute the home set onto itself
            values: Dict[int, int] = {0: 0}
            values_inv: Dict[int, int] = {0: 0}
            regs: List[Dict[str, str]] = []
            matched = True
            for i in range(threads):
                renaming = _match_programs(
                    programs[i], programs[sigma[i]], addrs, values, values_inv
                )
                if renaming is None:
                    matched = False
                    break
                regs.append(renaming)
            if not matched:
                continue
            if force_value_identity and any(
                    k != v for k, v in values.items()):
                continue
            regs_t = tuple(regs)
            if not _patterns_invariant(test.forbidden, sigma, regs_t,
                                       loc_map, values):
                continue
            if not _patterns_invariant(test.required, sigma, regs_t,
                                       loc_map, values):
                continue
            autos.append(Automorphism(
                index=len(autos), cores=sigma, regs=regs_t, locs=loc_map,
                addrs=addrs, dirs=dirs, values=dict(values),
            ))
    return autos
