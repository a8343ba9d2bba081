"""Command-line entry point: regenerate any paper experiment.

Usage::

    python -m repro fig2            # SO ack overheads
    python -m repro fig7            # end-to-end workloads (RC)
    python -m repro fig8 store      # sensitivity panel: store|sync|fanout
    python -m repro fig9 fanout     # latency sweep panel: store|sync|fanout
    python -m repro fig10           # bit-width study
    python -m repro fig11           # storage vs hosts
    python -m repro fig12           # ATA storage breakdown
    python -m repro fig13           # TSO mode
    python -m repro table3          # area/power
    python -m repro litmus          # full model-checking sweep (§4.5):
                                    # cached, parallel (--jobs), per-case
                                    # verdicts; exits 1 on any failure
    python -m repro modelcheck      # the same sweep over a chosen suite,
                                    # with the checker's own options
    python -m repro breakdown CR    # per-message-type traffic for one
                                    # Table-2 app (default CR)
    python -m repro energy CR       # §5.4 energy comparison for one app
    python -m repro resilience      # time/traffic under injected faults
    python -m repro scale           # open-loop protocol x topology x load
                                    # sweep -> run_table.csv + crossover
    python -m repro all             # everything (slow)

Executor options (any experiment):

    --jobs N          run independent simulations across N worker processes
    --cache-dir PATH  result-cache directory (default: $REPRO_CACHE_DIR or
                      .repro-cache)
    --no-cache        disable the on-disk result cache
    --run-log PATH    append per-run metadata (sim/wall time, events,
                      cache hit/miss, trace path) as JSON lines to PATH
    --trace           record a message/stall trace per run and export it
                      as Chrome trace-event JSON (open in Perfetto);
                      traces land in .repro-traces/ unless --trace-out
    --trace-out DIR   trace output directory (implies --trace)
    --faults EXPR     inject faults into every run: '+'-joined presets
                      from drop, dup, flap, degrade, stall (see
                      repro.faults).  With 'litmus' this switches to the
                      fault-enabled timed sweep asserting safety and
                      deadlock-freedom under the plan.

Modelcheck options (``modelcheck`` only; see ``repro.harness.modelcheck``):

    SUITE             quick | classic | custom | generated | full
                      (default: full)
    --max-states N    per-case exploration budget (default: 500000)
    --no-por          disable the partial-order reduction
    --no-symmetry     disable symmetry reduction (orbit canonicalization)
    --visited-db DIR  spill per-case visited sets to SQLite files in DIR
                      once they outgrow RAM
    --spill-threshold N   in-RAM visited entries before spilling
                      (default: 200000; needs --visited-db)
    --gen-count/--gen-seed/--gen-threads/--gen-locs/--gen-values/--gen-ops N
                      bounds for the 'generated' suite (defaults:
                      32/0/2/2/2/3); --gen-atomics adds fetch-and-adds.
                      Any --gen-* flag with another suite is an error
    plus --jobs/--cache-dir/--no-cache/--run-log as above

Scale options (``scale`` only; see ``repro.harness.scale``):

    --quick           CI grid: 3 sizes x 2 protocols x 2 loads, short
                      horizons (the full grid reaches 64 hosts / 8 pods)
    --out DIR         artifact directory for run_table.csv +
                      run_table.columns.md (default: scale-out)
    --reps N          repetitions per grid point (default 2)
    plus the executor flags as above
"""

from __future__ import annotations

import sys
from typing import List, Optional, Tuple

from repro.harness import (
    Executor,
    default_cache_dir,
    fig2_source_ordering_overheads,
    fig7_end_to_end,
    fig8_sensitivity,
    fig9_latency_sweep,
    fig10_bitwidth,
    fig11_storage,
    fig12_storage_breakdown,
    fig13_tso,
    print_rows,
    protocol_comparison,
    resilience_sweep,
    set_default_executor,
    table3_area_power,
)
from repro.overheads import energy_comparison
from repro.workloads import APPLICATIONS


#: Fig. 8 and Fig. 9 panels: the application parameter each one sweeps.
_PANELS = ("store", "sync", "fanout")

#: The experiments that take a positional argument, and what it names;
#: every other experiment takes none.
_POSITIONAL = {"fig8": "panel", "fig9": "panel",
               "breakdown": "app", "energy": "app"}


def _run_litmus(executor: Executor) -> None:
    """Model-check the full suite through ``executor`` (with ``--faults``,
    run the timed fault sweep instead); exit 1 when any case fails."""
    if executor.faults is not None:
        passed = _run_fault_litmus(executor.faults)
    else:
        from repro.harness.modelcheck import check_suite
        from repro.litmus import full_suite
        passed = check_suite(full_suite(), executor, "litmus sweep")
    if not passed:
        raise SystemExit(1)


def _run_fault_litmus(faults) -> bool:
    from repro.litmus import fault_sweep
    passed = True
    for protocol in ("cord", "so", "mp", "tardis"):
        report = fault_sweep(protocol=protocol, faults=faults)
        status = "PASSED" if report.passed else "FAILED"
        print(f"fault litmus sweep [{protocol}]: {len(report.tests)} tests "
              f"x {report.runs // max(len(report.tests), 1)} runs, "
              f"{report.faults_injected:.0f} faults injected — {status}")
        for name, outcome in report.forbidden_hits:
            print(f"  forbidden outcome in {name}: {outcome}")
        for name, violation in report.violations:
            print(f"  RC violation in {name}: {violation}")
        for diagnostic in report.deadlocks:
            print(f"  {diagnostic}")
        passed = passed and report.passed
    return passed


def _parse_executor_flags(
    args: List[str],
) -> Tuple[Optional[List[str]], Optional[Executor]]:
    """Strip the executor flags (``--jobs/--cache-dir/--no-cache/
    --run-log/--trace/--trace-out/--faults``) from ``args``.

    Returns (remaining args, executor), or (None, None) on a usage error
    (after printing a message)."""
    remaining: List[str] = []
    jobs = 1
    cache_dir: Optional[str] = str(default_cache_dir())
    run_log: Optional[str] = None
    trace_dir: Optional[str] = None
    index = 0

    faults: Optional[str] = None

    def value_of(flag: str) -> Optional[str]:
        nonlocal index
        if index + 1 >= len(args):
            print(f"{flag} requires a value")
            return None
        index += 1
        return args[index]

    while index < len(args):
        arg = args[index]
        if arg == "--jobs":
            value = value_of("--jobs")
            if value is None:
                return None, None
            try:
                jobs = int(value)
                if jobs < 1:
                    raise ValueError
            except ValueError:
                print(f"--jobs expects a positive integer, got {value!r}")
                return None, None
        elif arg == "--cache-dir":
            value = value_of("--cache-dir")
            if value is None:
                return None, None
            cache_dir = value
        elif arg == "--no-cache":
            cache_dir = None
        elif arg == "--run-log":
            value = value_of("--run-log")
            if value is None:
                return None, None
            run_log = value
        elif arg == "--trace":
            trace_dir = trace_dir or ".repro-traces"
        elif arg == "--trace-out":
            value = value_of("--trace-out")
            if value is None:
                return None, None
            trace_dir = value
        elif arg == "--faults":
            value = value_of("--faults")
            if value is None:
                return None, None
            faults = value
        elif arg.startswith("--") and arg not in ("-h", "--help"):
            print(f"unknown option {arg!r}")
            return None, None
        else:
            remaining.append(arg)
        index += 1
    try:
        return remaining, Executor(jobs=jobs, cache_dir=cache_dir,
                                   run_log=run_log, trace_dir=trace_dir,
                                   faults=faults)
    except ValueError as err:   # unknown --faults preset
        print(err)
        return None, None


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0

    if args[0] == "modelcheck":
        # Suite-wide model checking has its own flags (SUITE/--max-states/
        # --no-por) interleaved with the executor ones; it parses both.
        from repro.harness.modelcheck import run_modelcheck_cli
        return run_modelcheck_cli(args[1:])

    if args[0] == "scale":
        # The open-loop scaling sweep has its own flags (--quick/--out/
        # --reps) interleaved with the executor ones; it parses both.
        from repro.harness.scale import run_scale_cli
        return run_scale_cli(args[1:])

    args, executor = _parse_executor_flags(args)
    if args is None or executor is None:
        return 2
    if not args:
        print(__doc__)
        return 0

    command, rest = args[0], args[1:]
    panel = rest[0] if rest else "store"
    app_name = rest[0] if rest else "CR"
    ex = executor
    experiments = {
        "fig2": lambda: print_rows(
            fig2_source_ordering_overheads(executor=ex),
            "Fig. 2: SO ack overheads"),
        "fig7": lambda: print_rows(fig7_end_to_end(executor=ex),
                                   "Fig. 7: end-to-end (RC)"),
        "fig8": lambda: print_rows(fig8_sensitivity(panel, executor=ex),
                                   f"Fig. 8: {panel} sensitivity"),
        "fig9": lambda: print_rows(
            fig9_latency_sweep(parameter=panel, executor=ex),
            f"Fig. 9: latency sweep ({panel})"),
        "fig10": lambda: print_rows(fig10_bitwidth(executor=ex),
                                    "Fig. 10: bit-widths"),
        "fig11": lambda: print_rows(fig11_storage(executor=ex),
                                    "Fig. 11: storage"),
        "fig12": lambda: print_rows(fig12_storage_breakdown(executor=ex),
                                    "Fig. 12: ATA breakdown"),
        "fig13": lambda: print_rows(fig13_tso(executor=ex),
                                    "Fig. 13: end-to-end (TSO)"),
        "table3": lambda: print_rows(table3_area_power(),
                                     "Table 3: area/power"),
        "litmus": lambda: _run_litmus(ex),
        "resilience": lambda: print_rows(
            resilience_sweep(executor=ex),
            "Resilience: time/traffic under injected faults"),
        "breakdown": lambda: print_rows(
            protocol_comparison(app_name),
            f"Message breakdown: {app_name} across protocols"),
        "energy": lambda: print_rows(energy_comparison(app_name),
                                     f"Energy: {app_name} (§5.4 constants)"),
    }

    # Usage errors exit 2 before anything runs.
    if command != "all" and command not in experiments:
        print(f"unknown experiment {command!r}; choose from "
              f"{sorted(experiments)} or 'all'")
        return 2
    takes = _POSITIONAL.get(command)
    if len(rest) > (1 if takes else 0):
        allowed = (f"one positional argument ({takes})" if takes
                   else "no positional arguments")
        print(f"{command} takes {allowed}, got {rest!r}")
        return 2
    if takes == "panel" and panel not in _PANELS:
        print(f"unknown {command} panel {panel!r}; choose from "
              f"{list(_PANELS)}")
        return 2
    if takes == "app" and app_name not in APPLICATIONS:
        print(f"unknown application {app_name!r}; choose from "
              f"{list(APPLICATIONS)}")
        return 2

    # Route every harness call behind these entry points (and "all"),
    # including those that take no executor argument, through the
    # configured executor.
    previous = set_default_executor(executor)
    try:
        if command == "all":
            for name, runner in experiments.items():
                runner()
        else:
            experiments[command]()
    finally:
        set_default_executor(previous)

    if executor.hits or executor.misses:
        cache = executor.cache_dir if executor.cache_dir else "off"
        line = (f"[executor] jobs={executor.jobs} cache={cache} "
                f"hits={executor.hits} misses={executor.misses}")
        if executor.trace_dir is not None:
            line += f" traces={executor.trace_dir}"
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
