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
    python -m repro all             # everything but modelcheck and scale
                                    # (slow)

Flags may come before or after the command; -h or --help anywhere prints
this text.

Executor options (every command; modelcheck takes the first four):

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

Scale options (``scale`` only; see ``repro.harness.scale``):

    --quick           CI grid: 3 sizes x 3 protocols x 2 loads, short
                      horizons (the full grid reaches 64 hosts / 8 pods)
    --out DIR         artifact directory for run_table.csv +
                      run_table.columns.md (default: scale-out)
    --reps N          repetitions per grid point (default 2)
"""

from __future__ import annotations

import dataclasses
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.harness import (
    Executor,
    crossover_report,
    default_cache_dir,
    fig2_source_ordering_overheads,
    fig7_end_to_end,
    fig8_sensitivity,
    fig9_latency_sweep,
    fig10_bitwidth,
    fig11_storage,
    fig12_storage_breakdown,
    fig13_tso,
    format_table,
    print_rows,
    protocol_comparison,
    resilience_sweep,
    scale_sweep,
    set_default_executor,
    suite_cases,
    table3_area_power,
    write_run_table,
)
from repro.harness.modelcheck import check_suite
from repro.litmus import GeneratorParams
from repro.overheads import energy_comparison
from repro.workloads import APPLICATIONS


#: Fig. 8 and Fig. 9 panels: the application parameter each one sweeps.
_PANELS = ("store", "sync", "fanout")

#: The commands that take a positional argument, and what it names;
#: every other command takes none.
_POSITIONAL = {"fig8": "panel", "fig9": "panel", "breakdown": "app",
               "energy": "app", "modelcheck": "suite"}

#: What follows each flag: nothing (None), text (str), or an integer no
#: smaller than the number given.
_FLAGS: Dict[str, Any] = {
    "--jobs": 1, "--cache-dir": str, "--no-cache": None, "--run-log": str,
    "--trace": None, "--trace-out": str, "--faults": str,
    "--max-states": 1, "--no-por": None, "--symmetry": None,
    "--no-symmetry": None, "--visited-db": str, "--spill-threshold": 0,
    "--gen-count": 1, "--gen-seed": 0, "--gen-threads": 1, "--gen-locs": 1,
    "--gen-values": 1, "--gen-ops": 1, "--gen-atomics": None,
    "--quick": None, "--out": str, "--reps": 1,
}

#: Flags that undo each other: of the two, the one given last holds.
_UNDOES = {"--cache-dir": "--no-cache", "--no-cache": "--cache-dir",
           "--symmetry": "--no-symmetry", "--no-symmetry": "--symmetry"}

_EXECUTOR_FLAGS = frozenset(("--jobs", "--cache-dir", "--no-cache",
                             "--run-log", "--trace", "--trace-out",
                             "--faults"))
_SCALE_FLAGS = frozenset(("--quick", "--out", "--reps"))

#: The flags each command takes; a command not listed takes the
#: executor flags.  Model checking runs untimed, so it takes neither
#: tracing nor faults.
_COMMAND_FLAGS = {
    "modelcheck": frozenset(_FLAGS) - _SCALE_FLAGS
    - {"--trace", "--trace-out", "--faults"},
    "scale": _EXECUTOR_FLAGS | _SCALE_FLAGS,
}


class _UsageError(Exception):
    """A command-line mistake: :func:`main` prints it and exits 2."""


def _litmus(executor: Executor) -> None:
    """Model-check the full suite through ``executor`` (with ``--faults``,
    run the timed fault sweep instead); exit 1 when any case fails."""
    if executor.faults is not None:
        passed = _run_fault_litmus(executor.faults)
    else:
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


def _modelcheck(executor: Executor, suite: str,
                options: Dict[str, Any]) -> None:
    """Check ``suite`` with the checker flags in ``options``; exit 1 when
    any case fails.  A flag that would change nothing is a usage error."""
    gen_flags = [flag for flag in options if flag.startswith("--gen-")]
    if gen_flags and suite != "generated":
        raise _UsageError(f"{gen_flags[0]} applies only to the generated "
                          f"suite, not {suite!r}")
    if "--spill-threshold" in options and "--visited-db" not in options:
        raise _UsageError("--spill-threshold needs --visited-db DIR; "
                          "without it the visited set never leaves memory")
    params = GeneratorParams(
        threads=options.get("--gen-threads", 2),
        locations=options.get("--gen-locs", 2),
        values=options.get("--gen-values", 2),
        ops_per_thread=options.get("--gen-ops", 3),
        atomics="--gen-atomics" in options)
    try:
        cases = suite_cases(suite, gen_count=options.get("--gen-count", 32),
                            gen_seed=options.get("--gen-seed", 0),
                            gen_params=params)
    except ValueError as err:   # unknown suite
        raise _UsageError(err)
    specs = [dataclasses.replace(
        case, max_states=options.get("--max-states", 500_000),
        por="--no-por" not in options,
        symmetry="--no-symmetry" not in options,
        visited_db=options.get("--visited-db"),
        spill_threshold=options.get("--spill-threshold")) for case in cases]
    if not check_suite(specs, executor, f"modelcheck[{suite}]"):
        raise SystemExit(1)


def _scale(executor: Executor, options: Dict[str, Any]) -> None:
    """Run the open-loop scale sweep, write its run table and print the
    crossover report."""
    rows = scale_sweep(quick="--quick" in options,
                       repetitions=options.get("--reps", 2),
                       executor=executor)
    csv_path, columns_path = write_run_table(
        rows, options.get("--out", "scale-out"))
    report = crossover_report(rows)
    if report:
        print("== Scale: p99 delivery latency vs cord (crossover) ==")
        print(format_table(report))
    print(f"run table: {csv_path} ({len(rows)} rows); "
          f"columns: {columns_path}")


def _parse(args: List[str]
           ) -> Tuple[Optional[str], List[str], Dict[str, Any]]:
    """Split ``args`` into the command, its positional arguments and its
    flags (flag -> value; True for a flag followed by nothing), wherever
    the flags appear.  The command is None when ``args`` names none or
    asks for help."""
    command: Optional[str] = None
    positional: List[str] = []
    options: Dict[str, Any] = {}
    index = 0
    while index < len(args):
        arg = args[index]
        index += 1
        if arg in ("-h", "--help"):
            return None, [], {}
        if not arg.startswith("-"):
            if command is None:
                command = arg
            else:
                positional.append(arg)
            continue
        if arg not in _FLAGS:
            raise _UsageError(f"unknown option {arg!r}")
        follows, value = _FLAGS[arg], True
        if follows is not None:
            if index == len(args):
                raise _UsageError(f"{arg} requires a value")
            value = text = args[index]
            index += 1
            if follows is not str:
                try:
                    value = int(text)
                    if value < follows:
                        raise ValueError
                except ValueError:
                    raise _UsageError(f"{arg} expects an integer of at "
                                      f"least {follows}, got {text!r}")
        options.pop(_UNDOES.get(arg), None)
        options[arg] = value
    return command, positional, options


def _runs(command: str, rest: List[str], options: Dict[str, Any]
          ) -> List[Callable[[Executor], None]]:
    """What ``command`` runs: one call per experiment (``all`` runs every
    experiment but ``modelcheck`` and ``scale``), each taking the
    executor.  Raises :class:`_UsageError` for a mistake in the command,
    its positional arguments ``rest`` or its flags ``options``."""
    panel = rest[0] if rest else "store"
    app_name = rest[0] if rest else "CR"
    suite = rest[0] if rest else "full"
    experiments: Dict[str, Callable[[Executor], None]] = {
        "fig2": lambda ex: print_rows(
            fig2_source_ordering_overheads(executor=ex),
            "Fig. 2: SO ack overheads"),
        "fig7": lambda ex: print_rows(fig7_end_to_end(executor=ex),
                                      "Fig. 7: end-to-end (RC)"),
        "fig8": lambda ex: print_rows(fig8_sensitivity(panel, executor=ex),
                                      f"Fig. 8: {panel} sensitivity"),
        "fig9": lambda ex: print_rows(
            fig9_latency_sweep(parameter=panel, executor=ex),
            f"Fig. 9: latency sweep ({panel})"),
        "fig10": lambda ex: print_rows(fig10_bitwidth(executor=ex),
                                       "Fig. 10: bit-widths"),
        "fig11": lambda ex: print_rows(fig11_storage(executor=ex),
                                       "Fig. 11: storage"),
        "fig12": lambda ex: print_rows(fig12_storage_breakdown(executor=ex),
                                       "Fig. 12: ATA breakdown"),
        "fig13": lambda ex: print_rows(fig13_tso(executor=ex),
                                       "Fig. 13: end-to-end (TSO)"),
        "table3": lambda ex: print_rows(table3_area_power(),
                                        "Table 3: area/power"),
        "litmus": _litmus,
        "resilience": lambda ex: print_rows(
            resilience_sweep(executor=ex),
            "Resilience: time/traffic under injected faults"),
        "breakdown": lambda ex: print_rows(
            protocol_comparison(app_name),
            f"Message breakdown: {app_name} across protocols"),
        "energy": lambda ex: print_rows(
            energy_comparison(app_name),
            f"Energy: {app_name} (§5.4 constants)"),
    }
    commands = dict(experiments,
                    modelcheck=lambda ex: _modelcheck(ex, suite, options),
                    scale=lambda ex: _scale(ex, options))

    if command != "all" and command not in commands:
        raise _UsageError(f"unknown experiment {command!r}; choose from "
                          f"{sorted(commands)} or 'all'")
    allowed = _COMMAND_FLAGS.get(command, _EXECUTOR_FLAGS)
    for flag in options:
        if flag not in allowed:
            raise _UsageError(f"unknown option {flag!r}")
    takes = _POSITIONAL.get(command)
    if len(rest) > (1 if takes else 0):
        allowed_args = (f"one positional argument ({takes})" if takes
                        else "no positional arguments")
        raise _UsageError(f"{command} takes {allowed_args}, got {rest!r}")
    if takes == "panel" and panel not in _PANELS:
        raise _UsageError(f"unknown {command} panel {panel!r}; choose "
                          f"from {list(_PANELS)}")
    if takes == "app" and app_name not in APPLICATIONS:
        raise _UsageError(f"unknown application {app_name!r}; choose "
                          f"from {list(APPLICATIONS)}")
    if command == "all":
        return list(experiments.values())
    return [commands[command]]


def _executor(options: Dict[str, Any]) -> Executor:
    """The executor the executor flags among ``options`` describe."""
    try:
        return Executor(
            jobs=options.get("--jobs", 1),
            cache_dir=(None if "--no-cache" in options
                       else options.get("--cache-dir", default_cache_dir())),
            run_log=options.get("--run-log"),
            trace_dir=options.get(
                "--trace-out",
                ".repro-traces" if "--trace" in options else None),
            faults=options.get("--faults"))
    except ValueError as err:   # unknown --faults preset
        raise _UsageError(err)


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        command, rest, options = _parse(args)
        if command is None:
            print(__doc__)
            return 0
        runs = _runs(command, rest, options)
        executor = _executor(options)
        # Route every harness call behind the command (and "all"),
        # including those that take no executor argument, through it.
        previous = set_default_executor(executor)
        try:
            for run in runs:
                run(executor)
        finally:
            set_default_executor(previous)
    except _UsageError as err:   # raised before anything ran
        print(err)
        return 2

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
