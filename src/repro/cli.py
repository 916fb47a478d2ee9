"""Command-line interface: reproduce figures, run demos and scenario specs.

Usage::

    python -m repro figures --figure fig2 --scale ci
    python -m repro figures --all --scale paper --out results/
    python -m repro scenario --example > myspec.json
    python -m repro scenario myspec.json --slots 20
    python -m repro scenario myspec.json --json > summary.json
    python -m repro serve --spec myspec.json --slots 20 --exit-after
    python -m repro loadgen myspec.json --slots 20 --check-parity
    python -m repro lint --format=json
    python -m repro demo
    python -m repro info
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import __version__
from .experiments import ALL_FIGURES, format_figure, get_scale, validate_figure
from .experiments.reporting import ascii_chart

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Utility-driven Data Acquisition in "
            "Participatory Sensing' (EDBT 2013)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser("figures", help="reproduce evaluation figures")
    figures.add_argument("--figure", action="append", default=None,
                         help="figure id (repeatable); e.g. fig2")
    figures.add_argument("--all", action="store_true", help="run every figure")
    figures.add_argument("--scale", default=None, choices=["paper", "ci"],
                         help="experiment scale (default: REPRO_SCALE or ci)")
    figures.add_argument("--seed", type=int, default=2013)
    figures.add_argument("--out", default=None,
                         help="directory for JSON series dumps")
    figures.add_argument("--chart", action="store_true",
                         help="render ASCII charts in addition to tables")
    figures.add_argument("--validate", action="store_true",
                         help="run each figure's shape checklist "
                              "(repro.experiments.validation)")

    scenario = sub.add_parser(
        "scenario", help="run a declared ScenarioSpec (JSON) through the SlotEngine"
    )
    scenario.add_argument("spec", nargs="*", default=[],
                          help="path(s) to ScenarioSpec JSON files")
    scenario.add_argument("--example", action="store_true",
                          help="print a ready-to-run sample spec and exit")
    scenario.add_argument("--slots", type=int, default=None,
                          help="override the spec's n_slots")
    scenario.add_argument("--profile", action="store_true",
                          help="print a per-slot phase-timing breakdown "
                               "(announce / kernel / allocate / settle)")
    scenario.add_argument("--json", action="store_true",
                          help="dump the machine-readable summary (metrics + "
                               "per-phase timings) to stdout instead of the "
                               "human-readable report; one object for a "
                               "single spec, an array for several")
    scenario.add_argument("--out", default=None,
                          help="write per-spec summary JSON files here")

    serve = sub.add_parser(
        "serve",
        help="run a spec as a long-lived marketplace service (async slot "
             "ticker + admission control); with an arrivals block or "
             "--rate, an open-loop load generator drives it",
    )
    serve.add_argument("--spec", required=True,
                       help="path to the ScenarioSpec JSON file")
    serve.add_argument("--slots", type=int, default=None,
                       help="number of ticks to run (default: the spec's "
                            "n_slots)")
    serve.add_argument("--tick", type=float, default=None, metavar="SECONDS",
                       help="override the ticker interval (0 = "
                            "run-to-completion)")
    serve.add_argument("--queue-depth", type=int, default=None,
                       help="override the admission queue bound")
    serve.add_argument("--admit-cap", type=int, default=None,
                       help="override the per-tick admission cap")
    serve.add_argument("--rate", type=float, default=None,
                       help="attach a Poisson load generator at this "
                            "arrival rate (overrides the spec's arrivals "
                            "block)")
    serve.add_argument("--exit-after", action="store_true",
                       help="exit once --slots ticks have run (without it "
                            "the service ticks until interrupted)")
    serve.add_argument("--metrics", default=None, metavar="PATH",
                       help="write the service SLO metrics JSON here")
    serve.add_argument("--metrics-csv", default=None, metavar="PATH",
                       help="write the per-slot service metrics CSV here")

    loadgen = sub.add_parser(
        "loadgen",
        help="open-loop load generation: drive a spec's marketplace "
             "service with Poisson/bursty arrivals and report admission "
             "stats + slot latency SLOs",
    )
    loadgen.add_argument("spec", help="path to the ScenarioSpec JSON file")
    loadgen.add_argument("--slots", type=int, default=None,
                         help="number of ticks (default: the spec's n_slots)")
    loadgen.add_argument("--profile", default=None,
                         choices=["poisson", "bursty"],
                         help="arrival profile (default: the spec's "
                              "arrivals block, else poisson)")
    loadgen.add_argument("--rate", type=float, default=None,
                         help="base arrival rate per tick")
    loadgen.add_argument("--burst-rate", type=float, default=None,
                         help="bursty profile: arrival rate inside bursts")
    loadgen.add_argument("--period", type=int, default=None,
                         help="bursty profile: ticks between burst starts")
    loadgen.add_argument("--burst-length", type=int, default=None,
                         help="bursty profile: burst duration in ticks")
    loadgen.add_argument("--seed", type=int, default=None,
                         help="arrival-stream seed")
    loadgen.add_argument("--queue-depth", type=int, default=None,
                         help="override the admission queue bound")
    loadgen.add_argument("--admit-cap", type=int, default=None,
                         help="override the per-tick admission cap")
    loadgen.add_argument("--check-parity", action="store_true",
                         help="after the run, batch-replay the recorded "
                              "admission trace offline and fail (exit 1) "
                              "unless every slot's allocation is "
                              "bit-identical")
    loadgen.add_argument("--metrics", default=None, metavar="PATH",
                         help="write the service SLO metrics JSON here")
    loadgen.add_argument("--metrics-csv", default=None, metavar="PATH",
                         help="write the per-slot service metrics CSV here")

    lint = sub.add_parser(
        "lint",
        help="run the AST invariant checker (capability hooks, determinism, "
             "ULP hygiene, hot loops, async hygiene)",
    )
    lint.add_argument("paths", nargs="*", default=[],
                      help="files/dirs to lint (default: src/repro)")
    lint.add_argument("--root", default=".",
                      help="repo root the rule scopes and baseline resolve "
                           "against (default: cwd)")
    lint.add_argument("--format", default="text", choices=["text", "json"],
                      help="report format")
    lint.add_argument("--baseline", default=None, metavar="PATH",
                      help="baseline JSON of grandfathered findings "
                           "(default: <root>/lint-baseline.json when present)")
    lint.add_argument("--write-baseline", action="store_true",
                      help="grandfather every current finding into the "
                           "baseline file and exit 0")
    lint.add_argument("--rules", default=None, metavar="IDS",
                      help="comma-separated rule subset (see --list-rules)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print every registered rule and exit")
    lint.add_argument("--verbose", action="store_true",
                      help="also report suppressed and baselined findings")

    sub.add_parser("demo", help="run the quickstart comparison")
    sub.add_parser(
        "info",
        help="print version, available subcommands and figures",
    )
    return parser


def _run_figures(args: argparse.Namespace) -> int:
    scale = get_scale(args.scale)
    wanted = list(ALL_FIGURES) if args.all else (args.figure or ["fig2"])
    unknown = [f for f in wanted if f not in ALL_FIGURES]
    if unknown:
        print(f"unknown figures: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(ALL_FIGURES)}", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in wanted:
        result = ALL_FIGURES[name](scale, seed=args.seed)
        print(format_figure(result))
        if args.validate:
            for check in validate_figure(result):
                print(check.format())
                failures += 0 if check.passed else 1
        if args.chart:
            metrics = {m for per_alg in result.series.values() for m in per_alg}
            for metric in sorted(metrics):
                print()
                print(ascii_chart(result, metric))
        print()
        if out_dir:
            # The wall-clock time stays in the text report only, so the
            # same figure and seed write the same bytes at one BLAS thread
            # count (region monitoring's GP posterior may differ in the
            # last bits across thread counts; see README, Determinism).
            payload = dataclasses.asdict(result)
            del payload["elapsed_seconds"]
            (out_dir / f"{name}_{scale.name}.json").write_text(
                json.dumps(payload, indent=2)
            )
    if failures:
        print(f"{failures} shape check(s) FAILED", file=sys.stderr)
        return 1
    return 0


def _run_scenario(args: argparse.Namespace) -> int:
    from .datasets import ScenarioSpec

    if args.example:
        print(json.dumps(ScenarioSpec.example().to_dict(), indent=2))
        return 0
    if not args.spec:
        print("give at least one spec file, or --example", file=sys.stderr)
        return 2
    out_dir = Path(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    from .core import ReproError

    from .service.metrics import summary_payload

    json_payloads: list[dict] = []
    for path in args.spec:
        try:
            spec = ScenarioSpec.from_json(path)
        except (OSError, ValueError, TypeError) as exc:
            print(f"error loading {path}: {exc}", file=sys.stderr)
            return 2
        n_slots = args.slots if args.slots is not None else spec.n_slots
        try:
            if args.profile or args.json:
                # --json always profiles: the payload's per-phase timing
                # totals come from the t_<phase> slot extras.
                engine = spec.build()
                engine.profile = True
                summary = engine.run(n_slots)
            else:
                summary = spec.run(n_slots)
        except (ValueError, TypeError, ReproError) as exc:
            # mis-declared spec: rm without intel, bad workload params,
            # allocator/stream mismatch the static checks can't see, ...
            print(f"error running {spec.name}: {exc}", file=sys.stderr)
            return 2
        payload = summary_payload(spec.to_dict(), n_slots, summary)
        if args.json:
            json_payloads.append(payload)
        else:
            print(f"{spec.name}  [{spec.dataset}, {spec.n_sensors} sensors, "
                  f"{n_slots} slots, {spec.allocator}/{spec.allocation}]")
            print(f"  avg utility/slot : {summary.average_utility:10.2f}")
            print(f"  satisfaction     : {summary.satisfaction_ratio:10.1%}")
            print(f"  egalitarian      : {summary.egalitarian_ratio:10.1%}")
            for label in sorted(summary.quality_stats):
                print(f"  quality[{label:<20}]: {summary.average_quality(label):7.3f}")
        if args.profile and not args.json:
            from .core.engine import PHASES

            header = "  slot  " + "".join(f"{p:>12}" for p in PHASES)
            print(header)
            for r in summary.slots:
                cells = "".join(
                    f"{r.extras.get(f't_{p}', 0.0) * 1e3:10.2f}ms" for p in PHASES
                )
                print(f"  {r.slot:>4}  {cells}")
            totals = "".join(
                f"{sum(r.extras.get(f't_{p}', 0.0) for r in summary.slots) * 1e3:10.2f}ms"
                for p in PHASES
            )
            print(f"  {'sum':>4}  {totals}")
        if out_dir:
            (out_dir / f"{spec.name}.json").write_text(json.dumps(payload, indent=2))
    if args.json:
        out = json_payloads[0] if len(json_payloads) == 1 else json_payloads
        print(json.dumps(out, indent=2))
    return 0


def _service_overrides(args: argparse.Namespace) -> dict:
    overrides = {}
    if getattr(args, "tick", None) is not None:
        overrides["tick_interval"] = args.tick
    if getattr(args, "queue_depth", None) is not None:
        overrides["max_queue_depth"] = args.queue_depth
    if getattr(args, "admit_cap", None) is not None:
        overrides["max_admitted_per_tick"] = args.admit_cap
    return overrides


def _print_service_report(service) -> None:
    from .core.engine import PHASES

    m = service.metrics
    rejected = ", ".join(f"{k}: {v}" for k, v in sorted(m.rejected.items()))
    print(f"  ticks            : {service.ticks}")
    print(f"  submitted        : {m.submitted}")
    print(f"  admitted         : {m.admitted}")
    print(f"  rejected         : {m.rejected_total}"
          + (f"  ({rejected})" if rejected else ""))
    print(f"  settled/answered : {m.settled}/{m.answered}")
    print(f"  queue depth      : mean {m.queue_depth.mean:6.1f}  "
          f"max {m.max_queue_depth}")
    print(f"  admission wait   : mean {m.admission_wait_ticks.mean:6.2f} "
          f"ticks  max {m.max_admission_wait}")
    slot = m.slot_latency
    print(f"  slot latency     : p50 {slot.p50 * 1e3:8.2f}ms  "
          f"p99 {slot.p99 * 1e3:8.2f}ms  max {slot.max * 1e3:8.2f}ms")
    for phase in PHASES:
        hist = m.phase_latency[phase]
        print(f"    {phase:<9}      : p50 {hist.p50 * 1e3:8.2f}ms  "
              f"p99 {hist.p99 * 1e3:8.2f}ms")


def _write_service_metrics(service, spec, n_slots, args) -> None:
    from .service.metrics import summary_payload

    if args.metrics:
        target = Path(args.metrics)
        target.parent.mkdir(parents=True, exist_ok=True)
        service.metrics.write_json(
            target,
            extra=summary_payload(spec.to_dict(), n_slots, service.summary),
        )
        print(f"  wrote {target}")
    if args.metrics_csv:
        target = Path(args.metrics_csv)
        target.parent.mkdir(parents=True, exist_ok=True)
        service.metrics.write_csv(target)
        print(f"  wrote {target}")


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .core import ReproError
    from .datasets import ScenarioSpec
    from .service import LoadGenerator, MarketplaceService, PoissonProfile

    try:
        spec = ScenarioSpec.from_json(args.spec)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error loading {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        service = MarketplaceService.from_spec(spec, **_service_overrides(args))
    except (ValueError, TypeError, ReproError) as exc:
        print(f"error building service for {spec.name}: {exc}", file=sys.stderr)
        return 2
    n_slots = args.slots if args.slots is not None else spec.n_slots
    generator = None
    try:
        if args.rate is not None:
            generator = LoadGenerator(
                PoissonProfile(args.rate), service.workloads, seed=spec.seed
            )
        elif service.config.arrivals is not None:
            generator = LoadGenerator.for_service(service)
    except (ValueError, TypeError) as exc:
        print(f"error building arrivals for {spec.name}: {exc}", file=sys.stderr)
        return 2
    ticks = n_slots if args.exit_after else None
    cfg = service.config
    print(f"serving {spec.name}: tick {cfg.tick_interval}s, queue depth "
          f"{cfg.max_queue_depth}, admit cap {cfg.max_admitted_per_tick}"
          + (f", loadgen {generator.profile!r}" if generator else ""))

    async def _main() -> None:
        tasks = [asyncio.ensure_future(service.serve(ticks))]
        if generator is not None:
            tasks.append(
                asyncio.ensure_future(generator.drive_async(service, n_slots))
            )
        try:
            await asyncio.gather(*tasks)
        finally:
            service.stop()
            for task in tasks:
                task.cancel()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - interactive stop
        service.stop()
        print("interrupted; shutting down", file=sys.stderr)
    print(f"{spec.name}  [service, {spec.n_sensors} sensors]")
    _print_service_report(service)
    _write_service_metrics(service, spec, service.ticks, args)
    return 0


def _run_loadgen(args: argparse.Namespace) -> int:
    from .core import ReproError
    from .datasets import ScenarioSpec
    from .service import (
        BurstyProfile,
        LoadGenerator,
        MarketplaceService,
        PoissonProfile,
        profile_from_payload,
        replay_admission_trace,
    )

    try:
        spec = ScenarioSpec.from_json(args.spec)
    except (OSError, ValueError, TypeError) as exc:
        print(f"error loading {args.spec}: {exc}", file=sys.stderr)
        return 2
    try:
        service = MarketplaceService.from_spec(spec, **_service_overrides(args))
    except (ValueError, TypeError, ReproError) as exc:
        print(f"error building service for {spec.name}: {exc}", file=sys.stderr)
        return 2

    # Profile: CLI flags > the spec's arrivals block > Poisson default.
    seed = 0
    kind = args.profile
    try:
        if service.config.arrivals is not None:
            profile, seed = profile_from_payload(service.config.arrivals)
        else:
            profile = PoissonProfile(16.0)
        if kind == "poisson" or (kind is None and args.rate is not None
                                 and args.burst_rate is None):
            profile = PoissonProfile(args.rate if args.rate is not None else 16.0)
        elif kind == "bursty" or args.burst_rate is not None:
            profile = BurstyProfile(
                rate=args.rate if args.rate is not None else 8.0,
                burst_rate=args.burst_rate if args.burst_rate is not None else 64.0,
                period=args.period if args.period is not None else 8,
                burst_length=args.burst_length if args.burst_length is not None else 2,
            )
        if args.seed is not None:
            seed = args.seed
        generator = LoadGenerator(profile, service.workloads, seed=seed)
    except (ValueError, TypeError) as exc:
        print(f"error building arrivals for {spec.name}: {exc}", file=sys.stderr)
        return 2
    n_slots = args.slots if args.slots is not None else spec.n_slots
    generator.drive(service, n_slots)
    print(f"{spec.name}  [loadgen {profile!r}, {n_slots} ticks]")
    _print_service_report(service)
    _write_service_metrics(service, spec, n_slots, args)
    if args.check_parity:
        flat = [q for batch in generator.schedule(n_slots) for q in batch]
        offline = replay_admission_trace(spec, service.trace, flat)
        broken = sum(
            1 for a, b in zip(service.slot_signatures, offline) if a != b
        )
        if broken:
            print(f"  parity BROKEN on {broken}/{n_slots} slots",
                  file=sys.stderr)
            return 1
        print(f"  parity OK across {n_slots} slots (service == offline replay)")
    return 0


def _run_lint(args: argparse.Namespace) -> int:
    import dataclasses as _dc

    from .analysis import (
        RULES,
        LintConfig,
        format_json,
        format_text,
        run_lint,
        write_baseline,
    )

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.code}  {rule.id:<20} {rule.summary}")
        return 0
    root = Path(args.root)
    baseline = Path(args.baseline) if args.baseline else root / "lint-baseline.json"
    config = LintConfig(root=root)
    if args.paths:
        config = _dc.replace(config, paths=tuple(args.paths))
    if args.rules:
        config = _dc.replace(
            config, rules=tuple(r.strip() for r in args.rules.split(",") if r.strip())
        )
    if not args.write_baseline and baseline.exists():
        config = _dc.replace(config, baseline_path=baseline)
    try:
        result = run_lint(config)
    except ValueError as exc:  # unknown rule ids, bad baseline version
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.write_baseline:
        count = write_baseline(baseline, result.findings)
        print(f"wrote {baseline} ({count} grandfathered finding(s))")
        return 0
    if args.format == "json":
        print(format_json(result))
    else:
        print(format_text(result, verbose=args.verbose))
    return 0 if result.ok else 1


def _run_demo() -> int:
    import numpy as np

    from .core import BaselineAllocator, OptimalPointAllocator, one_shot_engine
    from .datasets import build_rwm_scenario
    from .queries import PointQueryWorkload

    scenario = build_rwm_scenario(seed=1, n_sensors=100, n_slots=5)
    print("Point queries on RWM, budget 15, 5 slots:")
    for name, allocator in [
        ("Optimal", OptimalPointAllocator()),
        ("Baseline", BaselineAllocator()),
    ]:
        workload = PointQueryWorkload(
            scenario.working_region, n_queries=100, budget=15.0, dmax=scenario.dmax
        )
        engine = one_shot_engine(
            scenario.make_fleet(), workload, allocator, np.random.default_rng(2)
        )
        summary = engine.run(5)
        print(
            f"  {name:<9} utility/slot={summary.average_utility:8.1f}  "
            f"satisfaction={summary.satisfaction_ratio:.1%}"
        )
    return 0


def _run_info(parser: argparse.ArgumentParser) -> int:
    """Version + every subcommand, introspected from the parser itself.

    Walking the registered subparsers (instead of a hand-kept list that
    already went stale once) means a new subcommand shows up here the
    moment it is added to :func:`build_parser`.
    """
    print(f"repro {__version__}")
    sub = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    print("commands:")
    for choice in sub._choices_actions:
        print(f"  {choice.dest:<9} {choice.help or ''}")
    print("figures:", ", ".join(ALL_FIGURES))
    print("scales : paper (Section 4 sizes), ci (fast shrink)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    slots = getattr(args, "slots", None)
    if slots is not None and slots < 1:
        # The spec's own n_slots is refused below 1 the same way.
        print(f"error: --slots must be >= 1, got {slots}", file=sys.stderr)
        return 2
    if args.command == "figures":
        return _run_figures(args)
    if args.command == "scenario":
        return _run_scenario(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "loadgen":
        return _run_loadgen(args)
    if args.command == "lint":
        return _run_lint(args)
    if args.command == "demo":
        return _run_demo()
    if args.command == "info":
        return _run_info(parser)
    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
