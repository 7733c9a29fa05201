"""Command-line entry point: regenerate figures, or run any scenario.

``python -m repro.experiments <figure>`` prints the series the
corresponding benchmark regenerates; ``run`` executes a declarative
scenario — a preset or a JSON file — on any substrate (``sim``,
``threaded``, or ``process``). See ``--help`` for one worked example per
figure.
"""

from __future__ import annotations

import argparse
import sys

_EXAMPLES = """\
examples (one per figure, plus the scenario runner):
  fig2:  python -m repro.experiments fig2
  fig6:  python -m repro.experiments fig6 --duration 30 --rbes 7 21
  fig7:  python -m repro.experiments fig7 --calls 80 --groups 1 4 7 10
  fig8:  python -m repro.experiments fig8 --calls 40 --groups 1 4
  fig9:  python -m repro.experiments fig9 --calls 120
  abl.:  python -m repro.experiments ablations --calls 60
  run:   python -m repro.experiments run --preset echo-parity --runtime process
         python -m repro.experiments run --preset tpcw-small --runtime sim
         python -m repro.experiments run --preset two-tier --dump > t.json
         python -m repro.experiments run --scenario t.json --runtime threaded
         python -m repro.experiments run --preset echo-parity --runtime asyncio

chaos presets (scripted adversaries; every kind runs on sim, threaded,
and process — except link, which shapes the modelled network, sim only):
  crash      replica never speaks:         .crash("svc", 2)
  byzantine  equivocate / corrupt / mute:  .byzantine("svc", 0, mode="mute")
  delay      defer every outbound message: .delay("svc", 1, delay_us=5000)
  partition  split until heal deadline:    .partition("svc", [3], heal_after_us=2_000_000)
  restart    crash then rejoin:            .restart("svc", 2, up_after_us=3_000_000)
  link       per-link drop/delay (sim):    .link_fault("a/d0", "b/v1", drop=0.3)
  chaos: python -m repro.experiments run --preset chaos-equivocating-primary
         python -m repro.experiments run --preset chaos-partition-heal --runtime threaded
         python -m repro.experiments run --preset chaos-slow-drip --runtime process
         python -m repro.experiments run --preset chaos-soak
"""


def _fig2(args) -> None:
    from repro.baselines.features import render_matrix

    print(render_matrix())


def _fig6(args) -> None:
    from repro.tpcw.harness import figure6_series

    for result in figure6_series(
        rbe_counts=tuple(args.rbes),
        group_sizes=tuple(args.groups),
        duration_s=args.duration,
    ):
        print(result.row())


def _fig7(args) -> None:
    from repro.experiments.microbench import figure7_series

    for result in figure7_series(
        group_sizes=tuple(args.groups), total_calls=args.calls
    ):
        print(result.row())


def _fig8(args) -> None:
    from repro.experiments.microbench import figure8_series

    for result in figure8_series(
        group_sizes=tuple(args.groups), total_calls=args.calls
    ):
        print(result.row())


def _fig9(args) -> None:
    from repro.experiments.microbench import figure9_series

    for result in figure9_series(total_calls=args.calls):
        print(result.row())


def _ablations(args) -> None:
    from repro.experiments.ablations import crypto_ablation, reply_path_ablation

    print("-- MAC vs signatures")
    for row in crypto_ablation(total_calls=args.calls):
        print(
            f"n={row.n}: MAC {row.mac_rps:.1f} rps, "
            f"signatures {row.signature_rps:.1f} rps "
            f"({row.slowdown:.2f}x slowdown)"
        )
    print("-- responder bundling vs all-to-all")
    for row in reply_path_ablation():
        print(
            f"nt={row.n_target} nc={row.n_calling}: "
            f"{row.responder_messages} vs {row.all_to_all_messages} msgs "
            f"({row.savings_factor:.1f}x saving)"
        )


def _run(args) -> None:
    from repro.scenario.presets import PRESETS, preset
    from repro.scenario.runtime import run_scenario
    from repro.scenario.spec import ScenarioSpec

    if args.scenario is not None:
        with open(args.scenario, "r", encoding="utf-8") as handle:
            spec = ScenarioSpec.from_json(handle.read())
    elif args.preset is not None:
        spec = preset(args.preset)
    else:
        raise SystemExit(
            "run: pass --scenario <file.json> or --preset "
            f"<{'|'.join(sorted(PRESETS))}>"
        )
    if args.duration is not None:
        spec = spec.with_(duration_s=args.duration)
    if args.dump:
        print(spec.to_json(indent=2))
        return

    print(f"scenario {spec.name!r} on runtime {args.runtime!r} ...",
          file=sys.stderr)
    metrics = run_scenario(spec, runtime=args.runtime)
    print(f"scenario={metrics.scenario} runtime={metrics.runtime} "
          f"processes={metrics.processes} now_us={metrics.now_us}")
    for name, svc in sorted(metrics.services.items()):
        print(
            f"  {name:<12s} n={svc.n:<3d} completed={svc.completed_calls:<6d} "
            f"aborted={svc.aborted_calls:<4d} served={svc.requests_served:<6d} "
            f"delivered={svc.delivered_requests:<6d} "
            f"view_changes={svc.view_changes} view_lag={svc.view_lag}"
        )
        if svc.app:
            print(f"  {'':<12s} app={svc.app}")
    fault_counters = {
        key: metrics.counters.get(key, 0)
        for key in ("retransmissions", "view_changes", "faults_injected",
                    "cache_evictions")
    }
    if any(fault_counters.values()):
        print(f"  counters: {fault_counters}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate figures from the Perpetual-WS paper, or "
        "run a declarative scenario on any substrate.",
        epilog=_EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    figure_handlers = {
        "fig2": _fig2, "fig6": _fig6, "fig7": _fig7,
        "fig8": _fig8, "fig9": _fig9, "ablations": _ablations,
    }
    for name in figure_handlers:
        p = sub.add_parser(name, help=f"regenerate {name}")
        p.add_argument("--calls", type=int, default=100,
                       help="logical calls per configuration")
        p.add_argument("--duration", type=float, default=45.0,
                       help="TPC-W simulated seconds (fig6)")
        p.add_argument("--groups", type=int, nargs="+",
                       default=[1, 4, 7, 10], help="replica group sizes")
        p.add_argument("--rbes", type=int, nargs="+",
                       default=[7, 21, 42], help="RBE counts (fig6)")

    run_parser = sub.add_parser(
        "run", help="run a ScenarioSpec on sim, threaded, process, or asyncio"
    )
    run_parser.add_argument("--scenario", metavar="FILE",
                            help="scenario JSON document to execute")
    run_parser.add_argument("--preset",
                            help="named preset scenario (see epilog)")
    run_parser.add_argument("--runtime", default="sim",
                            choices=("sim", "threaded", "process", "asyncio"),
                            help="substrate to execute on (default: sim)")
    run_parser.add_argument("--duration", type=float, default=None,
                            help="override the scenario's run budget")
    run_parser.add_argument("--dump", action="store_true",
                            help="print the scenario JSON instead of running")

    args = parser.parse_args(argv)
    handlers = dict(figure_handlers, run=_run)
    handlers[args.command](args)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    raise SystemExit(main())
