"""Command-line entry point regenerating every paper table and figure.

Usage::

    mpichgq-experiments [--quick] [--seed N] [--out DIR] [--parallel N]
                        [exp ...]

where ``exp`` is any of: fig1 fig5 fig6 fig7 table1 table1_aqm
table1_l4s fig8 fig9 fig_adaptation garnet_xl (default: all, in paper
order). ``--quick`` runs the scaled-down variants the
benchmark suite uses. ``--parallel N`` fans the work out over N worker
processes (see :mod:`repro.experiments.parallel`); results are
identical to a serial run except for ``elapsed_seconds``. ``--shards
N`` partitions a single simulation across N PDES workers (see
:mod:`repro.pdes`) for the experiments that support it; merged results
are byte-identical to the 1-shard run.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import time
from pathlib import Path

from .. import telemetry
from . import (
    fig1_tcp_reservation,
    fig5_pingpong,
    fig6_visualization,
    fig7_burstiness_traces,
    fig8_cpu_reservation,
    fig9_combined,
    fig_adaptation,
    garnet_xl,
    table1_aqm,
    table1_burstiness,
    table1_l4s,
)
from .report import render_result

__all__ = ["main", "EXPERIMENTS", "make_telemetry"]

EXPERIMENTS = {
    "fig1": fig1_tcp_reservation.run,
    "fig5": fig5_pingpong.run,
    "fig6": fig6_visualization.run,
    "fig7": fig7_burstiness_traces.run,
    "table1": table1_burstiness.run,
    "table1_aqm": table1_aqm.run,
    "table1_l4s": table1_l4s.run,
    "fig8": fig8_cpu_reservation.run,
    "fig9": fig9_combined.run,
    "fig_adaptation": fig_adaptation.run,
    "garnet_xl": garnet_xl.run,
}


def make_telemetry() -> "telemetry.Telemetry":
    """The runner's standard collection session.

    Excludes the per-packet event types: a full fig run emits hundreds
    of thousands of them, swamping the dump with data the registry
    already summarises as byte and conformance counters. Drops,
    retransmits, grants, and MPI-message events all stay.
    """
    return telemetry.Telemetry(
        trace=telemetry.FlowTrace(
            exclude=(
                ("net", "tx"),
                ("tcp", "segment"),
                ("diffserv", "mark"),
            ),
            limit=200_000,
        )
    )


def _payload(result, quick: bool, seed: int, elapsed: float) -> dict:
    return {
        "experiment": result.experiment,
        "description": result.description,
        "headers": result.headers,
        "rows": result.rows,
        "series": {
            k: [list(map(float, x)), list(map(float, y))]
            for k, (x, y) in result.series.items()
        },
        "extra": {
            k: (float(v) if isinstance(v, (int, float)) else v)
            for k, v in result.extra.items()
        },
        "quick": quick,
        "seed": seed,
        "elapsed_seconds": elapsed,
    }


def _report(name, result, elapsed, summary, args) -> None:
    """Print one experiment's result and write its JSON dump."""
    print(render_result(result))
    print(f"[{name} completed in {elapsed:.1f}s]\n")
    if summary is not None:
        n_metrics, n_spans = summary
        print(f"[telemetry: {n_metrics} metrics, {n_spans} span events]\n")
    if args.out is not None:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{name}.json"
        path.write_text(
            json.dumps(_payload(result, args.quick, args.seed, elapsed), indent=2)
        )
        print(f"[wrote {path}]\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mpichgq-experiments",
        description="Regenerate the MPICH-GQ paper's tables and figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="exp",
        help=f"subset to run (default: all); any of: "
             f"{' '.join(EXPERIMENTS)}",
    )
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down parameters")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--mode", choices=("packet", "hybrid"), default="packet",
        help="datapath fidelity mode for experiments that support it "
             "(packet: byte-identical per-packet chain; hybrid: burst "
             "drain + fluid background traffic)",
    )
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for JSON result dumps")
    parser.add_argument(
        "--parallel", type=int, default=1, metavar="N",
        help="run experiments over N worker processes (default: serial)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="partition each supporting experiment's single simulation "
             "across N PDES workers (repro.pdes); merged output is "
             "byte-identical to --shards 1",
    )
    telemetry_group = parser.add_mutually_exclusive_group()
    telemetry_group.add_argument(
        "--telemetry", dest="telemetry", action="store_true", default=None,
        help="collect metrics/spans even without --out",
    )
    telemetry_group.add_argument(
        "--no-telemetry", dest="telemetry", action="store_false",
        help="skip metrics collection even with --out",
    )
    args = parser.parse_args(argv)

    # Validate experiment names explicitly. (The old
    # ``choices=[[], *EXPERIMENTS.keys()]`` hack — needed to let the
    # empty nargs="*" default pass validation — produced the baffling
    # error ``invalid choice: 'fig2' (choose from [], 'fig1', ...)``.)
    unknown = [name for name in args.experiments if name not in EXPERIMENTS]
    if unknown:
        parser.error(
            f"unknown experiment(s): {', '.join(unknown)} "
            f"(valid names: {', '.join(EXPERIMENTS)})"
        )
    if args.parallel < 1:
        parser.error(f"--parallel must be >= 1, got {args.parallel}")
    if args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")

    selected_early = args.experiments or list(EXPERIMENTS)
    if args.shards > 1:
        import inspect

        if args.parallel > 1:
            parser.error(
                "--shards partitions one simulation across processes and "
                "--parallel fans whole experiments out; pick one"
            )
        unsupported = [
            name for name in selected_early
            if "shards" not in inspect.signature(EXPERIMENTS[name]).parameters
        ]
        if unsupported:
            parser.error(
                f"--shards is not supported by: {', '.join(unsupported)} "
                f"(only PDES-backed experiments take a shards parameter)"
            )
    if args.mode != "packet":
        import inspect

        if args.parallel > 1:
            parser.error("--mode hybrid runs serially; drop --parallel")

        unsupported = [
            name for name in selected_early
            if "mode" not in inspect.signature(EXPERIMENTS[name]).parameters
        ]
        if unsupported:
            parser.error(
                f"--mode {args.mode} is not supported by: "
                f"{', '.join(unsupported)} (only experiments taking a "
                f"mode parameter run in non-packet modes)"
            )

    # Telemetry is on whenever results are being written out, unless
    # explicitly disabled; --telemetry forces it on for console runs.
    collect_metrics = (
        args.telemetry if args.telemetry is not None else args.out is not None
    )

    selected = args.experiments or list(EXPERIMENTS)

    if args.parallel > 1:
        from .parallel import run_parallel

        results = run_parallel(
            selected,
            quick=args.quick,
            seed=args.seed,
            processes=args.parallel,
            collect=collect_metrics,
            out=args.out,
        )
        for name, result, elapsed, summary in results:
            _report(name, result, elapsed, summary, args)
        return 0

    for name in selected:
        tel = None
        if collect_metrics:
            tel = make_telemetry()
            telemetry.install(tel)
        started = time.time()
        # A simulation run allocates at a steady rate and drops whole
        # object graphs at once; generational GC only adds pauses, so
        # it is suspended for the duration of the experiment.
        gc.disable()
        try:
            kwargs = {"quick": args.quick, "seed": args.seed}
            if args.mode != "packet":
                kwargs["mode"] = args.mode
            if args.shards > 1:
                kwargs["shards"] = args.shards
            result = EXPERIMENTS[name](**kwargs)
        finally:
            gc.enable()
            gc.collect()
            if tel is not None:
                telemetry.uninstall()
        elapsed = time.time() - started
        summary = None
        if tel is not None:
            tel.collect()
            snap = tel.snapshot()
            summary = (len(snap["metrics"]), snap["span_count"])
        _report(name, result, elapsed, summary, args)
        if tel is not None and args.out is not None:
            meta = {"experiment": name, "quick": args.quick,
                    "seed": args.seed}
            mpath = args.out / f"{name}.metrics.json"
            telemetry.export_json(tel, mpath, meta=meta)
            cpath = args.out / f"{name}.metrics.csv"
            telemetry.export_csv(tel, cpath)
            print(f"[wrote {mpath} and {cpath}]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
