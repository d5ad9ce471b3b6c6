"""Command-line front end: table building/queries, one-shot allocation
and sweeps.

Every run takes an explicit ``--seed``; two invocations with the same
arguments write byte-identical stdout (stderr's log lines are timestamped).
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

import numpy as np

from .alloc import Algorithm, allocate, embb_stage
from .channel import drop
from .config import load_config, scheme_f_u_count
from .errors import SlicePowerError
from .sweep import run_sweep, table_build_command
from .table import build_table, load_table, min_feasible_power, save_table
from .units import dbm_to_mw, mw_to_dbm, snr_db_to_gain

__all__ = ["main"]


def _fmt_dbm_vector(values_mw) -> str:
    return "[" + ", ".join(f"{mw_to_dbm(float(v)):.6f}" for v in values_mw) + "]"


def _overrides(args, names) -> dict:
    """The config fields among ``names`` that were given on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def _cmd_table_build(args) -> int:
    axis_pe = None
    if args.no_interference_only:
        axis_pe = np.array([-math.inf])
    table = build_table(
        gamma_u=snr_db_to_gain(args.gamma_u_db),
        f_count=args.f_u,
        r_u=args.r_u,
        trials=args.trials,
        seed=args.seed,
        axis_pe_dbm=axis_pe,
        m_u=args.m_u,
    )
    save_table(table, args.out)
    print(f"wrote {args.out}: {table.values.shape[0]}x{table.values.shape[1]} cells, "
          f"trials={table.trials}, seed={table.seed}")
    return 0


def _cmd_table_query(args) -> int:
    table = load_table(args.table)
    p_e_mw = 0.0 if args.pe.lower() in ("none", "-inf") else dbm_to_mw(float(args.pe))
    power_dbm = min_feasible_power(table, p_e_mw, args.eps)
    print(f"{power_dbm:.6f}")
    return 0


def _cmd_allocate(args) -> int:
    cfg = load_config(args.config, overrides=_overrides(
        args, ("m_u", "table_trials", "crn_draws", "evidence_trials")))
    grid = cfg.grid()
    traffic = cfg.traffic()
    scheme, f_u_count = scheme_f_u_count(args.scheme, grid.F)
    embb = embb_stage(grid, traffic, drop(args.seed, 0, cfg.mean_gain(args.de), grid.F),
                      scheme, f_u_count, cfg.m_u)
    gamma_u = cfg.mean_gain(args.du)
    f_u, r_u = embb.sets.F_u, embb.r_u

    if args.table:
        table = load_table(args.table)
    elif args.auto_table:
        table = build_table(gamma_u, f_u, r_u, cfg.table_trials, args.seed, m_u=cfg.m_u)
    else:
        raise SlicePowerError(
            "pass --table PATH or --auto-table; build one with\n  "
            + table_build_command(gamma_u, f_u, r_u, cfg.table_trials, args.seed, "table.npz")
        )

    result = allocate(
        embb, gamma_u, args.algo, traffic.epsilon_u, args.seed,
        table=table, bcd=cfg.bcd_options(), evidence_trials=cfg.evidence_trials,
    )
    print(f"scheme={args.scheme} algorithm={args.algo} d_u={args.du!r} d_e={args.de!r} "
          f"seed={args.seed}")
    print(f"f_u={list(embb.sets.f_u)} f_e={list(embb.sets.f_e)} m_u={list(embb.sets.m_u)}")
    print(f"r_e={embb.r_e!r} r_u={r_u!r}")
    print(f"p_e_dbm={_fmt_dbm_vector(embb.p_e)}")
    print(f"p_u_dbm={_fmt_dbm_vector(result.p_u)}")
    print(f"p_sic_dbm={_fmt_dbm_vector(embb.p_u_sic)}")
    print(f"embb_power_dbm={mw_to_dbm(result.embb_power_mw):.6f} "
          f"urllc_power_dbm={mw_to_dbm(result.urllc_power_mw):.6f} "
          f"total_dbm={mw_to_dbm(result.p_total_mw):.6f}")
    print(f"p_u_hat={result.p_u_hat.p_hat!r} ci={result.p_u_hat.ci_halfwidth!r} "
          f"trials={result.p_u_hat.trials}")
    print(f"sic_satisfied={result.sic_satisfied} iterations={result.iterations}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config,
                      overrides=_overrides(args, ("seed", "drops", "auto_build_tables")))
    records = run_sweep(cfg, out_dir=args.out)
    print(f"{len(records)} sweep records written to {args.out}"
          if records else "empty sweep: no output files")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slicepower",
        description="Minimum-power spectrum slicing for one eMBB and one URLLC user.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="build or query outage tables")
    table_sub = table.add_subparsers(dest="table_command", required=True)
    build = table_sub.add_parser("build", help="estimate a full outage grid")
    build.add_argument("--gamma-u-db", type=float, required=True,
                       help="mean URLLC SNR [dB]")
    build.add_argument("--f-u", type=int, required=True, help="URLLC frequency count")
    build.add_argument("--r-u", type=float, required=True, help="URLLC rate [bit/s/Hz]")
    build.add_argument("--m-u", type=int, default=1,
                       help="window length folded into the rate (metadata)")
    build.add_argument("--trials", type=int, default=10**7)
    build.add_argument("--seed", type=int, required=True)
    build.add_argument("--no-interference-only", action="store_true",
                       help="tabulate only the no-interference row")
    build.add_argument("--out", required=True, help="output path (.json or .npz)")
    build.set_defaults(func=_cmd_table_build)

    query = table_sub.add_parser("query", help="minimum feasible power lookup")
    query.add_argument("--table", required=True)
    query.add_argument("--pe", required=True,
                       help="interference power [dBm], or 'none'")
    query.add_argument("--eps", type=float, required=True, help="outage target")
    query.set_defaults(func=_cmd_table_query)

    alloc = sub.add_parser("allocate", help="allocate one fading drop and print it")
    alloc.add_argument("--scheme", required=True, help="'noma' or 'oma-<k>'")
    alloc.add_argument("--algo", choices=Algorithm.ALL, required=True)
    alloc.add_argument("--du", type=float, required=True, help="URLLC distance [m]")
    alloc.add_argument("--de", type=float, required=True, help="eMBB distance [m]")
    alloc.add_argument("--seed", type=int, required=True)
    alloc.add_argument("--m-u", type=int, default=None, help="URLLC window [mini-slots]")
    alloc.add_argument("--config", default=None, help="scenario config file")
    alloc.add_argument("--table", default=None, help="outage table path")
    alloc.add_argument("--auto-table", action="store_true",
                       help="build the needed table in memory")
    # --m-u and these three override the config; unset, they take its values
    alloc.add_argument("--table-trials", type=int, default=None)
    alloc.add_argument("--crn-draws", type=int, default=None)
    alloc.add_argument("--evidence-trials", type=int, default=None)
    alloc.set_defaults(func=_cmd_allocate)

    swp = sub.add_parser("sweep", help="run a configured sweep and emit CSVs")
    swp.add_argument("--config", default=None, help="scenario config file")
    swp.add_argument("--out", required=True, help="output directory")
    swp.add_argument("--seed", type=int, default=None, help="override the config seed")
    swp.add_argument("--drops", type=int, default=None)
    swp.add_argument("--auto-build-tables", action="store_true", default=None)
    swp.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(asctime)s %(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (SlicePowerError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
