"""Command-line entry points.

Subcommands: make-data, gen-pool, calibrate, run, ads, report.
Exit codes: 0 success, 1 usage error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from . import harness
from .ads import compute_ads
from .archpool import generate_pool, load_manifest, pool_entries, save_manifest
from .calib import load_profile, save_profile
from .harness import emit_report, load_config, run_experiment
from .nncore import ArchitectureSpec
from .synthdata import check_counts, generate_dataset

USAGE_EXIT = 1
RUNTIME_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def build_parser() -> _Parser:
    p = _Parser(prog="adslab", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    mk = sub.add_parser("make-data", help="generate synthetic stand-in datasets")
    mk.add_argument("--out", required=True, help="data root directory")
    mk.add_argument("--names", default="mnist,fashion_mnist")
    mk.add_argument("--n-train", type=int, default=6000)
    mk.add_argument("--n-test", type=int, default=1500)
    mk.add_argument("--seed", type=int, default=0)

    gp = sub.add_parser("gen-pool", help="generate the architecture pool manifest")
    gp.add_argument("--config", required=True)
    gp.add_argument("--out", required=True)
    gp.add_argument("--seed", type=int, default=None)

    cal = sub.add_parser("calibrate", help="fit proxy parameters for one scenario")
    cal.add_argument("--config", required=True)
    cal.add_argument("--scenario", default="", help="scenario id (default: first)")
    cal.add_argument("--fraction", type=float, default=None)
    cal.add_argument("--out", required=True, help="output profile path")

    run = sub.add_parser("run", help="run (or resume) the full experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--out", default=None, help="override experiment directory")
    run.add_argument("--seed", type=int, default=None, help="override to a single seed")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--pool", default=None, help="use this pool manifest instead of generating")
    run.add_argument("--quiet", action="store_true")

    ad = sub.add_parser("ads", help="score architectures under a parameter profile")
    ad.add_argument("--params", required=True, help="parameter profile path")
    ad.add_argument("--widths", default="", help="comma list incl. input and output dims")
    ad.add_argument("--pool", default="", help="pool manifest for batch scoring")
    ad.add_argument("--out", default="", help="CSV output for batch mode")

    rep = sub.add_parser("report", help="emit all CSV/SVG reports for an experiment")
    rep.add_argument("--exp", required=True, help="experiment directory")
    return p


def cmd_make_data(args) -> int:
    names = [name.strip() for name in args.names.split(",")]
    # every name's counts are checked before any file is written
    if not all(names):
        raise ValueError(f"--names lists an empty name: {args.names!r}")
    check_counts(names, args.n_train, args.n_test, flags=("--n-train", "--n-test"))
    for name in names:
        generate_dataset(args.out, name, n_train=args.n_train,
                         n_test=args.n_test, seed=args.seed)
        print(f"wrote {name} under {os.path.join(args.out, name)}")
    return 0


def cmd_gen_pool(args) -> int:
    cfg = load_config(args.config)
    pool_cfg = cfg.pool if args.seed is None else replace(cfg.pool, seed=args.seed)
    pool = generate_pool(pool_cfg)
    save_manifest(pool, args.out, seed=pool_cfg.seed)
    print(f"wrote {len(pool)} architectures to {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = load_config(args.config)
    sid = args.scenario or cfg.scenarios[0].scenario_id
    matches = [s for s in cfg.scenarios if s.scenario_id == sid]
    if not matches:
        raise ValueError(f"no scenario {sid!r} in config")
    spec = matches[0]
    # only the datasets this scenario names are loaded, and none outlives it
    scenario = harness.build_scenarios(replace(cfg, scenarios=(spec,)))[sid]
    fraction = args.fraction if args.fraction is not None else cfg.fractions_for(spec)[0]
    wanted = {harness.profile_id(sid, fraction): (scenario, fraction)}
    (params,) = harness.run_calibration(cfg, wanted, pool_entries(generate_pool(cfg.pool))).values()
    save_profile(params, args.out)
    print(f"alpha={params.alpha:.4f} beta={params.beta:.4f} "
          f"b={params.b:.4f} c={params.c:.4f} -> {args.out}")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg = replace(cfg, out_dir=args.out)
    if args.seed is not None:
        cfg = replace(cfg, seeds=(args.seed,))
    if args.workers is not None:
        cfg = replace(cfg, workers=args.workers)
    progress = None
    if not args.quiet:
        def progress(rec):
            print(f"  done {rec.arch_id} {rec.scenario_id} seed={rec.seed} "
                  f"shift={rec.observed_shift:.3f} acc1={rec.task1_eval_acc:.3f}")
    out = run_experiment(cfg, progress=progress, pool_manifest=args.pool or None)
    print(f"experiment complete: {out}")
    return 0


def cmd_ads(args) -> int:
    params = load_profile(args.params)
    if args.widths:
        widths = tuple(int(w) for w in args.widths.split(","))
        spec = ArchitectureSpec(depth=len(widths) - 2, widths=widths, topology_tag="random")
        score = compute_ads(spec, params)
        print(f"ads = {score.value!r}")
        for l, term in enumerate(score.per_layer_terms, start=1):
            print(f"  layer {l}: {term!r}")
        return 0
    if args.pool:
        entries = load_manifest(args.pool)
        if not entries:
            raise ValueError(f"{args.pool} lists no architecture to score")
        rows = []
        for arch_id, spec in entries:
            score = compute_ads(spec, params)
            rows.append([arch_id, score.value] + list(score.per_layer_terms))
        out = args.out or "ads_scores.csv"
        max_terms = max(len(r) - 2 for r in rows)
        header = ["arch_id", "ads"] + [f"term_{l}" for l in range(1, max_terms + 1)]
        harness.write_csv(out, header, rows)
        print(f"wrote {len(rows)} scores to {out}")
        return 0
    raise ValueError("ads requires either --widths or --pool")


def cmd_report(args) -> int:
    for path in emit_report(args.exp):
        print(path)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_EXIT
    handlers = {
        "make-data": cmd_make_data,
        "gen-pool": cmd_gen_pool,
        "calibrate": cmd_calibrate,
        "run": cmd_run,
        "ads": cmd_ads,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, FileNotFoundError, OSError) as exc:
        print(f"adslab {args.command}: {exc}", file=sys.stderr)
        return RUNTIME_EXIT


if __name__ == "__main__":
    sys.exit(main())
