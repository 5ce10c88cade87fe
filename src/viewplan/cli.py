"""Command-line front end.

Subcommands: precompute, train, plan, baseline, gen, report. Exit codes:
0 success, 1 usage error, 2 data error, 3 coverage target not reached.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
import warnings
from pathlib import Path

from . import agents, bench, io, planner, visibility

WORKERS_ENV = "VIEWPLAN_WORKERS"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this interface reserves 2
    # for data errors
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_lambda_set(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as err:
        raise ValueError(f"bad lambda set {text!r}: {err}") from err


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="viewplan",
                     description="Plan camera views that cover a triangle mesh.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("precompute", help="render per-view coverage into a cache file")
    p.add_argument("--mesh", required=True, help="OBJ mesh; rescaled to unit diagonal on load")
    p.add_argument("--cameras", required=True, help="camera JSON (angles in degrees)")
    p.add_argument("--out", required=True, help="coverage cache to write")
    p.set_defaults(func=_cmd_precompute)

    p = sub.add_parser("train", help="train a lam-selection model on a coverage cache")
    p.add_argument("--coverage", required=True)
    p.add_argument("--algo", required=True, choices=list(agents.ALGORITHMS))
    p.add_argument("--out", required=True, help="model weights file to write")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--episodes", type=int, default=100_000)
    p.add_argument("--rcc", type=float, default=1.0,
                   help="stop once covered area reaches this fraction of achievable")
    p.add_argument("--hidden", type=int, default=200)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--trace-decay", type=float, default=0.5)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="exploration rate; watkins-q only; sarsa and td are greedy")
    p.add_argument("--epsilon-episodes", type=int, default=50_000,
                   help="episodes that explore; watkins-q only; sarsa and td are greedy")
    p.add_argument("--lambda-set", default="0,1")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("plan", help="plan views with a trained model")
    p.add_argument("--coverage", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="plan JSON to write")
    p.add_argument("--rcc", type=float, default=None,
                   help="override the rcc the model was trained with")
    p.add_argument("--allow-digest-mismatch", action="store_true",
                   help="plan even if the model was trained on a different table")
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("baseline", help="plan views with a fixed rule")
    p.add_argument("--coverage", required=True)
    p.add_argument("--method", required=True, choices=["greedy", "fixed-lambda", "alt-lambda"])
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="lam for --method fixed-lambda")
    p.add_argument("--rcc", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("gen", help="generate a synthetic certified instance")
    p.add_argument("--spec", required=True,
                   help="JSON file or inline JSON object with the instance spec")
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True, help="coverage cache (with certificate) to write")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("report", help="aggregate plans and training logs into CSV")
    p.add_argument("--inputs", required=True, nargs="+",
                   help="plan JSON and/or model weights files")
    p.add_argument("--csv", required=True, help="per-method CSV to write")
    p.add_argument("--curves-csv", default=None, help="optional learning-curve CSV")
    p.set_defaults(func=_cmd_report)
    return parser


def _workers() -> int | None:
    raw = os.environ.get(WORKERS_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError as err:
        raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from err
    if value < 1:
        raise ValueError(f"{WORKERS_ENV} must be >= 1, got {value}")
    return value


def _cmd_precompute(args) -> int:
    mesh = io.load_mesh(args.mesh)
    views = io.load_cameras(args.cameras)
    table = visibility.precompute_coverage(mesh, views, workers=_workers())
    io.save_coverage(args.out, table)
    covered = table.achievable.count
    print(f"{table.n_views} views cover {covered}/{mesh.n_triangles} triangles; "
          f"wrote {args.out}")
    return 0


def _cmd_train(args) -> int:
    table, _cert = io.load_coverage(args.coverage)
    config = agents.TrainConfig(
        algorithm=args.algo,
        lambda_set=_parse_lambda_set(args.lambda_set),
        alpha=args.lr,
        mu_e=args.trace_decay,
        max_episodes=args.episodes,
        rcc=args.rcc,
        epsilon=args.epsilon,
        epsilon_episodes=args.epsilon_episodes,
        seed=args.seed,
        hidden=args.hidden,
    )
    t0 = time.perf_counter()
    model = agents.train(table, config)
    elapsed = time.perf_counter() - t0
    io.save_model(args.out, model)
    tail = model.episode_lengths[-min(500, len(model.episode_lengths)):]
    print(f"trained {args.algo} for {config.max_episodes} episodes in {elapsed:.1f}s; "
          f"mean length over last {len(tail)}: {float(tail.mean()):.3f}; wrote {args.out}")
    return 0


def _plan_exit(plan, out_path) -> int:
    if not plan.complete:
        print(f"coverage target not reached (fraction {plan.final_coverage_fraction:.4f}); "
              f"partial plan in {out_path}", file=sys.stderr)
        return 3
    print(f"{plan.method}: {len(plan.order)} views, "
          f"coverage {plan.final_coverage_fraction:.4f}; wrote {out_path}")
    return 0


def _cmd_plan(args) -> int:
    table, _cert = io.load_coverage(args.coverage)
    model = io.load_model(args.model)
    if model.table_digest != table.digest and not args.allow_digest_mismatch:
        raise ValueError(
            f"{args.model} was trained on a different coverage table than {args.coverage} "
            f"(rerun with --allow-digest-mismatch to override)")
    rcc = model.config.rcc if args.rcc is None else args.rcc
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        if args.allow_digest_mismatch:
            warnings.simplefilter("ignore")
        plan = agents.plan_with_model(model, table, rcc)
    io.save_plan(args.out, plan, runtime_seconds=time.perf_counter() - t0)
    return _plan_exit(plan, args.out)


def _cmd_baseline(args) -> int:
    table, _cert = io.load_coverage(args.coverage)
    t0 = time.perf_counter()
    if args.method == "greedy":
        plan = planner.run_fixed_lambda(table, 0.0, rcc=args.rcc)
    elif args.method == "fixed-lambda":
        if args.lam is None:
            raise ValueError("--method fixed-lambda requires --lambda")
        plan = planner.run_fixed_lambda(table, args.lam, rcc=args.rcc)
    else:
        plan = planner.run_alternating(table, rcc=args.rcc)
    io.save_plan(args.out, plan, runtime_seconds=time.perf_counter() - t0)
    return _plan_exit(plan, args.out)


def _cmd_gen(args) -> int:
    raw = args.spec.strip()
    if raw.startswith("{"):
        doc = json.loads(raw)
    else:
        with open(args.spec, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("--spec must be a JSON object")
    doc["seed"] = args.seed
    try:
        spec = bench.SyntheticSpec(**doc)
    except TypeError as err:
        # unknown or missing spec fields arrive as TypeError; report them like
        # any other bad input
        raise ValueError(f"bad spec: {err}") from err
    inst = bench.generate_instance(spec)
    io.save_coverage(args.out, inst.table,
                     cert=(inst.oracle_count, inst.greedy_count, inst.connected_count))
    oracle = "-" if inst.oracle_count is None else str(inst.oracle_count)
    print(f"{spec.kind} {spec.rows}x{spec.cols}, {spec.views} views: "
          f"exact {oracle}, greedy {inst.greedy_count}; wrote {args.out}")
    return 0


def _cmd_report(args) -> int:
    method_rows = []
    curve_rows = []
    for raw in args.inputs:
        path = Path(raw)
        source = path.stem
        if path.suffix == ".json":
            plan, runtime = io.load_plan(path)
            method_rows.append(io.method_row(source, plan, runtime))
        else:
            model = io.load_model(path)
            curve_rows.extend(io.curve_rows(source, model))
    io.write_method_csv(args.csv, method_rows)
    written = f"wrote {args.csv} ({len(method_rows)} method rows)"
    if args.curves_csv is not None:
        io.write_curve_csv(args.curves_csv, curve_rows)
        written += f" and {args.curves_csv} ({len(curve_rows)} curve rows)"
    print(written)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    except (ValueError, OSError, FloatingPointError) as err:
        print(f"viewplan {args.command}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
