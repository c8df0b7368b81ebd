"""Command-line entry point.

Subcommands: construct, dual, verify, ball, roots, selfdual-basis,
experiment; each subparser names its handler (``run``), and the parser is
built once per process, on the first ``main`` call.  Exit codes: 0 success,
1 domain error (single machine-parsable line ``error: <code>: <message>`` on
stderr and nothing on stdout), 2 usage error.  The default seed is the
constant 0, never wall-clock entropy: reruns must be byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import math
import random
import sys
import typing

from . import balls, construct, experiments, words
from .errors import FormatError, ParamError, ToolkitError
from .fields import ext_field, field_from_q, find_self_dual_basis, prime_power
from .quadforms import QuadraticForm, count_roots_brute, count_roots_formula, rank_of_form, sample_root


@functools.cache
def _build_parser():
    p = argparse.ArgumentParser(prog="sorank", description="Self-orthogonal rank-metric code toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="construct a self-orthogonal code")
    c.add_argument("--repr", choices=["matrix", "vector"], default="matrix")
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.set_defaults(run=_cmd_construct)

    sub.add_parser("dual", help="dual of a code read from stdin").set_defaults(run=_cmd_dual)
    sub.add_parser("verify", help="verify a code read from stdin").set_defaults(run=_cmd_verify)

    b = sub.add_parser("ball", help="rank-metric ball size")
    b.add_argument("--q", type=int, required=True)
    b.add_argument("--n", type=int, required=True)
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--r", type=int)
    b.add_argument("--exact", action="store_true", help="ignored: the exact size is printed whenever --bound is absent")
    b.add_argument("--bound", action="store_true")
    b.add_argument("--tau", type=float)
    b.set_defaults(run=_cmd_ball)

    r = sub.add_parser("roots", help="root counts of a quadratic form")
    r.add_argument("--q", type=int, required=True)
    r.add_argument("--ext-m", type=int, default=0, help="work over GF(q^m) instead of GF(q)")
    r.add_argument("--nvars", type=int, required=True)
    r.add_argument("--coeffs", required=True, help="upper-triangular coefficients, comma separated")
    r.add_argument("--sample", action="store_true", help="also print one uniform root")
    r.add_argument("--nonzero", action="store_true")
    r.add_argument("--seed", type=int, default=0)
    r.set_defaults(run=_cmd_roots)

    s = sub.add_parser("selfdual-basis", help="find a self-dual basis of GF(q^m)")
    s.add_argument("--q", type=int, required=True)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--seed", type=int, default=0, help="ignored: the basis is deterministic")
    s.set_defaults(run=_cmd_selfdual_basis)

    e = sub.add_parser("experiment", help="run a seeded list-size experiment")
    e.add_argument("--config", required=True, help="key=value config file")
    e.add_argument("--emit-hist", metavar="PATH", help="write a two-column histogram CSV")
    e.set_defaults(run=_cmd_experiment)
    return p


def _cmd_construct(args, out):
    ext = ext_field(args.q, args.m) if args.repr == "vector" else None
    field = field_from_q(args.q)
    code = construct.so_code(field, args.n, args.m, args.k, random.Random(args.seed), repr=args.repr, ext=ext)
    out.write(words.dump_code(code))
    return 0


def _cmd_dual(args, out):
    code = words.load_code(sys.stdin.read())
    out.write(words.dump_code(words.dual(code)))
    return 0


def _cmd_verify(args, out):
    code = words.load_code(sys.stdin.read())
    # load_code checks independence, and for independent rows C is in its
    # dual exactly when every basis pair, self-pairs included, is orthogonal.
    if not words.is_self_orthogonal(code):
        out.write("violated: basis pair with nonzero inner product\n")
        return 1
    out.write("OK\n")
    return 0


def _cmd_ball(args, out):
    prime_power(args.q)  # a ball size needs no field tables, only a valid q
    if args.n < 1 or args.m < 1:
        raise ParamError("ball needs n, m >= 1")
    if args.bound:
        if args.tau is None:
            raise ParamError("--bound requires --tau")
        r = int(math.floor(args.tau * args.n))
        exact = balls.ball_size_exact(args.n, args.m, args.q, r)
        logq_exact = math.log(exact, args.q) if exact > 1 else 0.0
        logq_bound = balls.ball_size_upper_bound(args.n, args.m, args.q, args.tau)
        out.write("tau,r,log_q_exact,log_q_bound\n")
        out.write(f"{args.tau},{r},{logq_exact:.9f},{logq_bound:.9f}\n")
        return 0
    if args.r is None:
        raise ParamError("ball needs --r, or --bound with --tau")
    out.write(str(balls.ball_size_exact(args.n, args.m, args.q, args.r)) + "\n")
    return 0


def _cmd_roots(args, out):
    F = ext_field(args.q, args.ext_m) if args.ext_m else field_from_q(args.q)
    try:
        coeffs = tuple(int(c) for c in args.coeffs.split(","))
    except ValueError as exc:
        raise FormatError("coefficients must be comma-separated integers") from exc
    f = QuadraticForm(args.nvars, coeffs, F)
    out.write(f"rank={rank_of_form(f)}\n")
    out.write(f"brute={count_roots_brute(f)}\n")
    out.write("formula=" + ",".join(str(c) for c in count_roots_formula(f)) + "\n")
    if args.sample:
        root = sample_root(f, random.Random(args.seed), nonzero=args.nonzero)
        out.write("root=" + " ".join(str(v) for v in root) + "\n")
    return 0


def _cmd_selfdual_basis(args, out):
    ext = ext_field(args.q, args.m)
    basis = find_self_dual_basis(ext)
    if basis is None:
        out.write("absent\n")
    else:
        out.write(" ".join(str(b) for b in basis) + "\n")
    return 0


def _parse_config(path):
    data = {}
    try:
        with open(path) as fh:
            for ln in fh:
                ln = ln.split("#", 1)[0].strip()
                if not ln:
                    continue
                if "=" not in ln:
                    raise FormatError(f"bad config line: {ln!r}")
                key, val = (s.strip() for s in ln.split("=", 1))
                if key in data:
                    raise FormatError(f"duplicate config key {key!r}")
                data[key] = val
    except OSError as exc:
        raise FormatError(f"cannot read config: {exc}") from exc
    schema = typing.get_type_hints(experiments.ExperimentConfig)
    parsed = {}
    for key, val in data.items():
        if key not in schema:
            raise FormatError(f"unknown config key {key!r}")
        try:
            parsed[key] = schema[key](val)
        except ValueError as exc:
            raise FormatError(f"bad value for {key!r}: {val!r}") from exc
    required = [f.name for f in dataclasses.fields(experiments.ExperimentConfig) if f.default is dataclasses.MISSING]
    missing = [k for k in required if k not in parsed]
    if missing:
        raise FormatError("missing config keys: " + ", ".join(missing))
    return experiments.ExperimentConfig(**parsed)


def _cmd_experiment(args, out):
    cfg = _parse_config(args.config)
    print(f"resolved config: {dataclasses.asdict(cfg)}", file=sys.stderr)
    report = experiments.max_list_size_experiment(cfg)
    print(f"wall time: {report.wall_time:.3f}s", file=sys.stderr)
    out.write(report.to_csv())
    if args.emit_hist:
        try:
            with open(args.emit_hist, "w") as fh:
                fh.write(report.histogram_csv())
        except OSError as exc:
            raise ParamError(f"cannot write histogram to {args.emit_hist!r}: {exc.strerror}") from exc
    return 0


def main(argv=None):
    args = _build_parser().parse_args(argv)
    # A command's output is held back until it has finished, so a command
    # that fails with a domain error writes nothing to stdout.
    out = io.StringIO()
    try:
        code = args.run(args, out)
    except ToolkitError as exc:
        print(f"error: {exc.code}: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
