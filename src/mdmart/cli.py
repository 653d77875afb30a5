"""Command-line front end.

Commands mirror the experiment families: verify (closed-form inequality
suites), certify (moment-condition certificates), tail (tail-ratio report),
mdp (moderate-deviation scan), couple (quantile coupling report) and mixing
(block-sum ratio experiment).  Exit codes: 0 ok, 1 assertion failure,
2 usage error.  Output is deterministic for a fixed config."""
from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import sys

import numpy as np

from . import verify as verify_suites
from .bounds import BoundParams
from .coupling import CouplingReport, exact_coupling_report
from .mixing import mixing_tail_experiment, two_state_chain
from .models import (_FACTORIES, CertificationError, ModelError, certify,
                     make_rademacher)
from .montecarlo import (RatioReport, mdp_scan, parse_an_rule, ratio_report,
                         write_csv)

EXIT_OK = 0
EXIT_ASSERTION = 1
EXIT_USAGE = 2


def _build_model(args):
    """The model named by --model, given the model flags its factory takes.
    An unset --rho passes nothing, so the factory's own default applies; the
    rho the model runs with is written back for the artifact header."""
    factory = _FACTORIES[args.model]
    accepted = inspect.signature(factory).parameters
    kwargs = {k: getattr(args, k) for k in ("rho", "gamma", "tail_atoms")
              if k in accepted and getattr(args, k) is not None}
    model = factory(args.n, **kwargs)
    args.rho = model.rho
    return model


def _add_model_flags(p):
    """The flags that pick and parametrize a model, for `certify` and `tail`."""
    p.add_argument("--model", default="rademacher", choices=list(_FACTORIES))
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--rho", type=float,
                   help="moment exponent in (0, 1]; default: the model's own")
    p.add_argument("--gamma", type=float, default=0.3)
    p.add_argument("--tail-atoms", type=int, default=8)


def _commands(parser):
    """The parsers of the commands, by name."""
    return next(a.choices for a in parser._actions if a.dest == "command")


@functools.cache
def _flag_defaults(command):
    """The built-in defaults of `command`'s flags, unchanged by --config:
    from a parser of their own, built once per command."""
    return vars(_commands(build_parser())[command].parse_args([]))


def _flag_tag(args, flags, defaults=None):
    """'_a0.5_b_prob0.4' and the like, for an artifact's name: each of
    `flags` whose value differs from its default, in the order given; '' at
    the defaults.  A flag's default is its entry in `defaults`, else its
    built-in one, so runs at other parameters write other files."""
    defaults = {**_flag_defaults(args.command), **(defaults or {})}
    return "".join(f"_{k}{getattr(args, k)}" for k in flags
                   if getattr(args, k) != defaults[k])


def _model_tag(args):
    """`_flag_tag` of the model flags that the model's factory takes, a
    flag's default being the factory's, or the flag's own where the factory
    has none.  Call after `_build_model`, which sets rho."""
    accepted = inspect.signature(_FACTORIES[args.model]).parameters
    return _flag_tag(args, [k for k in ("rho", "gamma", "tail_atoms") if k in accepted],
                     {k: p.default for k, p in accepted.items() if p.default is not p.empty})


def _an_rule(rule: str) -> str:
    """An a_n rule 'n^gamma' spelled the one way, 'n^' and the repr of the
    gamma that `parse_an_rule` reads, so that one rule names one artifact."""
    try:
        return f"n^{parse_an_rule(rule)!r}"
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _parse_grid(spec: str):
    """'a:b:step' inclusive grid, or a comma list, of finite values; a grid
    needs a <= b and a positive step."""
    if ":" in spec:
        a, b, step = (float(v) for v in spec.split(":"))
        if not (step > 0.0 and a <= b and np.isfinite([a, b, step]).all()):
            raise ValueError(f"grid {spec!r} needs finite ends a <= b and a step > 0")
        return list(np.arange(a, b + step / 2.0, step))
    values = [float(v) for v in spec.split(",")]
    if not np.isfinite(values).all():
        raise ValueError(f"grid {spec!r} holds a value that is not finite")
    return values


def _out_path(args, filename):
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, filename)


def _echo_config(args) -> str:
    skip = {"func", "config"}
    items = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    return json.dumps(items)


def cmd_verify(args):
    results = verify_suites.run_all(samples=args.budget, seed=args.seed)
    ok = True
    for name, passed, detail in results:
        print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_ASSERTION


def cmd_certify(args):
    model = _build_model(args)
    doc = certify(model).to_json()
    print(doc)
    path = _out_path(args, f"certificate_{model.name}_n{model.n}{_model_tag(args)}.json")
    with open(path, "w") as fh:
        fh.write(doc + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_tail(args):
    model = _build_model(args)
    cert = certify(model)
    params = BoundParams(rho=cert.rho, eps_n=cert.eps_n, delta_n=cert.delta_n,
                         c=args.c)
    grid = _parse_grid(args.x)
    report = ratio_report(model, grid, args.budget, args.seed, params)
    path = _out_path(args, f"tail_{model.name}_n{model.n}{_model_tag(args)}_seed{args.seed}.csv")
    write_csv(path, RatioReport.CSV_COLUMNS, [vars(r) for r in report.rows],
              _echo_config(args))
    warned = False
    print(f"{'x':>6} {'p_hat':>12} {'ratio':>8} {'ess':>10}")
    for r in report.rows:
        print(f"{r.x:6.2f} {r.p_hat:12.6g} {r.ratio:8.4f} {r.ess:10.1f}"
              + (f"  [{' '.join(r.flags)}]" if r.flags else ""))
        warned = warned or bool(r.flags)
    print(f"wrote {path}")
    if warned:
        print("warning: some rows flagged (low ESS or tilt fallback)",
              file=sys.stderr)
    return EXIT_OK


def cmd_mdp(args):
    ns = [int(v) for v in args.n_list.split(",")]
    table = mdp_scan(make_rademacher, ns, args.rule, args.b, args.budget,
                     args.seed)
    path = _out_path(args, f"mdp{_flag_tag(args, ('rule', 'b'))}_seed{args.seed}.csv")
    write_csv(path, ("n", "a_n", "x", "p_hat", "se", "rate", "ess"), table,
              _echo_config(args))
    target = -args.b ** 2 / 2.0
    for row in table:
        print(f"n={row['n']:>8}  rate={row['rate']:.4f}  (target {target:.4f})")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_couple(args):
    ns = [int(v) for v in args.n_list.split(",")]
    reports = [exact_coupling_report(n, alpha=args.alpha) for n in ns]
    path = _out_path(args, f"couple{_flag_tag(args, ('alpha',))}.csv")
    write_csv(path, CouplingReport.CSV_COLUMNS, [vars(r) for r in reports],
              _echo_config(args))
    for r in reports:
        print(f"n={r.n:>6}  D={r.D:.4f}  tail_slope={r.tail_slope:.2f}"
              f"  frac_event={r.frac_event:.3f}")
    print(f"wrote {path}")
    slopes_ok = all(r.tail_slope < 0.0 for r in reports)
    return EXIT_OK if slopes_ok else EXIT_ASSERTION


def cmd_mixing(args):
    chain = two_state_chain(args.a, args.b_prob)
    grid = _parse_grid(args.x)
    report, info = mixing_tail_experiment(chain, args.n, args.alpha, grid,
                                          args.budget, args.seed)
    stem = f"mixing_n{args.n}{_flag_tag(args, ('a', 'b_prob', 'alpha'))}_seed{args.seed}"
    path = _out_path(args, f"{stem}.csv")
    write_csv(path, RatioReport.CSV_COLUMNS, [vars(r) for r in report.rows],
              _echo_config(args))
    info_path = _out_path(args, f"{stem}_info.json")
    with open(info_path, "w") as fh:
        json.dump(info, fh, default=float)
    print(f"m={info['m']} k={info['k']} tau_n={info['tau_n']:.4f} "
          f"ES2={info['es2']:.4f}")
    if not info["envelope_defined"]:
        print("warning: tau_n >= 1, envelope undefined", file=sys.stderr)
    for r in report.rows:
        # a row's own flags; envelope_undefined, on every row, is the warning
        flags = [f for f in r.flags if f != "envelope_undefined"]
        print(f"x={r.x:.2f}  ratio={r.ratio:.4f}  "
              f"envelope=[{r.bound_lo:.4f}, {r.bound_hi:.4f}]"
              + (f"  [{' '.join(flags)}]" if flags else ""))
    print(f"wrote {path} and {info_path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mdmart",
        description="Tail-ratio, coupling and mixing experiments for "
                    "martingale moderate deviations")
    parser.add_argument("--config", help="JSON file with default flag values")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=".", help="artifact directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run all closed-form inequality suites")
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="compute a moment-condition certificate")
    _add_model_flags(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("tail", help="tilted tail estimates vs the normal tail")
    _add_model_flags(p)
    p.add_argument("--x", default="0:4:0.5", help="grid a:b:step or comma list")
    p.add_argument("--budget", type=int, default=10 ** 5)
    p.add_argument("--c", type=float, default=1.0,
                   help="stand-in for the anonymous theorem constant")
    p.set_defaults(func=cmd_tail)

    p = sub.add_parser("mdp", help="moderate-deviation rate scan")
    p.add_argument("--n-list", default="100,1000,10000")
    p.add_argument("--rule", type=_an_rule, default="n^0.25")
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--budget", type=int, default=10 ** 5)
    p.set_defaults(func=cmd_mdp)

    p = sub.add_parser("couple", help="exact quantile-coupling deviation report")
    p.add_argument("--n-list", default="100,400,1600")
    p.add_argument("--alpha", type=float, default=0.125,
                   help="the event is |W| <= alpha sqrt(n); alpha in (0, 1)")
    p.set_defaults(func=cmd_couple)

    p = sub.add_parser("mixing", help="block-sum tail ratios for a two-state chain")
    p.add_argument("--a", type=float, default=0.3)
    p.add_argument("--b-prob", type=float, default=0.3)
    p.add_argument("--n", type=int, default=10 ** 4)
    p.add_argument("--alpha", type=float, default=0.3)
    p.add_argument("--x", default="0.5,1.0,1.5")
    p.add_argument("--budget", type=int, default=5 * 10 ** 4)
    p.set_defaults(func=cmd_mixing)
    return parser


def _apply_config(parser, args):
    """Make each field of the --config file the default of the flag it names,
    on the parser (top-level or the command's) that owns that flag.  Values
    go in as strings, so the flag's own type converts them, a bad value is a
    usage error, and a flag given on the command line still wins."""
    try:
        with open(args.config) as fh:
            fields = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        parser.error(f"config error in {args.config}: {e}")
    if not isinstance(fields, dict):
        parser.error(f"config error in {args.config}: expected a JSON object")
    commands = _commands(parser)
    for key, value in fields.items():
        dest = key.replace("-", "_")
        owners = [p for p in (parser, commands[args.command]) if any(
            a.dest == dest and a.option_strings for a in p._actions)]
        if not owners:
            parser.error(f"config error: unknown field {key!r}")
        owners[0].set_defaults(**{dest: str(value)})


def main(argv=None) -> int:
    parser = build_parser()
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        if args.config:
            _apply_config(parser, args)
            args = parser.parse_args(argv)
        if not 0 <= args.seed < 2 ** 63:
            # refused by every command, also one that draws nothing
            parser.error(f"--seed {args.seed} outside [0, 2^63)")
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except CertificationError as e:
        print(f"FAIL certification: {e}", file=sys.stderr)
        return EXIT_ASSERTION
    except (ModelError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
