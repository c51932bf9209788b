"""Command line interface.

Subcommands mirror the library surface: exact kernel evaluation, identity
checks, simulation, and the theorem-level experiments.  Exit code 0 means
all requested checks passed, 1 means a check failed, 2 means bad usage:
a malformed command line, or an argument the library rejects with
ValueError, reported as one line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from fractions import Fraction

from gtpatterns import dynamics, experiments, kernels, patterns


def _parse_row(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok != "")


def _single(row: tuple[int, ...], flag: str) -> int:
    if len(row) != 1:
        raise ValueError(f"{flag} must be one integer, got {len(row)} entries")
    return row[0]


def _parse_q(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"q has a zero denominator: {text}") from None


def _emit(args, payload: dict) -> None:
    text = json.dumps(payload, indent=2, default=str)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _cmd_count(args) -> int:
    value = patterns.count_patterns(args.k, _parse_row(args.lam))
    print(value)
    return 0


def _cmd_pieri(args) -> int:
    mult = kernels.pieri_decompose(args.d, _parse_row(args.lam), args.m)
    _emit(args, {",".join(map(str, beta)): c for beta, c in sorted(mult.items())})
    return 0


def _cmd_kernel(args) -> int:
    q = _parse_q(args.q)
    x, y = _parse_row(args.x), _parse_row(args.y)
    if args.kernel == "r":
        value = kernels.r_pmf(q, _single(x, "--x"), _single(y, "--y"))
    elif args.kernel == "pd":
        value = kernels.p_d_closed(q, args.d, x, y)
    elif args.kernel == "rk":
        value = kernels.r_k_pmf(q, args.k, x, y)
    else:  # "nu"; argparse choices admit no other kernel
        value = kernels.nu_pmf(q, args.d, _single(y, "--y"))
    print(f"{value} ({float(value):.12g})")
    return 0


def _cmd_intertwine(args) -> int:
    report = kernels.check_intertwining(_parse_q(args.q), args.k, args.bound)
    print(
        f"checked {report.checked} transitions, "
        f"max discrepancy {report.max_discrepancy}"
    )
    return 0 if report.ok else 1


def _cmd_desintegration(args) -> int:
    report = kernels.check_desintegration(_parse_q(args.q), args.bound)
    print(f"checked {report.checked} identities, violations {len(report.violations)}")
    return 0 if report.ok else 1


def _cmd_simulate(args) -> int:
    sim = dynamics.DiscreteSimulation(
        float(_parse_q(args.q)), args.k, args.paths, args.seed
    )
    sim.run(args.horizon)
    hist = Counter(",".join(str(int(v)) for v in row) for row in sim.row(args.k))
    _emit(args, {"experiment": "simulate", "k": args.k, "histogram": hist})
    return 0


def _cmd_ctmc(args) -> int:
    res = dynamics.ctmc_simulate(args.k, args.t_max, args.paths, args.seed)
    hist = Counter(";".join(",".join(map(str, row)) for row in pat) for pat in res.patterns)
    _emit(args, {"experiment": "ctmc", "k": args.k, "histogram": hist})
    return 0


# the optional flags each experiment reads, with their defaults
_EXPERIMENT_FLAGS = {
    "markov-marginal": {"q": "1/2", "horizon": 1, "radius": 60},
    "small-q": {"big_n": 200, "t_max": 1.0},
    "large-q": {"big_n": 200, "horizon": 1},
}


def _cmd_experiment(args) -> int:
    reads = _EXPERIMENT_FLAGS[args.which]
    for flag in ("q", "horizon", "t_max", "big_n", "radius"):
        if getattr(args, flag) is None:
            setattr(args, flag, reads.get(flag))
        elif flag not in reads:
            raise ValueError(f"--{flag.replace('_', '-')} does not apply to {args.which}")
    # checked here so the messages name the flags, not the library parameters
    if args.horizon is not None and args.horizon < 1:
        raise ValueError(f"--horizon must be >= 1, got {args.horizon}")
    if not args.tolerance > 0:
        raise ValueError(f"--tolerance must be > 0, got {args.tolerance}")
    if args.which == "markov-marginal":
        report = experiments.experiment_markov_marginal(
            k=args.k,
            horizon=args.horizon,
            q=_parse_q(args.q),
            n_paths=args.paths,
            seed=args.seed,
            radius=args.radius,
            threshold=args.tolerance,
        )
    elif args.which == "small-q":
        report = experiments.experiment_small_q(
            k=args.k,
            big_n=args.big_n,
            t_max=args.t_max,
            n_paths_discrete=args.paths,
            n_paths_ctmc=args.paths,
            seed=args.seed,
            threshold=args.tolerance,
        )
    else:
        report = experiments.experiment_large_q(
            k=args.k,
            big_n=args.big_n,
            n_steps=args.horizon,
            n_samples=args.paths,
            seed=args.seed,
            threshold=args.tolerance,
        )
    print(report.summary())
    _emit(args, report.to_dict())
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gtpatterns",
        description="Particle dynamics on orthogonal Gelfand-Tsetlin patterns",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of patterns with a given top row")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True, help="comma separated row")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("pieri", help="tensor-product multiplicities")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_pieri)

    p = sub.add_parser("kernel", help="evaluate a kernel entry exactly")
    p.add_argument("kernel", choices=["r", "pd", "rk", "nu"])
    p.add_argument("--q", required=True, help="rational num/den or decimal")
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--x", default="0")
    p.add_argument("--y", default="0")
    p.set_defaults(func=_cmd_kernel)

    p = sub.add_parser("intertwine", help="exact check of the pair-kernel intertwining")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_intertwine)

    p = sub.add_parser("desintegration", help="exact check of the summation identities")
    p.add_argument("--q", required=True)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_desintegration)

    p = sub.add_parser("simulate", help="discrete-time Monte Carlo")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("ctmc", help="exponential-clock Monte Carlo")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_ctmc)

    p = sub.add_parser("experiment", help="theorem-level comparison experiments")
    p.add_argument("which", choices=["markov-marginal", "small-q", "large-q"])
    p.add_argument("--k", type=int, required=True)
    # defaults per experiment: _EXPERIMENT_FLAGS
    p.add_argument("--q")
    p.add_argument("--horizon", type=int)
    p.add_argument("--t-max", type=float)
    p.add_argument("--big-n", type=int)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--radius", type=int)
    p.add_argument("--tolerance", type=float, default=0.05)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the library mixes counts with floats, and an int past the float
        # range overflows them; 2**63 is far past any run a budget admits
        for flag, value in vars(args).items():
            if flag != "seed" and type(value) is int and abs(value) >= 2**63:
                raise ValueError(
                    f"--{flag.replace('_', '-')} must be below 2**63, "
                    f"got {len(str(abs(value)))} digits"
                )
        return args.func(args)
    except ValueError as exc:
        print(f"gtpatterns: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
