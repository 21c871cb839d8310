"""Command-line front door wiring generators, oracles, algorithms, and the harness.

Every command prints one machine-parseable `config:` line with its fully
resolved parameters before any other output, so a run can be reproduced from
its log alone. Exit codes: 0 success, 2 validation error, 3 capacity error,
4 verification failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from .algorithms import StopCondition
from .core import ContractViolationError, Instance
from .harness import (
    ALGORITHMS,
    ExperimentConfig,
    check_batch_parameters,
    derive_seed,
    export_report,
    export_sweep,
    pool_size,
    run_experiment,
)
from .instances import (
    GStarParams,
    InstanceFormatError,
    ParameterError,
    _digits,
    gen_g_star,
    gen_uniform,
    read_instance,
    write_instance,
)
from .oracles import (
    CapacityError,
    brute_force_optimum,
    dp_optimal_assignment,
    dp_optimal_makespan,
    lpt,
)


def _integer(text: str) -> int:
    """ASCII digits with at most one leading minus: the instance files' rule
    for integers, plus a sign."""
    return -_digits(text[1:]) if text.startswith("-") else _digits(text)


_integer.__name__ = "int"  # argparse's message stays "invalid int value: ..."


def _parse_ratio(text: str, flag: str) -> tuple[int, int]:
    try:
        q, r = (_digits(part) for part in text.split("/"))
    except ValueError:  # not two parts, or a part is not ASCII digits
        pass
    else:
        if r != 0:
            return q, r
    raise ParameterError(f"{flag} must be a rational q/r, got {text!r}")


def _fmt(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _config_line(command: str, pairs: list[tuple[str, object]]) -> str:
    body = " ".join(f"{k}={v}" for k, v in pairs if v is not None)
    return f"config: command={command} {body}"


# The instance flags each family takes, by dest; --in takes none of them.
_TAKES = {"gstar": ("n", "s", "eps", "scale"), "uniform": ("n", "max_p", "instance_seed")}


def _instance(
    args: argparse.Namespace, seed_flag: str
) -> tuple[Instance, list[tuple[str, object]]]:
    """The instance of --in, or of --family and its flags, with its config:
    fields. seed_flag is the instance seed's flag as the command spells it."""
    infile = getattr(args, "infile", None)  # generate has no --in
    if infile is not None and args.family is not None:
        raise ParameterError("give either --in or --family, not both")
    if infile is None and args.family is None:
        raise ParameterError("run needs an instance: --in or --family")
    source = "--in" if infile is not None else f"--family {args.family}"
    for dest, flag in (("n", "--n"), ("s", "--s"), ("eps", "--eps"), ("scale", "--scale"),
                       ("max_p", "--max-p"), ("instance_seed", seed_flag)):
        if getattr(args, dest) is not None and dest not in _TAKES.get(args.family, ()):
            raise ParameterError(f"{source} takes no {flag}")
    if infile is not None:
        inst = read_instance(infile)
        return inst, [("in", infile), ("n", inst.n), ("family", inst.meta.family)]
    if args.n is None:
        raise ParameterError("--family needs --n")
    pairs: list[tuple[str, object]] = [("family", args.family), ("n", args.n)]
    if args.family == "gstar":
        if args.s is None or args.eps is None:
            raise ParameterError("family gstar needs --s and --eps")
        q, r = _parse_ratio(args.eps, "--eps")
        scale = 1 if args.scale is None else args.scale
        inst = gen_g_star(GStarParams(n=args.n, s=args.s, eps=(q, r), scale=scale))
        return inst, pairs + [("s", args.s), ("eps", f"{q}/{r}"), ("scale", scale)]
    if args.max_p is None:
        raise ParameterError("family uniform needs --max-p")
    seed = 0 if args.instance_seed is None else args.instance_seed
    inst = gen_uniform(args.n, args.max_p, seed)
    return inst, pairs + [("max_p", args.max_p), ("instance_seed", seed)]


def _check_out(path: str | None) -> None:
    """Open --out for appending and close it: a path that cannot be written
    fails here, before any trial and any output. A missing file is created
    empty; an existing one is not changed here."""
    if path is not None:
        open(path, "a").close()


def _cmd_generate(args: argparse.Namespace) -> int:
    inst, pairs = _instance(args, "--seed")
    _check_out(args.out)
    print(_config_line("generate", pairs + [("out", args.out)]))
    write_instance(inst, args.out)
    print(f"wrote {args.out}: n={inst.n} W={inst.W} p_max={inst.p[0]} p_min={inst.p[-1]}")
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    inst = read_instance(args.infile)
    print(_config_line("solve", [
        ("in", args.infile), ("n", inst.n), ("family", inst.meta.family),
        ("method", args.method), ("assignment", args.assignment),
    ]))
    witness = None
    if args.method == "dp":
        if args.assignment:
            value, witness = dp_optimal_assignment(inst)
        else:
            value = dp_optimal_makespan(inst)
    elif args.method == "brute":
        value, witness = brute_force_optimum(inst)
    else:
        witness = lpt(inst)
        value = witness.makespan
    print(f"makespan={value}")
    if args.assignment:
        assert witness is not None
        print("assignment=" + "".join(str(b) for b in witness.bits))
    return 0


# The default target text: each batch stops at its own instance's exact
# optimum, whose value run prints in its place.
_OPTIMUM_TARGET = "makespan<=optimum"


def _target(args: argparse.Namespace) -> tuple[Fraction | None, str]:
    """The target flags as (ratio, target= text); the text is "none" for a
    budget-only batch and _OPTIMUM_TARGET for the default."""
    if args.target_ratio is not None and args.no_target:
        raise ParameterError("choose one of --target-ratio and --no-target")
    if args.target_ratio is not None:
        q, r = _parse_ratio(args.target_ratio, "--target-ratio")
        return Fraction(q, r), f"ratio<={q}/{r}"
    return None, "none" if args.no_target else _OPTIMUM_TARGET


def _optimum(inst: Instance, target: str) -> int | None:
    """The DP optimum. A budget-only batch goes on without it where the dp
    solver cannot handle the instance; a batch with a target cannot."""
    try:
        return dp_optimal_makespan(inst)
    except CapacityError:
        if target == "none":
            return None
        if target == _OPTIMUM_TARGET:
            raise ParameterError(
                "the dp solver cannot resolve an optimum target for this instance; "
                "rerun with --no-target for a budget-only experiment"
            ) from None
        raise ParameterError(
            "--target-ratio needs the exact optimum and the dp solver "
            "cannot handle this instance"
        ) from None


def _batch_pairs(
    args: argparse.Namespace, target: str, workers: int
) -> list[tuple[str, object]]:
    """The config: fields of run and sweep after those of the instance."""
    return [
        ("algo", args.algo),
        ("mu", args.mu if args.algo == "ageing" else None),
        ("tau", args.tau),
        ("restart_len", args.restart_len),
        ("trials", args.trials),
        ("seed", args.seed),
        ("budget", args.budget),
        ("target", target),
        ("threads", workers),
        ("format", args.format),
        ("out", args.out),
    ]


def _experiment(
    args: argparse.Namespace,
    inst: Instance,
    stop: StopCondition,
    optimum: int | None,
    master_seed: int,
    workers: int,
) -> ExperimentConfig:
    return ExperimentConfig(
        instance=inst,
        algorithm=args.algo,
        trials=args.trials,
        master_seed=master_seed,
        stop=stop,
        mu=args.mu,
        tau=args.tau,
        restart_length=args.restart_len,
        optimum_source="provided" if optimum is not None else "none",
        optimum=optimum,
        workers=workers,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    inst, source_pairs = _instance(args, "--instance-seed")
    check_batch_parameters(
        args.algo, args.mu, args.tau, args.restart_len, args.trials, args.threads, args.seed
    )
    ratio, target = _target(args)
    stop = StopCondition(args.budget, target_ratio=ratio)
    optimum = _optimum(inst, target)
    if target == _OPTIMUM_TARGET:
        stop = StopCondition(args.budget, target_makespan=optimum)
        target = f"makespan<={optimum}"
    workers = pool_size(args.threads, args.trials)
    config = _experiment(args, inst, stop, optimum, args.seed, workers)
    _check_out(args.out)
    print(_config_line("run", source_pairs + _batch_pairs(args, target, workers)))
    report = run_experiment(config)
    if args.out is not None:
        export_report(report, args.format, args.out)
    summary = " ".join(f"{k}={_fmt(v)}" for k, v in report.summary.items())
    best = min(r.best_makespan for r in report.results)
    print(f"summary: optimum={_fmt(report.optimum)} best={best} {summary}")
    return 0


def _parse_n_list(text: str) -> list[int]:
    tokens = [tok.strip() for tok in text.split(",") if tok.strip()]
    try:
        return [_digits(tok) for tok in tokens]
    except ValueError:
        raise ParameterError(f"--n-list must be comma-separated integers, got {text!r}") from None


def _cmd_sweep(args: argparse.Namespace) -> int:
    n_list = _parse_n_list(args.n_list)
    if args.s is None or args.eps is None:
        raise ParameterError("sweep needs --s and --eps for the gstar family")
    q, r = _parse_ratio(args.eps, "--eps")
    check_batch_parameters(
        args.algo, args.mu, args.tau, args.restart_len, args.trials, args.threads, args.seed
    )
    ratio, target = _target(args)
    if target == _OPTIMUM_TARGET:
        # Ratio 1 pins each size's target to its own exact optimum.
        ratio = Fraction(1)
    stop = StopCondition(args.budget, target_ratio=ratio)
    workers = pool_size(args.threads, args.trials)
    # Every size resolves before any batch runs or prints, as run's one batch does.
    configs = []
    for n in n_list:
        inst = gen_g_star(GStarParams(n=n, s=args.s, eps=(q, r), scale=args.scale))
        optimum = _optimum(inst, target)
        seed = derive_seed(args.seed, n)
        configs.append(_experiment(args, inst, stop, optimum, seed, workers))
    _check_out(args.out)
    print(_config_line("sweep", [
        ("family", "gstar"), ("n_list", ",".join(str(n) for n in n_list)),
        ("s", args.s), ("eps", f"{q}/{r}"), ("scale", args.scale),
    ] + _batch_pairs(args, target, workers)))
    if not n_list:
        return 0
    reports = [run_experiment(config) for config in configs]
    for n, rep in zip(n_list, reports):
        summary = " ".join(f"{k}={_fmt(v)}" for k, v in rep.summary.items())
        print(f"n={n} optimum={_fmt(rep.optimum)} {summary}")
    if args.out is not None:
        export_sweep(reports, args.format, args.out)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # Imported here: only verify uses the checks, and without cached bytecode
    # compiling them adds about 10 ms to the start of every other command.
    from .checks import run_suite, suite_seed

    seed = suite_seed(args.suite, args.seed)
    print(_config_line("verify", [("suite", args.suite), ("seed", seed)]))
    results = run_suite(args.suite, seed)
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name} measured[{res.measured}] bound[{res.bound}]")
    passed = sum(res.passed for res in results)
    ok = passed == len(results)
    print(f"verify: {'ok' if ok else 'FAILED'} ({passed}/{len(results)} checks)")
    return 0 if ok else 4


def _add_instance_flags(p: argparse.ArgumentParser, seed_flag: str, required: bool) -> None:
    """The family flags of generate and run. They have no defaults, so that
    _instance can tell a flag that was given from one left out."""
    p.add_argument("--family", required=required, choices=("gstar", "uniform"))
    p.add_argument("--n", required=required, type=_integer)
    p.add_argument("--s", type=_integer)
    p.add_argument("--eps")
    p.add_argument("--scale", type=_integer)
    p.add_argument("--max-p", type=_integer, dest="max_p")
    p.add_argument(seed_flag, type=_integer, dest="instance_seed",
                   metavar=seed_flag[2:].upper().replace("-", "_"))  # argparse's own


def _add_run_like_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algo", required=True, choices=ALGORITHMS)
    p.add_argument("--mu", type=_integer, default=1)
    p.add_argument("--tau", type=_integer)
    p.add_argument("--restart-len", type=_integer, dest="restart_len")
    p.add_argument("--trials", type=_integer, default=1)
    p.add_argument("--seed", type=_integer, default=0)
    p.add_argument("--budget", type=_integer, required=True)
    p.add_argument("--target-ratio", dest="target_ratio")
    p.add_argument("--no-target", action="store_true", dest="no_target")
    p.add_argument("--threads", type=_integer, default=os.cpu_count() or 1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="partition-ais",
        description="Two-machine partition instances, exact solvers, and "
        "randomized search experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write an instance file")
    _add_instance_flags(g, "--seed", required=True)
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_generate)

    s = sub.add_parser("solve", help="solve an instance file exactly or greedily")
    s.add_argument("--in", required=True, dest="infile")
    s.add_argument("--method", required=True, choices=("dp", "brute", "lpt"))
    s.add_argument("--assignment", action="store_true")
    s.set_defaults(func=_cmd_solve)

    r = sub.add_parser("run", help="run one experiment batch")
    r.add_argument("--in", dest="infile")
    _add_instance_flags(r, "--instance-seed", required=False)
    _add_run_like_flags(r)
    r.set_defaults(func=_cmd_run)

    w = sub.add_parser("sweep", help="run one experiment per size on the gstar family")
    w.add_argument("--n-list", required=True, dest="n_list")
    w.add_argument("--s", type=_integer)
    w.add_argument("--eps")
    w.add_argument("--scale", type=_integer, default=1)
    _add_run_like_flags(w)
    w.set_defaults(func=_cmd_sweep)

    v = sub.add_parser("verify", help="run a verification suite")
    v.add_argument("--suite", required=True)
    v.add_argument("--seed", type=_integer)
    v.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, InstanceFormatError, ContractViolationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
