"""Command line front end.

Subcommands, one row each of the COMMANDS table: verify, cs, demazure,
rmatrix, metaplectic, wreath.  Every command prints a deterministic text
report and exits nonzero if any check failed.  With --json, stdout holds
exactly one JSON document (the report); any other lines a command prints go
to stderr.  Bad input exits with status 2 and a usage message.
"""

from __future__ import annotations

import argparse
import sys
from math import lcm

from .algebra import LaurentPoly, RationalFunction, v
from .metaplectic import (
    build_datum,
    met_demazure_act,
    metaplectic_schema_instance,
    whittaker_value,
)
from .relations import verdict
from .reports import Report
from .rmatrix import (
    check_hecke,
    check_parametrized_ybe,
    check_triangularity,
    check_ybe,
    doubler_scalar,
    free_gamma_spec,
    gauss_gamma_spec,
    jimbo_t_matrix,
    limit_instance,
    check_finite_hecke,
    check_star_word_identity,
    check_wreath_intertwining,
    check_wreath_star,
    r_affine,
    r_gl,
    r_tilde,
    tensor_schema_instance,
    untwisted_spec,
    wreath_operator,
)
from .roots import build_cartan, weight_monomial, weyl_group
from .schema import generic_instance, off_root_scale, verify_instance
from .whittaker import (
    apply_demazure,
    check_demazure_relations,
    cs_product,
    cs_rhs,
    demazure_variant,
    idempotent_apply,
    spherical_schema_instance,
    whittaker_schema_instance,
)

P = LaurentPoly
RF = RationalFunction


def _parse_weight(text: str) -> tuple[int, ...]:
    cleaned = text.strip().strip("()")
    if not cleaned:
        raise argparse.ArgumentTypeError("empty weight")
    try:
        return tuple(int(x) for x in cleaned.replace(" ", "").split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError(f"bad weight {text!r}") from err


def _cartan_type(text: str) -> str:
    try:
        build_cartan(text)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return text


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"{value} is below 1")
    return value


def gl_rank(text: str) -> int:
    """r for GL_r, whose types A1..A4 are supported."""
    value = int(text)
    if not 2 <= value <= 5:
        raise argparse.ArgumentTypeError(f"{value} is outside 2..5 (GL_2..GL_5)")
    return value


def _check_weights(parser: argparse.ArgumentParser, args, option: str, dominant: bool) -> None:
    """Reject a weight of --option of the wrong length, off the lattice, or (if dominant) not dominant."""
    given = getattr(args, option)
    if not given:
        return
    cartan = build_cartan(getattr(args, "type", None) or f"A{args.r - 1}")  # metaplectic has no --type: GL_r
    for weight in given if isinstance(given, list) else [given]:
        if len(weight) != cartan.dim:
            parser.error(f"--{option} {weight} has {len(weight)} coordinates, {cartan.cartan_type} needs {cartan.dim}")
        if not cartan.in_lattice(weight):
            parser.error(f"--{option} {weight} is not in the weight lattice of {cartan.cartan_type}")
        if dominant and not cartan.is_dominant(weight):
            parser.error(f"--{option} {weight} is not dominant for {cartan.cartan_type}")


def _say(args, text: str) -> None:
    """A line beside the report: stdout, or stderr under --json."""
    print(text, file=sys.stderr if args.json else sys.stdout)


def _emit(report: Report, as_json: bool) -> int:
    print(report.to_json() if as_json else report.render_text())
    return 0 if report.passed else 1


def _default_lambdas(cartan) -> list[tuple[int, ...]]:
    if cartan.cartan_type == "G2":
        return [(1, 1, 1), (0, 1, -1), (1, -2, 1)]
    return [tuple(1 if j == i else 0 for j in range(cartan.dim)) for i in range(cartan.dim)]


def run_verify(args) -> int:
    cartan = build_cartan(args.type)
    lambdas = list(args.bernstein or [])
    if args.instance == "metaplectic":
        datum = build_datum(cartan, args.n, args.B)
        inst = metaplectic_schema_instance(datum)
        lambdas = lambdas or list(datum.lattice_basis)
    elif args.instance == "rmatrix":
        inst = tensor_schema_instance(args.n, cartan.rank + 1, "gauss" if args.gauss else "none", args.power or 1)
    else:
        build = {"generic": generic_instance, "whittaker": whittaker_schema_instance,
                 "spherical": spherical_schema_instance}[args.instance]
        inst = build(cartan)
    for lam in args.bernstein or ():
        for i in range(cartan.rank):
            reason = off_root_scale(inst, lam, i)
            if reason:
                raise argparse.ArgumentTypeError(f"--bernstein {lam}: {reason} of {inst.name}")
    report = verify_instance(inst, lambdas=lambdas, spherical=args.spherical)
    quad_braid = [c.passed for c in report.checks if c.name.startswith(("quadratic", "braid"))]
    _say(args, str(quad_braid))  # the bracket of quadratic/braid flags
    return _emit(report, args.json)


def run_cs(args) -> int:
    cartan = build_cartan(args.type)
    group = weyl_group(cartan)
    var = demazure_variant("whittaker", cartan, group)

    def check():
        lhs = idempotent_apply(var, args.weight)
        _say(args, f"I(z^{args.weight}) = {lhs.render()}")
        _say(args, f"product form     = ({cs_product(cartan).render()}) * chi_lambda")
        return verdict(lhs, cs_rhs(cartan, group, args.weight))

    report = Report(f"casselman-shalika {args.type} {args.weight}")
    report.run("idempotent equals product formula", check)
    return _emit(report, args.json)


def run_demazure(args) -> int:
    cartan = build_cartan(args.type)
    group = weyl_group(cartan)
    var = demazure_variant(args.kind, cartan, group, modified=not args.plain)
    weights = [tuple(w) for w in (args.weights or _default_lambdas(cartan))]
    report = check_demazure_relations(var, weights)
    if args.kind == "whittaker":
        plain = demazure_variant(args.kind, cartan, group, modified=False)
        zrho = weight_monomial(cartan.rho)
        for i in range(cartan.rank):
            report.run(f"antispherical T_{i + 1} z^rho = -z^rho",
                       lambda i=i: verdict(apply_demazure(plain, i, zrho), RF.from_poly(-zrho)))
    else:
        lusztig = demazure_variant("lusztig", cartan, group)
        for i in range(cartan.rank):
            report.run(f"T_{i + 1} 1 = v", lambda i=i: verdict(apply_demazure(lusztig, i, P.one()), RF.from_poly(v())))
    return _emit(report, args.json)


def run_rmatrix(args) -> int:
    n = args.n
    report = Report(f"rmatrix n={n} {args.check}")
    if args.check == "ybe":
        spec = gauss_gamma_spec(n) if args.gauss else untwisted_spec(n)
        check_ybe(r_gl(spec), report)
    elif args.check == "pybe":
        if args.gauss:
            check_parametrized_ybe(lambda x: r_tilde(n, x), report)
        else:
            check_parametrized_ybe(lambda x: r_affine(untwisted_spec(n), x), report)
            check_parametrized_ybe(lambda x: r_affine(free_gamma_spec(n), x), report, name="parametrized YBE (twisted)")
    elif args.check == "hecke":
        check_hecke(untwisted_spec(n), report)
        check_hecke(free_gamma_spec(n), report)
    elif args.check == "triangularity":
        if args.gauss:
            check_triangularity(lambda x: r_tilde(n, x), RF.one(), report, name="tau R(x) tau R(1/x) = I")
        else:
            check_triangularity(lambda x: r_affine(untwisted_spec(n), x), doubler_scalar(), report)
    elif args.check == "schema":
        inst = tensor_schema_instance(n, args.r, "gauss" if args.gauss else "none", args.power or 1)
        scale = lcm(*inst.root_scale)  # theta_lambda needs <alpha_i, lambda> in scale * Z, as L^(n) does
        lambdas = [tuple(scale * x for x in lam) for lam in _default_lambdas(inst.cartan)]
        report = verify_instance(inst, lambdas=lambdas)
    return _emit(report, args.json)


def run_metaplectic(args) -> int:
    datum = build_datum(f"A{args.r - 1}", args.n, args.B)
    lam = args.weight or tuple(0 for _ in range(args.r))

    def check():
        values = whittaker_value(datum, lam)
        _say(args, f"spherical Whittaker values for GL_{args.r}, n={args.n}, lambda={lam}:")
        width = max(len(str(rep)) for rep in datum.coset_reps)
        total = P.zero()
        for rep, value in zip(datum.coset_reps, values):
            _say(args, f"  {str(rep):<{width}}  {value.render()}")
            total = total + value
        _say(args, f"  aggregate: {total.render()}")
        act = met_demazure_act(datum, weight_monomial(tuple(-x for x in lam)))
        expected = sum((act(w.word) for w in datum.group), P.zero())
        if args.inject_mismatch:
            expected = expected + 1
        return verdict(total, expected)

    report = Report(f"metaplectic GL_{args.r} n={args.n} lambda={lam}")
    report.run("aggregate equals Demazure sum", check)
    return _emit(report, args.json)


def run_wreath(args) -> int:
    group, ops = limit_instance(args.n, args.r)
    report = check_finite_hecke(group, ops, name=f"wreath n={args.n} r={args.r}")
    ts = [jimbo_t_matrix(args.n, args.r, i) for i in range(args.r - 1)]
    for i, t in enumerate(ts):
        report.run(f"limit equals wreath (i={i + 1})", lambda i=i, t=t: verdict(ops[i], wreath_operator(group, t, i)))
        check_wreath_intertwining(group, ops[i], t, report)
        check_wreath_star(group, ops[i], t, report)
    check_star_word_identity(group, ts, report)
    return _emit(report, args.json)


# options that several commands share: name -> add_argument keywords
SHARED = {
    "--type": {"type": _cartan_type, "default": "A2", "help": "Cartan type (A1..A4, B2, C2, G2)"},
    "--n": {"type": positive_int, "default": 2, "help": "cover degree / R-matrix dimension"},
    "--r": {"type": int, "default": 2},
    "--B": {"default": "dot", "choices": ["dot"], "help": "bilinear form for metaplectic instances"},
    "--gauss": {"action": "store_true", "help": "Gauss-twisted R-matrix instance"},
    "--power": {"type": int, "help": "exponent power for the rmatrix instance"},
}

_POWER = "--power {power}: the exponent power must be 1 or --n ({n})"  # the usage error of both power rules

# command -> (help, runner, options, weight option, rules), one row per subcommand:
# - an option is a SHARED name, or (name, add_argument keywords over SHARED's);
# - the weight option is (option, whether its weights must be dominant), or None;
# - a rule is (bad(args), the usage error, formatted with the parsed arguments).
COMMANDS = {
    "verify": ("schema relation checks for a chosen instance", run_verify, [
        "--type",
        ("--instance", {"default": "generic",
                        "choices": ["generic", "whittaker", "spherical", "metaplectic", "rmatrix"]}),
        ("--bernstein", {"type": _parse_weight, "action": "append",
                         "help": "weight for the Bernstein relation, e.g. '(1,0,0)'; repeatable"}),
        "--n", "--B", "--gauss", "--power",
        ("--spherical", {"action": "store_true", "help": "also check the spherical idempotent"}),
    ], ("bernstein", False), (
        (lambda a: a.instance == "generic" and int(a.type[1:]) > 2, "--instance generic needs rank <= 2, not {type}"),
        (lambda a: a.instance == "metaplectic" and a.type == "G2", "--instance metaplectic has no G2 covers yet"),
        (lambda a: a.instance == "rmatrix" and not a.type.startswith("A"),
         "--instance rmatrix needs a type A1..A4, not {type}"),
        (lambda a: a.instance == "rmatrix" and a.power not in (None, 1, a.n), _POWER),
    )),
    "cs": ("spherical idempotent vs the product formula", run_cs, [
        "--type", ("--weight", {"type": _parse_weight, "required": True}),
    ], ("weight", True), ()),
    "demazure": ("Demazure operator relation suite", run_demazure, [
        "--type",
        ("--kind", {"default": "whittaker", "choices": ["whittaker", "lusztig"]}),
        ("--plain", {"action": "store_true", "help": "use the unconjugated action"}),
        ("--weights", {"type": _parse_weight, "action": "append"}),
    ], ("weights", False), ()),
    "rmatrix": ("Yang-Baxter / Hecke / triangularity checks", run_rmatrix, [
        ("check", {"choices": ["ybe", "pybe", "hecke", "triangularity", "schema"]}),
        "--n", "--r", "--gauss", "--power",
    ], None, (
        (lambda a: a.n > 4, "--n {n}: rmatrix checks support n <= 4"),
        (lambda a: a.check == "schema" and not 2 <= a.r <= 3,
         "--r {r}: the rmatrix schema check supports r in 2..3"),
        (lambda a: a.check == "schema" and a.power not in (None, 1, a.n), _POWER),
    )),
    "metaplectic": ("spherical Whittaker value table for a GL cover", run_metaplectic, [
        ("--r", {"type": gl_rank}),
        "--n", "--B",
        ("--weight", {"type": _parse_weight}),
        ("--inject-mismatch", {"action": "store_true",
                               "help": "deliberately break the cross-check (negative control)"}),
    ], ("weight", True), ()),
    "wreath": ("limit instance and wreath construction checks", run_wreath, [
        "--n", ("--r", {"type": gl_rank}),
    ], None, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="heckekit", description=__doc__)
    parser.add_argument("--json", action="store_true", help="emit the report as JSON")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, _, options, _, _) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for option in options:
            option, keywords = (option, {}) if isinstance(option, str) else option
            p.add_argument(option, **{**SHARED.get(option, {}), **keywords})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _, run, _, weights, rules = COMMANDS[args.command]
    for bad, message in rules:
        if bad(args):
            parser.error(message.format(**vars(args)))
    if weights:
        _check_weights(parser, args, *weights)
    try:
        return run(args)
    except argparse.ArgumentTypeError as err:  # bad input that shows only once the instance is built
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
