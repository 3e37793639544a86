"""Command-line surface: family algebra, Schreier queries, norms, the
window-bounded counterexample family, interpolation gauges, and the bundled
verification suites.

Exit codes: 0 on success with all properties passing, 1 when a verification
property fails, 2 on malformed input or configuration.  Exact quantities are
printed as "p/q" with a decimal approximation alongside.

Each command imports the library modules it runs when it runs, so a call
loads only its own subcommand's code.
"""

from __future__ import annotations

import argparse
import sys
from decimal import MAX_EMAX, Decimal, localcontext
from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from . import families as fam
from .serialize import (
    dump_json,
    family_from_obj,
    family_to_obj,
    format_rational,
    load_json,
    measure_from_obj,
    parse_rational,
    tparams_from_obj,
    tparams_to_obj,
    vector_from_obj,
)

if TYPE_CHECKING:
    from .tfamily import TParams
    from .verify import RunReport

# the keys of verify.SUITES, spelled out so that parsing imports no suite
SUITE_NAMES = ("interp", "norms", "schreier", "setfam", "tfamily")


class InputError(ValueError):
    """User-facing input problem; maps to exit code 2."""


def _parse_window(text: str, limit: Optional[int] = None) -> Sequence[int]:
    """A window "lo..hi", as a range that builds no point, or a set "a,b,c".
    With ``limit``, a window of more points is refused."""
    text = text.strip()
    if ".." in text:
        lo, hi = (int(t) for t in text.split("..", 1))
        points: Sequence[int] = fam._interval_range(lo, hi)
        size = hi + 1 - lo  # len() of a range past sys.maxsize raises OverflowError
    else:
        points = _parse_set(text)
        size = len(points)
    if limit is not None and size > limit:
        raise InputError(f"window of size {size} exceeds the limit {limit}")
    return points


def _parse_set(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return fam.finite_set(int(tok) for tok in text.split(","))


def _print_exact(value: Fraction) -> None:
    try:
        approx = f"{float(value):.12g}"
    except OverflowError:
        # past float range, a 12-digit Decimal quotient stands in for it
        with localcontext() as ctx:
            ctx.prec, ctx.Emax = 12, MAX_EMAX
            approx = f"{(Decimal(value.numerator) / value.denominator).normalize():.12g}"
    print(f"{format_rational(value)} (= {approx})")


def _emit(text: str, path: Optional[str]) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _otimes_on_window(f: fam.Family, g: fam.Family, window: Sequence[int]) -> fam.Family:
    # otimes keeps only the blocks inside the window, so it reads the
    # window at the family's elements alone; `in` on a range builds no point
    used = {e for s in f for e in s}
    return fam.otimes(f, g, [e for e in used if e in window])


#: how the text of each flag a `family` op takes becomes its value
_FAMILY_FLAG_VALUES = {
    "set": _parse_set,
    "other": lambda path: family_from_obj(load_json(path)),
    "window": _parse_window,
    "measure": lambda path: measure_from_obj(load_json(path)),
    "density": parse_rational,
}

#: each `family` op: its library call, and the flags it requires, whose
#: values follow the input family as that call's arguments
FAMILY_OPS = {
    "closure": (fam.hereditary_closure, ()),
    "trace": (fam.trace, ("set",)),
    "restrict": (fam.restrict, ("set",)),
    "oplus": (fam.oplus, ("other",)),
    "otimes": (_otimes_on_window, ("other", "window")),
    "glambda": (fam.g_lambda, ("measure", "density")),
    "gplus": (fam.g_plus, ("measure",)),
    "gdeltamu": (fam.g_delta_mu, ("measure", "density")),
}


def cmd_family(args: argparse.Namespace) -> int:
    call, flags = FAMILY_OPS[args.op]
    # every required flag is checked before any file is read
    for flag in flags:
        if getattr(args, flag) is None:
            raise InputError(f"--{flag} is required for {args.op}")
    family = family_from_obj(load_json(args.input))
    result = call(family, *(_FAMILY_FLAG_VALUES[flag](getattr(args, flag)) for flag in flags))
    _emit(dump_json(family_to_obj(result), None) + "\n", args.output)
    return 0


def cmd_schreier(args: argparse.Namespace) -> int:
    from . import schreier as sch

    alpha = sch.parse_ordinal(args.alpha)
    if args.member is not None:
        s = _parse_set(args.member)
        print("true" if sch.schreier_member(alpha, s) else "false")
        return 0
    if args.barrier is not None:
        s = _parse_set(args.barrier)
        print("true" if sch.barrier_member(s) else "false")
        return 0
    if args.fundamental is not None:
        print(sch.fundamental_sequence(alpha, args.fundamental))
        return 0
    if args.window is None:
        raise InputError("--window is required for enumeration and inclusion checks")
    window = _parse_window(args.window, sch.MAX_WINDOW)
    if args.check_inclusion is not None:
        beta = sch.parse_ordinal(args.check_inclusion)
        if not window:
            raise InputError(f"--window {args.window!r} is empty; inclusion needs a point")
        # on a nonempty window the inclusion always holds from some shift
        rep = sch.check_inclusion(alpha, beta, window)
        print(f"inclusion holds from shift n={rep.shift} on window {list(window)}")
        return 0
    result = sch.schreier_enumerate(alpha, window)
    _emit(dump_json(family_to_obj(result), None) + "\n", args.output)
    return 0


def cmd_norm(args: argparse.Namespace) -> int:
    from . import norms

    family = family_from_obj(load_json(args.family))
    x = vector_from_obj(load_json(args.vector))
    if args.p is None or args.p == "inf":
        _print_exact(norms.f_norm(x, family))
        return 0
    p = parse_rational(args.p)
    if p == 1:
        _print_exact(norms.baernstein_norm(x, family, 1))
        return 0
    if p.denominator == 1:
        power = norms.block_p_norm_power(x, family, p.numerator)
        root = norms.float_root(power, p.numerator)
        print(f"{root:.12g} (exact {p}-th power {format_rational(power)})")
        return 0
    print(f"{norms.baernstein_norm(x, family, p):.12g} (float path for non-integer p)")
    return 0


def _load_params(args: argparse.Namespace) -> tuple[TParams, int]:
    """The family parameters and seed: the flags override the config's
    lambda, window_max and seed, and its radices stay."""
    obj = load_json(args.config) if args.config else {}
    if isinstance(obj, dict):
        flags = {"lambda": args.lam, "window_max": args.window_max, "seed": args.seed_explicit}
        obj = {**obj, **{k: v for k, v in flags.items() if v is not None}}
    params, seed = tparams_from_obj(obj)
    return params, args.seed if seed is None else seed


def cmd_tfamily(args: argparse.Namespace) -> int:
    from . import tfamily as tf

    params, seed = _load_params(args)
    if args.mode == "build":
        obj = tparams_to_obj(params, seed)
        obj["cardinalities"] = {
            str(n): format_rational(tf.index_cardinality(n, params))
            for n in range(1, params.window_max + 1)
        }
        _emit(dump_json(obj, None) + "\n", args.output)
        return 0
    if args.mode == "sample":
        if args.n is None:
            raise InputError("--n is required for sampling")
        pt = tf.sample_point(args.n, params, seed)
        obj = {
            "n": pt.n,
            "seed": seed,
            "digits": [[list(k), v] for k, v in sorted(pt.digits.items())],
            "position": str(tf.point_to_integer(pt, params)),
        }
        _emit(dump_json(obj, None) + "\n", args.output)
        return 0
    # verify / report are the evidence modes
    from . import verify as ver

    report = ver.run_suites(seed, names=["tfamily"], params=params)
    if args.mode == "report":
        obj = report.to_obj()
        obj["parameters"] = tparams_to_obj(params, seed)
        _emit(dump_json(obj, None) + "\n", args.output)
    else:
        _write_report(report, args)
    _summarize(report)
    return report.exit_status


def cmd_gauge(args: argparse.Namespace) -> int:
    from . import interpolation as interp

    family = family_from_obj(load_json(args.family))
    x = vector_from_obj(load_json(args.vector))
    if args.nmax is not None:
        p = parse_rational(args.p) if args.p else Fraction(2)
        res = interp.dfjp_norm(x, family, p, n_max=args.nmax)
        print(f"levels 1..{args.nmax}: value in [{res.value_lo:.12g}, {res.value_hi:.12g}]")
        print(f"tail bound ({p}-powered): {format_rational(res.tail_powered)}")
        return 0
    bracket = interp.dfjp_gauge(interp.GaugeProblem(x, args.n, family))
    print(
        f"gauge level {args.n}: [{format_rational(bracket.lo)}, {format_rational(bracket.hi)}]"
        f" width {float(bracket.width):.3g}"
    )
    return 0


def _write_report(report: RunReport, args: argparse.Namespace) -> None:
    if args.format == "json":
        _emit(dump_json(report.to_obj(), None) + "\n", args.output)
    else:
        _emit(report.to_csv(), args.output)


def _summarize(report: RunReport) -> None:
    cases = report.sorted_cases()
    failed = [c for c in cases if c.verdict == "fail"]
    skipped = [c for c in cases if c.verdict == "skipped"]
    total_ms = sum(c.elapsed_ms for c in report.cases)
    note = f", {len(skipped)} skipped" if skipped else ""
    print(
        f"{len(cases)} properties, {len(cases) - len(failed) - len(skipped)} passed, "
        f"{len(failed)} failed{note} ({total_ms:.0f} ms)",
        file=sys.stderr,
    )
    for c in failed:
        print(f"  FAIL {c.property_id} [{c.instance}]: {c.witness}", file=sys.stderr)
    for c in skipped:
        print(f"  SKIP {c.property_id} [{c.instance}]: {c.witness}", file=sys.stderr)


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify as ver

    names = args.suite or None
    report = ver.run_suites(args.seed, names=names)
    _write_report(report, args)
    _summarize(report)
    return report.exit_status


def build_parser() -> argparse.ArgumentParser:
    # global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, dest="seed_explicit", metavar="SEED",
                        default=argparse.SUPPRESS, help="randomized-case seed (default 12345)")
    common.add_argument("--output", default=argparse.SUPPRESS, help="write results to a file")
    common.add_argument("--format", choices=("csv", "json"), default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="schreierkit",
        description="Finite-window Schreier family combinatorics with exact arithmetic",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", parents=[common], help="family algebra on JSON files")
    p_family.add_argument("--op", required=True, choices=tuple(FAMILY_OPS))
    p_family.add_argument("--input", required=True)
    p_family.add_argument("--other", help="second family file for oplus/otimes")
    p_family.add_argument("--set", help="comma-separated set, e.g. 2,4,6")
    p_family.add_argument("--window", help="window, e.g. 1..8")
    p_family.add_argument("--measure", help="partition measure JSON file")
    p_family.add_argument("--density", help="lambda or delta as p/q")
    p_family.set_defaults(fn=cmd_family)

    p_schreier = sub.add_parser("schreier", parents=[common], help="generalized Schreier family queries")
    p_schreier.add_argument("--alpha", required=True, help='ordinal, e.g. "w*2+1"')
    p_schreier.add_argument("--member", help="set to test for membership")
    p_schreier.add_argument("--barrier", help="set to test against the barrier")
    p_schreier.add_argument("--fundamental", type=int, help="stage of the fundamental sequence")
    p_schreier.add_argument("--check-inclusion", dest="check_inclusion", help="beta ordinal")
    p_schreier.add_argument("--window", help="window, e.g. 1..8")
    p_schreier.set_defaults(fn=cmd_schreier)

    p_norm = sub.add_parser("norm", parents=[common], help="family norm of a vector")
    p_norm.add_argument("--family", required=True)
    p_norm.add_argument("--vector", required=True)
    p_norm.add_argument("--p", help='"inf" (default) or p as p/q; block-aggregated when finite')
    p_norm.set_defaults(fn=cmd_norm)

    p_tf = sub.add_parser("tfamily", parents=[common], help="window-bounded counterexample family")
    p_tf.add_argument("mode", choices=("build", "verify", "sample", "report"))
    p_tf.add_argument("--config", help="JSON config with lambda/window_max/seed/radices")
    p_tf.add_argument("--lam", "--lambda", dest="lam", help="density as p/q")
    p_tf.add_argument("--window-max", dest="window_max", type=int)
    p_tf.add_argument("--n", type=int, help="piece index for sampling")
    p_tf.set_defaults(fn=cmd_tfamily)

    p_gauge = sub.add_parser("gauge", parents=[common], help="interpolation gauge brackets")
    p_gauge.add_argument("--n", type=int, default=1, help="gauge level")
    p_gauge.add_argument("--p", help="aggregation exponent for --nmax mode")
    p_gauge.add_argument("--family", required=True)
    p_gauge.add_argument("--vector", required=True)
    p_gauge.add_argument("--nmax", type=int, help="aggregate levels 1..nmax")
    p_gauge.set_defaults(fn=cmd_gauge)

    p_verify = sub.add_parser("verify", parents=[common], help="run the bundled verification suites")
    p_verify.add_argument("--suite", action="append", choices=SUITE_NAMES,
                          help="restrict to a suite (repeatable)")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the shared flags use SUPPRESS so values given before the subcommand
    # survive subparser re-parsing; fill the defaults here
    for name, default in (("seed_explicit", None), ("output", None), ("format", "csv")):
        if not hasattr(args, name):
            setattr(args, name, default)
    args.seed = args.seed_explicit if args.seed_explicit is not None else 12345
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
