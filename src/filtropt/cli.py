"""Command-line front end: cosets, lc, analyze, prob, enumerate, sample.

Exit codes form a small contract for scripting: 0 success, 1 for any
validation problem (bad flag value, unknown length, non-primitive
polynomial, malformed filter) or a file that cannot be read or written,
2 when an experiment ran fine but failed its comparison against the
analytic prediction, 3 when an internal self-check (spectrum, likelihood,
field) fails, which is a bug in filtropt.  Big integers are emitted as
decimal strings in JSON so no reader is forced through a float.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import ExitStack
from fractions import Fraction

from mpmath import mp

from . import anf, complexity, cosets, experiment, likelihood, polytable, spectral
from .limits import LC_MAX_BITS, check_exact, check_report


class CliError(ValueError):
    """Validation failure; rendered to stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); keep 2 for comparisons
        raise CliError(message)


def _dec(x, digits: int = 15) -> str:
    return mp.nstr(x, digits, strip_zeros=False)


def _fraction(fr: Fraction | None) -> str | None:
    return None if fr is None else f"{fr.numerator}/{fr.denominator}"


def _hex(text: str) -> int:
    """argparse type for --poly and --state."""
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expects a hexadecimal bitmask, got {text!r}") from None


def _context(args: argparse.Namespace):
    try:
        return polytable.context_for(args.length, args.poly)
    except ValueError as exc:
        raise CliError(f"--length/--poly: {exc}") from None


def _parse_filter(text: str, L: int) -> anf.FilterFunction:
    try:
        if text.lstrip().startswith("["):
            return anf.filter_from_monomial_lists(L, json.loads(text))
        return anf.parse_anf(text, L)
    except (ValueError, RecursionError) as exc:  # RecursionError: JSON nested too deep
        raise CliError(f"--filter: {exc}") from None


def _emit(payload: dict, args: argparse.Namespace, csv_rows=None) -> None:
    if args.output == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif args.output == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        if csv_rows is not None:
            header, rows = csv_rows
            writer.writerow(header)
            writer.writerows(rows)
        else:
            writer.writerow(["key", "value"])
            for key, value in payload.items():
                writer.writerow([key, json.dumps(value) if isinstance(value, (list, dict))
                                 else value])
        text = buf.getvalue()
    else:  # human
        text = "\n".join(f"{key}: {value}" for key, value in payload.items()
                         if not isinstance(value, list)) + "\n"
    if args.out_path:
        with open(args.out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_cosets(args: argparse.Namespace) -> int:
    table = cosets.cosets_up_to_weight(args.length, args.max_weight)
    entries = [{"leader": c.leader, "cardinal": c.cardinal, "weight": c.weight,
                "period": cosets.coset_period(c, args.length)} for c in table]
    payload = {"length": args.length, "max_weight": args.max_weight, "count": len(entries),
               "cosets": entries}
    _emit(payload, args, csv_rows=(["leader", "cardinal", "weight", "period"],
                                   [[e["leader"], e["cardinal"], e["weight"], e["period"]]
                                    for e in entries]))
    return 0


def cmd_lc(args: argparse.Namespace) -> int:
    text = args.bits
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                # one character past the cap is enough to refuse, endless files included
                text = fh.read(LC_MAX_BITS + 1)
        except OSError as exc:
            raise CliError(f"--bits: {exc}") from None
    if len(text) > LC_MAX_BITS:
        raise CliError(f"--bits: longer than the cap of {LC_MAX_BITS} characters")
    text = "".join(text.split())
    if not text or set(text) - {"0", "1"}:
        raise CliError("--bits expects a nonempty string of 0s and 1s (or @file)")
    lc, poly = complexity.berlekamp_massey_packed(int(text[::-1], 2), len(text))
    payload = {"length": len(text), "lc": lc, "minimal_poly": f"0x{poly:x}"}
    _emit(payload, args)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    ctx = _context(args)
    f = _parse_filter(args.filter_anf, ctx.L)
    lab = experiment._SequenceLab(ctx, args.state)
    z = lab.filter_period_packed(f)
    lc_bm, period_measured = lab.measure(z)
    del lab  # free its monomial vectors before the DFT allocates
    spectrum = spectral.dft(z, ctx)
    if not spectral.verify_subfield(spectrum):
        raise AssertionError("a spectral coefficient lies outside its coset's subfield")
    lc_spectral = spectral.lc_from_spectrum(spectrum)
    period_spectral = spectral.period_from_spectrum(spectrum)
    if (lc_bm, period_measured) != (lc_spectral, period_spectral):
        raise AssertionError(f"measured (lc, period) = ({lc_bm}, {period_measured}) but the "
                             f"spectrum gives ({lc_spectral}, {period_spectral})")
    if any(line.coset.weight > f.k for line in spectrum.lines.values()):
        raise AssertionError(f"a spectral line lies above weight {f.k}, the filter's order")
    lines = [{"leader": line.coset.leader, "weight": line.coset.weight,
              "cardinal": line.coset.cardinal,
              "coefficient_hex": f"0x{line.coefficient:x}"}
             for _, line in sorted(spectrum.lines.items())]
    payload = {
        "length": ctx.L,
        "poly": f"0x{ctx.modulus:x}",
        "filter": anf.format_anf(f),
        "order": f.k,
        "lc_bm": lc_bm,
        "lc_spectral": lc_spectral,
        "period_measured": period_measured,
        "period_spectral": period_spectral,
        "optimal": lc_bm == cosets.nk(ctx.L, f.k) and period_measured == ctx.order,
        "lines": lines,
    }
    _emit(payload, args)
    return 0


def cmd_prob(args: argparse.Namespace) -> int:
    if args.exact:  # refused before any work, past the report cap first
        check_report(args.length, args.order)
        check_exact(args.length, args.order)
    report = likelihood.pr_report(args.length, args.order, digits=args.digits)
    payload = {
        "length": report.L,
        "order": report.k,
        "n_cosets": str(report.n_cosets),
        "nk": str(report.nk_value),
        "nfm": None if report.nfm is None else str(report.nfm),
        "nfk": None if report.nfk is None else str(report.nfk),
        "pr_exact": _fraction(report.pr_exact),
        "pr_float": _dec(report.pr_float, report.digits),
        "ln_pr": _dec(report.ln_pr, report.digits),
        "bound_general": _dec(report.bound_general, report.digits),
        "bound_asymptotic": None if report.bound_asymptotic is None
                            else _dec(report.bound_asymptotic, report.digits),
        "mode": report.mode,
        "digits": report.digits,
    }
    _emit(payload, args)
    return 0


def _summary_payload(summary, verdict) -> dict:
    """The summary's fields in order, L and k renamed and the histogram left out."""
    fields = {name: value for name, value in vars(summary).items()
              if name not in ("L", "k", "histogram")}
    return {"length": summary.L, "order": summary.k, **fields, "verdict": vars(verdict)}


def cmd_experiment(args: argparse.Namespace) -> int:
    """enumerate (the census) or sample (seeded draws)."""
    ctx = _context(args)
    k = args.order
    exhaustive = args.subcommand == "enumerate"
    trials, seed = (None, None) if exhaustive else (args.trials, args.seed)
    experiment.check_run(ctx.L, k, args.jobs, trials, seed)  # refuse before the CSV exists
    with ExitStack() as stack:
        rows = None
        if args.csv_path is not None:
            writer = csv.writer(stack.enter_context(
                open(args.csv_path, "w", encoding="utf-8", newline="")))
            writer.writerow(experiment.TrialRecord._fields)
            rows = writer.writerow
        if exhaustive:
            summary = experiment.run_exhaustive(ctx.L, k, ctx, jobs=args.jobs, rows=rows)
        else:
            summary = experiment.run_monte_carlo(ctx.L, k, trials, seed, ctx,
                                                 jobs=args.jobs, rows=rows)
    verdict = experiment.compare(summary, likelihood.pr_report(ctx.L, k))
    _emit(_summary_payload(summary, verdict), args)
    return 0 if verdict.ok else 2


def build_parser() -> _Parser:
    parser = _Parser(prog="filtropt",
                     description="Linear complexity and period analysis of "
                                 "nonlinearly filtered m-sequences")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p, length=True, order=False, poly=False):
        if length:
            p.add_argument("--length", "-L", type=int, required=True,
                           help="LFSR register length L")
        if order:
            p.add_argument("--order", "-k", type=int, required=True,
                           help="filter order k")
        if poly:
            p.add_argument("--poly", type=_hex, default=None,
                           help="feedback polynomial as hex bitmask (default: embedded table)")
        p.add_argument("--output", choices=("json", "csv", "human"), default="json")
        p.add_argument("--out", dest="out_path", default=None,
                       help="write the report to a file instead of stdout")

    p = sub.add_parser("cosets", help="cyclotomic coset table")
    common(p, order=False)
    p.add_argument("--max-weight", "-k", type=int, required=True,
                   help="largest leader weight to include")

    p = sub.add_parser("lc", help="linear complexity of an explicit bit string")
    common(p, length=False)
    p.add_argument("--bits", required=True, help="01-string, or @file containing one")

    p = sub.add_parser("analyze", help="full spectral/complexity analysis of one filter")
    common(p, order=False, poly=True)
    p.add_argument("--filter", dest="filter_anf", required=True,
                   help="ANF text like 'x0 + x1*x3', or a JSON list of tap lists")
    p.add_argument("--state", type=_hex, default=1,
                   help="initial register fill as hex (default 1)")

    p = sub.add_parser("prob", help="analytic probability report")
    common(p, order=True)
    p.add_argument("--exact", action="store_true",
                   help="fail instead of falling back to log-domain mode")
    p.add_argument("--digits", type=int, default=50,
                   help="significant decimal digits for log-domain values")

    p = sub.add_parser("enumerate", help="exhaustive census of the filter space")
    common(p, order=True, poly=True)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--csv", dest="csv_path", default=None,
                   help="also write one CSV row per filter")

    p = sub.add_parser("sample", help="seeded Monte Carlo over the filter space")
    common(p, order=True, poly=True)
    p.add_argument("--trials", type=int, default=experiment.DEFAULT_TRIALS)
    p.add_argument("--seed", type=int, default=1998)
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument("--csv", dest="csv_path", default=None,
                   help="also write one CSV row per trial")
    return parser


_HANDLERS = {
    "cosets": cmd_cosets,
    "lc": cmd_lc,
    "analyze": cmd_analyze,
    "prob": cmd_prob,
    "enumerate": cmd_experiment,
    "sample": cmd_experiment,
}


def main(argv: list[str] | None = None) -> int:
    # exact-mode counts can run to hundreds of thousands of digits, past CPython's
    # int-to-str conversion guard, which is raised while main runs, then restored
    previous = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if previous is not None:
        sys.set_int_max_str_digits(2_000_000)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.subcommand](args)
    except (ValueError, OSError) as exc:  # CliError included; OSError: --out/--csv
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    finally:
        if previous is not None:
            sys.set_int_max_str_digits(previous)


if __name__ == "__main__":
    sys.exit(main())
