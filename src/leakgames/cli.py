"""Command-line surface: compose channels, measure leakage, solve games,
run the password case study.

Exit codes: 0 ok, 1 error, 2 equivalence decided false, 3 hierarchy
ordering violated.  All randomness sits behind --seed (default 0);
identical invocations write byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import numpy as np

from . import jsonio
from .channels import equivalent, hidden_choice, visible_choice
from .errors import LeakGamesError
from .games import KINDS, audit_hierarchy, payoff_matrix, solve, uniform_worst_case
from .labels import format_label
from .pwdcheck import (
    MAX_BITS_DEFAULT,
    build_game,
    bundled_prior,
    expected_iterations,
    measured_iterations,
    secret_labels,
)
from .vuln import Prior, VulnMeasure, leakage, posterior_vuln, prior_vuln

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_EQUIVALENT = 2
EXIT_ORDERING_VIOLATION = 3

KIND_FLAGS = {k.replace("_", "-"): k for k in KINDS}


def _print_json(obj) -> None:
    print(jsonio.dumps(obj))


def cmd_channel(args) -> int:
    if args.channel_cmd == "validate":
        jsonio.channel_from_json(jsonio.load(args.channel))
        print("valid")
        return EXIT_OK
    if args.channel_cmd == "equiv":
        a = jsonio.channel_from_json(jsonio.load(args.first))
        b = jsonio.channel_from_json(jsonio.load(args.second))
        result = equivalent(a, b, tol=args.tol)
        report = {"equivalent": result.equivalent, "residual": result.residual}
        if result.equivalent:
            report["witness"] = [
                [[float(v) for v in col] for col in direction.T]
                for direction in result.coefficients
            ]
        else:
            report["violating_column"] = format_label(result.violating_column)
        _print_json(report)
        return EXIT_OK if result.equivalent else EXIT_NOT_EQUIVALENT
    # compose
    dist = jsonio.dist_from_json(jsonio.load(args.dist))
    family = {str(i + 1): jsonio.channel_from_json(jsonio.load(path))
              for i, path in enumerate(args.channels)}
    op = hidden_choice if args.op == "hidden" else visible_choice
    composed = op(dist, family)
    obj = jsonio.channel_to_json(composed)
    if args.out:
        jsonio.dump(obj, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        _print_json(obj)
    return EXIT_OK


def _load_measure(spec: str, secrets) -> VulnMeasure:
    if spec == "bayes":
        return VulnMeasure.bayes()
    return jsonio.measure_from_json(jsonio.load(spec), secrets=secrets)


def cmd_vuln(args) -> int:
    prior = jsonio.prior_from_json(jsonio.load(args.prior))
    channel = jsonio.channel_from_json(jsonio.load(args.channel))
    measure = _load_measure(args.measure, prior.labels)
    report = {
        "prior_vulnerability": prior_vuln(measure, prior),
        "posterior_vulnerability": posterior_vuln(measure, prior, channel),
        "additive_leakage": leakage(measure, prior, channel, "additive"),
    }
    try:
        report["multiplicative_leakage"] = leakage(measure, prior, channel, "multiplicative")
    except ZeroDivisionError:
        report["multiplicative_leakage"] = None
    _print_json(report)
    return EXIT_OK


def _solution_json(sol) -> dict:
    """A game solution as JSON.  Every action label, as key or value, is
    written through format_label; a VI_mixed function is keyed by its
    values' labels joined by '|', in ``function_order``.  Diagnostic
    text is written as it is."""
    def labelled(node):
        # a label, a number, or a mapping from labels to such nodes
        if isinstance(node, dict):
            return {format_label(k): labelled(v) for k, v in node.items()}
        return format_label(node) if isinstance(node, (str, tuple)) else float(node)

    def strategy(player):
        out = {}
        for name, node in player.items():
            if name == "type":
                out[name] = node
            elif name == "function_order":
                out[name] = [format_label(a) for a in node]
            elif name == "dist" and player["type"] == "mixed_functions":
                out[name] = {"|".join(map(format_label, f)): float(w) for f, w in node.items()}
            else:
                out[name] = labelled(node)
        return out

    return {
        "kind": sol.kind,
        "value": float(sol.value),
        "defender": strategy(sol.defender),
        "attacker": strategy(sol.attacker),
        "diagnostics": {k: labelled(v) if isinstance(v, dict) else
                        v.item() if isinstance(v, np.generic) else v
                        for k, v in sol.diagnostics.items()},
    }


def cmd_game(args) -> int:
    game = jsonio.game_from_json(jsonio.load(args.game))
    if args.game_cmd == "solve":
        sol = solve(game, KIND_FLAGS[args.kind])
        _print_json(_solution_json(sol))
        return EXIT_OK
    report = audit_hierarchy(game)
    _print_json({
        "values": {k: float(v) for k, v in report.values.items()},
        "orderings": [{"check": name, "holds": holds}
                      for name, _, _, holds in report.orderings],
        "violations": report.violations,
    })
    return EXIT_OK if report.ok else EXIT_ORDERING_VIOLATION


def _pwd_prior(spec: str, n: int) -> Prior:
    if spec == "uniform":
        return Prior.uniform(secret_labels(n))
    if spec in ("pihat", "prior_a", "prior_b"):
        return bundled_prior(spec)
    return jsonio.prior_from_json(jsonio.load(spec))


def cmd_pwd(args) -> int:
    if args.pwd_cmd == "timing":
        analytic = expected_iterations(args.bits)
        measured = measured_iterations(args.bits, args.samples, seed=args.seed)
        _print_json({"bits": args.bits, "analytic": analytic,
                     "samples": args.samples, "measured": measured})
        return EXIT_OK

    prior = _pwd_prior(args.prior, args.bits)
    game = build_game(args.bits, prior, max_bits=args.max_bits)
    if args.pwd_cmd == "gen":
        jsonio.dump(jsonio.game_to_json(game), args.out)
        print(f"wrote {args.out}", file=sys.stderr)
        return EXIT_OK

    # analyze: payoff table, hidden simultaneous equilibrium, uniform bound
    if args.table:
        u = payoff_matrix(game)
        with open(args.table, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["order"] + [format_label(a) for a in game.attackers])
            for d, row in zip(game.defenders, u.data):
                writer.writerow([format_label(d)] + [f"{v:.6f}" for v in row])
        print(f"wrote {args.table}", file=sys.stderr)
    sol = solve(game, "IV")
    _print_json({
        "bits": args.bits,
        "value": float(sol.value),
        "defender": {format_label(d): float(w)
                     for d, w in sol.defender["dist"].items()},
        "attacker": {format_label(a): float(w)
                     for a, w in sol.attacker["dist"].items()},
        "uniform_worst_case": uniform_worst_case(game),
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leakgames",
        description="channel composition, leakage measurement and leakage-game solvers")
    parser.add_argument("--seed", type=int, default=0, help="seed for any randomised step")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_channel = sub.add_parser("channel", help="compose, compare or validate channels")
    chan_sub = p_channel.add_subparsers(dest="channel_cmd", required=True)
    p_compose = chan_sub.add_parser("compose", help="hidden or visible composition")
    p_compose.add_argument("--op", choices=["hidden", "visible"], required=True)
    p_compose.add_argument("--dist", required=True,
                           help="JSON distribution over indices '1', '2', ...")
    p_compose.add_argument("--out", help="output path (stdout when omitted)")
    p_compose.add_argument("channels", nargs="+", help="channel JSON files, in index order")
    p_equiv = chan_sub.add_parser("equiv", help="decide channel equivalence")
    p_equiv.add_argument("first")
    p_equiv.add_argument("second")
    p_equiv.add_argument("--tol", type=float, default=1e-7)
    p_validate = chan_sub.add_parser("validate", help="check stochasticity")
    p_validate.add_argument("channel")

    p_vuln = sub.add_parser("vuln", help="prior/posterior vulnerability and leakage")
    p_vuln.add_argument("--prior", required=True)
    p_vuln.add_argument("--channel", required=True)
    p_vuln.add_argument("--measure", default="bayes",
                        help="'bayes' or a gain-measure JSON file")

    p_game = sub.add_parser("game", help="solve or audit a leakage game")
    game_sub = p_game.add_subparsers(dest="game_cmd", required=True)
    p_solve = game_sub.add_parser("solve")
    p_solve.add_argument("--kind", choices=list(KIND_FLAGS), required=True)
    p_solve.add_argument("game")
    p_audit = game_sub.add_parser("audit", help="solve all kinds, check the value lattice")
    p_audit.add_argument("game")

    p_pwd = sub.add_parser("pwd", help="password-checker case study")
    pwd_sub = p_pwd.add_subparsers(dest="pwd_cmd", required=True)
    p_gen = pwd_sub.add_parser("gen", help="emit the full game as JSON")
    p_gen.add_argument("--bits", type=int, required=True)
    p_gen.add_argument("--prior", default="uniform",
                       help="'uniform', a bundled name (pihat, prior_a, prior_b) or a file")
    p_gen.add_argument("--max-bits", type=int, default=MAX_BITS_DEFAULT, dest="max_bits")
    p_gen.add_argument("--out", required=True)
    p_an = pwd_sub.add_parser("analyze", help="payoff table and equilibrium")
    p_an.add_argument("--bits", type=int, required=True)
    p_an.add_argument("--prior", default="uniform")
    p_an.add_argument("--max-bits", type=int, default=MAX_BITS_DEFAULT, dest="max_bits")
    p_an.add_argument("--table", help="write the payoff table as CSV here")
    p_tm = pwd_sub.add_parser("timing", help="expected iteration counts")
    p_tm.add_argument("--bits", type=int, required=True)
    p_tm.add_argument("--samples", type=int, default=100_000)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {"channel": cmd_channel, "vuln": cmd_vuln,
               "game": cmd_game, "pwd": cmd_pwd}[args.cmd]
    try:
        code = handler(args)
        sys.stdout.flush()      # a closed reader shows only on a write to the pipe
        return code
    except (LeakGamesError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except BrokenPipeError:
        # the reader closed stdout: send what is still buffered to
        # devnull, or the flush at exit fails again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
