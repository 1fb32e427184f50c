"""Command-line front end.

Subcommands:
    sigma     average correlation of one damped pure state
    sweep     decay curves over a time grid, emitted as CSV or JSON
    verify    R_G vs Monte Carlo cross-check on random states
    classify  nonclassicality label for a Sigma value or a state

Exit codes: 0 success, 1 I/O or numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import repeat

import numpy as np

from .channels import p_of_t
from .correlation import (
    classify,
    correlation_matrix,
    sigma_for_state,
    sigma_monte_carlo,
)
from .states import random_density
from .sweep import (
    FIGURE_STEPS,
    FIGURE_T_MAX,
    INV_SQRT2,
    DecayCurve,
    SweepSpec,
    damped_sigma,
    decay_curve,
    figure_dataset,
)

CSV_HEADER = "gamma,t,p,alpha,beta,gamma_sv,sigma,classification"

METHOD_NAMES = {"closed": "closed_form", "quadrature": "quadrature", "mc": "monte_carlo"}
CHANNEL_KIND_BY_FLAG = {"phase": "phase_damping", "amplitude": "amplitude_damping"}


def format_sig12(x: float) -> str:
    """Fixed-point representation with 12 significant digits; scientific
    notation with 12 significant digits below |x| = 1e-12 and from 1e12 on."""
    x = float(x)
    if x == 0.0:
        return "0.000000000000"
    size = abs(x)
    if not 1e-12 <= size < 1e12:
        if size == math.inf or x != x:
            raise ValueError(f"cannot format {x} with 12 significant digits")
        return "%.11e" % x
    exponent = math.floor(math.log10(size))
    out = "%.*f" % (max(11 - exponent, 0), x)
    # rounding can carry into the next decade (0.0999... -> 0.100...),
    # which shows as a 13th significant digit
    if len(out.replace(".", "").lstrip("-0")) > 12:
        out = "%.*f" % (max(10 - exponent, 0), x)
    return out


def render_csv(curve: DecayCurve) -> str:
    t_col = list(map(format_sig12, curve.t.tolist()))
    lines = [CSV_HEADER]
    for bi, gamma in enumerate(curve.gammas.tolist()):
        numbers = [map(format_sig12, col) for col in
                   (curve.p[bi].tolist(), *curve.sv[bi].T.tolist(), curve.sigma[bi].tolist())]
        lines.extend(",".join(fields) for fields in
                     zip(repeat(format_sig12(gamma)), t_col, *numbers,
                         curve.labels[bi].tolist()))
    return "\n".join(lines) + "\n"


# The layout of json.dumps(..., indent=2) for a row and a block; %r of a
# float is float.__repr__, as in json, t comes already written, and the
# labels are plain identifiers that need no escaping.
_JSON_ROW = (
    "        {\n"
    '          "t": %s,\n'
    '          "p": %r,\n'
    '          "alpha": %r,\n'
    '          "beta": %r,\n'
    '          "gamma_sv": %r,\n'
    '          "sigma": %r,\n'
    '          "classification": "%s"\n'
    "        }"
)
_JSON_BLOCK = '    {\n      "gamma": %r,\n      "rows": [\n%s\n      ]\n    }'


def render_json(curve: DecayCurve) -> str:
    """The curve as `json.dumps({"metadata": ..., "blocks": ...}, indent=2)`
    would write it, with the rows laid out from the columns directly."""
    columns = (curve.gammas, curve.t, curve.p, curve.sv, curve.sigma)
    if not all(np.isfinite(col).all() for col in columns):
        raise ValueError("JSON cannot hold the non-finite values in this decay curve")
    t_col = list(map(repr, curve.t.tolist()))
    blocks = [
        _JSON_BLOCK % (gamma, ",\n".join(map(_JSON_ROW.__mod__, zip(
            t_col, curve.p[bi].tolist(), *curve.sv[bi].T.tolist(),
            curve.sigma[bi].tolist(), curve.labels[bi].tolist()))))
        for bi, gamma in enumerate(curve.gammas.tolist())
    ]
    head = json.dumps({"metadata": curve.metadata}, indent=2)[:-2]  # drop "\n}"
    return f'{head},\n  "blocks": [\n' + ",\n".join(blocks) + "\n  ]\n}\n"


def write_output(curve: DecayCurve, fmt: str = "csv", path: str | None = None) -> None:
    """Emit a decay curve as CSV or JSON to `path`, or stdout when None."""
    text = render_csv(curve) if fmt == "csv" else render_json(curve)
    _emit(text, path)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        # newline="" keeps LF endings on every platform
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="avgcorr",
        description="Average correlation of two-qubit states under local damping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(sp, c_required: bool):
        sp.add_argument("--c", type=float, required=c_required,
                        help="Schmidt coefficient in [0, 1]")
        sp.add_argument("--channel", choices=("phase", "amplitude"), default="phase",
                        help="damping channel applied to both qubits")
        sp.add_argument("--p", type=float, default=None,
                        help="damping probability in [0, 1]")
        sp.add_argument("--gamma", type=float, default=None,
                        help="decoherence rate (use together with --t)")
        sp.add_argument("--t", type=float, default=None,
                        help="elapsed time (use together with --gamma)")
        sp.add_argument("--method", choices=("closed", "quadrature", "mc"),
                        default="quadrature", help="Sigma estimator")
        sp.add_argument("--samples", type=int, default=1_000_000,
                        help="Monte Carlo sample count")
        sp.add_argument("--seed", type=int, default=42, help="random seed")
        sp.add_argument("--out", default=None, help="write output here instead of stdout")

    p_sigma = sub.add_parser("sigma", help="Sigma for one damped pure state")
    add_state_flags(p_sigma, c_required=True)
    p_sigma.set_defaults(func=cmd_sigma)

    p_sweep = sub.add_parser("sweep", help="Sigma(t) decay curves")
    p_sweep.add_argument("--figure", type=int, choices=(1, 2), default=None,
                         help="canned dataset (1: phase damping, 2: amplitude damping)")
    p_sweep.add_argument("--channel", choices=("phase", "amplitude"), default=None)
    p_sweep.add_argument("--c", type=float, default=None,
                         help="Schmidt coefficient (default 1/sqrt(2))")
    p_sweep.add_argument("--gammas", default=None,
                         help="comma-separated decoherence rates (default 0.5,1.0,2.0)")
    p_sweep.add_argument("--t-max", type=float, default=None, help="grid end (default 8)")
    p_sweep.add_argument("--steps", type=int, default=None,
                         help="grid point count (default 201)")
    p_sweep.add_argument("--method", choices=("closed", "quadrature", "mc"), default=None)
    p_sweep.add_argument("--samples", type=int, default=1_000_000)
    p_sweep.add_argument("--seed", type=int, default=42)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="check the exact R_G estimator against the Monte Carlo oracle"
    )
    p_verify.add_argument("--samples", type=int, default=1_000_000)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", help="nonclassicality label")
    p_classify.add_argument("--value", type=float, default=None,
                            help="classify this Sigma value directly")
    add_state_flags(p_classify, c_required=False)
    p_classify.set_defaults(func=cmd_classify)

    return parser


def _resolve_p(args, parser) -> float:
    explicit = args.p is not None  # the range check below also rejects nan and inf
    timed = args.gamma is not None or args.t is not None
    if explicit and timed:
        parser.error("give either --p or the pair --gamma/--t, not both")
    if timed:
        if args.gamma is None or args.t is None:
            parser.error("--gamma and --t must be given together")
        if not (math.isfinite(args.gamma) and math.isfinite(args.t)):
            parser.error(f"--gamma and --t must be finite, got {args.gamma} and {args.t}")
        if args.gamma < 0 or args.t < 0:
            parser.error("--gamma and --t must be >= 0")
        return p_of_t(args.gamma, args.t)
    if explicit:
        if not 0.0 <= args.p <= 1.0:
            parser.error(f"--p must lie in [0, 1], got {args.p}")
        return args.p
    return 0.0


def _check_unit(value: float, name: str, parser) -> float:
    if not 0.0 <= value <= 1.0:
        parser.error(f"{name} must lie in [0, 1], got {value}")
    return value


def _check_samples(args, parser) -> None:
    if args.method == "mc" and args.samples < 1:
        parser.error(f"--samples must be >= 1 with --method mc, got {args.samples}")


def cmd_sigma(args, parser) -> int:
    """Damp the state the flags describe, estimate Sigma, print it and its label."""
    _check_samples(args, parser)
    c = _check_unit(args.c, "--c", parser)
    p = _resolve_p(args, parser)
    _, sigma = damped_sigma(CHANNEL_KIND_BY_FLAG[args.channel], c, p,
                            METHOD_NAMES[args.method], args.samples, [args.seed])
    value = float(sigma)
    _emit(f"{format_sig12(value)} {classify(value)}\n", args.out)
    return 0


def cmd_classify(args, parser) -> int:
    if args.value is not None:
        if any(flag is not None for flag in (args.c, args.p, args.gamma, args.t)):
            parser.error("give either --value or a state description, not both")
        _emit(f"{classify(args.value)}\n", args.out)
        return 0
    if args.c is None:
        parser.error("classify needs --value or a state via --c")
    return cmd_sigma(args, parser)


def cmd_sweep(args, parser) -> int:
    shape_flags = (args.channel, args.c, args.gammas, args.t_max, args.steps, args.method)
    if args.figure is not None:
        if any(flag is not None for flag in shape_flags):
            parser.error("--figure fixes the sweep shape; drop the other sweep flags")
        curve = figure_dataset(args.figure, seed=args.seed)
    else:
        if args.channel is None:
            parser.error("sweep needs --figure or --channel")
        try:
            gammas = tuple(
                float(tok) for tok in (args.gammas or "0.5,1.0,2.0").split(",") if tok.strip()
            )
        except ValueError:
            parser.error(f"could not parse --gammas {args.gammas!r}")
        if not gammas:
            parser.error(f"--gammas {args.gammas!r} names no rates")
        _check_samples(args, parser)
        c = INV_SQRT2 if args.c is None else _check_unit(args.c, "--c", parser)
        try:
            spec = SweepSpec(
                channel_kind=CHANNEL_KIND_BY_FLAG[args.channel],
                c=c,
                gammas=gammas,
                t_max=FIGURE_T_MAX if args.t_max is None else args.t_max,
                steps=FIGURE_STEPS if args.steps is None else args.steps,
                method=METHOD_NAMES[args.method or "quadrature"],
            )
        except ValueError as exc:
            parser.error(str(exc))
        curve = decay_curve(spec, n_samples=args.samples, seed=args.seed)
    write_output(curve, fmt=args.format, path=args.out)
    return 0


def cmd_verify(args, parser) -> int:
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    if args.samples < 2:
        parser.error(f"--samples must be >= 2, got {args.samples}")
    master = np.random.SeedSequence(args.seed)
    lines = []
    all_ok = True
    for trial, child in enumerate(master.spawn(args.trials)):
        state_seq, mc_seq = child.spawn(2)
        rho = random_density(np.random.default_rng(state_seq))
        quad = sigma_for_state(rho, method="quadrature")
        mc = sigma_monte_carlo(correlation_matrix(rho), args.samples, mc_seq)
        gap = abs(quad.value - mc.value)
        ok = gap <= 4.0 * mc.error_bound or gap == 0.0
        all_ok &= ok
        lines.append(
            f"trial {trial:2d}: quadrature={format_sig12(quad.value)} "
            f"mc={format_sig12(mc.value)} stderr={mc.error_bound:.3e} "
            f"gap/stderr={gap / mc.error_bound if mc.error_bound else 0.0:5.2f} "
            f"{'ok' if ok else 'FAIL'}"
        )
    lines.append(
        f"{args.trials} trials at {args.samples} samples: "
        f"{'all within 4 standard errors' if all_ok else 'DISAGREEMENT FOUND'}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError, RuntimeError) as exc:
        # one line, however the message is laid out
        print("error:", " ".join(str(exc).split()), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
