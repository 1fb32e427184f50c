"""Command-line front end.

Subcommands:
    sigma     average correlation of one damped pure state
    sweep     decay curves over a time grid, emitted as CSV or JSON
    verify    quadrature vs Monte Carlo cross-check on random states
    classify  nonclassicality label for a Sigma value or a state

Exit codes: 0 success, 1 I/O or numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from .channels import apply_local_channel, make_channel, p_of_t
from .correlation import (
    classify,
    correlation_matrix,
    sigma_for_state,
    sigma_monte_carlo,
)
from .states import make_pure_state, random_density
from .sweep import (
    FIGURE_STEPS,
    FIGURE_T_MAX,
    INV_SQRT2,
    DecayCurve,
    SweepSpec,
    decay_curve,
    figure_dataset,
)

CSV_HEADER = "gamma,t,p,alpha,beta,gamma_sv,sigma,classification"

METHOD_NAMES = {"closed": "closed_form", "quadrature": "quadrature", "mc": "monte_carlo"}
CHANNEL_KIND_BY_FLAG = {"phase": "phase_damping", "amplitude": "amplitude_damping"}


def format_sig12(x: float) -> str:
    """Fixed-point representation with 12 significant digits."""
    x = float(x)
    if x == 0.0:
        return "0.000000000000"
    exponent = math.floor(math.log10(abs(x)))
    for _ in range(2):
        decimals = max(11 - exponent, 0)
        out = f"{x:.{decimals}f}"
        rounded = float(out)
        # rounding can carry into the next decade (0.0999... -> 0.100...)
        if rounded != 0.0 and math.floor(math.log10(abs(rounded))) != exponent:
            exponent += 1
            continue
        return out
    return out


def render_csv(curve: DecayCurve) -> str:
    lines = [CSV_HEADER]
    for block in curve.blocks:
        for row in block.rows:
            lines.append(
                ",".join(
                    [
                        format_sig12(block.gamma),
                        format_sig12(row.t),
                        format_sig12(row.p),
                        format_sig12(row.alpha),
                        format_sig12(row.beta),
                        format_sig12(row.gamma_sv),
                        format_sig12(row.sigma),
                        row.classification,
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def render_json(curve: DecayCurve) -> str:
    payload = {
        "metadata": curve.metadata,
        "blocks": [
            {"gamma": block.gamma, "rows": [asdict(row) for row in block.rows]}
            for block in curve.blocks
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


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
        "verify", help="check quadrature against the Monte Carlo oracle"
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


def _damped_state(args, parser) -> np.ndarray:
    c = _check_unit(args.c, "--c", parser)
    p = _resolve_p(args, parser)
    channel = make_channel(args.channel, p)
    return apply_local_channel(make_pure_state(c), channel, channel)


def cmd_sigma(args, parser) -> int:
    rho = _damped_state(args, parser)
    est = sigma_for_state(
        rho, method=METHOD_NAMES[args.method], n_samples=args.samples, seed=args.seed
    )
    _emit(f"{format_sig12(est.value)} {classify(est.value)}\n", args.out)
    return 0


def cmd_classify(args, parser) -> int:
    if args.value is not None:
        if any(flag is not None for flag in (args.c, args.p, args.gamma, args.t)):
            parser.error("give either --value or a state description, not both")
        _emit(f"{classify(args.value)}\n", args.out)
        return 0
    if args.c is None:
        parser.error("classify needs --value or a state via --c")
    rho = _damped_state(args, parser)
    est = sigma_for_state(
        rho, method=METHOD_NAMES[args.method], n_samples=args.samples, seed=args.seed
    )
    _emit(f"{format_sig12(est.value)} {classify(est.value)}\n", args.out)
    return 0


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
