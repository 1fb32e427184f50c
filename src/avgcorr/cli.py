"""Command-line front end.

Subcommands:
    sigma     average correlation of one damped pure state
    sweep     decay curves over a time grid, emitted as CSV or JSON
    verify    R_G vs Monte Carlo cross-check on random states
    classify  nonclassicality label for a Sigma value or a state

Exit codes: 0 success, 1 I/O or numeric failure (a grid too large to
allocate included), 2 usage error.

The handlers only map flags to library calls. The library owns the model's
rules: `damped_sigma` and `p_of_t` check c, p, gamma and t, `SweepSpec`
checks a sweep and supplies the figures' shape for every flag left out, and
a ValueError they raise becomes a usage error. The handlers check only what
the flags alone decide: which flags go together, `--samples`, `--seed` and
`--trials`, and that `--gamma`, `--t` and `classify --value` are finite.

`run()` builds its argument parser on its first call and reuses it for
every later call in the process, since building the argparse tree costs
several times what parsing and computing one `sigma` query do, and parsing
leaves the parser unchanged. `build_parser()` returns a fresh parser on
every call.

When the first token names a subcommand, `run()` hands the tokens after it
straight to that subcommand's parser, so they are parsed once, not first by
the top-level parser and again by the subcommand's; tokens that parser
leaves over are the top-level parser's "unrecognized arguments" error, as
`parse_args` reports them. Any other argv (none, `-h`, an unknown or
abbreviated command, a leading `--`) goes through the top-level parser and
ends in help or a usage error. Either way the handler gets the top-level
parser, so its usage errors read `usage: avgcorr ...`.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterator
from itertools import chain, repeat

import numpy as np

from .channels import p_of_t
from .correlation import classify, correlation_matrix, sigma_for_state, sigma_monte_carlo_batch
from .states import random_density
from .sweep import FIGURE_KINDS, DecayCurve, SweepSpec, damped_sigma, decay_curve

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


# 10**k, correctly rounded, at index k + 12 for k in -12..23
_POW10 = np.array([float(f"1e{k}") for k in range(-12, 24)])
# the ASCII digits of 0000 .. 9999, four bytes to an entry
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
_DIGITS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
_WIDTH = 26  # the widest cell: "-0." and 11 zeros before 12 digits
# format_sig12's cells with @ for the 12 digits, at index 24 * neg + e + 12
_CELLS = [format_sig12(float(f"{'-' * neg}1.11111111111e{e}")).replace("1", "@")
          for neg in (0, 1) for e in range(-12, 12)]
_LAYOUT = np.array(_CELLS, dtype=f"S{_WIDTH}")
_LENGTHS = np.array([len(cell) for cell in _CELLS])
_PLACES = np.array([[i for i, char in enumerate(cell) if char == "@"] for cell in _CELLS])


def _sig12_bytes(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells `format_sig12` writes for the 1-D `x`, NUL-padded, as an
    (x.size, 26) uint8 array, and their lengths. Where 10**e <= |x| <
    10**(e+1) * (1 - 1e-10), a bracket numpy's log10 guesses and the code
    checks, format_sig12 writes n = rint(|x| * 10**(11 - e)) with 11 - e
    decimals (math.log10 may give e - 1 near 10**e; the 13-digit check then
    cuts a decimal). The product is at most 2.3e-4 off, so n is exact unless
    it lies within 1e-3 of a half-way point. Near-ties go through
    format_sig12, as do zero, non-finite values (which raise), |x| outside
    [1e-12, 1e12) and cells off the bracket.
    """
    size = np.abs(x)
    in_range = (size >= 1e-12) & (size < 1e12)
    size = np.where(in_range, size, 1.0)
    e = np.clip(np.floor(np.log10(size)), -12, 11).astype(np.intp)
    y = size * _POW10[23 - e]
    n = np.rint(y)
    fast = in_range & (size >= _POW10[e + 12]) & (size < _POW10[e + 13] * (1.0 - 1e-10))
    fast &= np.abs(y - n) < 0.499
    # sort the cells by (sign, e), slow ones last, and fill each group at once
    key = np.where(fast, (x < 0.0) * 24 + e + 12, 48).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    bounds = np.searchsorted(key[order], np.arange(49))
    # n's 4-digit chunks; floors of quotients of integers below 2**53 are exact
    chunks = np.floor(n[order[:bounds[48]]] / [[1e8], [1e4], [1.0]])
    chunks[1:] -= chunks[:-1] * 1e4
    digits = np.take(_DIGITS4, chunks.T.astype(np.intp)).view(np.uint8)
    out = np.take(_LAYOUT, key[order], mode="clip")  # slow cells are written below
    grid = out.view(np.uint8).reshape(x.size, _WIDTH)
    for k in np.flatnonzero(np.diff(bounds)).tolist():
        grid[bounds[k]:bounds[k + 1], _PLACES[k]] = digits[bounds[k]:bounds[k + 1]]
    slow = [format_sig12(v).encode() for v in x[order[bounds[48]:]].tolist()]
    out[bounds[48]:] = slow
    out[order] = out.copy()  # undo the sort
    lengths = np.take(_LENGTHS, key, mode="clip")
    lengths[order[bounds[48]:]] = list(map(len, slow))
    return grid, lengths


def render_csv(curve: DecayCurve) -> str:
    """CSV_HEADER and one row per grid point, laid out as bytes in one
    (rates, steps, row width) NUL-padded matrix, each of the 8 fields as wide
    as its widest cell; the NULs are then deleted from its bytes."""
    rates, steps = curve.p.shape
    cells, lengths = _sig12_bytes(np.concatenate((curve.gammas, curve.t, np.concatenate(
        (curve.p[..., None], curve.sv, curve.sigma[..., None]), axis=-1).ravel())))
    # the labels are ASCII, so their UCS-4 code points are their bytes
    labels = np.asarray(curve.labels, dtype=str)[..., None].view(np.uint32)
    body = cells[rates + steps:].reshape(rates, steps, 5, _WIDTH)
    fields = (cells[:rates, None], cells[rates:rates + steps], *np.moveaxis(body, 2, 0), labels)
    widths = (lengths[:rates].max(initial=0), lengths[rates:rates + steps].max(initial=0),
              *lengths[rates + steps:].reshape(-1, 5).max(axis=0, initial=0), labels.shape[-1])
    ends = np.cumsum(np.add(widths, 1))  # each field and its separator
    rows = np.zeros((rates, steps, ends[-1]), np.uint8)
    for field, width, end in zip(fields, widths, ends.tolist()):
        rows[..., end - width - 1:end - 1] = field[..., :width]
    rows[..., ends - 1] = np.frombuffer(b",,,,,,,\n", np.uint8)
    return CSV_HEADER + "\n" + rows.tobytes().translate(None, b"\0").decode("ascii")


# The layout of json.dumps(..., indent=2) for a row, as the texts around
# its seven values, and for a block up to its rows; %r of a float is
# float.__repr__, as in json, a row's numbers come already written, and the
# labels are plain identifiers that need no escaping.
_JSON_ROW_PARTS = (
    '        {\n          "t": ',
    ',\n          "p": ',
    ',\n          "alpha": ',
    ',\n          "beta": ',
    ',\n          "gamma_sv": ',
    ',\n          "sigma": ',
    ',\n          "classification": "',
    '"\n        }',
)
_JSON_BLOCK = '    {\n      "gamma": %r,\n      "rows": '


def _json_openers(n: int, head: str = "") -> list[str]:
    """The text before each of the n items of a list in json.dumps's
    indented layout, each followed by `head`."""
    return ["[\n" + head, *[",\n" + head] * (n - 1)]


def _json_closer(n: int, indent: str) -> str:
    """The text after the last of the n items of a list in json.dumps's
    indented layout, the closing bracket at `indent`; an empty list is `[]`."""
    return "\n" + indent + "]" if n else "[]"


def _json_rows(heads: list[str], columns) -> Iterator[str]:
    """The texts of the rows whose seven values, already written, are the
    `columns`, in order, each row after its entry of `heads`."""
    parts = [heads]
    for column, text in zip(columns, _JSON_ROW_PARTS[1:], strict=True):
        parts += (column, repeat(text))
    return chain.from_iterable(zip(*parts))


def render_json(curve: DecayCurve) -> str:
    """The curve as `json.dumps({"metadata": ..., "blocks": ...}, indent=2)`
    would write it, with the rows laid out from the columns directly.

    Damped rows repeat their numbers (s is both beta and one of alpha and
    gamma_sv; under phase damping a row is (p, 1.0, s, s, Sigma)), so the
    row cells are written once per distinct value: `repr` runs on each
    distinct bit pattern and the texts are gathered back into the grid.
    The key is the bits, not the value, since 0.0 and -0.0 are equal but
    written differently. The document is a single join of those texts and
    the layout around them, so no row or block is copied before it.
    """
    columns = (curve.gammas, curve.t, curve.p, curve.sv, curve.sigma)
    if not all(np.isfinite(col).all() for col in columns):
        raise ValueError("JSON cannot hold the non-finite values in this decay curve")
    cells = np.concatenate((curve.p[..., None], curve.sv, curve.sigma[..., None]), axis=-1,
                           dtype=float)
    bits, where = np.unique(cells.view(np.int64).ravel(), return_inverse=True)
    texts = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
    texts = texts[where].reshape(cells.shape)
    t_col = list(map(repr, curve.t.tolist()))
    row_heads = _json_openers(len(t_col), _JSON_ROW_PARTS[0])
    gammas = curve.gammas.tolist()
    head = json.dumps({"metadata": curve.metadata}, indent=2)[:-2]  # drop "\n}"
    pieces = [head, ',\n  "blocks": ']
    for opener, gamma, block, labels in zip(_json_openers(len(gammas)), gammas, texts,
                                            curve.labels.tolist()):
        pieces += (opener, _JSON_BLOCK % gamma)
        pieces += _json_rows(row_heads, (t_col, *block.T.tolist(), labels))
        pieces.append(_json_closer(len(t_col), "      ") + "\n    }")
    pieces.append(_json_closer(len(gammas), "  ") + "\n}\n")
    return "".join(pieces)


def write_output(curve: DecayCurve, fmt: str = "csv", path: str | None = None) -> None:
    """Emit a decay curve as CSV or JSON to `path`, or stdout when None; any
    other `fmt` raises ValueError before anything is written."""
    renderers = {"csv": render_csv, "json": render_json}
    if fmt not in renderers:
        raise ValueError(f"unknown output format {fmt!r}; expected 'csv' or 'json'")
    _emit(renderers[fmt](curve), path)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        # newline="" keeps LF endings on every platform
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the four subcommands; each subcommand's handler is
    in the parsed namespace as `func`. Its `subcommands` attribute maps each
    subcommand name to that subcommand's parser."""
    parser = argparse.ArgumentParser(
        prog="avgcorr",
        description="Average correlation of two-qubit states under local damping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # filled in by add_parser below

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
    p_sweep.add_argument("--figure", type=int, choices=tuple(FIGURE_KINDS), default=None,
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
    """The damping probability the flags give, unchecked: `damped_sigma`
    checks its range and `p_of_t` the signs of gamma and t."""
    timed = args.gamma is not None or args.t is not None
    if args.p is not None and timed:
        parser.error("give either --p or the pair --gamma/--t, not both")
    if not timed:
        return 0.0 if args.p is None else args.p
    if args.gamma is None or args.t is None:
        parser.error("--gamma and --t must be given together")
    # gamma = inf at t = 0 would make p NaN, with a RuntimeWarning
    if not (math.isfinite(args.gamma) and math.isfinite(args.t)):
        parser.error(f"--gamma and --t must be finite, got {args.gamma} and {args.t}")
    return p_of_t(args.gamma, args.t)


def _check_monte_carlo_flags(args, parser) -> None:
    """Only Monte Carlo reads --samples and --seed; the exact methods ignore them."""
    if args.method != "mc":
        return
    if args.samples < 1:
        parser.error(f"--samples must be >= 1 with --method mc, got {args.samples}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0 with --method mc, got {args.seed}")


def cmd_sigma(args, parser) -> int:
    """Damp the state the flags describe, estimate Sigma, print it and its label."""
    _check_monte_carlo_flags(args, parser)
    try:
        _, sigma = damped_sigma(CHANNEL_KIND_BY_FLAG[args.channel], args.c,
                                _resolve_p(args, parser), METHOD_NAMES[args.method],
                                args.samples, [args.seed])
    except ValueError as exc:
        parser.error(str(exc))
    value = float(sigma)
    _emit(f"{format_sig12(value)} {classify(value)}\n", args.out)
    return 0


def cmd_classify(args, parser) -> int:
    if args.value is not None:
        if any(flag is not None for flag in (args.c, args.p, args.gamma, args.t)):
            parser.error("give either --value or a state description, not both")
        if not math.isfinite(args.value):
            parser.error(f"--value must be finite, got {args.value}")
        _emit(f"{classify(args.value)}\n", args.out)
        return 0
    if args.c is None:
        parser.error("classify needs --value or a state via --c")
    return cmd_sigma(args, parser)


def cmd_sweep(args, parser) -> int:
    """Build a SweepSpec from the shape flags given, the rest left to its
    defaults; --figure N presets the channel and allows no other shape flag."""
    shape = dict(c=args.c, gammas=args.gammas, t_max=args.t_max, steps=args.steps,
                 method=METHOD_NAMES.get(args.method))
    given = {name: value for name, value in shape.items() if value is not None}
    kind = CHANNEL_KIND_BY_FLAG.get(args.channel)
    if args.figure is not None:
        if args.channel is not None or given:
            parser.error("--figure fixes the sweep shape; drop the other sweep flags")
        kind = FIGURE_KINDS[args.figure]
    if kind is None:
        parser.error("sweep needs --figure or --channel")
    if args.gammas is not None:
        try:
            given["gammas"] = tuple(float(tok) for tok in args.gammas.split(",") if tok.strip())
        except ValueError:
            parser.error(f"could not parse --gammas {args.gammas!r}")
    _check_monte_carlo_flags(args, parser)
    try:
        spec = SweepSpec(kind, **given)
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
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    state_seqs, mc_seqs = zip(*(child.spawn(2) for child in
                                np.random.SeedSequence(args.seed).spawn(args.trials)))
    rhos = [random_density(np.random.default_rng(seq)) for seq in state_seqs]
    quads = [sigma_for_state(rho, method="quadrature").value for rho in rhos]
    # every trial's Monte Carlo estimate from one call, so they can run concurrently
    ks = np.array([correlation_matrix(rho) for rho in rhos])
    mcs, stderrs = sigma_monte_carlo_batch(ks, args.samples, mc_seqs)
    lines = []
    all_ok = True
    for trial, (quad, mc, stderr) in enumerate(zip(quads, mcs.tolist(), stderrs.tolist())):
        gap = abs(quad - mc)
        ok = gap <= 4.0 * stderr or gap == 0.0
        all_ok &= ok
        lines.append(
            f"trial {trial:2d}: quadrature={format_sig12(quad)} "
            f"mc={format_sig12(mc)} stderr={stderr:.3e} "
            f"gap/stderr={gap / stderr if stderr else 0.0:5.2f} "
            f"{'ok' if ok else 'FAIL'}"
        )
    lines.append(
        f"{args.trials} trials at {args.samples} samples: "
        f"{'all within 4 standard errors' if all_ok else 'DISAGREEMENT FOUND'}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if all_ok else 1


# The parser `run()` reuses; built on the first call, not at import.
_parser: argparse.ArgumentParser | None = None


def run(argv: list[str] | None = None) -> int:
    """Run the command `argv` names (default `sys.argv[1:]`); returns its
    exit code."""
    global _parser
    if _parser is None:
        _parser = build_parser()
    parser = _parser
    if argv is None:
        argv = sys.argv[1:]
    try:
        subparser = parser.subcommands.get(argv[0]) if argv else None
        if subparser is None:  # help or a usage error
            args = parser.parse_args(argv)
        else:
            args, extras = subparser.parse_known_args(argv[1:])
            if extras:  # as parser.parse_args words it
                parser.error("unrecognized arguments: " + " ".join(extras))
            args.command = argv[0]
        return args.func(args, parser)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:
        # one line, however the message is laid out
        print("error:", " ".join(str(exc).split()), file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
