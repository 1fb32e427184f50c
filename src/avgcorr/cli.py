"""Command-line front end.

Subcommands:
    sigma     average correlation of one damped pure state
    sweep     decay curves over a time grid, emitted as CSV or JSON
    verify    exact R_G vs Monte Carlo cross-check on random states
    classify  nonclassicality label for a Sigma value or a state

Exit codes: 0 success, 1 I/O or numeric failure (a grid too large to
allocate included), 2 usage error.

The handlers only map flags to library calls. `sigma`, `classify` and
`sweep` run the exact closed form, `damped_sigma`; their `--method closed`
and `--method quadrature` are accepted and select nothing. The library owns
the model's rules, each checked by one function that every entry point
calls: c in `states`, the channel kind and the rates in `sweep`, where
`p_of_t` also checks t and `damped_sigma` p. `SweepSpec` checks a sweep
with them and supplies the figures' shape for every flag left out. The
`RuleError` they raise becomes a usage error, worded alike from `sigma`
and `sweep`; any other error, a Monte Carlo worker's ValueError included,
is a failure. The handlers check only what the flags alone decide: which
flags go together, `verify`'s `--trials`, `--samples` and `--seed`
(defaults 20, MC_SAMPLES and MC_SEED), and that `classify --value` is
finite.

`verify` is the one command that runs the Monte Carlo oracle. It draws
trial i's state from spawn key (i, 0) of `--seed` and its Monte Carlo
directions from key (trials,), so the two never share a stream. It takes
the exact R_G of the stack of trial states from `sigma_for_state` and
their Monte Carlo estimates from one `sigma_monte_carlo_batch` call on
their K, all on the same directions, so the estimates' errors are
correlated while each stays unbiased with its own standard error. A trial
passes when the gap between the two is at most 4 standard errors plus the
exact value's error bound. The summary line keeps its old words, "all
within 4 standard errors", for a run in which every trial passes by that
rule.

`run()` builds its argument parser on its first call and reuses it for
every later call in the process, since building the argparse tree costs
several times what parsing and computing one `sigma` query do, and parsing
leaves the parser unchanged. It also formats the top-level usage only on
the first usage error and reprints that text on every later one; a
subcommand's own errors format that subcommand's usage. `build_parser()`
returns a fresh parser on every call.

A process loads numpy, `states`, `correlation`, `sweep` and this module at
start, all that `sigma`, `classify`, `verify` and a CSV `sweep` read.
`render_json` loads Python's `json` and `float_repr`, whose power-of-ten
tables are built as it loads, on the first JSON render of the process.

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
import functools
import math
import re
import sys

import numpy as np

from .correlation import (MC_SAMPLES, MC_SEED, classify, correlation_matrix, sigma_for_state,
                          sigma_monte_carlo_batch)
from .states import RuleError, random_density
from .sweep import (AMPLITUDE_DAMPING, FIGURE_KINDS, PHASE_DAMPING, DecayCurve, SweepSpec,
                    damped_sigma, decay_curve, p_of_t)

CSV_HEADER = "gamma,t,p,alpha,beta,gamma_sv,sigma,classification"

# the accepted spellings of --method; both run the exact closed form
METHOD_NAMES = ("closed", "quadrature")
CHANNEL_KIND_BY_FLAG = {"phase": PHASE_DAMPING, "amplitude": AMPLITUDE_DAMPING}


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


# the ASCII digits of 0000 .. 9999, four bytes to an entry; `float_repr`
# reads them too
_DIGIT = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
DIGITS4 = np.stack(np.meshgrid(*[_DIGIT] * 4, indexing="ij"), axis=-1).view(np.uint32).ravel()
# 10**k, correctly rounded, at index k + 12 for k in -12..23
_POW10 = np.array([float(f"1e{k}") for k in range(-12, 24)])
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
    digits = np.take(DIGITS4, chunks.T.astype(np.intp)).view(np.uint8)
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


def _lay_out(head: str, shape: tuple[int, ...], fields, widths, texts) -> str:
    """`head`, then rows of the given shape, each texts[0], fields[0],
    texts[1], ..., fields[-1], texts[-1]. Field i is an array of NUL-padded
    cells along its last axis (bytes, or the UCS-4 code points of ASCII
    text) that broadcasts to the shape, cut to widths[i]. The rows are laid
    out in one NUL-padded byte matrix, whose NULs are then deleted. The
    text is joined to `head` while the matrix is still held: freeing the
    matrix first let the heap shrink and grow back on every call, which
    cost a CSV sweep about twice the page faults."""
    row = bytearray(texts[0])
    starts = []
    for width, text in zip(widths, texts[1:], strict=True):
        starts.append(len(row))
        row += bytes(int(width)) + text
    rows = np.empty((*shape, len(row)), np.uint8)
    rows[...] = np.frombuffer(row, np.uint8)
    for field, width, start in zip(fields, widths, starts):
        rows[..., start:start + width] = field[..., :width]
    return head + rows.tobytes().translate(None, b"\0").decode("ascii")


def _label_codes(labels: np.ndarray) -> np.ndarray:
    """The labels' UCS-4 code points, NUL-padded along a last axis; they are
    ASCII, so the code points are their bytes."""
    return np.asarray(labels, dtype=str)[..., None].view(np.uint32)


def render_csv(curve: DecayCurve) -> str:
    """CSV_HEADER and one row per grid point, laid out by `_lay_out`, each
    of the 8 fields as wide as its widest cell."""
    rates, steps = curve.p.shape
    cells, lengths = _sig12_bytes(np.concatenate((curve.gammas, curve.t, np.concatenate(
        (curve.p[..., None], curve.sv, curve.sigma[..., None]), axis=-1).ravel())))
    labels = _label_codes(curve.labels)
    body = cells[rates + steps:].reshape(rates, steps, 5, _WIDTH)
    fields = (cells[:rates, None], cells[rates:rates + steps], *np.moveaxis(body, 2, 0), labels)
    widths = (lengths[:rates].max(initial=0), lengths[rates:rates + steps].max(initial=0),
              *lengths[rates + steps:].reshape(-1, 5).max(axis=0, initial=0), labels.shape[-1])
    return _lay_out(CSV_HEADER + "\n", (rates, steps), fields, widths, (b"", *[b","] * 7, b"\n"))


# The layout of json.dumps(..., indent=2) around a block's gamma and rows,
# and around the eight fields of a row: its seven values and a comma that
# the last row lacks. The labels are plain identifiers that need no escaping.
_JSON_BLOCK = ('    {\n      "gamma": ', ',\n      "rows": ', "\n    }")
_JSON_ROW = (b'\n        {\n          "t": ', b',\n          "p": ', b',\n          "alpha": ',
             b',\n          "beta": ', b',\n          "gamma_sv": ', b',\n          "sigma": ',
             b',\n          "classification": "', b'"\n        }', b"")


def render_json(curve: DecayCurve) -> str:
    """The curve as `json.dumps({"metadata": ..., "blocks": ...}, indent=2)`
    would write it, with the rows laid out from the columns directly.

    `repr_bytes` writes float.__repr__'s text of each rate, time, p, beta
    and Sigma. Damped rows repeat beta (under phase damping a row is (p,
    1.0, s, s, Sigma), under amplitude damping alpha or gamma_sv is s), so
    an alpha or gamma_sv cell whose bits equal its row's beta reuses
    beta's text, and the cells of a column that differ from beta are
    written once if they share one bit pattern. The key is the bits, not
    the value, since 0.0 and -0.0 are equal but written differently. Each
    rate block's rows are then laid out by `_lay_out` from those texts, one
    block at a time, and the document is copied once, by the final join.
    """
    # loaded on the first JSON render, not at start: no other command reads
    # them, and float_repr builds its tables as it loads
    import json

    from .float_repr import repr_bytes

    columns = (curve.gammas, curve.t, curve.p, curve.sv, curve.sigma)
    if not all(np.isfinite(col).all() for col in columns):
        raise ValueError("JSON cannot hold the non-finite values in this decay curve")
    rates, steps = curve.p.shape
    cells = rates * steps
    alpha, beta, gamma_sv = np.asarray(curve.sv, dtype=float).reshape(cells, 3).T
    numbers = [curve.gammas, curve.t, curve.p.ravel(), beta, curve.sigma.ravel()]
    start = rates + steps
    p_at, beta_at, sigma_at = (slice(start + k * cells, start + (k + 1) * cells) for k in range(3))
    size = start + 3 * cells  # the count of numbers so far
    reused = []  # the number of each alpha and gamma_sv cell
    for column in (alpha, gamma_sv):
        bits = column.view(np.int64)
        differ = np.flatnonzero(bits != beta.view(np.int64))
        one = differ.size and (bits[differ] == bits[differ[0]]).all()  # one bit pattern
        numbers.append(column[differ[:1] if one else differ])
        at = np.arange(beta_at.start, beta_at.stop)
        at[differ] = size if one else np.arange(size, size + differ.size)
        size += numbers[-1].size
        reused.append(at)
    texts, extents = repr_bytes(np.concatenate(numbers, dtype=float))
    del numbers
    row_at = (p_at, reused[0], beta_at, reused[1], sigma_at)
    # np.take gathers rows faster than texts[at] does
    alpha_texts, gamma_sv_texts = (np.take(texts, at, axis=0) for at in reused)
    rows = [field.reshape(rates, steps, texts.shape[1]) for field in
            (texts[p_at], alpha_texts, texts[beta_at], gamma_sv_texts, texts[sigma_at])]
    labels = _label_codes(curve.labels)
    widths = (extents[rates:start].max(initial=0),
              *(extents[at].max(initial=0) for at in row_at), labels.shape[-1], 1)
    comma = np.full((steps, 1), ord(","), np.uint8)
    comma[-1:] = 0
    head = json.dumps({"metadata": curve.metadata}, indent=2)[:-2]  # drop "\n}"
    pieces = [head, ',\n  "blocks": ']
    for i in range(rates):
        gamma = texts[i].tobytes().translate(None, b"\0").decode()
        pieces += (",\n" if i else "[\n", _JSON_BLOCK[0], gamma, _JSON_BLOCK[1])
        if steps:
            fields = (texts[rates:start], *(row[i] for row in rows), labels[i], comma)
            # "" + text is the text itself, not a copy
            pieces += ("[", _lay_out("", (steps,), fields, widths, _JSON_ROW), "\n      ]")
        else:
            pieces.append("[]")
        pieces.append(_JSON_BLOCK[2])
    pieces.append("\n  ]\n}\n" if rates else "[]\n}\n")
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


# What argparse takes for a negative number rather than a flag: its own
# pattern misses "-inf", "-nan", "-1e5" and "-1,2"; no option starts so.
_NEGATIVE_NUMBER = re.compile(r"-(?:[\d.]|inf|nan)", re.IGNORECASE)


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the four subcommands; each subcommand's handler is
    in the parsed namespace as `func`. Its `subcommands` attribute maps each
    subcommand name to that subcommand's parser. Every parser reads a token
    such as "-inf" or "-1e5" as a value, so a negative number reaches the
    rule it breaks."""
    parser = argparse.ArgumentParser(
        prog="avgcorr",
        description="Average correlation of two-qubit states under local damping.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # filled in by add_parser below

    def add_state_flags(sp, c_required: bool):
        sp.add_argument("--c", type=float, required=c_required,
                        help="Schmidt coefficient in [0, 1]")
        sp.add_argument("--channel", choices=tuple(CHANNEL_KIND_BY_FLAG), default="phase",
                        help="damping channel applied to both qubits")
        sp.add_argument("--p", type=float, default=None,
                        help="damping probability in [0, 1]")
        sp.add_argument("--gamma", type=float, default=None,
                        help="decoherence rate (use together with --t)")
        sp.add_argument("--t", type=float, default=None,
                        help="elapsed time (use together with --gamma)")
        sp.add_argument("--method", choices=METHOD_NAMES,
                        help="accepted; both run the exact closed form")
        sp.add_argument("--out", default=None, help="write output here instead of stdout")

    p_sigma = sub.add_parser("sigma", help="Sigma for one damped pure state")
    add_state_flags(p_sigma, c_required=True)
    p_sigma.set_defaults(func=cmd_sigma)

    p_sweep = sub.add_parser("sweep", help="Sigma(t) decay curves")
    p_sweep.add_argument("--figure", type=int, choices=tuple(FIGURE_KINDS), default=None,
                         help="canned dataset (1: phase damping, 2: amplitude damping)")
    p_sweep.add_argument("--channel", choices=tuple(CHANNEL_KIND_BY_FLAG), default=None)
    p_sweep.add_argument("--c", type=float, default=None,
                         help="Schmidt coefficient (default 1/sqrt(2))")
    p_sweep.add_argument("--gammas", default=None,
                         help="comma-separated decoherence rates (default 0.5,1.0,2.0)")
    p_sweep.add_argument("--t-max", type=float, default=None, help="grid end (default 8)")
    p_sweep.add_argument("--steps", type=int, default=None,
                         help="grid point count (default 201)")
    p_sweep.add_argument("--method", choices=METHOD_NAMES,
                         help="accepted; both run the exact closed form")
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser(
        "verify", help="check the exact R_G estimator against the Monte Carlo oracle"
    )
    p_verify.add_argument("--samples", type=int, default=MC_SAMPLES)
    p_verify.add_argument("--seed", type=int, default=MC_SEED)
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_classify = sub.add_parser("classify", help="nonclassicality label")
    p_classify.add_argument("--value", type=float, default=None,
                            help="classify this Sigma value directly")
    add_state_flags(p_classify, c_required=False)
    p_classify.set_defaults(func=cmd_classify)

    for each in (parser, *parser.subcommands.values()):
        each._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _resolve_p(args, parser) -> float:
    """The damping probability the flags give: `p_of_t` checks gamma and t,
    and `damped_sigma` the range of --p."""
    timed = args.gamma is not None or args.t is not None
    if args.p is not None and timed:
        parser.error("give either --p or the pair --gamma/--t, not both")
    if not timed:
        return 0.0 if args.p is None else args.p
    if args.gamma is None or args.t is None:
        parser.error("--gamma and --t must be given together")
    return p_of_t(args.gamma, args.t)


def cmd_sigma(args, parser) -> int:
    """Damp the state the flags describe, estimate Sigma, print it and its label."""
    try:
        _, sigma = damped_sigma(CHANNEL_KIND_BY_FLAG[args.channel], args.c,
                                _resolve_p(args, parser))
    except RuleError as exc:
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
    shape = dict(c=args.c, gammas=args.gammas, t_max=args.t_max, steps=args.steps)
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
    try:
        curve = decay_curve(SweepSpec(kind, **given))
    except RuleError as exc:
        parser.error(str(exc))
    write_output(curve, fmt=args.format, path=args.out)
    return 0


def cmd_verify(args, parser) -> int:
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    if args.samples < 2:
        parser.error(f"--samples must be >= 2, got {args.samples}")
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    # trial i's state draws from spawn key (i, 0); the run's one Monte Carlo
    # seed has key (trials,), so its chunk keys (trials, j) meet no state's
    rhos = np.array([random_density(np.random.default_rng(
        np.random.SeedSequence(args.seed, spawn_key=(i, 0)))) for i in range(args.trials)])
    # the exact R_G, printed as quadrature=, then every trial's Monte Carlo
    # estimate from one call, on the same directions
    quads, bounds = sigma_for_state(rhos)
    mc_seed = np.random.SeedSequence(args.seed, spawn_key=(args.trials,))
    mcs, stderrs = sigma_monte_carlo_batch(correlation_matrix(rhos), args.samples, mc_seed)
    lines = []
    all_ok = True
    for trial, (quad, bound, mc, stderr) in enumerate(zip(
            quads.tolist(), bounds.tolist(), mcs.tolist(), stderrs.tolist())):
        gap = abs(quad - mc)
        ok = gap <= 4.0 * stderr + bound
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
        _parser.format_usage = functools.cache(_parser.format_usage)
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
