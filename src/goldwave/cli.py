"""Command-line interface: reproducible experiments with JSON/CSV reports.

Exit statuses: 0 success, 1 usage error, 2 numerical failure (rank
deficiency, a failed eigensolve, frame bounds left unproved, an
enumeration over its cap, an audit rectangle side that rounds to 0 or
overflows, or a model too large to allocate).  Reports
embed the fully resolved configuration and a schema version; identical
flags and seed produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction

from numpy.linalg import LinAlgError

from .covering import audit_cover, beta_for_delta
from .framelab import (
    DYADIC_BASE,
    bounds_row,
    comparison_to_csv,
    compare_schemes,
    dyadic_sample_set,
    golden_sample_set,
    guard_band,
)
from .goldenring import ALPHA_FLOAT
from .lattice import EnumerationCapError, LatticeSpec, Rect, enumerate_in_rect, lattice_coords
from .lattice import audit_max_count, audit_min_count
from .wavelet import (
    SignalModel,
    admissibility_constant,
    cauchy_wavelet,
    decay_condition_report,
    gaussian_bump_wavelet,
    normalize_tight,
)

SCHEMA_VERSION = 6

# symbolic area aliases, evaluated in double precision from the exact forms
_AREA_ALIASES = {
    "golden2": 2.0 + ALPHA_FLOAT,  # 2 + alpha
    "inv3p2a": 1.0 / (3.0 + 2.0 * ALPHA_FLOAT),  # 1 / (3 + 2*alpha)
}

# the flags read by each value of --scheme and --family (absent unless given), with defaults
_CHOICE_FLAGS = {
    "scheme": {"golden": {"delta": 0.35, "beta": None}, "dyadic": {"a": DYADIC_BASE, "b": 1.0}},
    "family": {"cauchy": {"order": 6.0}, "gaussian_bump": {"center": 1.0, "width": 0.1}},
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *a, **kw):
        # one spelling per flag: a config key is explicit exactly when its flag is in argv
        super().__init__(*a, allow_abbrev=False, **kw)
        # accept values like "-0.5,0.5,-0.5,0.5" and "-20:20" after flags
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):
        raise UsageError(message)


def _finite(text: str) -> float:
    """argparse type of the float flags: a finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _exact(text: str) -> Fraction:
    """A decimal or p/q, exactly; finite as a float, exponents under 4 digits."""
    try:
        if re.search(r"[eE][+-]?0*\d{4}", text):  # Fraction would expand 10**exponent
            raise OverflowError
        float(value := Fraction(text))  # OverflowError beyond the float range
    except (ValueError, ZeroDivisionError, OverflowError):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}") from None
    return value


def _values(kind, sep: str, n: int | None, what: str):
    """argparse type of a list flag: n values (any number if None) of kind,
    separated by sep; what names the form in the error."""
    def parse(text: str) -> tuple:
        parts = text.split(sep)
        try:
            if n is None or len(parts) == n:
                return tuple(kind(p) for p in parts)
        except (ValueError, argparse.ArgumentTypeError):
            pass
        raise argparse.ArgumentTypeError(f"expects {what}, got {text!r}")
    return parse


def _area(text: str) -> float:
    """argparse type of --area: a finite number or an alias."""
    if text in _AREA_ALIASES:
        return _AREA_ALIASES[text]
    try:
        return _finite(text)
    except argparse.ArgumentTypeError:
        raise argparse.ArgumentTypeError(
            f"not a finite number or one of {sorted(_AREA_ALIASES)}: {text!r}") from None


def _add_global_flags(p: argparse.ArgumentParser, suppress: bool) -> None:
    d = argparse.SUPPRESS if suppress else None
    p.add_argument("--output", default=d, help="write the report here instead of stdout")
    p.add_argument("--config", default=d, help="key = value file; flags override")


@functools.cache
def build_parser() -> _Parser:
    """The parser of every command, built on the first call and shared by
    later ones: parsing leaves it unchanged, and building it costs about
    2 ms, mostly argparse reading the terminal size per argument."""
    p = _Parser(prog="goldwave", description=__doc__)
    off = argparse.SUPPRESS  # no default: the flags of one --scheme or --family value
    _add_global_flags(p, suppress=False)
    # same flags accepted after the subcommand, without clobbering values
    shared = _Parser(add_help=False)
    _add_global_flags(shared, suppress=True)
    sub = p.add_subparsers(dest="command", required=True)

    lat = sub.add_parser("lattice", help="golden lattice counting and audits")
    latsub = lat.add_subparsers(dest="subcommand", required=True)
    c = latsub.add_parser("count", parents=[shared],
                          help="count lattice points in a rectangle")
    c.add_argument("--rect", type=_values(_exact, ",", 4, "a,b,c,d as numbers or p/q"),
                   required=True, help="a,b,c,d (half-open [a,b) x [c,d))")
    c.add_argument("--beta", type=_exact, required=True, help="lattice scale (float or p/q)")
    a = latsub.add_parser("audit", parents=[shared], help="randomized minimum/maximum count audit")
    a.add_argument("--mode", choices=["min", "max"], required=True)
    a.add_argument("--area", type=_area, required=True,
                   help=f"rectangle area; aliases: {sorted(_AREA_ALIASES)}")
    a.add_argument("--trials", type=int, default=10000)
    a.add_argument("--aspect", type=_values(_finite, ":", 2, "lo:hi numbers"),
                   default="0.001:1000", help="log-uniform aspect range lo:hi")
    a.add_argument("--window", type=_finite, default=1000.0,
                   help="center placement half-width")
    a.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    cov = sub.add_parser("cover", help="phase-space covering audits")
    covsub = cov.add_subparsers(dest="subcommand", required=True)
    ca = covsub.add_parser("audit", parents=[shared], help="per-cell lattice counts over an index window")
    ca.add_argument("--delta", type=_finite, required=True)
    ca.add_argument("--beta", type=_finite, default=None,
                    help="defaults to delta / sqrt(2 + alpha)")
    index_range = _values(int, ":", 2, "lo:hi integers")
    ca.add_argument("--k", type=index_range, default="-200:200", help="k index range lo:hi")
    ca.add_argument("--l", type=index_range, default="-20:20", help="l index range lo:hi")

    wav = sub.add_parser("wavelet", help="wavelet hypothesis checks")
    wavsub = wav.add_subparsers(dest="subcommand", required=True)
    wc = wavsub.add_parser("check", parents=[shared], help="admissibility and decay conditions")
    wc.add_argument("--family", choices=list(_CHOICE_FLAGS["family"]), required=True)
    wc.add_argument("--order", type=_finite, default=off, help="cauchy order p (default 6)")
    wc.add_argument("--center", type=_finite, default=off, help="gaussian_bump center (default 1)")
    wc.add_argument("--width", type=_finite, default=off, help="gaussian_bump width (default 0.1)")
    wc.add_argument("--threshold", type=_finite, default=1e-8, help="decay tail threshold")

    fr = sub.add_parser("frame", help="frame-bound estimation")
    frsub = fr.add_subparsers(dest="subcommand", required=True)

    def add_model_flags(q):
        q.add_argument("--n", type=int, default=4096, help="model length (power of two)")
        q.add_argument("--duration", type=_finite, default=None, help="defaults to n")
        q.add_argument("--smax", type=_finite, default=0.06, help="top of the scale band")
        q.add_argument("--octaves", type=_finite, default=6.0, help="scale band depth")
        q.add_argument("--guard", type=_finite, default=2.0, help="guard margin in octaves")
        q.add_argument("--seed", type=int, default=0,
                       help="ignored, as nothing here is random; accepted because the "
                            "frame benchmark (bench/workloads.py) passes it")

    fe = frsub.add_parser("estimate", parents=[shared], help="frame bounds for one sample set")
    fe.add_argument("--scheme", choices=list(_CHOICE_FLAGS["scheme"]), required=True)
    fe.add_argument("--delta", type=_finite, default=off, help="golden delta (default 0.35)")
    fe.add_argument("--beta", type=_finite, default=off, help="golden scale (default from delta)")
    fe.add_argument("--a", type=_finite, default=off, help="dyadic scale base (default 2**0.25)")
    fe.add_argument("--b", type=_finite, default=off, help="dyadic translation step (default 1)")
    add_model_flags(fe)
    fc = frsub.add_parser("compare", parents=[shared], help="golden vs density-matched dyadic table")
    fc.add_argument("--deltas", type=_values(_finite, ",", None, "comma-separated numbers"),
                    required=True, help="comma-separated delta values")
    fc.add_argument("--format", choices=["json", "csv"], default="json")
    add_model_flags(fc)
    return p


def _config_path(argv: list[str]) -> str | None:
    """The value of the last --config in argv, read before parsing, so that a
    file can supply a required flag; None if argv has none."""
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif tok.startswith("--config="):
            path = tok[len("--config="):]
    return path


def _with_config(parser: _Parser, argv: list[str], path: str) -> argparse.Namespace:
    """Parse argv with each key = value line of the file appended as
    --key=value, so the flag's own type and choices read the value; a flag
    spelled in argv keeps priority, and one the command lacks is unknown."""
    explicit = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    flags, unknown_key = [], {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {line!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "config":  # --config is always in argv, so the line would be skipped
            raise UsageError(f"{path}:{lineno}: a config file cannot name another one")
        if "--" + key not in explicit:
            flags.append(flag := f"--{key}={value}")
            unknown_key.setdefault(flag, f"{path}:{lineno}: unknown config key {key!r}")
    try:
        args, unknown = parser.parse_known_args(argv + flags)
    except UsageError as exc:
        try:  # the file is at fault unless argv alone fails the same way
            parser.parse_known_args(argv)
        except UsageError as own:
            if str(own) == str(exc):
                raise
        raise UsageError(f"{path}: {exc}") from None
    if unknown:
        raise UsageError(unknown_key.get(unknown[0],
                                         f"unrecognized arguments: {' '.join(unknown)}"))
    return args


def _settle_choices(args: argparse.Namespace) -> None:
    """Refuse a flag the chosen --scheme or --family cannot read; default its own."""
    for key, choices in _CHOICE_FLAGS.items():
        chosen = getattr(args, key, None)
        for value, flags in choices.items() if chosen else ():
            for flag, default in flags.items():
                if value == chosen:
                    vars(args).setdefault(flag, default)
                elif hasattr(args, flag):
                    raise UsageError(f"--{flag} does not apply to --{key} {chosen}")


def _resolved_config(args: argparse.Namespace) -> dict:
    skip = {"command", "subcommand", "output", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit(path: str | None, text: str) -> None:
    """Write a report's text, unchanged, to the file at path or to stdout."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write --output: {exc}") from None


# ---------------------------------------------------------------------------
# subcommand handlers: return (result dict, exit status)


def _cmd_lattice_count(args) -> tuple[dict, int]:
    idx = enumerate_in_rect(LatticeSpec(beta=args.beta), Rect.from_exact(*args.rect))
    result = {"count": len(idx)}
    if len(idx) <= 100:
        # float coordinates, for display; membership was decided exactly
        x, s = lattice_coords(*idx.T)
        beta = float(args.beta)
        result["points"] = [
            {"n": n, "m": m, "x": px * beta, "s": ps * beta}
            for (n, m), px, ps in zip(idx.tolist(), x.tolist(), s.tolist())
        ]
    return result, 0


def _audit_verdict(mode: str, audit) -> tuple[dict | None, bool | None]:
    """(threshold, passed) from the paper's count bound at the audit's area:
    at least 1 point from area 2+alpha up, at most 1 up to 1/(3+2alpha) and
    at most 12 up to 2+alpha; (None, None) where no bound applies."""
    golden2, inv3p2a = _AREA_ALIASES["golden2"], _AREA_ALIASES["inv3p2a"]
    if mode == "min":
        if audit.area >= golden2:
            return {"area_at_least": golden2, "min_count": 1}, audit.min_count >= 1
    else:
        for limit, most in ((inv3p2a, 1), (golden2, 12)):
            if audit.area <= limit:
                return {"area_at_most": limit, "max_count": most}, audit.max_count <= most
    return None, None


def _cmd_lattice_audit(args) -> tuple[dict, int]:
    fn = audit_min_count if args.mode == "min" else audit_max_count
    audit = fn(args.area, args.trials, seed=args.seed,
               aspect_range=args.aspect, center_range=args.window)
    threshold, passed = _audit_verdict(args.mode, audit)
    return {
        **vars(audit),
        # exact p/q edges, which lattice count reads back as the same rectangle
        **{key: ["%d/%d" % e.as_integer_ratio() for e in getattr(audit, key).edges()]
           for key in ("witness_min", "witness_max")},
        "histogram": {str(k): v for k, v in audit.histogram.items()},
        "threshold": threshold,
        "passed": passed,
    }, 0


def _cmd_cover_audit(args) -> tuple[dict, int]:
    audit = audit_cover(args.delta, beta=args.beta, k_range=args.k, l_range=args.l)
    # the window [1, 12] holds at the default beta(delta) alone
    at_default = audit.beta == beta_for_delta(audit.delta)
    return {
        **vars(audit),
        "histogram": {str(k): v for k, v in audit.histogram.items()},
        "empty_cell_total": audit.histogram.get(0, 0),
        "passed": audit.min_count >= 1 and audit.max_count <= 12 if at_default else None,
    }, 0


def _cmd_wavelet_check(args) -> tuple[dict, int]:
    if args.family == "cauchy":
        try:
            w = cauchy_wavelet(args.order, normalize=False)
        except ValueError as exc:
            if args.order >= 6:  # past the order rule: no finite admissibility constant
                raise
            return {
                "family": args.family,
                "order": args.order,
                "constructible": False,
                "reason": str(exc),
                "passed": False,
            }, 0
    else:
        w = gaussian_bump_wavelet(args.center, args.width)
    normalized = normalize_tight(w)
    c_psi = admissibility_constant(normalized)
    rep = decay_condition_report(normalized, threshold=args.threshold)
    return {
        "family": args.family,
        "constructible": True,
        "admissibility_constant": c_psi,
        "conditions": [vars(c) for c in rep.conditions],  # name, tail sups, threshold, passed
        "l2_weighted": rep.l2_weighted,
        "l2_passed": rep.l2_passed,
        "passed": rep.all_passed and abs(c_psi - 1.0) < 1e-6,
    }, 0


@functools.cache
def _frame_wavelet():
    """``cauchy_wavelet(6.0)``, built once, with the peak ``guard_band`` reads."""
    return cauchy_wavelet(6.0)


def _frame_setup(args):
    duration = args.duration if args.duration is not None else float(args.n)
    # 2.0**octaves overflows from 1024 on
    if not (duration > 0 and args.smax > 0 and 0 < args.octaves < 1024):
        raise UsageError("--duration, --smax and --octaves must be positive, "
                         "--octaves below 1024")
    model = SignalModel.zeros(args.n, duration)
    region = Rect(0.0, duration, args.smax / 2.0**args.octaves, args.smax)
    w = _frame_wavelet()
    band = guard_band(w, region, model, guard_octaves=args.guard)
    return w, model, region, band


def _cmd_frame_estimate(args) -> tuple[dict, int]:
    w, model, region, band = _frame_setup(args)
    if args.scheme == "golden":
        sset = golden_sample_set(args.delta, region, beta=args.beta)
    else:
        sset = dyadic_sample_set(args.a, args.b, region)
    row = bounds_row(sset, w, model, band)
    return {
        "scheme": args.scheme,
        "provenance": dict(sset.provenance),
        "band": list(band),
        "band_dim": band[1] - band[0] + 1,
        **row,
    }, 0 if row["converged"] else 2


def _cmd_frame_compare(args) -> tuple[dict, int]:
    w, model, region, band = _frame_setup(args)
    rows = compare_schemes(args.deltas, w, model, region, band)
    return {"band": list(band), "rows": rows}, 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        path = _config_path(argv)
        args = parser.parse_args(argv) if path is None else _with_config(parser, argv, path)
        _settle_choices(args)
        handlers = {
            ("lattice", "count"): _cmd_lattice_count,
            ("lattice", "audit"): _cmd_lattice_audit,
            ("cover", "audit"): _cmd_cover_audit,
            ("wavelet", "check"): _cmd_wavelet_check,
            ("frame", "estimate"): _cmd_frame_estimate,
            ("frame", "compare"): _cmd_frame_compare,
        }
        result, status = handlers[(args.command, args.subcommand)](args)
        if getattr(args, "format", "json") == "csv":  # frame compare only
            text = comparison_to_csv(result["rows"])
        else:
            report = _sanitize({
                "schema_version": SCHEMA_VERSION,
                "command": f"{args.command} {args.subcommand}",
                "config": _resolved_config(args),
                "result": result,
            })
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        _emit(args.output, text)
    # first: LinAlgError is a ValueError, but a failed solve is numerical
    except (EnumerationCapError, FloatingPointError, LinAlgError, MemoryError) as exc:
        print(f"numerical error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (UsageError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    return status


def _sanitize(obj):
    """JSON-safe copy: infinities, NaN and Fractions (exact flag values)
    become strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    # type, not isinstance: Fraction's ABC check would cost ~0.2 us a value
    if isinstance(obj, float) and not math.isfinite(obj) or type(obj) is Fraction:
        return str(obj)
    return obj


if __name__ == "__main__":
    sys.exit(main())
