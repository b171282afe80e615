"""Command-line front end.

Subcommands: normalize, check, borel, cache.  Exit codes: 0 success,
1 a verification residual is nonzero, 2 field validation failure,
3 I/O or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import cache as cachemod
from .borel import borel_components, borel_mould, eval_partial_sum
from .errors import CacheError, FieldValidationError, MouldCalcError
from .moulds import (check_symmetral, mould_mul, residual_mould_equation,
                     solve_V, symmetral_inverse, unit_mould, j_a_mould,
                     check_alternal)
from .normalisation import component_sums, oracle_phi
from .saddlenode import extract_letters, load_field_file
from .words import word_key

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_VALIDATION = 2
EXIT_IO = 3

SUITES = ("mould-eq", "symmetral", "alternal", "inverse", "valuation",
          "oracle")


@dataclass
class RunConfig:
    field_path: str
    x_order: int = 10
    n_max: int = 3
    zeta_order: int = 9
    cache_path: str = ""
    rebuild_cache: bool = False
    output_dir: str = "."
    output_format: str = "json"
    suites: tuple = SUITES
    eval_points: tuple = ()
    word_warn: int = 200000

    def __post_init__(self):
        if self.x_order < 0 or self.zeta_order < 0 or self.n_max < 0:
            raise ValueError("orders and n_max must be nonnegative")


def _coeff_str(c) -> dict:
    return {"re": str(c.re), "im": str(c.im)}


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, depth: int) -> str:
    """value as json.dumps(value, sort_keys=True, indent=1) renders it
    `depth` levels deep, with the C string escaper instead of the
    pure-Python encoder that indenting selects."""
    if isinstance(value, str):
        return _encode_str(value)
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, dict):
        items = [_encode_str(k) + ": " + _json_text(v, depth + 1)
                 for k, v in sorted(value.items())]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        items = [_json_text(v, depth + 1) for v in value]
        brackets = "[]"
    else:  # None, bools and floats; a TypeError for anything else
        return json.dumps(value)
    if not items:
        return brackets
    inner = "\n" + " " * (depth + 1)
    return (brackets[0] + inner + ("," + inner).join(items) + "\n"
            + " " * depth + brackets[1])


def _write_json(path, doc: dict):
    """The bytes of json.dump(doc, fh, sort_keys=True, indent=1) and a
    newline, written one top-level key and one list item at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        opening = "{\n "
        for key, value in sorted(doc.items()):
            fh.write(opening + _encode_str(key) + ": ")
            opening = ",\n "
            if isinstance(value, list) and value:
                item_opening = "[\n  "
                for item in value:
                    fh.write(item_opening + _json_text(item, 2))
                    item_opening = ",\n  "
                fh.write("\n ]")
            else:
                fh.write(_json_text(value, 1))
        fh.write("\n}\n" if doc else "{}\n")


def _write_component_csv(path, n, series):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("n,k,re,im\n")
        for k, c in enumerate(series.coeffs):
            fh.write(f"{n},{k},{c.re},{c.im}\n")


def _load_validated(config):
    """(bivariate, field) or exits with 2/3."""
    try:
        A = load_field_file(config.field_path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: cannot read field file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_IO)
    try:
        f = extract_letters(A)
    except FieldValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_VALIDATION)
    return A, f


def _solver_with_cache(config, A, f):
    """(mould, fhash, loaded, save): the solver preloaded from the cache
    file, the count of words loaded from a valid file (else None), and
    a function that writes the file unless it is valid and complete."""
    mould = solve_V(f, config.x_order)
    fhash = cachemod.field_hash(A)
    path = config.cache_path or cachemod.cache_path(A, config.x_order)
    loaded = None
    if os.path.exists(path):
        try:
            mould.preload(cachemod.load_mould_cache(path, fhash,
                                                    config.x_order))
            loaded = len(mould.known_words())
        except CacheError as exc:
            if not config.rebuild_cache:
                print(f"error: {exc} (use --rebuild-cache)",
                      file=sys.stderr)
                raise SystemExit(EXIT_IO)

    def save():
        # memo entries are never replaced, so an unchanged count means
        # an unchanged memo
        if loaded is None or len(mould.known_words()) > loaded:
            cachemod.save_mould_cache(path, mould, fhash)

    return mould, fhash, loaded, save


def cmd_normalize(config: RunConfig) -> int:
    A, f = _load_validated(config)
    mould, _, _, save_cache = _solver_with_cache(config, A, f)
    os.makedirs(config.output_dir, exist_ok=True)
    # phi_n and psi_n from one sweep: psi's words are phi's reversed
    sums = component_sums(f, range(config.n_max + 1), config.x_order,
                          mould, psi=True)
    for i, kind in enumerate(("phi", "psi")):
        for n in range(config.n_max + 1):
            series, count = sums[n][i], sums[n][2]
            if count > config.word_warn:
                print(f"warning: {kind}_{n} summed over {count} words "
                      f"(threshold {config.word_warn})", file=sys.stderr)
            base = os.path.join(config.output_dir, f"{kind}_{n}")
            if config.output_format == "csv":
                _write_component_csv(base + ".csv", n, series)
            else:
                _write_json(base + ".json", {
                    "n": n, "x_order": config.x_order,
                    "coeffs": [_coeff_str(c) for c in series.coeffs],
                    "word_count": count,
                })
    save_cache()
    return EXIT_OK


def _iter_words(support, max_len):
    """All words over the support up to the given length, canonical order."""
    out = [()]
    level = [()]
    for _ in range(max_len):
        level = [w + (s,) for w in level for s in support]
        out.extend(level)
    return sorted(out, key=word_key)


def cmd_check(config: RunConfig) -> int:
    A, f = _load_validated(config)
    mould, fhash, loaded, save_cache = _solver_with_cache(config, A, f)
    support = f.support
    results = []
    failed = False

    def record(suite, identity, words, residual_zero, detail=""):
        nonlocal failed
        status = "ok" if residual_zero else "FAIL"
        if not residual_zero:
            failed = True
        results.append({"suite": suite, "identity": identity,
                        "words": words, "status": status,
                        "detail": detail})

    words3 = [w for w in _iter_words(support, 4) if w]
    pairs = [(w1, w2) for w1 in words3 for w2 in words3
             if len(w1) + len(w2) <= 4]

    if "mould-eq" in config.suites:
        for w in words3:
            r = residual_mould_equation(mould, f, w)
            record("mould-eq", "x^2 d_x V + nabla V = J_a x V",
                   [list(w)], r.is_zero())
    if "symmetral" in config.suites:
        for w1, w2 in pairs:
            r = check_symmetral(mould, w1, w2)
            record("symmetral", "shuffle identity",
                   [list(w1), list(w2)], r.is_zero())
    if "alternal" in config.suites:
        ja = j_a_mould(f, config.x_order)
        for w1, w2 in pairs:
            r = check_alternal(ja, w1, w2)
            record("alternal", "vanishing shuffle sum (J_a)",
                   [list(w1), list(w2)], r.is_zero())
    if "inverse" in config.suites:
        prod = mould_mul(mould, symmetral_inverse(mould))
        unit = unit_mould(config.x_order)
        for w in _iter_words(support, 4):
            r = prod.value(w) - unit.value(w)
            record("inverse", "V x symmetral_inverse(V) = Unit",
                   [list(w)], r.is_zero())
    if "valuation" in config.suites:
        for w in words3:
            v = mould.value(w).valuation()
            bound = (len(w) + 1) // 2
            ok = v is None or v >= bound
            record("valuation", "val(V^w) >= ceil(r/2)", [list(w)], ok)
    if "oracle" in config.suites:
        oracle = oracle_phi(f, config.n_max, config.x_order)
        sums = component_sums(f, range(config.n_max + 1), config.x_order,
                              mould)
        for n in range(config.n_max + 1):
            ok = sums[n][0] == oracle.component(n)
            record("oracle", "mould expansion equals PDE solution",
                   [n], ok)

    os.makedirs(config.output_dir, exist_ok=True)
    _write_json(os.path.join(config.output_dir, "check_report.json"), {
        "field_hash": fhash, "x_order": config.x_order,
        "results": results,
    })
    if loaded is None:  # check never rewrites a valid cache
        save_cache()
    if failed:
        for r in results:
            if r["status"] == "FAIL":
                print(f"FAIL {r['suite']}: {r['identity']} on {r['words']}",
                      file=sys.stderr)
        return EXIT_IDENTITY
    return EXIT_OK


def cmd_borel(config: RunConfig) -> int:
    A, f = _load_validated(config)
    os.makedirs(config.output_dir, exist_ok=True)
    mould = borel_mould(f, config.zeta_order)
    polys = borel_components(f, range(config.n_max + 1), config.zeta_order,
                             mould)
    for n, poly in polys.items():
        doc = {"n": n, "zeta_order": config.zeta_order,
               "coeffs": [_coeff_str(c) for c in poly.coeffs]}
        evaluations = []
        for point in config.eval_points:
            value, tail = eval_partial_sum(poly, point)
            if tail is None and abs(point) >= 1:
                print(f"warning: |zeta| = {abs(point)} >= 1, "
                      "tail bound omitted", file=sys.stderr)
            evaluations.append({
                "zeta": str(point),
                "partial_sum": _coeff_str(value),
                "tail_bound": str(tail) if tail is not None else None,
            })
        if evaluations:
            doc["evaluations"] = evaluations
        base = os.path.join(config.output_dir, f"phihat_{n}")
        if config.output_format == "csv":
            _write_component_csv(base + ".csv", n, poly)
        else:
            _write_json(base + ".json", doc)
    return EXIT_OK


def cmd_cache(args) -> int:
    path = args.cache
    if args.action == "inspect":
        try:
            info = cachemod.describe_cache(path)
        except (OSError, ValueError) as exc:
            print(f"error: cannot inspect cache: {exc}", file=sys.stderr)
            return EXIT_IO
        print(json.dumps(info, indent=1, sort_keys=True))
        return EXIT_OK
    if args.action == "clear":
        try:
            os.remove(path)
        except FileNotFoundError:
            pass
        except OSError as exc:
            print(f"error: cannot remove cache: {exc}", file=sys.stderr)
            return EXIT_IO
        return EXIT_OK
    raise AssertionError(f"unknown cache action {args.action}")


def _parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mouldcalc",
        description="Exact normalisation of saddle-node fields by mould "
                    "expansions, with verification and Borel transforms.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--field", required=True, help="field JSON file")
        sp.add_argument("--x-order", type=int, default=10)
        sp.add_argument("--n-max", type=int, default=3)
        sp.add_argument("--zeta-order", type=int, default=9)
        sp.add_argument("--format", choices=("json", "csv"),
                        default="json")
        sp.add_argument("--output-dir", default=".")
        sp.add_argument("--cache", default="",
                        help="mould cache file (default: per-field file "
                             f"under ${cachemod.CACHE_DIR_ENV} or "
                             "./.mouldcache)")
        sp.add_argument("--rebuild-cache", action="store_true")
        sp.add_argument("--threads", type=int, default=1,
                        help="ignored; accepted for compatibility")
        sp.add_argument("--word-warn", type=int, default=200000)

    sp = sub.add_parser("normalize", help="write phi_n / psi_n tables")
    common(sp)

    sp = sub.add_parser("check", help="run verification suites")
    common(sp)
    sp.add_argument("--suite", default="all",
                    help="comma-separated subset of "
                         f"{','.join(SUITES)} or 'all'")

    sp = sub.add_parser("borel", help="write Borel-transform tables")
    common(sp)
    sp.add_argument("--eval", action="append", type=_parse_rational,
                    default=[], metavar="P/Q",
                    help="evaluate partial sums at a rational point "
                         "(repeatable)")

    sp = sub.add_parser("cache", help="inspect or clear a cache file")
    sp.add_argument("action", choices=("inspect", "clear"))
    sp.add_argument("--cache", required=True)
    return p


def config_from_args(args) -> RunConfig:
    suites = SUITES
    if getattr(args, "suite", None) and args.suite != "all":
        suites = tuple(s.strip() for s in args.suite.split(","))
        for s in suites:
            if s not in SUITES:
                raise ValueError(
                    f"unknown suite {s!r}; choose from {SUITES}")
    return RunConfig(
        field_path=args.field,
        x_order=args.x_order,
        n_max=args.n_max,
        zeta_order=args.zeta_order,
        cache_path=args.cache,
        rebuild_cache=args.rebuild_cache,
        output_dir=args.output_dir,
        output_format=args.format,
        suites=suites,
        eval_points=tuple(getattr(args, "eval", ())),
        word_warn=args.word_warn,
    )


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state in it, so
    in-process callers need not build it per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "cache":
        return cmd_cache(args)
    try:
        config = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        if args.command == "normalize":
            return cmd_normalize(config)
        if args.command == "check":
            return cmd_check(config)
        if args.command == "borel":
            return cmd_borel(config)
    except SystemExit as exc:
        return exc.code
    except MouldCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except AssertionError as exc:
        # an internal identity failed (valuation bound, oracle settling)
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IDENTITY
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    raise AssertionError(f"unknown command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
