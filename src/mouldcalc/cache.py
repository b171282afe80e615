"""Versioned cache of solver values, reloadable across runs.

The file is JSON lines: a header {"version", "field_hash", "x_order"},
then one {"word", "coeffs"} entry per memoised word (suffixes included),
each coefficient as [re_num, re_den, im_num, im_den], then a trailer
{"sha256"} holding the SHA-256 of every line before it.  The digest
catches corruption and truncation; it is not a security boundary,
since anyone who can edit the file can recompute it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import repeat
from math import gcd

from .errors import CacheError
from .moulds import Mould
from .saddlenode import BivariateSeries, field_to_json
from .series import TruncatedSeries
from .words import word_key

CACHE_VERSION = 3
CACHE_DIR_ENV = "MOULDCALC_CACHE_DIR"


def field_hash(A: BivariateSeries) -> str:
    """Stable content hash of a field (canonical JSON form)."""
    payload = json.dumps(field_to_json(A), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def default_cache_dir() -> str:
    return os.environ.get(CACHE_DIR_ENV, os.path.join(".", ".mouldcache"))


def cache_path(A: BivariateSeries, x_order: int, directory=None) -> str:
    directory = directory or default_cache_dir()
    return os.path.join(directory,
                        f"{field_hash(A)[:16]}-x{x_order}.json")


def _entry_line(word, series: TruncatedSeries) -> str:
    """The cache line of one memo entry: the bytes of
    json.dumps({"word": list(word), "coeffs": series.quads()},
    sort_keys=True, separators=(",", ":")) and a newline, formatted
    straight from the integer numerators."""
    den, re, im = series.den, series.re, series.im
    if im is None:  # every imaginary part is 0/1
        quads = [f"[{r // g},{den // g},0,1]"
                 for r, g in zip(re, map(gcd, re, repeat(den)))]
    else:
        quads = [f"[{r // g},{den // g},{i // h},{den // h}]"
                 for r, i, g, h in zip(re, im, map(gcd, re, repeat(den)),
                                       map(gcd, im, repeat(den)))]
    return (f'{{"coeffs":[{",".join(quads)}],'
            f'"word":[{",".join(map(str, word))}]}}\n')


def save_mould_cache(path, mould: Mould, fhash: str) -> None:
    """Stream the mould's memo table, words in canonical order, to a
    temporary file that then replaces `path`: a failed write leaves the
    previous file as it was."""
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    header = {"version": CACHE_VERSION, "field_hash": fhash,
              "x_order": mould.x_order}
    digest = hashlib.sha256()
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            def write(line):
                fh.write(line)
                digest.update(line.encode("utf-8"))

            write(json.dumps(header, sort_keys=True) + "\n")
            for w in sorted(mould.known_words(), key=word_key):
                write(_entry_line(w, mould._memo[w]))
            fh.write(json.dumps({"sha256": digest.hexdigest()}) + "\n")
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def load_mould_cache(path, fhash: str, x_order: int) -> dict:
    """Entries for Mould.preload, read line by line and truncated to
    x_order, which must be the header's; an entry's order is its
    coefficient count minus 1.  Each coefficient quad is read straight
    into integer numerators, and must hold four JSON integers with
    positive denominators.  Nothing is returned before the trailer's
    digest matches.  Raises CacheError on any mismatch or
    malformation."""
    digest = hashlib.sha256()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            line = fh.readline()
            digest.update(line.encode("utf-8"))
            header = json.loads(line)
            if header["version"] != CACHE_VERSION:
                raise CacheError(f"cache version {header['version']} != "
                                 f"{CACHE_VERSION}")
            if header["field_hash"] != fhash:
                raise CacheError("cache belongs to a different field")
            if header["x_order"] != x_order:
                raise CacheError(
                    f"cache x_order {header['x_order']} != {x_order}")
            entries = {}
            for line in fh:
                e = json.loads(line)
                if "sha256" in e:
                    if e["sha256"] != digest.hexdigest() or \
                            next(fh, None) is not None:
                        raise CacheError(f"cache file {path} fails its "
                                         "digest check")
                    return entries
                digest.update(line.encode("utf-8"))
                word = tuple(map(int, e["word"]))
                quads = e["coeffs"]
                if len(quads) - 1 < x_order:
                    raise CacheError(f"cache entry {list(word)} has order "
                                     f"{len(quads) - 1} < {x_order}")
                entries[word] = TruncatedSeries.from_quads(quads, x_order)
            raise CacheError(f"cache file {path} has no digest trailer")
    except CacheError:
        raise
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheError(f"unreadable cache file {path}: {exc}") from exc
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CacheError(f"malformed cache file {path}: {exc}") from exc


def describe_cache(path) -> dict:
    """Header fields and entry count of a cache file, without checking
    its digest.  Raises OSError, or ValueError on a malformed header."""
    with open(path, "r", encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        if not isinstance(header, dict):
            raise CacheError("cache header is not a JSON object")
        entries = sum(1 for line in fh if not line.startswith('{"sha256"'))
    return {"version": header.get("version"),
            "field_hash": header.get("field_hash"),
            "x_order": header.get("x_order"),
            "entries": entries}
