"""The three workloads: the command line each job runs, and its files.

normalize-mix  `normalize` on a cold cache: the write path (solver memo
               filled from empty, words -> moulds -> series -> scalars,
               then the cache and the tables are written).
check-warm     `check --suite all` on a cache filled during set-up and
               restored before every job: the read path of the same
               layers (cache load, memo hits, shuffles, mould_mul,
               check_symmetral, oracle_phi).
borel-mix      `borel` with a partial-sum evaluation: bypasses the solver
               memo and the cache; only a `borel` change moves it.
"""

from __future__ import annotations

import os

WORKLOADS = ("normalize-mix", "check-warm", "borel-mix")

X_ORDER = 6
N_MAX = 3
ZETA_ORDER = 3
EVAL_POINT = "1/2"


def field_path(directory, index: int) -> str:
    return os.path.join(directory, f"field-{index:02d}.json")


def cache_path(directory, index: int) -> str:
    return os.path.join(directory, f"cache-{index:02d}.json")


def normalize_argv(field, out_dir, cache) -> list:
    return ["normalize", "--field", field, "--x-order", str(X_ORDER),
            "--n-max", str(N_MAX), "--threads", "1",
            "--output-dir", out_dir, "--cache", cache]


def job_argv(workload: str, field, out_dir, cache) -> list:
    if workload == "normalize-mix":
        return normalize_argv(field, out_dir, cache)
    if workload == "check-warm":
        return ["check", "--suite", "all", "--field", field,
                "--x-order", str(X_ORDER), "--n-max", str(N_MAX),
                "--threads", "1", "--output-dir", out_dir, "--cache", cache]
    if workload == "borel-mix":
        return ["borel", "--field", field, "--zeta-order", str(ZETA_ORDER),
                "--n-max", str(N_MAX), "--eval", EVAL_POINT,
                "--threads", "1", "--output-dir", out_dir]
    raise ValueError(f"unknown workload {workload!r}")
