"""Per-layer trace of the program, recorded from the benchmark's side.

`Tracer` wraps the public functions of each mouldcalc module at every
place they are bound (a module that did `from .series import ps_mul` holds
its own reference, so `mouldcalc.moulds.ps_mul` is patched as well as
`mouldcalc.series.ps_mul`), plus the methods `Mould.value` and
`SaddleNodeField.letter_series`.  The arithmetic methods of `CQ` are
wrapped for counts only: a span per scalar operation would swamp the trace.

Spans are aggregated per (parent, function), because `ps_mul` runs
10^5-10^6 times per pass.  A span's self time is its duration minus the
time its child spans cover; the wrappers' own bookkeeping is charged to
neither, so it shows only in `trace.overhead_ratio`.  The tracer is a
context manager: entering installs the wrappers, leaving restores every
original, so the benchmark's own checks run untraced.

Tiny helpers called once per word or per sort key (`weight`, `beta`,
`word_key`, `check_word`) are not wrapped: a span would cost more than
the call.
"""

from __future__ import annotations

import os
import sys
from importlib import import_module
from time import perf_counter

# import_module, because the package attribute `mouldcalc.borel` is the
# function of that name, not the module.
(borel, cache, cli, moulds, normalisation, saddlenode, scalars, series,
 words) = (import_module(f"mouldcalc.{m}") for m in (
     "borel", "cache", "cli", "moulds", "normalisation", "saddlenode",
     "scalars", "series", "words"))

# (module, attribute path) of every traced callable, span name
# "<module>.<function>".
TRACED = (
    (series, "ps_mul"), (series, "solve_euler_shifted"),
    (series, "euler_derivation"), (series, "to_z_coeffs"),
    (saddlenode, "load_field_file"), (saddlenode, "extract_letters"),
    (saddlenode, "SaddleNodeField.letter_series"),
    (words, "contributing_words"), (words, "shuffles"),
    (moulds, "Mould.value"), (moulds, "solve_V"), (moulds, "mould_mul"),
    (moulds, "check_symmetral"), (moulds, "check_alternal"),
    (moulds, "residual_mould_equation"), (moulds, "symmetral_inverse"),
    (moulds, "j_a_mould"),
    (normalisation, "phi_component"), (normalisation, "psi_component"),
    (normalisation, "oracle_phi"),
    (borel, "borel_phi_n"), (borel, "borel_V"), (borel, "conv"),
    (borel, "divide_by_zeta_minus"), (borel, "borel_letter"),
    (borel, "borel"), (borel, "eval_partial_sum"),
    (cache, "save_mould_cache"), (cache, "load_mould_cache"),
    (cache, "field_hash"),
    (cli, "main"),
)

# CQ method -> index into Tracer.ops (additions, multiplications,
# divisions).  __rtruediv__ delegates to __truediv__, so it is not wrapped.
CQ_OPS = {"__add__": 0, "__radd__": 0, "__sub__": 0, "__rsub__": 0,
          "__mul__": 1, "__rmul__": 1, "__truediv__": 2}

# Callers whose Mould.value / borel_V results are the words' values in a
# component sum (for words.nonzero_ratio).
COMPONENT_SPANS = ("normalisation.phi_component",
                   "normalisation.psi_component", "borel.borel_phi_n")

# Per-layer metrics in output order, with units.
PER_LAYER = (
    ("scalars.add_ops", "count"), ("scalars.mul_ops", "count"),
    ("scalars.div_ops", "count"),
    ("series.ps_mul.calls", "count"), ("series.ps_mul.self_s", "s"),
    ("series.ps_mul.useful_ratio", "ratio"),
    ("series.solve_euler_shifted.calls", "count"),
    ("series.solve_euler_shifted.self_s", "s"),
    ("saddlenode.letter_series.calls", "count"),
    ("saddlenode.letter_series.self_s", "s"),
    ("saddlenode.load_field_file.self_s", "s"),
    ("saddlenode.extract_letters.self_s", "s"),
    ("words.contributing_words.calls", "count"),
    ("words.contributing_words.yielded", "count"),
    ("words.contributing_words.self_s", "s"),
    ("words.nonzero_ratio", "ratio"), ("words.shuffles.self_s", "s"),
    ("moulds.value.calls", "count"), ("moulds.value.self_s", "s"),
    ("moulds.solves", "count"), ("moulds.memo_hit_ratio", "ratio"),
    ("moulds.memo_entries", "count"), ("moulds.mould_mul.self_s", "s"),
    ("moulds.check_symmetral.self_s", "s"),
    ("moulds.residual_mould_equation.self_s", "s"),
    ("normalisation.phi_component.self_s", "s"),
    ("normalisation.psi_component.self_s", "s"),
    ("normalisation.oracle_phi.self_s", "s"),
    ("normalisation.oracle_phi.iterations", "count"),
    ("borel.borel_V.calls", "count"), ("borel.borel_V.self_s", "s"),
    ("borel.conv.calls", "count"), ("borel.conv.self_s", "s"),
    ("borel.divide_by_zeta_minus.calls", "count"),
    ("borel.divide_by_zeta_minus.self_s", "s"),
    ("borel.borel_letter.calls", "count"),
    ("borel.eval_partial_sum.self_s", "s"),
    ("borel.suffix_reuse_ratio", "ratio"),
    ("cache.save_mould_cache.self_s", "s"), ("cache.bytes_written", "B"),
    ("cache.load_mould_cache.self_s", "s"),
    ("cache.entries_loaded", "count"),
    ("cli.self_s", "s"), ("cli.bytes_written", "B"),
    ("trace.overhead_ratio", "ratio"),
)


def _span_name(module, path: str) -> str:
    return f"{module.__name__.rsplit('.', 1)[-1]}.{path.rsplit('.', 1)[-1]}"


def _tree_bytes(directory) -> int:
    total = 0
    for base, _, files in os.walk(directory):
        for f in files:
            total += os.path.getsize(os.path.join(base, f))
    return total


class Tracer:
    """Aggregated spans and counters over the jobs run inside `with`."""

    def __init__(self):
        self.spans = {}  # (parent span, span) -> [calls, total_s, self_s]
        self.ops = [0, 0, 0]
        self.counts = {
            "ps_mul_pairs": 0, "ps_mul_useful": 0, "yielded": 0,
            "nonzero_words": 0, "memo_hits": 0, "memo_entries": 0,
            "oracle_iterations": 0, "borel_steps": 0,
            "borel_distinct_suffixes": 0, "cache_bytes": 0,
            "cache_entries": 0, "cli_bytes": 0,
        }
        self._stack = []  # frames [span name, time covered by children]
        self._patches = []  # (owner, attribute, original)
        self._solvers = []  # solver moulds made by the current job
        self._suffixes = set()  # borel_V suffixes of the current job
        hooks = {
            "series.ps_mul": (None, self._after_ps_mul),
            "moulds.value": (self._before_value, self._after_value),
            "moulds.solve_V": (None, self._after_solve_V),
            "moulds.mould_mul": (None, self._after_mould_mul),
            "normalisation.oracle_phi": (self._before_oracle,
                                         self._after_oracle),
            "borel.borel_V": (None, self._after_borel_V),
            "cache.save_mould_cache": (None, self._after_save),
            "cache.load_mould_cache": (None, self._after_load),
        }
        self._targets = []  # (class or None, attribute, original, wrapper)
        for module, path in TRACED:
            name = _span_name(module, path)
            owner = module
            for part in path.split(".")[:-1]:
                owner = getattr(owner, part)
            attr = path.rsplit(".", 1)[-1]
            original = getattr(owner, attr)
            if name == "words.contributing_words":
                wrapper = self._generator_span(name, original)
            else:
                wrapper = self._span(name, original, *hooks.get(name,
                                                                (None, None)))
            self._targets.append((owner if owner is not module else None,
                                  attr, original, wrapper))

    # -- install / restore ------------------------------------------------

    def __enter__(self):
        package = [m for n, m in sys.modules.items()
                   if n == "mouldcalc" or n.startswith("mouldcalc.")]
        for owner, attr, original, wrapper in self._targets:
            if owner is not None:  # a method: patch every alias in the class
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
                continue
            for module in package:  # a function: patch every import site
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for attr, index in CQ_OPS.items():
            self._patch(scalars.CQ, attr,
                        self._counter(getattr(scalars.CQ, attr), index))
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self._stack.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def job_done(self, out_dir) -> None:
        """Close the per-job counters after one job (call untraced)."""
        self.counts["memo_entries"] += sum(len(m.known_words())
                                           for m in self._solvers)
        self._solvers.clear()
        self.counts["borel_distinct_suffixes"] += len(self._suffixes)
        self._suffixes.clear()
        self.counts["cli_bytes"] += _tree_bytes(out_dir)

    # -- wrappers -----------------------------------------------------------

    def _counter(self, fn, index):
        ops = self.ops

        def counted(a, b):
            ops[index] += 1
            return fn(a, b)

        return counted

    def _record(self, parent, name, frame, dt, calls=1):
        key = (parent[0] if parent is not None else None, name)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - frame[1]
        return key[0]

    def _span(self, name, fn, before=None, after=None):
        stack = self._stack
        record = self._record

        def traced(*args, **kwargs):
            entered = perf_counter()
            parent = stack[-1] if stack else None
            token = before(args) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                parent_name = record(parent, name, frame, dt)
            if after is not None:
                after(args, kwargs, result, parent_name, token)
            if parent is not None:
                parent[1] += perf_counter() - entered
            return result

        return traced

    def _generator_span(self, name, fn):
        """Span per resumption of a generator; calls count generators."""
        stack = self._stack
        record = self._record
        counts = self.counts
        done = object()

        def traced(*args, **kwargs):
            iterator = fn(*args, **kwargs)
            calls = 1
            while True:
                entered = perf_counter()
                parent = stack[-1] if stack else None
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(iterator, done)
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    record(parent, name, frame, dt, calls)
                    calls = 0
                if parent is not None:
                    parent[1] += perf_counter() - entered
                if item is done:
                    return
                counts["yielded"] += 1
                yield item

        return traced

    # -- hooks: before(args) -> token; after(args, kwargs, result, parent,
    # token) --------------------------------------------------------------

    def _after_ps_mul(self, args, kwargs, result, parent, token):
        a, b = args
        k = min(a.order, b.order)
        below = []  # below[j] = nonzero coefficients of b at x^0..x^j
        seen = 0
        for c in b.coeffs[: k + 1]:
            if c:
                seen += 1
            below.append(seen)
        walked = useful = 0
        for i, c in enumerate(a.coeffs[: k + 1]):
            if c:
                walked += k + 1 - i
                useful += below[k - i]
        self.counts["ps_mul_pairs"] += walked
        self.counts["ps_mul_useful"] += useful

    def _before_value(self, args):
        return tuple(args[1]) in args[0]._memo

    def _after_value(self, args, kwargs, result, parent, hit):
        self.counts["memo_hits"] += hit
        if parent in COMPONENT_SPANS and not result.is_zero():
            self.counts["nonzero_words"] += 1

    def _after_solve_V(self, args, kwargs, result, parent, token):
        self._solvers.append(result)

    def _after_mould_mul(self, args, kwargs, result, parent, token):
        # The product is evaluated lazily, word by word: time its closure
        # as mould_mul too, or the span would only cover construction.
        result._fn = self._span("moulds.mould_mul", result._fn)

    def _solves_under_oracle(self):
        rec = self.spans.get(("normalisation.oracle_phi",
                              "series.solve_euler_shifted"))
        return rec[0] if rec else 0

    def _before_oracle(self, args):
        return self._solves_under_oracle()

    def _after_oracle(self, args, kwargs, result, parent, solves_before):
        # one solve per component per fixed-point sweep
        n_max = args[1] if len(args) > 1 else kwargs["n_max"]
        solves = self._solves_under_oracle() - solves_before
        self.counts["oracle_iterations"] += solves // (n_max + 1)

    def _after_borel_V(self, args, kwargs, result, parent, token):
        w = tuple(args[1])
        self.counts["borel_steps"] += len(w)
        self._suffixes.update(w[i:] for i in range(len(w)))
        if parent in COMPONENT_SPANS and not result.is_zero():
            self.counts["nonzero_words"] += 1

    def _after_save(self, args, kwargs, result, parent, token):
        self.counts["cache_bytes"] += os.path.getsize(args[0])

    def _after_load(self, args, kwargs, result, parent, token):
        self.counts["cache_entries"] += len(result)

    # -- results ----------------------------------------------------------

    def _calls(self, name, parent=...):
        return sum(r[0] for (p, n), r in self.spans.items()
                   if n == name and (parent is ... or p == parent))

    def _self_s(self, name):
        return sum(r[2] for (_, n), r in self.spans.items() if n == name)

    def metrics(self, passes: int, overhead_ratio: float) -> dict:
        """PER_LAYER name -> value, counts and times per pass."""
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "scalars.add_ops": self.ops[0], "scalars.mul_ops": self.ops[1],
            "scalars.div_ops": self.ops[2],
            "series.ps_mul.useful_ratio": ratio(c["ps_mul_useful"],
                                                c["ps_mul_pairs"]),
            "words.contributing_words.yielded": c["yielded"],
            "words.nonzero_ratio": ratio(c["nonzero_words"], c["yielded"]),
            "moulds.solves": self._calls("series.solve_euler_shifted",
                                         "moulds.value"),
            "moulds.memo_hit_ratio": ratio(c["memo_hits"],
                                           self._calls("moulds.value")),
            "moulds.memo_entries": c["memo_entries"],
            "normalisation.oracle_phi.iterations": c["oracle_iterations"],
            "borel.suffix_reuse_ratio": ratio(c["borel_distinct_suffixes"],
                                              c["borel_steps"]),
            "cache.bytes_written": c["cache_bytes"],
            "cache.entries_loaded": c["cache_entries"],
            "cli.self_s": self._self_s("cli.main"),
            "cli.bytes_written": c["cli_bytes"],
            "trace.overhead_ratio": overhead_ratio,
        }
        out = {}
        for name, unit in PER_LAYER:
            if name in values:
                value = values[name]
            elif name.endswith(".calls"):
                value = self._calls(name[: -len(".calls")])
            else:
                value = self._self_s(name[: -len(".self_s")])
            if unit != "ratio":
                value /= passes
            out[name] = value
        return out

    def span_table(self, passes: int) -> list:
        """Every aggregated span, per pass, for the trace file."""
        return [{"parent": p, "span": n, "calls": r[0] / passes,
                 "total_s": r[1] / passes, "self_s": r[2] / passes}
                for (p, n), r in sorted(self.spans.items(),
                                        key=lambda kv: (kv[0][1],
                                                        str(kv[0][0])))]
