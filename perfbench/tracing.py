"""In-memory span tracing of bbpkit's layers, from outside the library.

`Tracer.install` replaces each public function named in `TARGETS` by a
wrapper, in every loaded bbpkit module that holds a reference to it (so
`bbpkit.extractor.powmod` and `bbpkit.cli.extract` are wrapped as well as
the defining modules).  A wrapper records one span per call: name, start,
end, parent span, operation id, and a few counts computed from the call's
arguments and result.  Consecutive leaf calls of one function under the same
parent fold into a single span with a call count, which keeps the
millions of `powmod` calls of a deep extraction in a handful of spans.

Each span has two intervals: the inner one times the wrapped call alone, the
outer one also covers the wrapper's own bookkeeping (span records, count
hooks, folding).  `calibrate` measures, on a wrapped no-op, the small per-call
cost that neither interval sees (`eps`, the clock reads inside the inner
interval, and `r_out`, the call into the wrapper outside the outer one).

`summarize` derives the per-layer metrics from the spans and that
calibration: calls, inclusive seconds (`s`, outermost calls only, so
recursion is not counted twice), self seconds (`self_s`, minus each child
span's outer interval and residual) and the summed counts.  Both `s` and
`self_s` leave out the tracing overhead of the span and its descendants; the
overhead is reported on its own.
"""
from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from collections import defaultdict

# layer -> public functions wrapped in a traced run
TARGETS = {
    "bigmath": ("powmod",),
    "extractor": ("extract", "to_extractable"),
    "pformula": ("evaluate", "stretch", "combine"),
    "generator": ("generate",),
    "reference": ("bernoulli", "hurwitz_zeta", "alt_sum", "constant", "const_value",
                  "li_point_value"),
    "catalog": ("default_catalog", "verify", "evaluate_expr", "derive_bbp"),
    "relations": ("pslq",),
    "cli": ("main",),
}

# (name, unit) of every per-layer metric, in report order; BENCHMARK.json lists the same
METRICS = [
    ("bigmath.powmod.calls", "count"),
    ("bigmath.powmod.s", "s"),
    ("bigmath.powmod.small_modulus_calls", "count"),
    ("extractor.extract.calls", "count"),
    ("extractor.extract.self_s", "s"),
    ("extractor.extract.confidence_failures", "count"),
    ("extractor.to_extractable.s", "s"),
    ("extractor.to_extractable.out_coeffs", "count"),
    ("pformula.evaluate.calls", "count"),
    ("pformula.evaluate.s", "s"),
    ("pformula.evaluate.self_s", "s"),
    ("pformula.evaluate.work_bits", "bits"),
    ("pformula.evaluate.coeff_len", "count"),
    ("pformula.evaluate.cache_hits", "count"),
    ("pformula.evaluate.cache_misses", "count"),
    ("pformula.stretch.s", "s"),
    ("pformula.stretch.out_coeffs", "count"),
    ("pformula.combine.s", "s"),
    ("generator.generate.calls", "count"),
    ("generator.generate.s", "s"),
    ("reference.bernoulli.calls", "count"),
    ("reference.bernoulli.s", "s"),
    ("reference.hurwitz_zeta.calls", "count"),
    ("reference.hurwitz_zeta.s", "s"),
    ("reference.alt_sum.calls", "count"),
    ("reference.alt_sum.s", "s"),
    ("reference.constant.calls", "count"),
    ("reference.constant.s", "s"),
    ("reference.const_value.s", "s"),
    ("reference.li_point_value.calls", "count"),
    ("reference.li_point_value.s", "s"),
    ("reference.li_point_value.cache_hits", "count"),
    ("reference.li_point_value.cache_misses", "count"),
    ("catalog.default_catalog.s", "s"),
    ("catalog.verify.calls", "count"),
    ("catalog.verify.s", "s"),
    ("catalog.evaluate_expr.s", "s"),
    ("catalog.derive_bbp.s", "s"),
    ("relations.pslq.calls", "count"),
    ("relations.pslq.s", "s"),
    ("relations.pslq.iterations", "count"),
    ("relations.pslq.found_ratio", "ratio"),
    ("cli.main.calls", "count"),
    ("cli.main.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.top_self_share", "ratio"),
]

_SMALL_MODULUS = 1 << 63
CALIBRATION_CALLS = 50_000  # calls per timed loop in Tracer.calibrate
CALIBRATION_REPEATS = 5


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cache_delta(cached):
    """Hooks reporting the hits and misses one call adds to an lru_cache."""
    def before(args, kwargs):
        return cached.cache_info()

    def after(pre, args, kwargs, result, exc):
        post = cached.cache_info()
        return {"cache_hits": post.hits - pre.hits, "cache_misses": post.misses - pre.misses}
    return before, after


def _after_only(fn):
    return None, lambda pre, args, kwargs, result, exc: fn(args, kwargs, result, exc)


def _hooks(name, orig):
    """(before, after) count hooks for one wrapped function, or None."""
    if name == "bigmath.powmod":
        return _after_only(lambda a, k, r, e: {
            "small_modulus_calls": int(_arg(a, k, 2, "modulus") ** 2 < _SMALL_MODULUS)})
    if name == "extractor.extract":
        from bbpkit.extractor import ConfidenceError
        return _after_only(lambda a, k, r, e: {
            "confidence_failures": int(isinstance(e, ConfidenceError))})
    if name in ("extractor.to_extractable", "pformula.stretch"):
        return _after_only(lambda a, k, r, e: {"out_coeffs": len(r.coeffs) if e is None else 0})
    if name == "pformula.evaluate":
        before, after = _cache_delta(orig)

        def after_eval(pre, args, kwargs, result, exc):
            stats = after(pre, args, kwargs, result, exc)
            stats["work_bits"] = _arg(args, kwargs, 1, "prec_bits")
            stats["coeff_len"] = len(_arg(args, kwargs, 0, "p").coeffs)
            return stats
        return before, after_eval
    if name == "reference.li_point_value":
        return _cache_delta(orig)
    if name == "relations.pslq":
        return _after_only(lambda a, k, r, e: {} if e is not None else {
            "iterations": r.iterations, "found": int(r.status == "found")})
    return None


class Tracer:
    """Span recorder.  Set `op` to the current operation id; None pauses recording."""

    def __init__(self):
        # span: [name, start, end, parent, op, calls, inner_s, nested, counts, outer_s]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.depth: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self.calibration: dict[str, float] = {"eps": 0.0, "r_out": 0.0}

    def install(self) -> None:
        for layer, names in TARGETS.items():
            module = sys.modules[f"bbpkit.{layer}"]
            for fname in names:
                orig = getattr(module, fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, orig, _hooks(name, orig))
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name == "bbpkit" or mod_name.startswith("bbpkit."):
                        for attr, value in list(vars(mod).items()):
                            if value is orig:
                                setattr(mod, attr, wrapper)

    def _wrap(self, name, fn, hooks):
        before, after = hooks or (None, None)
        spans, stack, depth, clock = self.spans, self.stack, self.depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            t_in = clock()
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = [name, 0.0, 0.0, parent, op, 1, 0.0, depth[name] > 0, None, 0.0]
            spans.append(span)
            stack.append(idx)
            depth[name] += 1
            pre = before(args, kwargs) if before else None
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                span[1], span[2], span[6] = t0, t1, t1 - t0
                if after:
                    span[8] = after(pre, args, kwargs, result, exc)
                if idx == len(spans) - 1 and idx > 0:  # a leaf: fold into a sibling leaf
                    prev = spans[idx - 1]
                    if prev[0] == name and prev[3] == parent and prev[4] == op:
                        prev[2] = t1
                        prev[5] += 1
                        prev[6] += span[6]
                        if span[8]:
                            counts = prev[8]
                            for key, value in span[8].items():
                                counts[key] = counts.get(key, 0) + value
                        spans.pop()
                        span = prev
                span[9] += clock() - t_in
        return wrapper

    def calibrate(self) -> None:
        """Set `calibration` from timed loops of a plain and a wrapped no-op.

        Per call, a wrapper adds (traced - plain) loop time; of that, the
        spans show outer - inner, `eps` lies inside the inner interval (so
        inner - eps is the call's own time) and `r_out` lies outside the outer
        one.  Medians over CALIBRATION_REPEATS loops."""
        n = CALIBRATION_CALLS
        clock, calls = time.perf_counter, range(n)
        eps, r_out = [], []
        for _ in range(CALIBRATION_REPEATS):
            probe = Tracer()
            wrapped = probe._wrap("calibrate", _noop, None)
            probe.op = "calibrate"
            t = clock()
            for _ in calls:
                pass
            loop = clock() - t
            t = clock()
            for _ in calls:
                _noop(1, 2, 3)
            plain = clock() - t
            t = clock()
            for _ in calls:
                wrapped(1, 2, 3)
            traced = clock() - t
            (span,) = probe.spans
            inner, outer = span[6], span[9]
            eps.append((inner - (plain - loop)) / n)
            r_out.append((traced - plain - (outer - inner)) / n - eps[-1])
        self.calibration = {"eps": statistics.median(eps), "r_out": statistics.median(r_out)}

    def dump(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "op", "calls", "s", "nested", "counts", "outer")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"calibration": self.calibration}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _noop(a, b, c):
    return None


def load_spans(path: str) -> tuple[dict[str, float], list[dict]]:
    """(calibration, spans) as written by `Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        calibration = json.loads(fh.readline())["calibration"]
        return calibration, [json.loads(line) for line in fh]


def summarize(spans: list[dict], calibration: dict[str, float]) -> tuple[dict[str, dict], float]:
    """(per-function calls, s, self_s and summed counts; tracing overhead in s),
    derived from spans.  Spans are in start order, so a parent precedes its
    children."""
    eps, r_out = calibration["eps"], calibration["r_out"]
    # tracing cost of each span's own wrapper calls, outside their call's own time
    own = [span["outer"] - span["s"] + span["calls"] * (r_out + eps) for span in spans]
    below = [0.0] * len(spans)  # tracing cost of the span's descendants
    children = [0.0] * len(spans)  # what the span's child calls cost it, tracing included
    for i in reversed(range(len(spans))):
        parent = spans[i]["parent"]
        if parent >= 0:
            below[parent] += own[i] + below[i]
            children[parent] += spans[i]["outer"] + spans[i]["calls"] * r_out
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for i, span in enumerate(spans):
        fn = out[span["name"]]
        inner = span["s"] - span["calls"] * eps
        fn["calls"] += span["calls"]
        fn["self_s"] += inner - children[i]
        if not span["nested"]:
            fn["s"] += inner - below[i]
        for key, value in (span["counts"] or {}).items():
            fn[key] += value
    return out, sum(own)


def layer_metrics(per_fn: dict[str, dict]) -> dict[str, float]:
    """Every METRICS value except the trace.* ones; 0 where a layer was not called."""
    values = {}
    for name, _ in METRICS:
        fn, _, stat = name.rpartition(".")
        if fn == "trace":
            continue
        stats = per_fn.get(fn, {})
        if stat == "found_ratio":
            calls = stats.get("calls", 0)
            values[name] = stats.get("found", 0) / calls if calls else 0.0
        else:
            values[name] = stats.get(stat, 0)
    return values
