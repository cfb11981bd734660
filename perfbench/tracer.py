"""Spans and counters recorded from outside the ardlab package.

`Tracer.install` replaces every public function of the layer modules with a
wrapper that records a span around the call.  Callers inside the package
bind many of these names at import time (`from .models import featurize`),
so the wrapper is rebound in every `ardlab` module that holds the original,
under whatever name it is held.  `ode.integrate` additionally wraps the
field callable it is given, so field evaluations get spans of their own.

Spans stay in memory while the run goes on and are written as JSON lines by
`Tracer.write` when it ends.  `layer_metrics` turns them into the benchmark's
per-layer metrics.  Nothing here changes what a wrapped function computes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import types
from time import perf_counter

import numpy as np

LAYERS = ("models", "distributions", "ode", "stages", "diagnostics", "storage")

BOOKKEEPING = "trace.bookkeeping"

_FNV_PRIME = np.uint64(1099511628211)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim < 2 else int(x.shape[0])


def _file_bytes(args, kwargs, pos):
    return {"bytes": os.path.getsize(_arg(args, kwargs, pos, "path"))}


class Tracer:
    """Records spans around calls into the ardlab layers of one process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # [name, start, end, parent index or None, attrs or None]
        self.spans: list = []
        self._stack: list = []
        self._row_hashes: list = []
        self._undo: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(idx)
        self.spans.append([name, perf_counter(), None, parent, None])
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn, attrs=None):
        """Span `name` around fn; `attrs(args, kwargs, out)` gives the span's
        counters after it closes."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if attrs is not None:
                tracer.spans[idx][4] = attrs(args, kwargs, out)
            return out

        return wrapper

    # -- per-function counters -----------------------------------------------

    def _featurize_attrs(self, args, kwargs, out):
        """Rows and cells of one featurize call.  Hashing its input rows
        costs time, so it runs under a bookkeeping span that no layer is
        charged for."""
        from ardlab import models

        book = self.begin(BOOKKEEPING)
        try:
            spec = _arg(args, kwargs, 0, "spec")
            z, _ = models._assemble_inputs(
                spec,
                _arg(args, kwargs, 1, "chunk"),
                _arg(args, kwargs, 2, "prefix"),
                _arg(args, kwargs, 3, "t"),
            )
            self._row_hashes.append(self._hash_rows(spec, z))
        finally:
            self.end(book)
        rows = z.shape[0]
        return {"rows": rows, "cells": rows * int(spec.m)}

    @staticmethod
    def _hash_rows(spec, z: np.ndarray) -> np.ndarray:
        """64-bit FNV-style hash of each input row, keyed by the feature bank
        (specs with equal fields realize identical features), so equal
        hashes mean the same features were computed again."""
        bank = repr((spec.m, spec.chunk_dim, spec.prefix_dim,
                     spec.frequency_scale, spec.seed)).encode()
        seed = int.from_bytes(hashlib.blake2b(bank, digest_size=8).digest(), "little")
        return Tracer._hash_matrix(np.uint64(seed), z)

    @staticmethod
    def _hash_matrix(seed, z: np.ndarray) -> np.ndarray:
        bits = np.ascontiguousarray(z, dtype=np.float64).view(np.uint64)
        h = np.full(bits.shape[0], seed, dtype=np.uint64)
        for j in range(bits.shape[1]):
            h ^= bits[:, j]
            h *= _FNV_PRIME
        return h

    def distinct_rows(self) -> int:
        if not self._row_hashes:
            return 0
        return int(np.unique(np.concatenate(self._row_hashes)).size)

    def _integrate(self, fn):
        """Wrap ode.integrate so the field callable it is given is traced."""
        field_span = self._wrap(
            "ode.field", lambda f, x, t: f(x, t),
            lambda args, kwargs, out: {"rows": _rows(args[1])},
        )
        integrate_span = self._wrap(
            "ode.integrate", fn,
            lambda args, kwargs, out: {"steps": int(_arg(args, kwargs, 4, "steps"))},
        )

        @functools.wraps(fn)
        def wrapper(field_fn, *args, **kwargs):
            return integrate_span(
                functools.partial(field_span, field_fn), *args, **kwargs
            )

        return wrapper

    def _attrs_for(self, layer: str, name: str):
        if layer == "models" and name == "featurize":
            return self._featurize_attrs
        if layer == "models" and name == "fit_ridge":
            return lambda a, k, out: {"rows": _rows(_arg(a, k, 0, "features"))}
        if layer == "distributions" and name == "condition_clean_prefix_batch":
            return lambda a, k, out: {"rows": int(out.batch)}
        if layer == "distributions" and name.startswith("sample_clean"):
            return lambda a, k, out: {"rows": _rows(out)}
        if layer == "ode" and name.startswith("make_pairs"):
            return lambda a, k, out: {"records": len(out.records)}
        if layer == "diagnostics" and name == "energy_distance":
            def pairs(a, k, out):
                na, nb = _rows(a[0]), _rows(a[1])
                return {"pairs": na * nb + na * na + nb * nb}
            return pairs
        if layer == "storage" and name.startswith("save_"):
            return lambda a, k, out: _file_bytes(a, k, 1)
        if layer == "storage" and name == "emit_report":
            return lambda a, k, out: _file_bytes(a, k, 2)
        return None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Rebind every public layer function, in every ardlab module."""
        import ardlab  # noqa: F401  (imports every layer module)

        wrappers = {}  # id of an original function -> its wrapper
        for layer in LAYERS:
            module = sys.modules[f"ardlab.{layer}"]
            for name, value in vars(module).items():
                if (name.startswith("_")
                        or not isinstance(value, types.FunctionType)
                        or value.__module__ != module.__name__):
                    continue
                if layer == "ode" and name == "integrate":
                    wrappers[id(value)] = self._integrate(value)
                else:
                    wrappers[id(value)] = self._wrap(
                        f"{layer}.{name}", value, self._attrs_for(layer, name)
                    )
        # the mixture score, the per-step oracle call of distribution
        # matching, is a method, so it is wrapped on its class
        cls = sys.modules["ardlab.distributions"].BatchedConditional
        original = cls.__dict__["score"]
        cls.score = self._wrap("distributions.BatchedConditional.score", original)
        self._undo.append((cls, "score", original))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ardlab" and not mod_name.startswith("ardlab."):
                continue
            # the originals stay alive in their modules, so ids are unique
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        """Write the spans as JSON lines: run id, id, name, start, end,
        parent and counters.  Times are seconds on the run's perf_counter."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, attrs) in enumerate(self.spans):
                fh.write(json.dumps({
                    "run": self.run_id, "id": idx, "name": name, "start": start,
                    "end": end, "parent": parent, "attrs": attrs or {},
                }, separators=(",", ":")) + "\n")


def read_spans(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


# ---------------------------------------------------------------------------
# per-layer metrics from spans
# ---------------------------------------------------------------------------

CONDITION = ("distributions.condition_clean_prefix_batch",
             "distributions.conditional_clean_dist",
             "distributions.df_conditional_dist",
             "distributions.condition_on_coordinates")
SCORE = ("distributions.BatchedConditional.score", "distributions.exact_score")
SAMPLE = ("distributions.sample_clean", "distributions.sample_clean_with_rng")
MAKE_PAIRS = ("ode.make_pairs_bi", "ode.make_pairs_causal")
TRAIN_VELOCITY = ("stages.train_ar_diffusion_tf", "stages.train_ar_diffusion_df")
STAGE_SAMPLERS = ("stages.rollout", "stages.few_step_sample",
                  "stages.few_step_sample_batch",
                  "stages.learned_conditional_endpoints")
REPORTS = ("storage.emit_report", "storage.save_loss_trace")

# (metric, unit) in the order they are reported
SPAN_METRICS = (
    ("models.featurize.calls", "count"),
    ("models.featurize.rows", "count"),
    ("models.featurize.cells", "count"),
    ("models.featurize.s", "s"),
    ("models.featurize.distinct_row_ratio", "ratio"),
    ("models.fit_ridge.calls", "count"),
    ("models.fit_ridge.rows", "count"),
    ("models.fit_ridge.s", "s"),
    ("distributions.condition.calls", "count"),
    ("distributions.condition.rows", "count"),
    ("distributions.condition.s", "s"),
    ("distributions.score.calls", "count"),
    ("distributions.score.s", "s"),
    ("distributions.sample.rows", "count"),
    ("distributions.sample.s", "s"),
    ("ode.integrate.calls", "count"),
    ("ode.integrate.steps", "count"),
    ("ode.integrate.self_s", "s"),
    ("ode.field.calls", "count"),
    ("ode.field.rows", "count"),
    ("ode.field.self_s", "s"),
    ("ode.make_pairs.records", "count"),
    ("ode.make_pairs.self_s", "s"),
    ("stages.ode_distill.self_s", "s"),
    ("stages.dmd_train.self_s", "s"),
    ("stages.train_velocity.self_s", "s"),
    ("stages.sample.self_s", "s"),
    ("diagnostics.energy_distance.calls", "count"),
    ("diagnostics.energy_distance.pairs", "count"),
    ("diagnostics.energy_distance.s", "s"),
    ("diagnostics.self_s", "s"),
    ("storage.save_dataset.bytes", "B"),
    ("storage.save_dataset.s", "s"),
    ("storage.reports.s", "s"),
    ("storage.bytes_written", "B"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
)


def layer_metrics(spans: list, traced_wall_s: float, untraced_wall_s: float,
                  distinct_rows: int) -> dict:
    """Per-layer metrics {name: value} from one traced run's spans.

    `s` is inclusive time summed over the outermost spans of a group (a
    call nested in another call of the same group is not counted twice);
    `self_s` is span time minus the time of the spans it directly caused.
    """
    names = [s["name"] for s in spans]
    parents = [s["parent"] for s in spans]
    duration = [s["end"] - s["start"] for s in spans]
    child_time = [0.0] * len(spans)
    for idx, parent in enumerate(parents):
        if parent is not None:
            child_time[parent] += duration[idx]
    self_time = [d - c for d, c in zip(duration, child_time)]

    def members(group):
        group = set(group)
        return [i for i, n in enumerate(names) if n in group]

    def outermost(group):
        group = set(group)
        out = []
        for i in members(group):
            p = parents[i]
            while p is not None and names[p] not in group:
                p = parents[p]
            if p is None:
                out.append(i)
        return out

    def attr(idxs, key):
        return sum(spans[i]["attrs"].get(key, 0) for i in idxs)

    def inclusive(idxs):
        return sum(duration[i] for i in idxs)

    def self_s(idxs):
        return sum(self_time[i] for i in idxs)

    featurize = members(("models.featurize",))
    ridge = members(("models.fit_ridge",))
    condition = outermost(CONDITION)
    score = outermost(SCORE)
    sample = outermost(SAMPLE)
    integrate = members(("ode.integrate",))
    field = members(("ode.field",))
    energy = members(("diagnostics.energy_distance",))
    save_dataset = members(("storage.save_dataset",))
    featurized_rows = attr(featurize, "rows")
    roots = [i for i, p in enumerate(parents) if p is None]
    return {
        "models.featurize.calls": len(featurize),
        "models.featurize.rows": featurized_rows,
        "models.featurize.cells": attr(featurize, "cells"),
        "models.featurize.s": inclusive(featurize),
        "models.featurize.distinct_row_ratio": (
            distinct_rows / featurized_rows if featurized_rows else 1.0
        ),
        "models.fit_ridge.calls": len(ridge),
        "models.fit_ridge.rows": attr(ridge, "rows"),
        "models.fit_ridge.s": inclusive(ridge),
        "distributions.condition.calls": len(condition),
        # the per-draw conditionals condition one prefix each
        "distributions.condition.rows": sum(
            spans[i]["attrs"].get("rows", 1) for i in condition
        ),
        "distributions.condition.s": inclusive(condition),
        "distributions.score.calls": len(score),
        "distributions.score.s": inclusive(score),
        "distributions.sample.rows": attr(sample, "rows"),
        "distributions.sample.s": inclusive(sample),
        "ode.integrate.calls": len(integrate),
        "ode.integrate.steps": attr(integrate, "steps"),
        "ode.integrate.self_s": self_s(integrate),
        "ode.field.calls": len(field),
        "ode.field.rows": attr(field, "rows"),
        "ode.field.self_s": self_s(field),
        "ode.make_pairs.records": attr(members(MAKE_PAIRS), "records"),
        "ode.make_pairs.self_s": self_s(members(MAKE_PAIRS)),
        "stages.ode_distill.self_s": self_s(members(("stages.ode_distill",))),
        "stages.dmd_train.self_s": self_s(members(("stages.dmd_train",))),
        "stages.train_velocity.self_s": self_s(members(TRAIN_VELOCITY)),
        "stages.sample.self_s": self_s(members(STAGE_SAMPLERS)),
        "diagnostics.energy_distance.calls": len(energy),
        "diagnostics.energy_distance.pairs": attr(energy, "pairs"),
        "diagnostics.energy_distance.s": inclusive(energy),
        "diagnostics.self_s": sum(
            self_time[i] for i, n in enumerate(names) if n.startswith("diagnostics.")
        ),
        "storage.save_dataset.bytes": attr(save_dataset, "bytes"),
        "storage.save_dataset.s": inclusive(save_dataset),
        "storage.reports.s": inclusive(members(REPORTS)),
        "storage.bytes_written": attr(
            [i for i, n in enumerate(names) if n.startswith("storage.")], "bytes"
        ),
        "trace.wall_s": traced_wall_s,
        "trace.overhead_s": traced_wall_s - untraced_wall_s,
        "trace.unattributed_s": traced_wall_s - inclusive(roots),
    }
