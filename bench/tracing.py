"""Spans around the library's public functions, recorded from outside.

The tracer replaces every module-level binding of a traced function in
the qshift package, including the copies other modules bind with
``from .x import y`` (``partitions.residue_product``,
``search.derive_identity`` and so on), because a call looks the name up
in the calling module's namespace.  Each call appends one span (layer,
start, end, parent span) to an in-memory list; nothing is written until
the pass ends.  A layer's self time is its span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

# (module, function, emit self time) for every layer reported uniformly
LAYERS = (
    ("qseries", "residue_product", False),
    ("qseries", "mul", False),
    ("qseries", "invert", False),
    ("qseries", "pochhammer", False),
    ("theta", "monomial_series", True),
    ("theta", "ramanujan_f_sum", False),
    ("partitions", "verify_identity", True),
    ("partitions", "infer_relation", True),
    ("jacobi", "derive_identity", False),
    ("jacobi", "verify_zero_combination", True),
    ("corpus", "load_corpus", False),
    ("corpus", "validate_corpus", True),
    ("equivalence", "act", True),
    ("equivalence", "classify", True),
)
# search layers have their own names: one unit is one (n, a, b) block
SEARCH_LAYERS = (
    ("search", "run_search", "search.run_search"),
    ("search", "_scan_unit", "search.unit"),
)
PACKAGE_MODULES = ("qseries", "theta", "partitions", "jacobi", "corpus",
                   "equivalence", "search", "cli")


def _residue_product_bits(args, result, counts):
    # computed, not measured: (order + 1) limbs of the widest coefficient
    counts["qseries.residue_product.out_bits"] += (
        (result.order + 1) * max(result.coeffs).bit_length())


def _mul_pairs(args, result, counts):
    counts["qseries.mul.coeff_pairs"] += len(args[0].coeffs) * len(args[1].coeffs)


def _derive_ok(args, result, counts):
    counts["jacobi.derive_identity.ok"] += result.ok


def _unit_scanned(args, result, counts):
    counts["search.scanned"] += result[0]


COUNTERS = {
    "qseries.residue_product": _residue_product_bits,
    "qseries.mul": _mul_pairs,
    "jacobi.derive_identity": _derive_ok,
    "search.unit": _unit_scanned,
}


class Tracer:
    """Wraps the traced functions and keeps their spans in memory."""

    def __init__(self):
        self.layers: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _wrap(self, layer: str, fn):
        layer_id = len(self.layers)
        self.layers.append(layer)
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(layer)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer_id, start, end, parent)
            if count is not None:
                count(args, result, counts)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every traced function in every qshift module."""
        mods = {name: importlib.import_module(f"qshift.{name}")
                for name in PACKAGE_MODULES}
        targets = [(m, f, f"{m}.{f}") for m, f, _ in LAYERS] + list(SEARCH_LAYERS)
        for home, fname, layer in targets:
            original = getattr(mods[home], fname)
            wrapper = self._wrap(layer, original)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def metrics(self, atom_cache_info) -> dict[str, tuple[float, str]]:
        """Per-layer metrics from the recorded spans and counts."""
        child_ns = defaultdict(int)
        for layer_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = Counter()
        total_ns = Counter()
        self_ns = Counter()
        survivors = 0
        final_verify_ns = 0
        unit_id = self.layers.index("search.unit")
        run_id = self.layers.index("search.run_search")
        derive_id = self.layers.index("jacobi.derive_identity")
        verify_id = self.layers.index("partitions.verify_identity")
        for idx, (layer_id, start, end, parent) in enumerate(self.spans):
            dur = end - start
            calls[layer_id] += 1
            total_ns[layer_id] += dur
            self_ns[layer_id] += dur - child_ns[idx]
            parent_layer = self.spans[parent][0] if parent >= 0 else -1
            if layer_id == derive_id and parent_layer == unit_id:
                survivors += 1
            if layer_id == verify_id and parent_layer == run_id:
                final_verify_ns += dur

        out: dict[str, tuple[float, str]] = {}
        for home, fname, with_self in LAYERS:
            name = f"{home}.{fname}"
            lid = self.layers.index(name)
            out[f"{name}.calls"] = (calls[lid], "count")
            out[f"{name}.s"] = (total_ns[lid] / 1e9, "s")
            if with_self:
                out[f"{name}.self_s"] = (self_ns[lid] / 1e9, "s")
        c = self.counts
        out["qseries.residue_product.out_bits"] = (
            c["qseries.residue_product.out_bits"], "bit")
        out["qseries.mul.coeff_pairs"] = (c["qseries.mul.coeff_pairs"], "count")
        lookups = atom_cache_info.hits + atom_cache_info.misses
        out["theta.atom_series.hit_ratio"] = (
            atom_cache_info.hits / lookups if lookups else 0.0, "ratio")
        derives = calls[derive_id]
        out["jacobi.derive_identity.ok_ratio"] = (
            c["jacobi.derive_identity.ok"] / derives if derives else 0.0, "ratio")
        scanned = c["search.scanned"]
        out["search.units"] = (calls[unit_id], "count")
        out["search.unit.s"] = (total_ns[unit_id] / 1e9, "s")
        out["search.prefilter.s"] = (self_ns[unit_id] / 1e9, "s")
        out["search.survivors"] = (survivors, "count")
        out["search.survivor_ratio"] = (
            survivors / scanned if scanned else 0.0, "ratio")
        out["search.final_verify.s"] = (final_verify_ns / 1e9, "s")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def dump(self, path: Path) -> None:
        """Write the layer table and every span as one JSON document."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"layers": self.layers,
                       "fields": ["layer", "start_ns", "end_ns", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
