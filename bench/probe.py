"""Child process of the benchmark: one fresh interpreter per job.

    probe.py setup '<json>'            time import + the job's set-up
    probe.py ref                       time the fixed reference workload
    probe.py record <id>               time verify.run(only=[id]), cold
    probe.py traced <out> <mem> <argv...>
                                       run one CLI job in process with spans
                                       around calls into each layer

``setup``, ``ref`` and ``record`` print one JSON line.  ``traced`` prints
the job's report as the CLI would and writes its spans and counts to <out>.
"""

import sys
import time

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import tracemalloc  # noqa: E402

# metric -> functions (module, qualified name) whose spans' self time it sums
SPANS = {
    "cli.render_s": [("cli", "_render")],
    "rings.construct_s": [("rings", "ring_from_spec")],
    "rings.tables_s": [("rings", "Ring.add_table"), ("rings", "Ring.mul_table"),
                       ("rings", "Ring.sub_table")],
    "traces.trace_from_spec_s": [("traces", "trace_from_spec")],
    "traces.validate_s": [("traces", "validate_trace")],
    "traces.enumerate_s": [("traces", "enumerate_trace_maps")],
    "traces.canonical_character_s": [("traces", "canonical_character")],
    "cyclotomic.reduce_s": [("cyclotomic", "Cyclotomic.from_exponent_counts")],
    "weights.hom_weight_s": [("weights", "hom_weight")],
    "weights.hom_weight_axiomatic_s": [("weights", "hom_weight_axiomatic")],
    "codes.function_s": [("codes", "function_from_spec")],
    "codes.build_code_s": [("codes", "build_code")],
    "codes.weight_enumerator_s": [("codes", "weight_enumerator")],
    "codes.code_spectrum_s": [("codes", "code_spectrum")],
    "codes.closed_form_s": [("codes", name) for name in (
        "closed_form_enumerator", "closed_form_spectrum",
        "frank_subring_enumerator", "frank_subring_spectrum",
        "frank_self_enumerator", "frank_self_spectrum", "zp_power_enumerator",
        "z2p_power_enumerator", "z2p_power_spectrum",
        "sigma_quadratic_enumerator", "sigma_quadratic_spectrum")],
    "graphs.two_weight_graph_s": [("graphs", "two_weight_graph")],
    "graphs.srg_check_s": [("graphs", "srg_check")],
    "graphs.components_s": [("graphs", "connected_components")],
    "graphs.is_modular_s": [("graphs", "is_modular")],
}

# metric -> functions whose calls it counts
COUNTS = {
    "rings.slow_op_calls": [("rings", f"{cls}.{op}")
                            for cls in ("Ring", "IntegerModRing", "GaloisRing",
                                        "TableRing")
                            for op in ("add", "mul", "sub", "neg")],
    "cyclotomic.reductions": [("cyclotomic", "Cyclotomic.from_exponent_counts")],
}


class Tracer:
    """Spans (name, start, end, parent index) and call counts, in memory."""

    def __init__(self, memory: bool):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.peaks = []
        self.memory = memory

    def wrap(self, fn, span=None, count=None, peak=False):
        spans, stack, counts, peaks = self.spans, self.stack, self.counts, self.peaks
        if count is not None:
            counts[count] = 0
        if span is None:
            def counted(*args, **kwargs):
                counts[count] += 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if peak:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if peak:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
                stack.pop()
                spans[idx] = (span, start, end, parent)
        return traced

    def install(self):
        """Replace each listed function by its wrapper, in its module, on its
        class, and wherever another homring module bound it by name."""
        targets = {}
        for metric, names in SPANS.items():
            for name in names:
                targets.setdefault(name, {})["span"] = f"{name[0]}.{name[1]}"
        for metric, names in COUNTS.items():
            for name in names:
                targets.setdefault(name, {})["count"] = metric
        if self.memory:  # only the peak: no other span distorts it
            targets = {("codes", "build_code"): {"span": "codes.build_code"}}
        homring = [m for n, m in sys.modules.items() if n.startswith("homring")]
        for (module, qualname), how in targets.items():
            mod = sys.modules[f"homring.{module}"]
            owner, _, attr = qualname.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            raw = vars(holder).get(attr)
            if raw is None:  # method inherited, not defined on this class
                continue
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapper = self.wrap(fn, peak=self.memory, **how)
            setattr(holder, attr, kind(wrapper) if kind else wrapper)
            if not owner:
                for other in homring:
                    for key, val in list(vars(other).items()):
                        if val is raw:
                            setattr(other, key, wrapper)

    def self_times(self) -> dict:
        """Each span's duration minus its children's, summed per metric."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        metric_of = {f"{m}.{q}": metric for metric, names in SPANS.items()
                     for m, q in names}
        out = dict.fromkeys(SPANS, 0.0)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[metric_of[name]] += end - start - inner
        return out


def setup(spec: dict) -> dict:
    """Import homring and build what the job names: its rings and their
    add/mul tables, its trace and its function."""
    import homring.cli  # noqa: F401  (the CLI's whole import graph)
    from homring.codes import function_from_spec
    from homring.rings import ring_from_spec
    from homring.traces import trace_from_spec

    if "ring" in spec:
        ring = ring_from_spec(spec["ring"])
        sub = ring_from_spec(spec["subring"]) if "subring" in spec else ring
        for r in {id(ring): ring, id(sub): sub}.values():
            r.add_table()
            r.mul_table()
        if "f" in spec:
            trace_from_spec(ring, sub, spec.get("trace", "identity"))
            function_from_spec(ring, spec["f"])
    return {"setup_s": time.perf_counter() - T0}


def reference() -> dict:
    """A fixed pure-Python workload of the jobs' kind that never imports
    homring: tuples hashed into a dict, Fraction sums, list indexing and
    big-integer bit masks.  Its time says how fast this machine runs the
    interpreter right now."""
    from fractions import Fraction

    start = time.perf_counter()
    seen = {}
    for i in range(12000):
        cw = tuple((i * x + 7) % 61 for x in range(24))
        seen[cw] = seen.get(cw, 0) + 1
    total = Fraction(0)
    for i in range(1, 1500):
        total += Fraction(i % 7, i % 11 + 1)
    acc = [0] * 61
    for k in range(300):
        row = [(j * k) % 61 for j in range(61)]
        for j in range(61):
            acc[row[j]] += j
    masks = [(i * 0x9E3779B97F4A7C15) % (1 << 800) for i in range(300)]
    common = 0
    for a in masks:
        for b in masks[:100]:
            common += (a & b).bit_count()
    return {"ref_s": time.perf_counter() - start}


def record(rid: int) -> dict:
    from homring import verify

    start = time.perf_counter()
    report = verify.run(only=[rid])
    seconds = time.perf_counter() - start
    ok = [r["pass"] for r in report["records"] if r["id"] == rid]
    return {"id": rid, "seconds": seconds, "pass": ok == [True]}


def traced(out: str, memory: bool, argv: list) -> int:
    start = time.perf_counter()
    import homring.cli as cli
    import_s = time.perf_counter() - start
    tracer = Tracer(memory)
    tracer.install()
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    main_s = time.perf_counter() - start
    metrics = tracer.self_times()
    metrics.update(tracer.counts)
    metrics["cli.import_s"] = import_s
    metrics["codes.build_code_peak_mb"] = max(tracer.peaks, default=0) / 2**20
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"main_s": main_s, "metrics": metrics,
                   "spans": [list(s) for s in tracer.spans]}, fh)
    sys.stdout.write(buf.getvalue())
    return code


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        print(json.dumps(setup(json.loads(args[0]))))
    elif mode == "ref":
        print(json.dumps(reference()))
    elif mode == "record":
        print(json.dumps(record(int(args[0]))))
    elif mode == "traced":
        sys.exit(traced(args[0], args[1] == "1", args[2:]))
    else:
        sys.exit(f"unknown probe mode {mode!r}")
