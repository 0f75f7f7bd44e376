"""Per-layer tracing of qddsim from outside the package.

``Tracer.install`` replaces the public entry points of each module (and the
private label routines ``_get_labels``/``_coset_min`` that the labels layer
consists of) with wrappers that record one span per call: name, parent span,
operation id, start and end.  Module-level functions are replaced in every
qddsim namespace that imported them, methods on their class.  The store's
unique table and operation caches are swapped for dicts that count hits.
Spans stay in memory and are written out by ``Tracer.dump`` when the run
ends; a layer's self time is its spans' time minus their children's.

Cheap accessors (``is_zero``, ``eq``, ``identity_lim``, Pauli-string
constructors, ...) are left unwrapped, so their time counts for the caller.
"""
from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

# layer -> (module, functions, {class: methods})
TARGETS = {
    "coeff": ("qddsim.coeff",
              ("bit_size", "within_coeff_bound", "in_sqrt2_lattice", "real_decimal", "render"),
              {"ExactOps": ("add", "sub", "mul", "div", "neg", "inv", "conj", "abs2",
                            "argmin_key", "key"),
               "FloatOps": ("add", "sub", "mul", "div", "neg", "inv", "conj", "abs2",
                            "argmin_key", "key")}),
    "pauli": ("qddsim.pauli",
              ("lim_mul", "lim_inverse", "lim_scale", "lim_key", "string_key",
               "conjugate_lim", "conj_bits", "commute_phase_past_lim", "follow_basis"),
              {}),
    "ddcore": ("qddsim.ddcore", (),
               {"DDStore": ("make_edge", "_get_labels", "stab_gens", "_coset_min", "add",
                            "follow", "eval_amplitude", "to_vector", "reachable", "stats",
                            "check_invariants", "collect", "maybe_collect",
                            "clear_op_caches", "zero_state")}),
    "gates": ("qddsim.gates",
              ("simulate", "compile_gate", "compile_sequence", "count_gates",
               "verify_coeff_bound"),
              {}),
    "measure": ("qddsim.measure",
                ("squared_norm", "measurement_probability", "probability_as_decimal",
                 "sample", "sample_counts", "collapse", "measure_qubit"),
                {}),
    "stabtrack": ("qddsim.stabtrack", ("track",),
                  {"StabilizerTableau": ("apply_gate", "nullity", "local_nullity",
                                         "contains")}),
    "circuit": ("qddsim.circuit",
                ("parse_qasm", "emit_qasm", "dense_simulate", "dense_probability_zero",
                 "gen_grover", "gen_wstate", "gen_random"),
                {}),
}
LABELS = ("ddcore._get_labels", "ddcore.stab_gens", "ddcore._coset_min")
GATE_GROUPS = {"h": "h", "cz": "cz", "swap": "swap", "t": "diag", "tdg": "diag",
               "s": "diag", "sdg": "diag", "z": "diag", "x": "pauli", "y": "pauli"}


class CountingDict(dict):
    """A dict whose ``get`` tallies hits and misses into a shared pair."""

    __slots__ = ("tally",)

    def __init__(self, data, tally: list) -> None:
        super().__init__(data)
        self.tally = tally

    def get(self, key, default=None):
        value = dict.get(self, key, self)
        if value is self:
            self.tally[1] += 1
            return default
        self.tally[0] += 1
        return value


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        # [paused, current operation id, base frame depth, max depth seen]
        self.state = [False, -1, 0, 0]
        self.counters = {"stab_gens_built": 0, "gc_reclaimed": 0, "shots": 0,
                         "gates_parsed": 0}
        self.tallies = {"unique": [0, 0], "add_cache": [0, 0], "op_cache": [0, 0]}
        self._codes: set = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def _frame_depth(self) -> int:
        depth, frame, skip = 0, sys._getframe(2), self._codes
        while frame is not None:
            if frame.f_code not in skip:
                depth += 1
            frame = frame.f_back
        return depth

    def _wrap(self, fn, name: str | None, *, kinds: dict | None = None, depth=False):
        """Span-recording stand-in for ``fn``; with ``kinds`` the span is
        named after the gate kind in the call's third argument."""
        nid = self._id(name) if name else -1
        kind_ids = {k: self._id(f"gates.apply_gate:{g}") for k, g in (kinds or {}).items()}
        s_name, s_parent, s_op = self.span_name, self.span_parent, self.span_op
        s_start, s_end, stack, state = self.span_start, self.span_end, self.stack, self.state
        perf, frame_depth = time.perf_counter, self._frame_depth

        def span(*args, **kwargs):
            if state[0]:
                return fn(*args, **kwargs)
            i = len(s_start)
            s_name.append(kind_ids[args[2]] if kinds else nid)
            parent = stack[-1]
            s_parent.append(parent)
            s_op.append(state[1])
            s_end.append(0.0)
            if parent < 0:
                state[2] = frame_depth()
            elif depth:
                d = frame_depth() - state[2]
                if d > state[3]:
                    state[3] = d
            stack.append(i)
            s_start.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                s_end[i] = perf()
                stack.pop()

        self._codes.add(span.__code__)
        return span

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) record nothing."""
        self.state[0] = True
        try:
            yield
        finally:
            self.state[0] = False

    def next_op(self) -> None:
        """Spans from here on belong to a new operation."""
        self.state[1] += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import qddsim  # noqa: F401  (loads every module that gets patched)

        modules = [m for k, m in list(sys.modules.items())
                   if k == "qddsim" or k.startswith("qddsim.")]

        def replace(original, wrapper):
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

        for layer, (modname, funcs, classes) in TARGETS.items():
            mod = sys.modules[modname]
            for fname in funcs:
                fn = getattr(mod, fname)
                replace(fn, self._wrap(fn, f"{layer}.{fname}"))
            for cname, methods in classes.items():
                cls = getattr(mod, cname)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    wrapped = self._wrap(fn, f"{layer}.{meth}",
                                         depth=meth in ("make_edge", "add", "stab_gens"))
                    setattr(cls, meth, staticmethod(wrapped) if static else wrapped)
        gates = sys.modules["qddsim.gates"]
        replace(gates.apply_gate, self._wrap(gates.apply_gate, None, kinds=GATE_GROUPS))
        self._install_counters()

    def _install_counters(self) -> None:
        ddcore = sys.modules["qddsim.ddcore"]
        measure = sys.modules["qddsim.measure"]
        circuit = sys.modules["qddsim.circuit"]
        store_cls = ddcore.DDStore
        counters, tallies = self.counters, self.tallies
        init, collect, stab_gens = store_cls.__init__, store_cls.collect, store_cls.stab_gens

        def wrap_tables(store):
            for attr in ("unique", "add_cache", "op_cache"):
                setattr(store, attr, CountingDict(getattr(store, attr), tallies[attr]))

        def counted_init(store, *args, **kwargs):
            init(store, *args, **kwargs)
            wrap_tables(store)

        def counted_collect(store, roots):
            dropped = collect(store, roots)
            counters["gc_reclaimed"] += dropped
            wrap_tables(store)  # collect rebuilds the unique table
            return dropped

        def counted_stab_gens(store, node):
            if not self.state[0] and node.id not in store.stab_cache:
                counters["stab_gens_built"] += 1
            return stab_gens(store, node)

        sample_counts, parse_qasm = measure.sample_counts, circuit.parse_qasm

        def counted_sample_counts(state, qubit=0, shots=1, rng=None):
            if not self.state[0]:
                counters["shots"] += shots
            return sample_counts(state, qubit, shots, rng)

        def counted_parse(text):
            parsed = parse_qasm(text)
            if not self.state[0]:
                counters["gates_parsed"] += len(parsed.gates)
            return parsed

        store_cls.__init__ = counted_init
        store_cls.collect = counted_collect
        store_cls.stab_gens = counted_stab_gens
        for mod in (sys.modules["qddsim"], measure):
            mod.sample_counts = counted_sample_counts
        for mod in (sys.modules["qddsim"], circuit):
            mod.parse_qasm = counted_parse
        for fn in (counted_init, counted_collect, counted_stab_gens,
                   counted_sample_counts, counted_parse):
            self._codes.add(fn.__code__)

    # -- results ------------------------------------------------------------

    def _per_name(self):
        """Span arrays plus, per name: calls, inclusive and self time."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        k = len(self.names)
        return (name, parent, dur, np.bincount(name, minlength=k),
                np.bincount(name, weights=dur, minlength=k),
                np.bincount(name, weights=dur - child, minlength=k))

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer counts and times per round (parsing happens once, in
        set-up, so the circuit layer is reported per run)."""
        name, parent, dur, count, incl, own = self._per_name()
        ids = self._ids

        def c(n):
            return int(count[ids[n]]) if n in ids else 0

        def t(arr, n):
            return float(arr[ids[n]]) if n in ids else 0.0

        def layer_self(layer):
            return sum(float(own[i]) for n, i in ids.items() if n.startswith(layer + "."))

        # Direct marginal queries are outermost spans; a swap counts for the
        # measure layer when the outermost span above it is a measure call.
        root = np.where(parent < 0, np.arange(len(parent)), parent)
        while True:
            up = root[root]
            if np.array_equal(up, root):
                break
            root = up
        is_measure = np.array([n.startswith("measure.") for n in self.names], dtype=bool)
        prob = ids.get("measure.measurement_probability", -2)
        swap = ids.get("gates.apply_gate:swap", -2)
        direct_prob = (name == prob) & (parent < 0)
        measure_swap = (name == swap) & is_measure[name[root]]

        def ratio(pair):
            return pair[0] / (pair[0] + pair[1]) if pair[0] + pair[1] else 0.0

        totals = {
            "coeff.mul_calls": c("coeff.mul"),
            "coeff.div_calls": c("coeff.div") + c("coeff.inv"),
            "coeff.add_calls": c("coeff.add") + c("coeff.sub"),
            "coeff.self_s": layer_self("coeff"),
            "pauli.lim_mul_calls": c("pauli.lim_mul"),
            "pauli.conjugate_calls": c("pauli.conjugate_lim"),
            "pauli.self_s": layer_self("pauli"),
            "ddcore.labels_calls": c("ddcore._get_labels"),
            "ddcore.stab_gens_built": self.counters["stab_gens_built"],
            "ddcore.labels_self_s": sum(t(own, n) for n in LABELS),
            "ddcore.make_edge_calls": c("ddcore.make_edge"),
            "ddcore.nodes_created": self.tallies["unique"][1],
            "ddcore.add_calls": c("ddcore.add"),
            "ddcore.add_self_s": t(own, "ddcore.add"),
            "ddcore.follow_calls": c("ddcore.follow"),
            "ddcore.self_s": layer_self("ddcore"),
            "ddcore.gc_runs": c("ddcore.collect"),
            "ddcore.gc_reclaimed": self.counters["gc_reclaimed"],
            "ddcore.gc_s": t(incl, "ddcore.collect"),
            "gates.prims_applied": sum(c(f"gates.apply_gate:{g}")
                                       for g in set(GATE_GROUPS.values())),
            "gates.self_s": layer_self("gates"),
            "gates.h_s": t(incl, "gates.apply_gate:h"),
            "gates.cz_s": t(incl, "gates.apply_gate:cz"),
            "gates.diag_s": t(incl, "gates.apply_gate:diag"),
            "gates.swap_s": t(incl, "gates.apply_gate:swap"),
            "measure.prob_calls": c("measure.measurement_probability"),
            "measure.prob_s": float(dur[direct_prob].sum()),
            "measure.swap_s": float(dur[measure_swap].sum()),
            "measure.shots": self.counters["shots"],
            "measure.sample_s": t(incl, "measure.sample_counts"),
            "stabtrack.gates_tracked": c("stabtrack.apply_gate"),
            "stabtrack.self_s": layer_self("stabtrack"),
        }
        # every round repeats the same work, so counts divide exactly
        n = max(rounds, 1)
        out = {k: v / n if k.endswith("_s") else round(v / n) for k, v in totals.items()}
        out.update({
            "ddcore.unique_hit_ratio": ratio(self.tallies["unique"]),
            "ddcore.add_cache_hit_ratio": ratio(self.tallies["add_cache"]),
            "gates.op_cache_hit_ratio": ratio(self.tallies["op_cache"]),
            "gates.max_stack_depth": self.state[3],
            "circuit.gates_parsed": self.counters["gates_parsed"],
            "circuit.parse_s": t(incl, "circuit.parse_qasm"),
        })
        return out

    def dump(self, path_stem) -> None:
        """Write the raw spans (npz) and a per-name summary (json)."""
        name, parent, _, count, incl, own = self._per_name()
        np.savez(f"{path_stem}-spans.npz", name=name, parent=parent,
                 op=np.frombuffer(self.span_op, dtype=np.int32),
                 start=np.frombuffer(self.span_start), end=np.frombuffer(self.span_end),
                 names=np.array(self.names))
        summary = {n: {"calls": int(count[i]), "incl_s": float(incl[i]), "self_s": float(own[i])}
                   for i, n in enumerate(self.names) if count[i]}
        with open(f"{path_stem}-summary.json", "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1, sort_keys=True)
