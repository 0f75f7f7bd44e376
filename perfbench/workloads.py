"""One round of a workload: every operation run, timed and checked.

An operation is one circuit simulated and checked, one tableau track, one
marginal query or one sampling call.  Each returns the list of checks it
failed; an operation that fails a check or raises counts as failed.  Every
round repeats exactly the same operations on freshly simulated states, so
rounds are interchangeable and their deterministic results must agree.

Each timed operation keeps its own list of times.  A run reports, per time
metric, the sum over its operations of each one's fastest time in the run:
on a shared host the fastest of several repeats is the closest reading of
what the code costs, while medians follow the neighbours' load.
"""
from __future__ import annotations

import cmath
import contextlib
import math
import random
import sys
import time
import traceback
from fractions import Fraction
from itertools import zip_longest

import numpy as np

import oracle
from circuits import GHZ_QUBITS, RANDOM, Spec

TRACK_REPEATS = 5  # identical tableau runs per circuit and round
TIMES = ("sim_s", "measure_s", "sample_s", "bounds_s")
TOL = 1e-8  # float comparisons against the oracle and closed forms
SHOTS = 256
N_AMPS = 16  # largest and seeded-random oracle amplitudes compared per circuit
# One qubit of the random circuit is sampled.  No marginal query runs on
# that state, so the sampling call shares no swaps with a query.
SAMPLED = ("random-{}-d{}-s{}".format(*RANDOM[:3]), (0,))
GHZ_MARGINALS = (5, 11, 17, GHZ_QUBITS - 1)  # spread down the register, bottom included
GHZ_SAMPLED = 12


def grover_exact(m: int, k: int) -> Fraction:
    """sin^2((2k+1) theta) with sin^2 theta = 2^-m, exactly: the Chebyshev
    polynomial T_(2k+1) evaluated at cos 2 theta = 1 - 2^(1-m)."""
    c = 1 - Fraction(2, 2 ** m)
    t_prev, t = Fraction(1), c
    for _ in range(2 * k):
        t_prev, t = t, 2 * c * t - t_prev
    return (1 - t) / 2


def interleave(*lists) -> list:
    """Round-robin merge: a1 b1 c1 a2 b2 ..."""
    return [x for group in zip_longest(*lists) for x in group if x is not None]


class Round:
    """Tallies of one round: operations, the times of each timed operation
    keyed by (metric, operation), sizes and a fingerprint of every
    deterministic result."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.op_s: dict[tuple[str, str], list[float]] = {}
        self.sizes = {"final_nodes": 0, "peak_nodes": 0, "max_coeff_bits": 0}
        self.facts: list = []

    def timed(self, metric: str, key: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.op_s.setdefault((metric, key), []).append(time.perf_counter() - t0)
        return out

    def checking(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    def op(self, label: str, body) -> None:
        self.attempted += 1
        if self.tracer:
            self.tracer.next_op()
        try:
            problems = body()
        except Exception:  # a crash is a failed operation, not a dead run
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            print(f"check failed: {label}: {'; '.join(problems)}", file=sys.stderr)


class Workload:
    """A workload's circuits, the oracle's answers and the seeded choices."""

    def __init__(self, name: str, mode: str, seed: int, specs: list[Spec], circuits: list,
                 qd) -> None:
        self.name, self.mode, self.qd = name, mode, qd
        self.pairs = list(zip(specs, circuits))
        rng = random.Random(f"{name}/{seed}")
        self.amps: dict[str, list[tuple[int, complex]]] = {}
        for spec in specs:
            if "octant" in spec.facts:  # dressed GHZ: too wide for a dense vector
                w = cmath.exp(1j * math.pi / 4 * spec.facts["octant"])
                full = (1 << spec.n) - 1
                idx = {0: 2 ** -0.5, full: w * 2 ** -0.5}
                for _ in range(N_AMPS):
                    idx.setdefault(rng.randrange(1, full), 0j)
                self.amps[spec.name] = sorted(idx.items())
            else:
                vec = oracle.state_vector(spec.n, spec.gates)
                top = np.argsort(-np.abs(vec), kind="stable")[:N_AMPS].tolist()
                idx = sorted(set(top) | set(rng.sample(range(len(vec)), N_AMPS)))
                self.amps[spec.name] = [(i, complex(vec[i])) for i in idx]
                if spec.name == SAMPLED[0]:
                    probs = (np.abs(vec) ** 2).reshape((2,) * spec.n)
                    self.p0 = {q: float(probs.take(0, axis=q).sum()) for q in SAMPLED[1]}
        # Measured qubits are fixed: the cost of a query depends on the
        # qubit, and --seed should not change how much work a run does.
        # One sampling seed per sampled qubit of the random circuit, then GHZ's.
        self.sample_seeds = [rng.randrange(1 << 30) for _ in range(len(SAMPLED[1]) + 1)]

    # -- operations -----------------------------------------------------------

    def track(self, rnd: Round, spec: Spec, circ):
        """One tableau run; returns its report, or None if it raised."""
        reports: list = []

        def body():
            # native_ccx=False is how `qddsim bounds` tracks by default
            report = rnd.timed("bounds_s", spec.name, self.qd.stabtrack.track, circ, False)
            reports.append(report)
            rnd.facts.append(("track", spec.name, report.nullity, report.local_nullity))
            problems = []
            if report.t_count != spec.t_count or report.gate_count != len(spec.gates):
                problems.append(f"tableau counted {report.t_count} T of {spec.t_count}")
            if not 0 <= report.nullity <= report.t_count:
                problems.append(f"nullity {report.nullity} outside [0, t={report.t_count}]")
            if report.limdd_width_bound != 1 << report.nullity:
                problems.append("limdd ceiling is not 2^nullity")
            return problems

        rnd.op(f"track {spec.name}", body)
        return reports[0] if reports else None

    def simulate(self, rnd: Round, spec: Spec, circ, report):
        """One simulation, checked; returns the state, or None if it raised."""
        out = []
        qd = self.qd

        def body():
            policy = qd.coeff.CoeffPolicy("exact")
            state, run = rnd.timed("sim_s", spec.name, qd.gates.simulate, circ, policy,
                                   self.mode)
            out.append(state)
            with rnd.checking():
                problems = self.check_state(spec, state, run, report)
            rnd.sizes["final_nodes"] += run.final_nodes
            rnd.sizes["peak_nodes"] += run.peak_nodes
            rnd.sizes["max_coeff_bits"] = max(rnd.sizes["max_coeff_bits"], run.max_coeff_bits)
            rnd.facts.append(("sim", spec.name, run.final_nodes, run.peak_nodes,
                              run.max_coeff_bits, run.width_per_level))
            return problems

        rnd.op(f"simulate {spec.name}", body)
        return out[0] if out else None

    def check_state(self, spec: Spec, state, run, report) -> list[str]:
        qd, problems = self.qd, []
        for i, want in self.amps[spec.name]:
            got = oracle.as_complex(state.amplitude(i))
            if abs(got - want) > TOL:
                problems.append(f"amplitude {i}: {got} != oracle {want}")
                break
        norm = qd.measure.squared_norm(state.store, state.root)
        if oracle.exact_rational(norm) != 1:
            problems.append(f"squared norm {norm} != 1")
        if spec.name.startswith("grover"):
            m, k = spec.facts["m"], spec.facts["iterations"]
            amp = state.amplitude(spec.facts["marked"] << (spec.n - m))
            if oracle.exact_abs2(amp) != (grover_exact(m, k), 0):
                problems.append(f"marked probability {oracle.exact_abs2(amp)} "
                                f"!= {grover_exact(m, k)}")
            if abs(abs(oracle.as_complex(amp)) ** 2 - oracle.grover_success(m, k)) > TOL:
                problems.append("marked probability differs from sin^2 closed form")
        if spec.name.startswith(("wstate", "ghz")):
            n = spec.n
            if spec.name.startswith("wstate"):
                excited, want = [1 << (n - 1 - q) for q in range(n)], Fraction(1, n)
            else:
                excited, want = [0, (1 << n) - 1], Fraction(1, 2)
            for i in excited:
                amp = state.amplitude(i)
                if oracle.exact_abs2(amp) != (want, 0):
                    problems.append(f"|amplitude {i}|^2 = {oracle.exact_abs2(amp)} != {want}")
                    break
                if abs(abs(oracle.as_complex(amp)) ** 2 - float(want)) > TOL:
                    problems.append(f"|amplitude {i}|^2 != {want}")
                    break
        if report is None:
            problems.append("no tableau report to bound the width")
        else:
            ceiling = (report.limdd_width_bound if self.mode == "limdd"
                       else report.evdd_width_bound)
            if max(run.width_per_level) > ceiling:
                problems.append(f"width {max(run.width_per_level)} above ceiling {ceiling}")
            limit = 2 * spec.n + 2 * spec.t_count + 2
            if run.max_coeff_bits > limit:
                problems.append(f"label bits {run.max_coeff_bits} above 2n+2t+2 = {limit}")
        return problems

    def marginal(self, rnd: Round, state, label: str, qubit: int, want: Fraction) -> None:
        def body():
            if state is None:
                return ["its simulation failed"]
            p = rnd.timed("measure_s", f"{label} q{qubit}",
                          self.qd.measure.measurement_probability, state, qubit)
            rnd.facts.append(("marginal", label, qubit, str(p)))
            ok = oracle.exact_rational(p) == want
            return [] if ok else [f"P(q{qubit}=0) = {p}, want {want}"]

        rnd.op(f"marginal {label} q{qubit}", body)

    def sampling(self, rnd: Round, state, label: str, qubit: int, p0: float,
                 seed: int) -> None:
        def body():
            if state is None:
                return ["its simulation failed"]
            zeros, ones = rnd.timed("sample_s", f"{label} q{qubit}",
                                    self.qd.measure.sample_counts, state, qubit, SHOTS, seed)
            rnd.facts.append(("sample", label, qubit, zeros, ones))
            if zeros + ones != SHOTS or not oracle.within_binomial(zeros, SHOTS, p0):
                return [f"{zeros} zeros of {SHOTS} shots, P(0) = {p0:.6f}"]
            return []

        rnd.op(f"sample {label} q{qubit}", body)

    # -- rounds ----------------------------------------------------------------

    def queries(self, rnd: Round, spec: Spec, circ, state) -> list:
        """The operations that follow a circuit's simulation: the remaining
        tableau runs, and marginal queries and sampling calls on its state."""
        tracks = [lambda: self.track(rnd, spec, circ)] * (TRACK_REPEATS - 1)
        marginals, samples = [], []
        if spec.name.startswith("ghz"):
            marginals = [lambda q=q: self.marginal(rnd, state, spec.name, q, Fraction(1, 2))
                         for q in GHZ_MARGINALS]
            samples = [lambda: self.sampling(rnd, state, spec.name, GHZ_SAMPLED, 0.5,
                                             self.sample_seeds[-1])]
        elif spec.name.startswith("wstate"):
            want = 1 - Fraction(1, spec.n)
            marginals = [lambda q=q: self.marginal(rnd, state, spec.name, q, want)
                         for q in range(spec.n)]
        elif spec.name == SAMPLED[0]:
            samples = [lambda q=q, seed=seed:
                       self.sampling(rnd, state, spec.name, q, self.p0[q], seed)
                       for q, seed in zip(SAMPLED[1], self.sample_seeds)]
        return interleave(tracks, marginals, samples)

    def run_round(self, tracer=None) -> Round:
        """Simulate each circuit in turn; the operations on earlier results
        are interleaved and spread over the rest of the round, so that each
        time metric samples the whole round rather than one stretch of it."""
        rnd = Round(tracer)
        pending: list = []
        for i, (spec, circ) in enumerate(self.pairs):
            report = self.track(rnd, spec, circ)
            state = self.simulate(rnd, spec, circ, report)
            merged = interleave(pending, self.queries(rnd, spec, circ, state))
            take = -(-len(merged) // (len(self.pairs) - i))
            for query in merged[:take]:
                query()
            pending = merged[take:]
        return rnd


def fastest(rounds: list[Round]) -> dict[str, float]:
    """Per time metric, the sum over its operations of each operation's
    fastest time in any round."""
    best: dict[tuple[str, str], float] = {}
    for rnd in rounds:
        for key, times in rnd.op_s.items():
            best[key] = min(best.get(key, math.inf), *times)
    return {m: sum(t for (metric, _), t in best.items() if metric == m) for m in TIMES}
