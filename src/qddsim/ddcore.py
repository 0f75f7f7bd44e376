"""Decision-diagram core: hash-consed nodes and canonical edge construction.

Two diagram flavors share one node store.  In ``evdd`` mode every edge label
is a plain scalar (the Pauli string is always identity) and a node is
normalized by dividing out the low edge's weight.  In ``limdd`` mode labels
are scalar-weighted Pauli strings; a node keeps an identity label on its low
edge and a canonical label on its high edge, chosen as the minimum over the
freedom the children's stabilizer groups allow, so states that differ only
by a Pauli with a phase share one node.  Each node's group is cached as an
echelon basis of integer-phase rows from the ``pauli`` group kernel; the
double-coset and coset minimizations reduce against those bases and touch
the scalar ring once, at the end.  The joint basis of a child pair is built
once and serves both the high label and the parent's group.  Children that a
stored node already holds are canonical, so ``make_edge`` returns that node
without canonicalizing them again.

Every zero edge, a node's zero child included, is ``zero_edge(level)``: the
backend zero as factor, the identity string (whose length carries the
level) and the terminal as target.  ``make_edge`` is total: two zero
children give the zero edge one level up.

The hot path makes few Python calls per edge.  ``is_zero`` is the
backend's own edge test, one call.  Identity labels carry the interned
``ops.one`` (``identity_lim`` keeps one label per width, the exact ring's
``mul``, ``div`` and ``abs2`` hand ``ONE`` back, and so does
``_get_labels`` for factors equal to one), so unit tests compare by
identity; a value equal to one that is another object takes the general
path, which gives the same node (on the float backend, 1*x may flip the
sign of a zero part).  A unique-table key is one flat tuple,
``(level, low factor key, low x, low z, low node id, high factor key, high
x, high z, high node id)``, with the backend's ``key`` of each factor.
"""
from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable, Iterable, NamedTuple

from .coeff import CoeffPolicy, ScalarOps, bit_size, scalar_ops
from .pauli import (
    Basis,
    PauliLIM,
    PauliString,
    combine,
    echelon,
    follow_basis,
    joint_echelon,
    lim_div,
    lim_key,
    lim_mul,
    lim_scale,
    reduce_key,
    row_lim_mul,
    row_mul,
    string_key,
    times_i,
)


class DiagramError(Exception):
    """A structural invariant of the diagram store was violated."""


class Node:
    __slots__ = ("id", "level", "low", "high")

    def __init__(self, node_id: int, level: int, low: Edge | None, high: Edge | None):
        self.id = node_id
        self.level = level
        self.low = low
        self.high = high

    def __repr__(self) -> str:
        return f"<Node {self.id} level={self.level}>"


class Edge(NamedTuple):
    lim: PauliLIM
    node: Node


class DiagramStats(NamedTuple):
    node_count: int  # reachable non-terminal nodes
    width_per_level: tuple[int, ...]  # index = level; [0] stays 0
    max_coeff_bits: int  # exact backend only; 0 for float


def _lift(lim: PauliLIM, n: int) -> PauliLIM:
    """Pad a label with identity on new top qubits."""
    return PauliLIM(lim.factor, PauliString(n, lim.string.x, lim.string.z))


class DDStore:
    """Owner of the unique table, operation caches and garbage collector."""

    def __init__(
        self,
        policy: CoeffPolicy | None = None,
        mode: str = "limdd",
        norm_rule: str = "low",
        gc_capacity: int = 1 << 16,
    ) -> None:
        if mode not in ("evdd", "limdd"):
            raise ValueError(f"unknown diagram mode {mode!r}")
        if norm_rule not in ("low", "l2"):
            raise ValueError(f"unknown normalization rule {norm_rule!r}")
        # maybe_collect would double a capacity below 1 forever.
        if gc_capacity < 1:
            raise ValueError(f"gc_capacity must be at least 1, got {gc_capacity}")
        self.policy = policy if policy is not None else CoeffPolicy()
        self.ops: ScalarOps = scalar_ops(self.policy)
        # Whether an edge is zero: its factor under the backend's zero test,
        # one call per edge.
        self.is_zero: Callable[[Edge], bool] = self.ops.edge_is_zero
        if norm_rule == "l2" and (mode != "evdd" or self.policy.backend != "float"):
            raise ValueError("l2 normalization requires the float evdd backend")
        self.mode = mode
        self.norm_rule = norm_rule
        self.terminal = Node(0, 0, None, None)
        self.unique: dict[tuple, Node] = {}
        self.next_id = 1
        self.add_cache: dict[tuple, Edge] = {}
        self.op_cache: dict[tuple, Edge] = {}
        self.stab_cache: dict[int, Basis] = {0: ()}
        self.joint_cache: dict[tuple[int, int], tuple] = {}
        self._identities: dict[int, PauliLIM] = {}
        self._zeros: dict[int, Edge] = {}
        self.snorm_cache: dict[int, object] = {}
        self.peak_nodes = 1
        self.gc_capacity = gc_capacity
        self.gc_runs = 0

    # -- edge constructors -------------------------------------------------

    def terminal_edge(self, factor: object) -> Edge:
        return Edge(PauliLIM(factor, PauliString(0, 0, 0)), self.terminal)

    def zero_edge(self, level: int) -> Edge:
        edge = self._zeros.get(level)
        if edge is None:
            edge = Edge(PauliLIM(self.ops.zero, PauliString(level, 0, 0)), self.terminal)
            self._zeros[level] = edge
        return edge

    def identity_lim(self, n: int) -> PauliLIM:
        """The identity label on n qubits; one object per width, so its
        factor is always the backend's ``one`` itself."""
        lim = self._identities.get(n)
        if lim is None:
            lim = self._identities[n] = PauliLIM(self.ops.one, PauliString(n, 0, 0))
        return lim

    def zero_state(self, n: int) -> Edge:
        edge = self.terminal_edge(self.ops.one)
        for m in range(n):
            edge = self.make_edge(edge, self.zero_edge(m))
        return edge

    # -- unique table ------------------------------------------------------

    def _node_key(self, level: int, low: Edge, high: Edge) -> tuple:
        """The flat unique-table key of the module docstring: each label
        contributes ``lim_key``'s fields, with no tuple of its own."""
        key = self.ops.key
        lo, hi = low.lim, high.lim
        return (level, key(lo.factor), lo.string.x, lo.string.z, low.node.id,
                key(hi.factor), hi.string.x, hi.string.z, high.node.id)

    def _make_node(self, level: int, low: Edge, high: Edge) -> Node:
        key = self._node_key(level, low, high)
        node = self.unique.get(key)
        if node is None:
            node = Node(self.next_id, level, low, high)
            self.next_id += 1
            self.unique[key] = node
            if len(self.unique) + 1 > self.peak_nodes:
                self.peak_nodes = len(self.unique) + 1
        return node

    # -- canonical edge construction ---------------------------------------

    def make_edge(self, low: Edge, high: Edge) -> Edge:
        """Build the canonical edge for |0>(low) + |1>(high), one level up;
        two zero children give the zero edge."""
        m = low.lim.string.n
        if high.lim.string.n != m:
            raise DiagramError("child edges are at different levels")
        lo = low.lim
        if (
            self.norm_rule == "low"
            and not (lo.string.x or lo.string.z)
            and lo.factor is self.ops.one
        ):
            # Children that a stored node holds are canonical: the rest of
            # this method would return that node under an identity root.
            # Under l2 the stored low weight is not one, and renormalizing
            # it is not exact.  Float keys are tolerance cells, hence the
            # equality test.  The probe reads the table with dict.get, so a
            # table that instruments its own get sees only the lookups that
            # may create a node.
            node = dict.get(self.unique, self._node_key(m + 1, low, high))
            if node is not None and node.low == low and node.high == high:
                return Edge(self.identity_lim(m + 1), node)
        low_zero, high_zero = self.is_zero(low), self.is_zero(high)
        if low_zero and high_zero:
            return self.zero_edge(m + 1)
        swap = self.mode == "limdd" and (
            low_zero or (not high_zero and low.node.id > high.node.id)
        )
        if swap:
            # |0>(low) + |1>(high) is X on the new top qubit times
            # |0>(high) + |1>(low), whose children are in canonical order.
            low, high, low_zero, high_zero = high, low, False, low_zero
        if high_zero:
            edge = self._one_branch(m, low, 0)
        elif self.mode == "evdd":
            edge = self._make_edge_evdd(m, low, high, low_zero)
        else:
            a_hat = lim_div(self.ops, low.lim, high.lim)
            c_hat, root_lim = self._get_labels(a_hat, low.node, high.node, low.lim)
            node = self._make_node(
                m + 1, Edge(self.identity_lim(m), low.node), Edge(c_hat, high.node)
            )
            edge = Edge(root_lim, node)
        if swap:
            edge = Edge(row_lim_mul(self.ops, (0, 1 << m, 0), edge.lim), edge.node)
        return edge

    def _one_branch(self, m: int, edge: Edge, bit: int) -> Edge:
        """|bit>(edge) one level up, for a nonzero edge."""
        lim = edge.lim
        if lim.factor is self.ops.one and not (lim.string.x or lim.string.z):
            # An identity-labelled edge is its own child under an identity root.
            child, root = edge, self.identity_lim(m + 1)
        else:
            child, root = Edge(self.identity_lim(m), edge.node), _lift(lim, m + 1)
        zero = self.zero_edge(m)
        return Edge(root, self._make_node(m + 1, *((zero, child) if bit else (child, zero))))

    def _make_edge_evdd(self, m: int, low: Edge, high: Edge, low_zero: bool) -> Edge:
        # A normalized weight can read as zero on the float backend although
        # the weight it came from did not; that branch is then dropped, as
        # a zero child would be.
        ops = self.ops
        if low_zero:
            return self._one_branch(m, high, 1)
        a, b = low.lim.factor, high.lim.factor
        if self.norm_rule == "l2":
            norm = (abs(a) ** 2 + abs(b) ** 2) ** 0.5
            phase = a / abs(a)
            w = norm * phase
            lo, hi = a / w, b / w
            if ops.is_zero(lo):
                return self._one_branch(m, high, 1)
            if ops.is_zero(hi):
                return self._one_branch(m, low, 0)
            node = self._make_node(
                m + 1,
                Edge(PauliLIM(lo, PauliString(m, 0, 0)), low.node),
                Edge(PauliLIM(hi, PauliString(m, 0, 0)), high.node),
            )
            return Edge(PauliLIM(w, PauliString(m + 1, 0, 0)), node)
        c = ops.div(b, a)
        if ops.is_zero(c):
            return self._one_branch(m, low, 0)
        # Children that are already normalized are reused as they are.
        if a is ops.one:
            child0, root = low, self.identity_lim(m + 1)
        else:
            child0 = Edge(self.identity_lim(m), low.node)
            root = PauliLIM(a, PauliString(m + 1, 0, 0))
        child1 = high if c is b else Edge(PauliLIM(c, high.lim.string), high.node)
        return Edge(root, self._make_node(m + 1, child0, child1))

    def _get_labels(
        self, a_hat: PauliLIM, v0: Node, v1: Node, outer: PauliLIM
    ) -> tuple[PauliLIM, PauliLIM]:
        """Canonical high label for |0>|v0> + |1> a_hat |v1>, plus the root
        label of that state under ``outer`` (a label on the children's
        qubits): ``outer`` times the label, on one more qubit, that undoes
        the canonicalization, with its powers of i folded into one.

        Stage 1 minimizes the Pauli string of g0 * a_hat * g1 over both
        children's stabilizer groups: v0's cached rows seed a joint basis,
        v1's rows are reduced into it, the key of a_hat is cleared top down,
        and only then are the rows used multiplied, with phases kept as
        powers of i.  Stage 2 sweeps a top-qubit Z flip and, when both
        children coincide, a top-qubit X swap, and keeps the scalar the
        backend ranks smallest.
        """
        ops = self.ops
        s = a_hat.string
        m = s.n
        basis0, basis1 = self.stab_gens(v0), self.stab_gens(v1)
        rows, _ = self._joint(v0, basis0, v1, basis1)
        key = string_key(s.x, s.z)
        used = 0
        for row_key, mask in rows:
            if key ^ row_key < key:
                key ^= row_key
                used ^= mask
        n0 = len(basis0)
        g0 = combine(basis0, used & ((1 << n0) - 1))
        g1 = combine(basis1, used >> n0)
        k, px, pz = row_mul(g0, row_mul((0, s.x, s.z), g1))
        lam = times_i(ops, a_hat.factor, k)

        # lam and -lam tie on magnitude and on absolute components, so the
        # sign alone decides between them.
        s_bit = ops.leads_negative(lam)
        mu = ops.neg(lam) if s_bit else lam
        x_bit = False
        if v0 is v1:
            inv_lam = ops.inv(lam)
            inv_neg = ops.leads_negative(inv_lam)
            inv_mu = ops.neg(inv_lam) if inv_neg else inv_lam
            if ops.argmin_key(inv_mu) < ops.argmin_key(mu):
                x_bit, s_bit, mu = True, inv_neg, inv_mu

        # g0 is a product of commuting +/-1 stabilizers, so it is its own
        # inverse.
        top = 1 << m
        if x_bit:
            root = row_mul(g0, (0, px | top, pz))
            if s_bit:
                root = row_mul(root, (0, 0, top))
        else:
            root = (g0[0], g0[1], g0[2] | top) if s_bit else g0
        o = outer.string
        k, x, z = row_mul((0, o.x, o.z), root)
        factor = times_i(ops, ops.mul(outer.factor, lam) if x_bit else outer.factor, k)
        # Products such as -(-1) and i * -i equal one without being the
        # interned one that the unit tests compare against.
        one = ops.one
        return (
            PauliLIM(one if mu == one else mu, PauliString(m, px, pz)),
            PauliLIM(one if factor == one else factor, PauliString(m + 1, x, z)),
        )

    # -- stabilizer groups -------------------------------------------------

    def stab_gens(self, node: Node) -> Basis:
        """Echelon basis of the Pauli stabilizer group of the node's state.

        Rows are (k, x, z) with k in {0, 2}, memoized per node; the groups
        are abelian and never contain -identity, so every member is
        determined by its string.
        """
        if self.mode != "limdd":
            raise DiagramError("stabilizer generators exist only in limdd mode")
        cached = self.stab_cache.get(node.id)
        if cached is not None:
            return cached
        top = 1 << (node.level - 1)
        low, high = node.low, node.high
        if self.is_zero(high):
            # Z on the top qubit leads every key of the group below.
            out = ((string_key(0, top), (0, 0, top)),) + self.stab_gens(low.node)
        else:
            v0, v1 = low.node, high.node
            c = high.lim.string
            below = self.stab_gens(v0)
            # Conjugating by the high label flips the sign of the members
            # that anticommute with its string.
            rotated = []
            for key, (k, x, z) in self.stab_gens(v1):
                if ((x & c.z) ^ (z & c.x)).bit_count() & 1:
                    k ^= 2
                rotated.append((key, (k, x, z)))
            _, common = self._joint(v0, below, v1, rotated)
            # A string both branches share extends by I on top when the two
            # members agree in sign, by Z when they differ.
            n0 = len(below)
            gens = []
            for mask in common:
                k, x, z = combine(below, mask & ((1 << n0) - 1))
                same = combine(rotated, mask >> n0)[0] == k
                gens.append((k, x, z if same else z | top))
            if v0 is v1:
                ops = self.ops
                gamma = high.lim.factor
                for k in range(4):
                    if ops.eq(gamma, ops.i_power(k)):
                        # gamma = +/-1 gives +/-X on top, gamma = +/-i gives +/-Y.
                        gens.append((k & 2, c.x | top, c.z | (top if k & 1 else 0)))
                        break
            out = echelon(gens)
        self.stab_cache[node.id] = out
        return out

    def _joint(self, v0: Node, basis0: Basis, v1: Node, basis1: Iterable) -> tuple:
        """``joint_echelon`` of the two nodes' groups, built once per child
        pair.  It reads only the rows' keys, so ``basis1`` may be v1's group
        with any signs."""
        key = (v0.id, v1.id)
        hit = self.joint_cache.get(key)
        if hit is None:
            hit = self.joint_cache[key] = joint_echelon(basis0, basis1)
        return hit

    # -- traversal ---------------------------------------------------------

    def follow(self, edge: Edge, bit: int) -> Edge:
        """Restrict the top qubit to a basis value, one level down."""
        m = edge.lim.string.n
        if m < 1:
            raise DiagramError("cannot follow below the terminal")
        if self.is_zero(edge):
            return self.zero_edge(m - 1)
        ops = self.ops
        lim = edge.lim
        new_bit, oct_exp = follow_basis(bit, lim.string.code_at(m - 1))
        child = edge.node.high if new_bit else edge.node.low
        if self.is_zero(child):
            return self.zero_edge(m - 1)
        factor = lim.factor
        if oct_exp:
            factor = ops.mul(factor, ops.omega(oct_exp))
        mask = (1 << (m - 1)) - 1
        below = PauliLIM(
            factor, PauliString(m - 1, lim.string.x & mask, lim.string.z & mask)
        )
        return Edge(lim_mul(ops, below, child.lim), child.node)

    def eval_amplitude(self, edge: Edge, index: int) -> object:
        """Amplitude of one basis state; bit k-1 of the index is qubit k."""
        n = edge.lim.string.n
        if not (isinstance(index, Integral) and 0 <= index < 1 << n):
            raise ValueError(f"basis index {index!r} is not an integer in [0, 2**{n})")
        cur = edge
        for m in range(n, 0, -1):
            cur = self.follow(cur, (index >> (m - 1)) & 1)
        return cur.lim.factor

    def to_vector(self, edge: Edge) -> list:
        n = edge.lim.string.n
        return [self.eval_amplitude(edge, i) for i in range(1 << n)]

    # -- pointwise addition ------------------------------------------------

    def add(self, e: Edge, f: Edge) -> Edge:
        if self.is_zero(e):
            return f
        if self.is_zero(f):
            return e
        ops = self.ops
        m = e.lim.string.n
        if f.lim.string.n != m:
            raise DiagramError("cannot add edges at different levels")
        if m == 0:
            s = ops.add(e.lim.factor, f.lim.factor)
            if ops.is_zero(s):
                return self.zero_edge(0)
            return self.terminal_edge(s)
        if e.node.id > f.node.id:
            e, f = f, e
        a = e.lim
        c = lim_div(ops, a, f.lim)
        if self.mode == "limdd":
            c = self._coset_min(c, f.node)
        if e.node is f.node and c.string.is_identity():
            s = ops.add(ops.one, c.factor)
            if ops.is_zero(s):
                return self.zero_edge(m)
            return Edge(lim_scale(ops, s, a), e.node)
        key = (e.node.id, lim_key(ops, c), f.node.id)
        hit = self.add_cache.get(key)
        if hit is None:
            right = Edge(c, f.node)
            hit = self.make_edge(
                self.add(e.node.low, self.follow(right, 0)),
                self.add(e.node.high, self.follow(right, 1)),
            )
            self.add_cache[key] = hit
        if self.is_zero(hit):
            return self.zero_edge(m)
        return Edge(lim_mul(ops, a, hit.lim), hit.node)

    def _coset_min(self, c: PauliLIM, w: Node) -> PauliLIM:
        """Minimal-string representative of c * <Stab(w)>; unique because a
        stabilizer group holds at most one member per string."""
        s = c.string
        basis = self.stab_gens(w)
        _, used = reduce_key(basis, string_key(s.x, s.z))
        k, x, z = row_mul((0, s.x, s.z), combine(basis, used))
        return PauliLIM(times_i(self.ops, c.factor, k), PauliString(s.n, x, z))

    # -- statistics, checking, reclamation ---------------------------------

    def reachable(self, roots: Iterable[Edge]) -> dict[int, Node]:
        seen: dict[int, Node] = {}
        stack = [r.node for r in roots]
        while stack:
            node = stack.pop()
            if node.id in seen:
                continue
            seen[node.id] = node
            if node.level > 0:
                stack.append(node.low.node)
                stack.append(node.high.node)
        return seen

    def stats(self, root: Edge, n_qubits: int) -> DiagramStats:
        """One pass over the reachable nodes.  Factors that are the interned
        one are not sized: their size, 1, is the least ``bit_size`` gives."""
        width = [0] * (n_qubits + 1)
        exact = self.ops.backend == "exact"
        one = self.ops.one
        bits = bit_size(root.lim.factor) if exact else 0
        for node in self.reachable([root]).values():
            if node.level > 0:
                width[node.level] += 1
                if exact:
                    for e in (node.low, node.high):
                        if e.lim.factor is not one:
                            bits = max(bits, bit_size(e.lim.factor))
        return DiagramStats(sum(width), tuple(width), bits)

    def check_invariants(self, root: Edge) -> None:
        ops = self.ops
        for node in self.reachable([root]).values():
            if node.level == 0:
                continue
            low, high = node.low, node.high
            if low.lim.string.n != node.level - 1:
                raise DiagramError(f"bad low label width at node {node.id}")
            if high.lim.string.n != node.level - 1:
                raise DiagramError(f"bad high label width at node {node.id}")
            for e in (low, high):
                if self.is_zero(e) and (
                    e.node is not self.terminal or not e.lim.string.is_identity()
                ):
                    raise DiagramError(f"zero edge off the terminal at node {node.id}")
            if self.is_zero(low):
                if self.mode == "limdd":
                    raise DiagramError(f"zero low branch at node {node.id}")
                if not ops.eq(high.lim.factor, ops.one):
                    raise DiagramError(f"bad zero-low form at node {node.id}")
                continue
            if self.mode == "evdd":
                if not low.lim.string.is_identity() or not high.lim.string.is_identity():
                    raise DiagramError(f"pauli label in evdd at node {node.id}")
                if self.norm_rule == "low" and not ops.eq(low.lim.factor, ops.one):
                    raise DiagramError(f"unnormalized low weight at node {node.id}")
                continue
            if not low.lim.is_identity_lim(ops):
                raise DiagramError(f"non-identity low label at node {node.id}")
            if self.is_zero(high):
                continue
            if low.node.id > high.node.id:
                raise DiagramError(f"unordered children at node {node.id}")
            c_hat, undo = self._get_labels(high.lim, low.node, high.node, low.lim)
            if lim_key(ops, c_hat) != lim_key(ops, high.lim) or not undo.is_identity_lim(ops):
                raise DiagramError(f"non-canonical high label at node {node.id}")

    def clear_op_caches(self) -> None:
        self.op_cache.clear()
        self.add_cache.clear()

    def collect(self, roots: Iterable[Edge]) -> int:
        """Mark-and-sweep from the given roots; node ids are stable."""
        live = self.reachable(roots)
        live[0] = self.terminal
        dropped = len(self.unique) + 1 - len(live)
        self.unique = {}
        for node in live.values():
            if node.level > 0:
                self.unique[self._node_key(node.level, node.low, node.high)] = node
        self.clear_op_caches()
        self.stab_cache = {
            k: v for k, v in self.stab_cache.items() if k in live
        }
        self.joint_cache = {
            k: v for k, v in self.joint_cache.items() if k[0] in live and k[1] in live
        }
        self.snorm_cache = {
            k: v for k, v in self.snorm_cache.items() if k in live
        }
        self.gc_runs += 1
        return dropped

    def maybe_collect(self, roots: Iterable[Edge]) -> bool:
        if len(self.unique) + 1 < self.gc_capacity:
            return False
        self.collect(roots)
        while len(self.unique) + 1 > self.gc_capacity * 0.75:
            self.gc_capacity *= 2
        return True


@dataclass
class State:
    """A quantum state as a root edge into a diagram store."""

    store: DDStore
    root: Edge
    n_qubits: int

    def amplitude(self, index: int):
        return self.store.eval_amplitude(self.root, index)

    def to_vector(self) -> list:
        return self.store.to_vector(self.root)

    def stats(self) -> DiagramStats:
        return self.store.stats(self.root, self.n_qubits)

    def check(self) -> None:
        self.store.check_invariants(self.root)
