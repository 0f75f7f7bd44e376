"""Decision-diagram core: hash-consed nodes and canonical edge construction.

Two diagram flavors share one node store.  In ``evdd`` mode every edge label
is a plain scalar (the Pauli string is always identity) and a node is
normalized by its low edge's weight, or on the float backend by its high
edge's when the low one may be rounding noise.  In ``limdd`` mode labels
are scalar-weighted Pauli strings; a node keeps an identity label on its low
edge and a canonical label on its high edge, chosen as the minimum over the
freedom the children's stabilizer groups allow, so states that differ only
by a Pauli with a phase share one node.  Each node's group is cached as an
echelon basis of integer-phase rows from the ``pauli`` group kernel; the
double-coset and coset minimizations reduce against those bases and touch
the scalar ring once, at the end.  The joint basis of a child pair is built
once and serves both the high label and the parent's group.  Group work runs
only for a label whose Pauli string is not the identity: the identity's key,
0, is already the least of every coset, so such a label builds no group and
no joint basis in ``_get_labels``, and ``_coset_min`` returns it as it is.
The scalar choice for equal children depends on that scalar alone, so
``self_pair_memo`` holds it per store, keyed by the backend's ``memo_key``
(which tells a float zero part's sign apart), until the next collection.
Children that a stored node already holds are canonical, so ``make_edge``
returns that node without canonicalizing them again.

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

``mix`` builds both new branches of a node whose branch pair a step mixes
(h, and cx, ccx and swap with their top bit above the rest) in one memoized
descent, and ``add`` is the first branch of its h step.  Each level factors
the first label out of the pair with ``_relative``, so a result is keyed by
two node ids and one relative label, in ``add_cache``, which the gate
driver clears with each segment.
"""
from __future__ import annotations

from dataclasses import dataclass
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
from .stabtrack import whole


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


GC_CAPACITY = 1 << 16  # table size, terminal included, that starts a collection
SMALL_LOW = 1e-6  # the float low rule distrusts a low weight below this share of the high


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
        gc_capacity: int = GC_CAPACITY,
    ) -> None:
        if mode not in ("evdd", "limdd"):
            raise ValueError(f"unknown diagram mode {mode!r}")
        if norm_rule not in ("low", "l2"):
            raise ValueError(f"unknown normalization rule {norm_rule!r}")
        self.policy = CoeffPolicy() if policy is None else policy
        if not isinstance(self.policy, CoeffPolicy):
            raise ValueError(f"policy must be a CoeffPolicy, got {policy!r}")
        self.ops: ScalarOps = scalar_ops(self.policy)
        # Whether an edge is zero: its factor under the backend's zero test,
        # one call per edge.
        self.is_zero: Callable[[Edge], bool] = self.ops.edge_is_zero
        if norm_rule == "l2" and (mode != "evdd" or self.policy.backend != "float"):
            raise ValueError("l2 normalization requires the float evdd backend")
        self.mode = mode
        self.norm_rule = norm_rule
        self.guard_low = norm_rule == "low" and self.policy.backend == "float"
        self.terminal = Node(0, 0, None, None)
        self.unique: dict[tuple, Node] = {}
        self.next_id = 1
        # ``mix`` results, a branch pair per key; ``add`` reads the first.
        self.add_cache: dict[tuple, tuple[Edge, Edge]] = {}
        self.op_cache: dict[tuple, Edge] = {}
        self.stab_cache: dict[int, Basis] = {0: ()}
        self.joint_cache: dict[tuple[int, int], tuple] = {}
        # ``_self_pair_choice`` by ``ops.memo_key`` of its lam.
        self.self_pair_memo: dict[object, tuple] = {}
        self._identities: dict[int, PauliLIM] = {}
        self._zeros: dict[int, Edge] = {}
        self.snorm_cache: dict[int, object] = {}
        self.peak_nodes = 1
        # maybe_collect would double a capacity below 1 forever.
        self.gc_capacity = whole(gc_capacity, "gc_capacity", 1)
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

    def _make_node(self, level: int, low: Edge, high: Edge, key: tuple | None = None) -> Node:
        """The stored node with these children, whose key a caller may pass."""
        if key is None:
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
        key = None
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
            key = self._node_key(m + 1, low, high)
            node = dict.get(self.unique, key)
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
            # The probe's key fits only if high is the zero edge itself.
            edge = self._one_branch(m, low, 0, key if high is self._zeros.get(m) else None)
        elif low_zero:  # evdd: limdd swapped this case away
            edge = self._one_branch(m, high, 1)
        elif self.mode == "evdd":
            edge = self._make_edge_evdd(m, low, high, key)
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

    def _one_branch(self, m: int, edge: Edge, bit: int, key: tuple | None = None) -> Edge:
        """|bit>(edge) one level up, for a nonzero edge; ``key`` as in ``_make_node``."""
        lim = edge.lim
        if lim.factor is self.ops.one and not (lim.string.x or lim.string.z):
            # An identity-labelled edge is its own child under an identity root.
            child, root = edge, self.identity_lim(m + 1)
        else:
            child, root = Edge(self.identity_lim(m), edge.node), _lift(lim, m + 1)
        zero = self.zero_edge(m)
        return Edge(root, self._make_node(m + 1, *((zero, child) if bit else (child, zero)), key))

    def _make_edge_evdd(self, m: int, low: Edge, high: Edge, key: tuple | None) -> Edge:
        """|0>(low) + |1>(high) for two nonzero children with weights a and
        b, as a root weight w times a node whose children weigh a/w and b/w.
        The rule picks w: ``low`` takes a; ``l2`` the norm of (a, b) with
        a's phase; and the float ``low`` rule takes b when a is below
        SMALL_LOW of it, as dividing by rounding noise would lose the state.
        The child whose weight is w gets the interned one.  A child weight
        that reads as zero on the float backend, though its weight before
        dividing did not, drops that branch, as a zero child would be."""
        ops = self.ops
        one = ops.one
        a, b = low.lim.factor, high.lim.factor
        if self.norm_rule == "l2":
            w = (abs(a) ** 2 + abs(b) ** 2) ** 0.5 * (a / abs(a))
        elif self.guard_low and abs(a) < SMALL_LOW * abs(b):
            w = b
        else:
            w = a
        if w is a:
            lo, hi = one, ops.div(b, a)
        else:
            lo, hi = ops.div(a, w), one if w is b else ops.div(b, w)
        if lo is not one and ops.is_zero(lo):
            return self._one_branch(m, high, 1)
        if hi is not one and ops.is_zero(hi):
            return self._one_branch(m, low, 0)
        # Children whose weight is unchanged are reused as they are.
        child0 = low if lo is a else Edge(PauliLIM(lo, low.lim.string), low.node)
        child1 = high if hi is b else Edge(PauliLIM(hi, high.lim.string), high.node)
        root = self.identity_lim(m + 1) if w is one else PauliLIM(w, PauliString(m + 1, 0, 0))
        # The probe's key, set when a is one, fits only the children it was
        # built from.
        if child0 is not low or child1 is not high:
            key = None
        return Edge(root, self._make_node(m + 1, child0, child1, key))

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
        powers of i.  An identity string is already least, so stage 1 then
        builds no group or joint basis and leaves the scalar lam as it is.
        Stage 2 sweeps a top-qubit Z flip and, when both children coincide,
        a top-qubit X swap, and keeps the scalar the backend ranks smallest.
        With coinciding children that choice, an inversion and two ranked
        comparisons, depends on lam alone; ``self_pair_memo`` holds it.
        """
        ops = self.ops
        s = a_hat.string
        m = s.n
        if s.x or s.z:
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
        else:
            # Key 0 is already the least of its double coset.
            g0, px, pz, lam = (0, 0, 0), 0, 0, a_hat.factor

        if v0 is v1:
            memo_key = ops.memo_key(lam)
            choice = self.self_pair_memo.get(memo_key)
            if choice is None:
                choice = self.self_pair_memo[memo_key] = self._self_pair_choice(lam)
            x_bit, s_bit, mu = choice
        else:
            # lam and -lam tie on magnitude and on absolute components, so
            # the sign alone decides between them.
            x_bit, s_bit = False, ops.leads_negative(lam)
            mu = ops.neg(lam) if s_bit else lam

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

    def _self_pair_choice(self, lam: object) -> tuple[bool, bool, object]:
        """Stage 2 of ``_get_labels`` for equal children: the X swap and Z
        flip bits, and the least of lam, -lam, 1/lam and -1/lam."""
        ops = self.ops
        s_bit = ops.leads_negative(lam)
        mu = ops.neg(lam) if s_bit else lam
        inv_lam = ops.inv(lam)
        inv_neg = ops.leads_negative(inv_lam)
        inv_mu = ops.neg(inv_lam) if inv_neg else inv_lam
        if ops.argmin_key(inv_mu) < ops.argmin_key(mu):
            return True, inv_neg, inv_mu
        return False, s_bit, mu

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
        whole(index, "basis index", 0, 1 << n)
        cur = edge
        for m in range(n, 0, -1):
            cur = self.follow(cur, (index >> (m - 1)) & 1)
        return cur.lim.factor

    def to_vector(self, edge: Edge) -> list:
        n = edge.lim.string.n
        return [self.eval_amplitude(edge, i) for i in range(1 << n)]

    # -- pointwise addition and paired steps -------------------------------

    def _relative(self, e: Edge, f: Edge) -> PauliLIM:
        """f's label with e's factored out, e.lim**-1 * f.lim; in limdd the
        least member of its coset over f's stabilizer group.  With it, two
        states and anything built from them are keyed by their node ids and
        this one label."""
        c = lim_div(self.ops, e.lim, f.lim)
        return self._coset_min(c, f.node) if self.mode == "limdd" else c

    def _scalar_edge(self, s: object) -> Edge:
        return self.zero_edge(0) if self.ops.is_zero(s) else self.terminal_edge(s)

    def scaled(self, s: object, edge: Edge) -> Edge:
        """s * edge, or the zero edge of its width when either is zero."""
        if self.is_zero(edge) or self.ops.is_zero(s):
            return self.zero_edge(edge.lim.string.n)
        return Edge(lim_scale(self.ops, s, edge.lim), edge.node)

    def under(self, lim: PauliLIM, sub: Edge) -> Edge:
        """lim * sub, for a label of sub's width: the label that an
        operation was moved past, put back on its result.  An identity
        label whose factor is the interned one passes sub through."""
        if self.is_zero(sub):
            return self.zero_edge(lim.string.n)
        s = lim.string
        if not (s.x or s.z) and lim.factor is self.ops.one:
            return sub
        return Edge(lim_mul(self.ops, lim, sub.lim), sub.node)

    def add(self, e: Edge, f: Edge) -> Edge:
        """e + f, the first branch of ``mix``'s h step."""
        if e.lim.string.n != f.lim.string.n:
            raise DiagramError("cannot add edges at different levels")
        return self.mix(e, f, ("h", ()))[0]

    def mix(self, e0: Edge, e1: Edge, step: tuple) -> tuple[Edge, Edge]:
        """The new branch pair of a node whose branch pair (e0, e1) the step
        mixes, both branches built in one descent over the two edges.  With
        e|v the part of e in which a given bit reads v:
        - ``("h", ())`` gives (e0 + e1, e0 - e1), unscaled;
        - ``("x", controls)`` exchanges the parts of e0 and e1 in which
          every ``(bit, value)`` of controls, highest bit first, reads its
          value; one control (c, 1) gives (e0|0 + e1|1, e1|0 + e0|1);
        - ``("swap", lo)`` regroups the pair by bit lo: the new e0 is e0|0
          where lo reads 0 and e1|0 where it reads 1, the new e1 holds e0|1
          and e1|1 the same way.
        Each level factors the first nonzero label out of the pair and
        memoizes the rest in ``add_cache`` under two node ids
        and the relative label.  An X of that label at a control flips the
        control's value; a label that acts at the swap's lo does not commute
        with it, and that pair is keyed by both full labels instead."""
        kind, arg = step
        if kind == "x" and not arg:
            return e1, e0
        zero0, zero1 = self.is_zero(e0), self.is_zero(e1)
        if zero0 and zero1:
            return e0, e1
        ops = self.ops
        m = e0.lim.string.n
        if kind == "h":
            if zero0 or zero1:
                return (e0, e0) if zero1 else (e1, self.scaled(ops.neg(ops.one), e1))
            if m == 0:
                s0, s1 = e0.lim.factor, e1.lim.factor
                return self._scalar_edge(ops.add(s0, s1)), self._scalar_edge(ops.sub(s0, s1))
        a = (e1 if zero0 else e0).lim
        s = a.string
        ident = self.identity_lim(m)
        if kind == "swap" and ((s.x | s.z) >> arg) & 1:
            a = None
            key = (step, lim_key(ops, e0.lim), e0.node.id, lim_key(ops, e1.lim), e1.node.id)
        else:
            if kind == "x" and s.x:
                step = (kind, tuple((bit, v ^ (s.x >> bit) & 1) for bit, v in arg))
            if zero0 or zero1:
                key = (step, e0.node.id, e1.node.id)
                e0, e1 = (e0, Edge(ident, e1.node)) if zero0 else (Edge(ident, e0.node), e1)
            else:
                c = self._relative(e0, e1)
                if kind == "h" and e0.node is e1.node and c.string.is_identity():
                    e = Edge(a, e0.node)
                    return (self.scaled(ops.add(ops.one, c.factor), e),
                            self.scaled(ops.sub(ops.one, c.factor), e))
                key = (step, e0.node.id, lim_key(ops, c), e1.node.id)
                e0, e1 = Edge(ident, e0.node), Edge(c, e1.node)
        hit = self.add_cache.get(key)
        if hit is None:
            follow = self.follow
            low, high = (
                (e0.node.low, e0.node.high) if e0.lim is ident else (follow(e0, 0), follow(e0, 1))
            )
            halves = [(low, follow(e1, 0)), (high, follow(e1, 1))]
            top = -1 if kind == "h" else arg if kind == "swap" else arg[0][0]
            if m - 1 > top:
                halves = [self.mix(*halves[0], step), self.mix(*halves[1], step)]
            elif kind == "x":
                v = step[1][0][1]
                halves[v] = self.mix(*halves[v], (kind, step[1][1:]))
            else:
                halves = list(zip(*halves))
            (l0, l1), (h0, h1) = halves
            hit = self.make_edge(l0, h0), self.make_edge(l1, h1)
            self.add_cache[key] = hit
        if a is None:
            return hit
        return self.under(a, hit[0]), self.under(a, hit[1])

    def _coset_min(self, c: PauliLIM, w: Node) -> PauliLIM:
        """Minimal-string representative of c * <Stab(w)>; unique because a
        stabilizer group holds at most one member per string."""
        s = c.string
        if not (s.x or s.z):
            return c
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
                w = low.lim.factor
                if self.norm_rule == "low" and not ops.eq(w, ops.one) and not (
                    self.guard_low and high.lim.factor is ops.one and abs(w) <= SMALL_LOW
                ):
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
        self.unique = {k: v for k, v in self.unique.items() if v.id in live}
        self.clear_op_caches()
        self.stab_cache = {k: v for k, v in self.stab_cache.items() if k in live}
        self.joint_cache = {
            k: v for k, v in self.joint_cache.items() if k[0] in live and k[1] in live
        }
        self.snorm_cache = {k: v for k, v in self.snorm_cache.items() if k in live}
        # Float runs add an entry for almost every equal-children label.
        self.self_pair_memo.clear()
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
