"""Normalized bar-resolution cohomology for finite groups with module values.

Cochains are finitely supported maps from k-tuples of non-identity group
elements to module coordinate vectors; any tuple containing the identity
implicitly maps to zero.  The differential is the standard bar formula

    (df)(g1..g_{k+1}) = g1.f(g2..) + sum_i (-1)^i f(..g_i g_{i+1}..)
                        + (-1)^{k+1} f(g1..g_k)

and is evaluated support-driven, so sparse cochains stay cheap; a cocycle
check evaluates it only at generator last arguments.  Canonical coboundary
witnesses are solves against the previous differential's matrix; the solver
matrices live in the "coefficient" space of zmodlin (each target coordinate
scaled by l^n/order) so one Howell engine serves all modules.  Classes with
trivial Z/l^n coefficients on G = (Z/l^n)^d are decided without a solve, on
the tensor product of cyclic resolutions (CyclicTensorResolution), and the
H^2 hypothesis check builds no bar matrix either: it works in homology, on
the cycle space of a Cayley graph (inflation_h2_surjective).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import (
    DimensionMismatch,
    EquivarianceFailure,
    NotACocycle,
    SizeBound,
    SocleCohError,
)
from .fingroup import ExtensionData, FinGroup
from .gmodule import (
    GModule,
    JBundle,
    element_matrices,
    mat_apply,
    mat_identity,
    mat_mul,
    trivial_module,
    vec_reduce,
)
from .zmodlin import HowellBasis, LinearSolver, RingConfig, howell_form_rows, quotient_orders

DEFAULT_RANK_CELLS = 2_000_000
DEFAULT_H2_MAX_ORDER = 32


@dataclass(frozen=True)
class CoeffAction:
    """A module together with the action of every element of one group.

    mats[x] is the action matrix of group element x on the module; for a
    module of the quotient G acted on through a projection, mats composes
    the projection with the G-element matrices.
    """

    group: FinGroup
    module: GModule
    mats: tuple

    @classmethod
    def trivial(cls, group: FinGroup, ring: RingConfig) -> "CoeffAction":
        mod = trivial_module(ring)
        ident = mat_identity(mod.orders)
        return cls(group, mod, tuple(ident for _ in group.elements()))

    def act(self, x: int, v):
        return mat_apply(v, self.mats[x], self.module.orders)


def action_for_quotient_module(ext: ExtensionData, module: GModule) -> CoeffAction:
    """G acting on one of its own modules (generators = ext.sigma), each
    element through its exponent coordinates over the generators."""
    return CoeffAction(ext.quotient, module, element_matrices(module, ext.coords))


@dataclass(frozen=True)
class Cochain:
    """Normalized bar k-cochain with module values."""

    action: CoeffAction
    degree: int
    values: dict

    @classmethod
    def make(cls, action: CoeffAction, degree: int, values) -> "Cochain":
        orders = action.module.orders
        ident = action.group.identity
        out = {}
        for t, v in values.items():
            if len(t) != degree:
                raise DimensionMismatch(f"tuple {t} in a degree-{degree} cochain")
            if ident in t:
                continue
            v = vec_reduce(v, orders)
            if any(v):
                out[tuple(t)] = v
        return cls(action, degree, out)

    @classmethod
    def zero(cls, action: CoeffAction, degree: int) -> "Cochain":
        return cls(action, degree, {})

    def is_zero(self) -> bool:
        return not self.values

    def value(self, t):
        """f on the tuple t, zero where f has no stored value."""
        return self.values.get(t) or (0,) * self.action.module.rank

    def entries(self):
        """The (tuple, value) pairs of the support in sorted tuple order."""
        return ((t, self.values[t]) for t in sorted(self.values))

    def add(self, other: "Cochain", sign: int = 1) -> "Cochain":
        orders = self.action.module.orders
        out = dict(self.values)
        for t, v in other.values.items():
            cur = out.get(t, tuple([0] * len(orders)))
            nv = tuple((a + sign * b) % o for a, b, o in zip(cur, v, orders))
            if any(nv):
                out[t] = nv
            else:
                out.pop(t, None)
        return Cochain(self.action, self.degree, out)

    def same_values(self, other: "Cochain") -> bool:
        return self.degree == other.degree and self.values == other.values


def differential(f: Cochain, last=None) -> Cochain:
    """Bar differential, evaluated only where the support can contribute.

    One accumulator of plain ints per module coordinate.  Only the first
    face g1.f(g2..) mixes coordinates, and only under a nontrivial action;
    every other face adds +-f(..) to each coordinate on its own.  An inner
    face f(..g_i g_{i+1}..) reaches the tuples that split a support entry
    t = g_i g_{i+1} into a product a.b, which the group's merges table lists.

    With last given, df is evaluated only at the tuples whose last argument
    lies in last: the first face and the inner faces that keep the last
    argument count only for support tuples ending in last, the last face
    runs over last, and the face that splits the last argument keeps the
    pairs a.b = t with b in last, a = t.b^-1.
    """
    act = f.action
    grp = act.group
    orders = act.module.orders
    k = f.degree
    ident = grp.identity
    nonid = [g for g in grp.elements() if g != ident]
    keep = set(nonid if last is None else last)
    ends = [g for g in nonid if g in keep]
    merges = grp.merges() if k else ()
    last_merges = merges
    if last is not None and k:
        # the pairs a.b = t with b in last: a = t.b^-1, and a != 1 when b != t
        inv = [grp.inv(b) for b in ends]
        last_merges = [
            [(grp.mul(t, bi), b) for b, bi in zip(ends, inv) if b != t] for t in grp.elements()
        ]
    last_sign = -1 if (k + 1) % 2 else 1
    trivial = all(m is act.mats[ident] or m == act.mats[ident] for m in act.mats)
    accs = [{} for _ in orders]
    for tup, vec in f.values.items():
        # the faces that keep tup[-1] last count when it is kept; in degree 0
        # the first face's output (g,) ends in g
        whole = last is None or (k and tup[-1] in keep)
        firsts = ends if not k else nonid if whole else ()
        splits = [(i, merges[tup[i]]) for i in range(k - 1)] if whole else []
        if k:
            splits.append((k - 1, last_merges[tup[-1]]))
        if not trivial:
            for g in firsts:
                t1 = (g,) + tup
                for acc, x in zip(accs, act.act(g, vec)):
                    if x:
                        acc[t1] = acc.get(t1, 0) + x
        for acc, v in zip(accs, vec):
            if not v:
                continue
            get = acc.get
            if trivial:  # g1.f(g2..) = f(g2..)
                for g in firsts:
                    t1 = (g,) + tup
                    acc[t1] = get(t1, 0) + v
            lv = last_sign * v
            for g in ends:
                t2 = tup + (g,)
                acc[t2] = get(t2, 0) + lv
            for i, pairs in splits:
                sv = -v if (i + 1) % 2 else v
                head, tail = tup[:i], tup[i + 1 :]
                for a, b in pairs:
                    t3 = head + (a, b) + tail
                    acc[t3] = get(t3, 0) + sv
    # reduce each coordinate and gather the nonzero value vectors
    out = {}
    zero = (0,) * len(orders)
    for j, (acc, o) in enumerate(zip(accs, orders)):
        head, tail = zero[:j], zero[j + 1 :]
        get = out.get
        for tup, x in acc.items():
            x %= o
            if x and ident not in tup:
                vec = get(tup)
                out[tup] = head + (x,) + tail if vec is None else vec[:j] + (x,) + vec[j + 1 :]
    return Cochain(act, k + 1, out)


def is_cocycle(f: Cochain) -> bool:
    """df = 0, checked at the tuples whose last argument is a generator:
    README, "Cocycles from the generator cut", shows that df vanishes
    everywhere once it vanishes there."""
    return differential(f, f.action.group.generators).is_zero()


class CochainComplex:
    """Solver cache for one coefficient action: differentials as matrices.

    Basis of C^k: (tuple, coordinate) pairs, tuples lexicographic over
    non-identity elements.  All matrices are scaled per target coordinate so
    the Howell machinery runs over Z/l^n; unknowns are coefficient vectors
    whose residues modulo the coordinate orders are the cochain values.
    """

    def __init__(self, action: CoeffAction):
        self.action = action
        self.n1 = action.group.order - 1
        self.t = action.module.rank
        ident = action.group.identity
        self.nonid = tuple(g for g in action.group.elements() if g != ident)
        self._solvers = {}

    def grid(self, k: int) -> int:
        return self.n1**k if k else 1

    def dim(self, k: int) -> int:
        return self.grid(k) * self.t

    def tuple_index(self, tup) -> int:
        idx = 0
        for g in tup:
            idx = idx * self.n1 + (g - 1)
        return idx

    def basis_tuples(self, k: int):
        return product(self.nonid, repeat=k)

    def flat(self, f: Cochain):
        """Scaled vector of a cochain over the C^degree basis."""
        q = self.action.module.ring.modulus
        orders = self.action.module.orders
        out = {}
        for tup, vec in f.values.items():
            base = self.tuple_index(tup) * self.t
            for j, v in enumerate(vec):
                if v:
                    out[base + j] = v * (q // orders[j]) % q
        return out

    def unflat(self, xs, k: int) -> Cochain:
        """Coefficient vector (length dim(k)) back to a cochain."""
        orders = self.action.module.orders
        values = {}
        for idx, tup in enumerate(self.basis_tuples(k)):
            vec = tuple(xs[idx * self.t + j] % orders[j] for j in range(self.t))
            if any(vec):
                values[tup] = vec
        return Cochain(self.action, k, values)

    def solver(self, k: int) -> LinearSolver:
        """Howell solver for d: C^k -> C^{k+1} (image, kernel, witnesses),
        built row by row as differential yields it.  The bound counts the
        entries differential yields before any row is built: per row, t
        coordinates for each first face g.f(..), one for the last face and
        one for each of the k inner faces."""
        if k not in self._solvers:
            entries = self.dim(k) * self.n1 * (self.t + k + 1)
            if entries > DEFAULT_RANK_CELLS:
                what = f"degree-{k} differential matrix (estimated entries)"
                raise SizeBound(what, DEFAULT_RANK_CELLS, entries)
            ring = self.action.module.ring
            units = mat_identity(self.action.module.orders)
            rows = [
                self.flat(differential(Cochain(self.action, k, {tup: unit})))
                for tup in self.basis_tuples(k)
                for unit in units
            ]
            self._solvers[k] = LinearSolver(rows, self.dim(k + 1), ring)
        return self._solvers[k]

    def coboundary_witness(self, f: Cochain):
        """Canonical w with dw = f, or None; f must be a cocycle."""
        if not is_cocycle(f):
            raise NotACocycle(f"degree-{f.degree} cochain is not a cocycle")
        if f.degree == 0:
            return None if not f.is_zero() else Cochain.zero(self.action, 0)
        s = self.solver(f.degree - 1)
        x = s.solve(self.flat(f))
        if x is None:
            return None
        return self.unflat(x, f.degree - 1)


# ---------------------------------------------------------------------------
# Trivial Z/q coefficients on G = (Z/q)^d: the cyclic tensor resolution.
# ---------------------------------------------------------------------------


def _exponent_vectors(k: int, d: int):
    """The a in N^d with a_1 + .. + a_d = k, lexicographically descending."""
    if d == 0:
        return [()] if k == 0 else []
    return [(j,) + rest for j in range(k, -1, -1) for rest in _exponent_vectors(k - j, d - 1)]


def _is_trivial_zq(act: CoeffAction, group: FinGroup, q: int) -> bool:
    """Does act carry trivial Z/q coefficients on group?"""
    ident = ((1,),)
    return act.group is group and act.module.orders == (q,) and all(m == ident for m in act.mats)


class CyclicTensorResolution:
    """P, the tensor product of the periodic resolutions of the cyclic
    factors <sigma_i> of G = (Z/q)^d, with a chain map phi: P -> bar.

    P_k is free on the e_a, a in N^d with |a| = k.  The i-th factor sends
    e_j to (sigma_i - 1) e_{j-1} for odd j and to N_i e_{j-1} for even j,
    N_i = 1 + sigma_i + .. + sigma_i^(q-1), with the Koszul sign
    (-1)^(a_1 + .. + a_{i-1}).  On trivial Z/q coefficients sigma_i - 1 and
    N_i both act as 0, so Hom_G(P, Z/q) has zero differentials and
    H^k(G, Z/q) = Hom_G(P_k, Z/q): a k-cocycle f is a coboundary exactly
    when f vanishes on phi_k(e_a) for every a.

    phi_0(e_0) = [] and phi_k(e) = h(phi_{k-1}(de)), where
    h(g[g_1|..|g_k]) = [g|g_1|..|g_k] is the contracting homotopy of the
    normalized bar resolution (zero for g = 1).  dh + hd = 1 makes phi a
    chain map.  Every phi_k(e) has coefficient 1 on its bar tuples, so
    chain_map[k][a] is a dict {(g_1..g_k): integer}, built for k <= 3.
    """

    def __init__(self, ext: ExtensionData):
        G = ext.quotient
        self.group = G
        self.modulus = q = ext.ring.modulus
        self.d = ext.d
        self.powers = []
        for s in ext.sigma:
            xs = [G.identity]
            for _ in range(q - 1):
                xs.append(G.mul(xs[-1], s))
            self.powers.append(xs)
        self.chain_map = [{(0,) * self.d: {(): 1}}]
        for k in (1, 2, 3):
            self.chain_map.append({a: self._lift(k, a) for a in self.basis(k)})

    def basis(self, k: int):
        return _exponent_vectors(k, self.d)

    def boundary(self, a):
        """d e_a as [(r, b)]: r in Z[G] as {element: integer}, b = a - e_i."""
        out = []
        sign = 1
        for i, ai in enumerate(a):
            if ai:
                xs = self.powers[i]
                r = {xs[1]: sign, xs[0]: -sign} if ai % 2 else {x: sign for x in xs}
                out.append((r, a[:i] + (ai - 1,) + a[i + 1 :]))
                if ai % 2:
                    sign = -sign
        return out

    def _lift(self, k: int, a) -> dict:
        """phi_k(e_a) = h(phi_{k-1}(de_a)); h drops the coefficient-1 terms."""
        ident = self.group.identity
        out = {}
        for r, b in self.boundary(a):
            below = self.chain_map[k - 1][b]
            for x, c in r.items():
                if x != ident:
                    for t, v in below.items():
                        key = (x,) + t
                        out[key] = out.get(key, 0) + c * v
        return {t: v for t, v in out.items() if v}

    def is_coboundary(self, f: Cochain) -> bool:
        """Is the Z/q-valued cocycle f of degree <= 3 a coboundary?

        Raises NotACocycle when f is not a cocycle."""
        if not _is_trivial_zq(f.action, self.group, self.modulus):
            raise DimensionMismatch("the H^k decision needs trivial Z/q coefficients on G")
        if f.degree >= len(self.chain_map):
            raise DimensionMismatch(f"the chain map stops at degree {len(self.chain_map) - 1}")
        if not is_cocycle(f):
            raise NotACocycle(f"degree-{f.degree} cochain is not a cocycle")
        return self.vanishes_on_chain_map(f)

    def vanishes_on_chain_map(self, f: "Cochain | ConnectingCochain") -> bool:
        """Does f vanish on every phi_k(e_a)?  Unguarded: for a Z/q-valued
        cocycle of degree <= 3, which the caller vouches for, that is
        [f] = 0.  f is a Cochain or contract's ConnectingCochain, read
        at the few tuples of the chain map through value(t)."""
        value = f.value
        return all(
            sum(c * value(t)[0] for t, c in chain.items()) % self.modulus == 0
            for chain in self.chain_map[f.degree].values()
        )


# ---------------------------------------------------------------------------
# Cup products and the connecting map, on the coefficients they serve.
# ---------------------------------------------------------------------------


def cup(f: Cochain, h: Cochain) -> Cochain:
    """(f cup h)(g_1..g_{p+q}) = f(g_1..g_p) h(g_{p+1}..g_{p+q}) mod q.

    Both factors carry trivial Z/q coefficients on the same group, so the
    prefix product acts as the identity on h's values; distinct pairs of
    support tuples concatenate to distinct tuples."""
    q = f.action.module.ring.modulus
    grp = f.action.group
    if not (_is_trivial_zq(f.action, grp, q) and _is_trivial_zq(h.action, grp, q)):
        raise DimensionMismatch("cup needs trivial Z/q coefficients on one group")
    values = {}
    for tf, (a,) in f.values.items():
        for th, (b,) in h.values.items():
            v = a * b % q
            if v:
                values[tf + th] = (v,)
    return Cochain(f.action, f.degree + h.degree, values)


class CoefficientSES:
    """The split sequence 0 -> Z/q -> mid -> quot -> 0.

    Coordinate 0 of mid carries the trivial submodule sub = Z/q and
    coordinates 1.. carry quot; the section f |-> (0, f) is R-linear, and
    its failure to be equivariant is what the connecting map measures.  The
    inclusion and projection are equivariant exactly when each element's
    mid matrix fixes e_0 and induces quot's matrix on coordinates 1..
    column0[g] is column 0 of rows 1.. of mid[g] (zero at the identity),
    the coefficients of the connecting map's contraction.
    """

    def __init__(self, mid: CoeffAction, quot: CoeffAction):
        ring = mid.module.ring
        self.sub = CoeffAction.trivial(mid.group, ring)
        self.mid, self.quot = mid, quot
        mo, qo = mid.module.orders, quot.module.orders
        if mo != (ring.modulus,) + qo:
            raise SocleCohError("middle orders are not (q,) followed by the quotient's")
        e0 = (1,) + (0,) * len(qo)
        for x in mid.group.elements():
            mat = mid.mats[x]
            if vec_reduce(mat[0], mo) != e0:
                raise SocleCohError("inclusion is not equivariant")
            if any(
                vec_reduce(row[1:], qo) != vec_reduce(qrow, qo)
                for row, qrow in zip(mat[1:], quot.mats[x])
            ):
                raise SocleCohError("projection is not equivariant")
        ident = mid.group.identity
        self.column0 = [
            (0,) * len(qo) if x == ident else tuple(row[0] for row in mat[1:])
            for x, mat in enumerate(mid.mats)
        ]


@dataclass(frozen=True)
class ConnectingCochain:
    """delta f of a cocycle f, kept in factored form.

    (delta f)(g1, t) = sum_j f(t)_j mid[g1][1 + j][0] depends only on g1 and
    on the value vector f(t), and f takes few distinct values, so columns
    holds one table per distinct value v, indexed by group element:
    columns[v][g1] = (delta f)(g1, t) for every t with f(t) = v.  entries()
    streams the nonzero entries in sorted tuple order (g1 major, then
    sorted(f.values)), value(t) reads one entry, and materialize() builds
    the Cochain, which only callers that need every entry as a dict use.
    """

    action: CoeffAction
    degree: int
    f: Cochain
    columns: dict

    def entries(self):
        """The (tuple, value) pairs of the support in sorted tuple order."""
        support = [(t, self.columns[v]) for t, v in sorted(self.f.values.items())]
        for g in self.action.group.elements():
            for t, col in support:
                x = col[g]
                if x:
                    yield (g,) + t, (x,)

    def value(self, t):
        """delta f on the tuple t = (g1,) + rest."""
        v = self.f.values.get(t[1:])
        return (self.columns[v][t[0]],) if v else (0,)

    def materialize(self) -> Cochain:
        return Cochain(self.action, self.degree, dict(self.entries()))


def contract(ses: CoefficientSES, f: Cochain) -> ConnectingCochain:
    """delta f = d(section . f) on coordinate 0 of mid, as a contraction.

    The section puts 0 there and only the first face g1.(0, f(g2..)) of the
    bar differential mixes coordinates: (delta f)(g1, g2..) is
    sum_j f(g2..)_j mid[g1][1 + j][0], one column table per distinct value
    of f.  Coordinates 1.. are d(f): f must be a cocycle, which is unchecked."""
    if f.action is not ses.quot and f.action.module is not ses.quot.module:
        raise DimensionMismatch("cochain does not take values in the quotient module")
    q = ses.mid.module.ring.modulus
    columns = {}
    for vec in set(f.values.values()):
        nz = [(j, v) for j, v in enumerate(vec) if v]
        columns[vec] = [sum(v * col[j] for j, v in nz) % q for col in ses.column0]
    return ConnectingCochain(ses.sub, f.degree + 1, f, columns)


def connecting(ses: CoefficientSES, f: Cochain) -> ConnectingCochain:
    """contract(ses, f) for an arbitrary f, guarded by is_cocycle(f)."""
    delta = contract(ses, f)
    if not is_cocycle(f):
        raise NotACocycle("connecting map needs a cocycle")
    return delta


# ---------------------------------------------------------------------------
# Extension classes and the quotient-extension differential.
# ---------------------------------------------------------------------------


def extension_cocycle(ext: ExtensionData, bundle: JBundle) -> Cochain:
    """alpha(g, h) = s(g) s(h) s(gh)^-1 in H, written in capped H^ab coords:
    a 2-cocycle of G with values in bundle.hab."""
    g = ext.total
    G = ext.quotient
    action = action_for_quotient_module(ext, bundle.hab)
    values = {}
    kernel_set = set(ext.kernel.elements)
    for a in G.elements():
        if a == G.identity:
            continue
        sa = ext.section[a]
        for b in G.elements():
            if b == G.identity:
                continue
            m = g.mul(g.mul(sa, ext.section[b]), g.inv(ext.section[G.mul(a, b)]))
            if m not in kernel_set:
                raise SocleCohError("factor set value escaped the kernel")
            vec = bundle.h_coords[m]
            if any(vec):
                values[(a, b)] = vec
    alpha = Cochain.make(action, 2, values)
    if not is_cocycle(alpha):
        raise NotACocycle("factor set is not a 2-cocycle")
    return alpha


def d2_on_E01(alpha: Cochain, sigma, x_matrix, target: CoeffAction) -> Cochain:
    """d2 of an invariant class x in Hom(H^ab, M): the cochain -x(alpha).

    alpha is the factor set from extension_cocycle, whose module is the
    capped H^ab, and sigma the extension's basis of G.  x_matrix maps capped
    H^ab coordinates (orders o_k) to target ones (orders o_j), G-equivariantly
    (checked here) and well-defined, o_k x[k][j] = 0 mod o_j: then d(x(alpha))
    = x(d alpha) = 0, and the 2-cocycle result is not checked.  x_phi =
    dual_transpose(phi) is well-defined: x[k][j] = phi[j][k] o_j / o_k mod o_j,
    an exact division as PhiMap checks o_j phi[j][k] = 0 mod o_k.
    """
    hab = alpha.action.module
    mod = target.module
    for i, s in enumerate(sigma):
        lhs = mat_mul(hab.actions[i], x_matrix, mod.orders)
        rhs = mat_mul(x_matrix, target.mats[s], mod.orders)
        if lhs != rhs:
            raise EquivarianceFailure(
                "class is not G-equivariant", witness=("generator", i)
            )
    # -x(alpha(t)) depends only on alpha(t), which takes few distinct values;
    # the images are reduced, and alpha's support has no identity entry
    images = {}
    for vec in set(alpha.values.values()):
        out = mat_apply(vec, x_matrix, mod.orders)
        images[vec] = tuple((-v) % o for v, o in zip(out, mod.orders))
    values = {tup: images[vec] for tup, vec in alpha.values.items() if any(images[vec])}
    return Cochain(target, 2, values)


# ---------------------------------------------------------------------------
# The H^2 hypothesis on the relation module.
# ---------------------------------------------------------------------------


class _CayleyCycles:
    """The cycle space K of the Cayley graph of a group on a generator list.

    Edge x·|S| + i runs from x to x·S[i], so the Fox map x·e_i |-> x·S[i] - x
    is the graph's boundary map, and its kernel over Z/q, the relation module
    R_ab/q, is K.  With P(x) the path from the identity to x in a BFS
    spanning tree, the fundamental cycles c_e = e + P(x) - P(x·S[i]) of the
    non-tree edges e = (x, i) are a basis of K, and a cycle's coordinates over
    them are its values on the non-tree edges: no elimination.
    """

    def __init__(self, group: FinGroup, gens: tuple, ring: RingConfig):
        self.group, self.gens, self.ring = group, gens, ring
        self.m = m = len(gens)
        paths = {group.identity: {}}
        queue = [group.identity]
        for x in queue:
            for i, s in enumerate(gens):
                back = group.mul(x, group.inv(s))
                for y, edge, sign in ((group.mul(x, s), x * m + i, 1), (back, back * m + i, -1)):
                    if y not in paths:
                        paths[y] = {**paths[x], edge: sign}
                        queue.append(y)
        self.paths = paths
        self.depth = max(len(p) for p in paths.values())
        tree = {e for p in paths.values() for e in p}
        self.index = {e: j for j, e in enumerate(e for e in range(group.order * m) if e not in tree)}

    def cycles(self):
        """c_e for every non-tree edge e, in coordinate order, as {edge: coefficient}."""
        out = []
        for e in self.index:
            x, i = divmod(e, self.m)
            c = {**self.paths[x], e: 1}
            for f, v in self.paths[self.group.mul(x, self.gens[i])].items():
                c[f] = c.get(f, 0) - v
            out.append({f: v for f, v in c.items() if v})
        return out

    def coords(self, pairs) -> dict:
        """Coordinates of the cycle sum v·edge over the (edge, v) pairs."""
        out = {}
        for e, v in pairs:
            j = self.index.get(e)
            if j is not None:
                out[j] = (out.get(j, 0) + v) % self.ring.modulus
        return out

    def boundaries(self, cycles) -> HowellBasis:
        """Howell basis of I·K = sum_s (s-1)K, spanned by the s.c_e - c_e.

        The augmentation ideal I is sum_s (s-1)Z[g] as a right ideal, since
        ab - 1 = (a-1)b + (b-1); so I·K = sum_s (s-1)K, s acting on K by left
        translation of edges.
        """
        m, mul = self.m, self.group.mul
        rows = []
        for s in self.gens:
            for j, c in enumerate(cycles):
                row = self.coords((mul(s, f // m) * m + f % m, v) for f, v in c.items())
                row[j] = row.get(j, 0) - 1
                rows.append(row)
        return howell_form_rows(rows, len(self.index), self.ring)


def inflation_h2_surjective(ext: ExtensionData, max_order: int = DEFAULT_H2_MAX_ORDER):
    """Does every degree-2 class of the total group inflate from the quotient?

    Decided on the relation module K = R_ab/q of g on S = g.generators, with
    q = l^n: H_2(g; Z/q) = (K ∩ ker eps) / sum_s (s-1)K, where eps sums each
    e_s block.  Z/q is self-injective, so H^2(g; Z/q) = Hom(H_2(g; Z/q), Z/q),
    and inflation from G is dual to pi_*: H_2(g) -> H_2(G), G presented on
    pi(S).  Returns (holds, diagnostics): the invariant factors of H_2(g) and
    of pi_*(H_2(g)), which are those of H^2(g) and of the inflated classes;
    holds exactly when pi_* is injective.  dims count cyclic invariant
    factors (= F_l dimension when n = 1).
    """
    g = ext.total
    if g.order > max_order:
        raise SizeBound("total group order for the H^2 check", max_order, g.order)
    ring = ext.ring
    gens = g.generators
    m = len(gens)
    big = _CayleyCycles(g, gens, ring)
    # a boundary row is the difference of two cycles of at most 2·depth + 1 edges
    nnz = m * len(big.index) * 2 * (2 * big.depth + 1)
    if nnz > DEFAULT_RANK_CELLS:
        what = "relation-module boundary matrix (estimated nonzeros)"
        raise SizeBound(what, DEFAULT_RANK_CELLS, nnz)
    cycles = big.cycles()
    eps_rows = []
    for c in cycles:
        row = [0] * m
        for f, v in c.items():
            row[f % m] += v
        eps_rows.append(row)
    eps = LinearSolver(eps_rows, m, ring)
    z = howell_form_rows(eps.kernel_row_tuples(), len(big.index), ring)
    b = big.boundaries(cycles)
    h2 = quotient_orders(z, b)

    proj = ext.projection
    small = _CayleyCycles(ext.quotient, tuple(proj[s] for s in gens), ring)
    pushed = [small.coords((proj[f // m] * m + f % m, v) for f, v in c.items()) for c in cycles]
    image = []
    for row in z.rows:
        acc = {}
        for j, a in enumerate(row):
            if a:
                for k, v in pushed[j].items():
                    acc[k] = acc.get(k, 0) + a * v
        image.append(acc)
    b_small = small.boundaries(small.cycles())
    infl = quotient_orders(
        howell_form_rows(list(b_small.rows) + image, len(small.index), ring), b_small
    )
    holds = infl == h2
    return holds, {
        "holds": holds,
        "h2_total_dim": len(h2),
        "h2_orders": list(h2),
        "inflated_dim": len(infl),
        "inflated_orders": list(infl),
    }
