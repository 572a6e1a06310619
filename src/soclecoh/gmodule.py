"""Group rings over Z/l^n, their augmentation filtration, and finite modules.

Every module is materialized to one shape: a list of cyclic orders (each a
power of l dividing l^n) plus one commuting action matrix per chosen
generator of the acting group.  Linear algebra on submodules happens in
"scaled" coordinates: a module vector x with coordinate orders q_k embeds
into (Z/l^n)^t via x_k |-> (l^n/q_k) x_k, where the Howell machinery of
zmodlin applies verbatim.  Helpers convert both ways.

The group ring Z/l^n[G] of the extension's free quotient G carries the
augmentation filtration I^m, built as I^m = sum_i (sigma_i - 1) . I^(m-1)
over the d basis elements sigma_i of G.

Matrix conventions follow zmodlin: row vectors, action on the right, and a
matrix entry A[k][j] lives modulo the order of target coordinate j.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, KernelNotAbelian, NotNilpotent
from .fingroup import ExtensionData, abelian_structure
from .zmodlin import (
    HowellBasis,
    LinearSolver,
    QuotientPresentation,
    RingConfig,
    contains,
    enumerate_span,
    howell_form_rows,
    quotient_presentation,
)

# ---------------------------------------------------------------------------
# Vector/matrix arithmetic with per-coordinate orders.
# ---------------------------------------------------------------------------


def vec_reduce(v, orders):
    return tuple(x % o for x, o in zip(v, orders))


def mat_apply(v, a, orders_out):
    """Row vector times matrix, columns reduced to their orders."""
    t_out = len(orders_out)
    out = [0] * t_out
    for k, x in enumerate(v):
        if x:
            row = a[k]
            for j in range(t_out):
                if row[j]:
                    out[j] += x * row[j]
    return tuple(y % o for y, o in zip(out, orders_out))


def mat_mul(a, b, orders_out):
    return tuple(mat_apply(row, b, orders_out) for row in a)


def mat_identity(orders):
    t = len(orders)
    return tuple(tuple(1 if i == j else 0 for j in range(t)) for i in range(t))


def mat_add(a, b, orders_out, sign=1):
    return tuple(
        tuple((x + sign * y) % o for x, y, o in zip(ra, rb, orders_out))
        for ra, rb in zip(a, b)
    )


def mat_pow(a, k, orders_out):
    out = mat_identity(orders_out)
    while k:
        if k & 1:
            out = mat_mul(out, a, orders_out)
        a = mat_mul(a, a, orders_out)
        k >>= 1
    return out


def scale_vec(x, orders, ring: RingConfig):
    q = ring.modulus
    return tuple((q // o) * (v % o) for v, o in zip(x, orders))


def descale_vec(X, orders, ring: RingConfig):
    q = ring.modulus
    out = []
    for v, o in zip(X, orders):
        f = q // o
        if v % f:
            raise ValueError("vector is not in the scaled image of the module")
        out.append((v // f) % o)
    return tuple(out)


def full_scaled_basis(orders, ring: RingConfig) -> HowellBasis:
    q = ring.modulus
    t = len(orders)
    rows = tuple(
        tuple(q // orders[k] if j == k else 0 for j in range(t)) for k in range(t)
    )
    return HowellBasis(t, rows, ring)


def kernel_in_module(orders, maps, ring: RingConfig) -> HowellBasis:
    """Scaled basis of {x in M : x . a = 0 for every (a, orders_out) in maps}."""
    t = len(orders)
    q = ring.modulus
    if t == 0:
        return HowellBasis(0, (), ring)
    if not maps:
        return full_scaled_basis(orders, ring)
    cols = []
    for a, orders_out in maps:
        cols.append((a, orders_out, len(orders_out)))
    width = sum(c[2] for c in cols)
    rows = []
    for k in range(t):
        row = []
        for a, orders_out, t_out in cols:
            arow = a[k]
            row.extend((arow[j] * (q // orders_out[j])) % q for j in range(t_out))
        rows.append(row)
    ker = LinearSolver(rows, width, ring).kernel_row_tuples()
    scaled = [scale_vec(vec_reduce(c, orders), orders, ring) for c in ker]
    return howell_form_rows(scaled, t, ring)


def scaled_span(vectors, orders, ring: RingConfig) -> HowellBasis:
    rows = [scale_vec(v, orders, ring) for v in vectors]
    return howell_form_rows(rows, len(orders), ring)


def enumerate_scaled_span(basis: HowellBasis, orders, ring: RingConfig):
    """Module-coordinate elements of a scaled submodule, deterministic order."""
    for X in enumerate_span(basis):
        yield descale_vec(X, orders, ring)


def random_scaled_span_element(basis: HowellBasis, orders, ring: RingConfig, rng):
    """A uniformly random element of a scaled submodule, in module
    coordinates: one rng.randrange per basis row, in row order."""
    q = ring.modulus
    v = [0] * basis.ambient_rank
    for o, row in zip(basis.coordinate_orders(), basis.rows):
        c = rng.randrange(o)
        for j, x in enumerate(row):
            v[j] = (v[j] + c * x) % q
    return descale_vec(v, orders, ring)


# ---------------------------------------------------------------------------
# Modules.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GModule:
    """Finite Z/l^n-module with commuting generator actions.

    orders[k] is the order of cyclic coordinate k; actions[i] is the matrix
    of the i-th group generator.  Validated: entries reduced and well-defined
    (q_k * A[k][j] = 0 mod q_j), actions commute, and A^(l^n) = identity.
    """

    ring: RingConfig
    orders: tuple
    actions: tuple

    def __post_init__(self):
        q = self.ring.modulus
        t = len(self.orders)
        for o in self.orders:
            if o < 2 or q % o:
                raise ValueError(f"coordinate order {o} does not divide {q}")
        for a in self.actions:
            if len(a) != t or any(len(r) != t for r in a):
                raise DimensionMismatch("action matrix shape mismatch")
            for k in range(t):
                for j in range(t):
                    v = a[k][j]
                    if not 0 <= v < self.orders[j]:
                        raise ValueError("action entry not reduced")
                    if (self.orders[k] * v) % self.orders[j]:
                        raise ValueError("action matrix not well-defined on the module")
        ident = mat_identity(self.orders)
        for a in self.actions:
            if mat_pow(a, q, self.orders) != ident:
                raise ValueError("action matrix order does not divide l^n")
        for i, a in enumerate(self.actions):
            for b in self.actions[i + 1 :]:
                if mat_mul(a, b, self.orders) != mat_mul(b, a, self.orders):
                    raise ValueError("action matrices do not commute")

    @property
    def rank(self) -> int:
        return len(self.orders)

    def inverse_actions(self):
        q = self.ring.modulus
        return tuple(mat_pow(a, q - 1, self.orders) for a in self.actions)


def make_module(ring, orders, actions) -> GModule:
    """Reduce entries and build a validated GModule."""
    orders = tuple(int(o) for o in orders)
    red = tuple(
        tuple(tuple(v % orders[j] for j, v in enumerate(row)) for row in a)
        for a in actions
    )
    return GModule(ring, orders, red)


def trivial_module(ring: RingConfig, orders=None, ngens: int = 0) -> GModule:
    orders = tuple(orders) if orders is not None else (ring.modulus,)
    ident = mat_identity(orders)
    return GModule(ring, orders, tuple(ident for _ in range(ngens)))


def element_matrices(module: GModule, coords_list):
    """Action matrix of each group element from its exponent coordinates."""
    coords_list = list(coords_list)
    max_exp = max((max(cs, default=0) for cs in coords_list), default=0)
    pows = []
    for a in module.actions:
        pw = [mat_identity(module.orders)]
        for _ in range(max_exp):
            pw.append(mat_mul(pw[-1], a, module.orders))
        pows.append(pw)
    out = []
    for cs in coords_list:
        m = mat_identity(module.orders)
        for i, c in enumerate(cs):
            if c:
                m = mat_mul(m, pows[i][c], module.orders)
        out.append(m)
    return tuple(out)


def dual(module: GModule) -> GModule:
    """Pontryagin dual: same orders, action (sigma f)(x) = f(sigma^-1 x)."""
    orders = module.orders
    t = len(orders)
    inv = module.inverse_actions()
    duals = []
    for b in inv:
        d = [[0] * t for _ in range(t)]
        for k in range(t):
            for j in range(t):
                d[k][j] = (b[j][k] * orders[j] // orders[k]) % orders[j]
        duals.append(tuple(tuple(r) for r in d))
    return GModule(module.ring, orders, tuple(duals))


def dual_pair(u, x, orders, ring: RingConfig) -> int:
    """Evaluation <u, x> = sum (l^n/q_k) u_k x_k of a functional at a point."""
    q = ring.modulus
    return sum((q // o) * a * b for a, b, o in zip(u, x, orders)) % q


def dual_transpose(f, orders_in, orders_out):
    """Matrix of the dual map between dual modules.

    If f maps M (orders_in) to N (orders_out), the result maps N^vee to
    M^vee, with <dual(u), x> = <u, f(x)> for all x in M.
    """
    t_in, t_out = len(orders_in), len(orders_out)
    g = [[0] * t_in for _ in range(t_out)]
    for k in range(t_out):
        for a in range(t_in):
            g[k][a] = (f[a][k] * orders_in[a] // orders_out[k]) % orders_in[a]
    return tuple(tuple(r) for r in g)


def invariants(module: GModule) -> HowellBasis:
    """Scaled basis of the fixed points of all generator actions."""
    maps = []
    ident = mat_identity(module.orders)
    for a in module.actions:
        diff = mat_add(a, ident, module.orders, sign=-1)
        maps.append((diff, module.orders))
    return kernel_in_module(module.orders, maps, module.ring)


# ---------------------------------------------------------------------------
# Hom modules.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HomModule:
    """Hom(M, N) as a module of matrices with the conjugation action."""

    source: GModule
    target: GModule
    module: GModule

    def matrix_to_coords(self, f):
        out = []
        for a in range(self.source.rank):
            for b in range(self.target.rank):
                qa, qb = self.source.orders[a], self.target.orders[b]
                g = min(qa, qb)  # gcd of two l-powers
                step = qb // g
                v = f[a][b] % qb
                if v % step:
                    raise ValueError("matrix is not a well-defined module hom")
                out.append((v // step) % g)
        return tuple(out)

    def coords_to_matrix(self, c):
        tm, tn = self.source.rank, self.target.rank
        f = [[0] * tn for _ in range(tm)]
        for a in range(tm):
            for b in range(tn):
                qa, qb = self.source.orders[a], self.target.orders[b]
                g = min(qa, qb)
                f[a][b] = (c[a * tn + b] % g) * (qb // g) % qb
        return tuple(tuple(r) for r in f)


def hom_module(m: GModule, n: GModule) -> HomModule:
    if m.ring != n.ring:
        raise ValueError("modules live over different rings")
    if len(m.actions) != len(n.actions):
        raise ValueError("modules have different acting generator counts")
    orders = tuple(
        min(m.orders[a], n.orders[b]) for a in range(m.rank) for b in range(n.rank)
    )
    minv = m.inverse_actions()
    shell = HomModule(m, n, trivial_module(m.ring, orders))  # for matrix_to_coords
    actions = []
    for i in range(len(m.actions)):
        rows = []
        for a in range(m.rank):
            for b in range(n.rank):
                base = [[0] * n.rank for _ in range(m.rank)]
                g = min(m.orders[a], n.orders[b])
                base[a][b] = n.orders[b] // g
                moved = mat_mul(mat_mul(minv[i], base, n.orders), n.actions[i], n.orders)
                rows.append(shell.matrix_to_coords(moved))
        actions.append(tuple(rows))
    return HomModule(m, n, GModule(m.ring, orders, tuple(actions)))


def hom_g(m: GModule, n: GModule):
    """(HomModule, scaled basis of the equivariant homs)."""
    hm = hom_module(m, n)
    return hm, invariants(hm.module)


# ---------------------------------------------------------------------------
# Group ring and augmentation powers.
# ---------------------------------------------------------------------------


class GroupRing:
    """Z/l^n[G] for the free top quotient G of an extension, with one
    coordinate per element of G.

    sigma and coords are the extension's basis of G and exponent vectors;
    the extension has already checked that they make G free over Z/l^n.
    I is spanned by the g - 1 (g != 1), and as an ideal it is generated by
    the sigma_i - 1, so I^m = sum_i (sigma_i - 1) . I^(m-1) for m >= 2.
    """

    def __init__(self, ext: ExtensionData):
        self.group = ext.quotient
        self.ring = ext.ring
        self.sigma = ext.sigma
        self.coords = ext.coords
        self._ideals = []

    def mult_by_elem(self, g: int, v):
        out = [0] * self.group.order
        perm = self.group.cayley[g]
        for x, c in enumerate(v):
            if c:
                out[perm[x]] = c
        return tuple(out)

    def augmentation_row(self, g: int):
        """The vector g - 1."""
        v = [0] * self.group.order
        v[g] = 1
        v[self.group.identity] = (v[self.group.identity] - 1) % self.ring.modulus
        return tuple(v)

    def ideal_basis(self, m: int) -> HowellBasis:
        """Canonical basis of I^m inside (Z/l^n)^|G|, computed iteratively up
        to the first zero power, which serves every higher m."""
        if m < 1:
            raise ValueError("ideal power needs m >= 1")
        G, q = self.group, self.ring.modulus
        ideals = self._ideals
        while len(ideals) < m:
            if not ideals:
                rows = [self.augmentation_row(g) for g in G.elements() if g != G.identity]
            elif not ideals[-1].rows:
                break
            else:
                rows = []
                for s in self.sigma:
                    for v in ideals[-1].rows:
                        moved = self.mult_by_elem(s, v)
                        rows.append(tuple((a - b) % q for a, b in zip(moved, v)))
            ideals.append(howell_form_rows(rows, G.order, self.ring))
        return ideals[min(m, len(ideals)) - 1]


# ---------------------------------------------------------------------------
# The quotient presentations Lambda_m and I_m.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuotientModule(QuotientPresentation):
    """A quotient of an ambient free coordinate space, as a GModule.

    project_vec maps ambient row vectors to module coordinates; section_vec
    picks representatives; orders are the module's.  For i_m the ambient is
    the rho-coordinate space of I: its basis vector at index g - 1 is g - 1,
    for g != 1, and lambda_lifts[a] is the representative of basis vector a
    as a coefficient vector over G.
    """

    module: GModule
    lambda_lifts: tuple

    def augmentation_coords(self, g: int):
        """The module coordinates of g - 1, for g != 1, when the ambient is
        the rho-coordinate space of I (the modules i_m builds)."""
        return vec_reduce(self.project[g - 1], self.orders)


def _rho_of_lambda(v):
    """Drop the identity coordinate: Lambda coords -> rho coords of I."""
    return tuple(v[1:])


def _lambda_of_rho(w, ring: RingConfig):
    q = ring.modulus
    return ((-sum(w)) % q,) + tuple(x % q for x in w)


def i_m(gr: GroupRing, m: int) -> QuotientModule:
    """I/I^m with the multiplication action of the sigma generators."""
    ring = gr.ring
    amb = gr.group.order - 1
    sub_rows = [_rho_of_lambda(r) for r in gr.ideal_basis(m).rows]
    qp = quotient_presentation(howell_form_rows(sub_rows, amb, ring))
    orders = qp.orders
    lifts = tuple(_lambda_of_rho(qp.section_vec(y), ring) for y in mat_identity(orders))
    actions = [
        tuple(qp.project_vec(_rho_of_lambda(gr.mult_by_elem(s, v))) for v in lifts)
        for s in gr.sigma
    ]
    module = make_module(ring, orders, actions)
    return QuotientModule(amb, orders, qp.project, qp.section, ring, module, lifts)


def lambda_m(gr: GroupRing, im: QuotientModule) -> GModule:
    """Lambda/I^m = R . 1  (+)  I_m, coordinates (eps part, I_m part), built on
    the I_m = i_m(gr, m) it extends."""
    ring = gr.ring
    orders = (ring.modulus,) + im.module.orders
    actions = []
    for si, s in enumerate(gr.sigma):
        rows = [(1,) + im.augmentation_coords(s)]
        for r in im.module.actions[si]:
            rows.append((0,) + tuple(r))
        actions.append(tuple(rows))
    return make_module(ring, orders, actions)


def lambda_action_matrix(jmod: GModule, elem_mats, lam_vec):
    """Action of a Lambda element (coefficient vector over G) on a module."""
    orders = jmod.orders
    t = len(orders)
    out = [[0] * t for _ in range(t)]
    for g, c in enumerate(lam_vec):
        if c:
            mg = elem_mats[g]
            for k in range(t):
                row = mg[k]
                for j in range(t):
                    if row[j]:
                        out[k][j] += c * row[j]
    return tuple(tuple(v % orders[j] for j, v in enumerate(r)) for r in out)


# ---------------------------------------------------------------------------
# The module J = dual of the capped abelianization of H.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JBundle:
    """J = H^1(H) as a G-module, with the dual H-side bookkeeping.

    hab is the abelianization of H capped at exponent l^n, with the
    conjugation action of the sigma lifts; module is its dual (that is J).
    h_coords maps a parent-group index belonging to H to capped coordinates.
    """

    hab: GModule
    module: GModule
    h_coords: dict


def module_J(ext: ExtensionData) -> JBundle:
    ring = ext.ring
    q = ring.modulus
    hgrp, to_parent, to_sub = ext.kernel.as_group()
    if not hgrp.is_abelian():
        raise KernelNotAbelian(f"the kernel H (order {hgrp.order}) is not abelian")
    st = abelian_structure(hgrp)
    caps = tuple(min(o, q) for o in st.orders)
    g = ext.total
    conj_rows = []
    for t_i in ext.lifts:
        rows = []
        for b in st.basis:
            moved = g.conj(t_i, to_parent[b])
            rows.append(tuple(c % cap for c, cap in zip(st.coords[to_sub[moved]], caps)))
        conj_rows.append(tuple(rows))
    hab = make_module(ring, caps, conj_rows)
    jmod = dual(hab)
    h_coords = {
        to_parent[i]: tuple(c % cap for c, cap in zip(st.coords[i], caps))
        for i in range(hgrp.order)
    }
    return JBundle(hab, jmod, h_coords)


# ---------------------------------------------------------------------------
# Socle series.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SocleChain:
    """Ascending socle steps of a module, as scaled Howell bases.

    steps[m-1] is the scaled basis of J_m; stabilization is the least m with
    J_m = J.
    """

    module: GModule
    steps: tuple
    stabilization: int

    def basis(self, m: int) -> HowellBasis:
        if m < 1:
            raise ValueError("socle level starts at 1")
        return self.steps[min(m, len(self.steps)) - 1]

    def member(self, vec, m: int) -> bool:
        return contains(self.basis(m), scale_vec(vec, self.module.orders, self.module.ring))


def socle_series(jmod: GModule, gr: GroupRing, elem_mats) -> SocleChain:
    """J_m = {x : I^m x = 0}, computed from the canonical I^m bases;
    elem_mats[g] is the action matrix of g on jmod."""
    ring = gr.ring
    full = full_scaled_basis(jmod.orders, ring)
    steps = []
    m = 1
    while True:
        ib = gr.ideal_basis(m)
        maps = [
            (lambda_action_matrix(jmod, elem_mats, w), jmod.orders) for w in ib.rows
        ]
        jm = kernel_in_module(jmod.orders, maps, ring)
        steps.append(jm)
        if jm == full:
            return SocleChain(jmod, tuple(steps), m)
        if len(steps) > 1 and steps[-1] == steps[-2]:
            raise NotNilpotent("socle series stalled before exhausting the module")
        m += 1


# ---------------------------------------------------------------------------
# Bundled per-extension caches.
# ---------------------------------------------------------------------------


class ExtensionModules:
    """Caches the module side of one extension: ring, ideals, J, socle."""

    def __init__(self, ext: ExtensionData):
        self.ext = ext
        self.ring = ext.ring
        self.gr = GroupRing(ext)
        self.j = module_J(ext)
        self.elem_mats = element_matrices(self.j.module, self.gr.coords)
        self.socle = socle_series(self.j.module, self.gr, self.elem_mats)
        self._im = {}
        self._lifts = {}

    def i_m(self, m: int) -> QuotientModule:
        if m not in self._im:
            self._im[m] = i_m(self.gr, m)
        return self._im[m]

    def lift_actions(self, m: int):
        """Action matrices on J of the Lambda lifts of the I_m basis vectors."""
        if m not in self._lifts:
            self._lifts[m] = tuple(
                lambda_action_matrix(self.j.module, self.elem_mats, v)
                for v in self.i_m(m).lambda_lifts
            )
        return self._lifts[m]

    def phi_gamma_matrix(self, gamma, m: int):
        """Matrix of eta |-> eta . gamma on I_m, rows per I_m coordinate."""
        orders = self.j.module.orders
        return tuple(mat_apply(gamma, nmat, orders) for nmat in self.lift_actions(m))
