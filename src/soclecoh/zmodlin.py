"""Exact linear algebra over Z/l^n.

Submodules of free modules over Z/l^n are represented by their Howell normal
form, which is canonical: two row sets span the same submodule exactly when
their Howell forms are identical.  Over the local ring Z/l^n every pivot is a
power of l, entries above a pivot are reduced modulo that pivot, and the row
set is closed under multiplication by l^(n-e) for a pivot l^e (the "shadow"
rows), which is what makes membership and canonical solving work.

Conventions used throughout the package:

* vectors are rows, matrices act on the right: ``y = x . A``;
* ``LinearSolver(a, ncols, ring).solve(b)`` solves ``x . a = b`` and returns
  the lexicographically least solution vector (canonical representatives in
  ``[0, l^n)``);
* all residues are kept reduced modulo l^n at all times.

Rows come in as dense sequences or as ``{column: value}`` dicts (bar
differentials are overwhelmingly zero).  Two engines eliminate them: one on
dict rows, and one on rows packed into int bitmasks when the modulus is 2.
Both produce the identical canonical form.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import product

from .errors import DimensionMismatch

_WORD_BOUND = 2**63


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingConfig:
    """The coefficient ring Z/l^n, fixed once per computation."""

    ell: int
    n: int

    def __post_init__(self):
        if not _is_prime(self.ell):
            raise ValueError(f"ell must be prime, got {self.ell}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.ell**self.n >= _WORD_BOUND:
            raise ValueError(f"modulus {self.ell}**{self.n} does not fit a machine word")

    @property
    def modulus(self) -> int:
        return self.ell**self.n

    def val(self, x: int) -> int:
        """l-adic valuation of x mod l^n; val(0) = n."""
        x %= self.modulus
        if x == 0:
            return self.n
        v = 0
        while x % self.ell == 0:
            x //= self.ell
            v += 1
        return v

    def unit_inv(self, x: int) -> int:
        """Inverse of the unit part of x: x = u * l^v with u invertible."""
        v = self.val(x)
        u = (x % self.modulus) // self.ell**v
        return pow(u, -1, self.modulus)


@dataclass(frozen=True)
class HowellBasis:
    """Canonical basis of a submodule of (Z/l^n)^ambient_rank."""

    ambient_rank: int
    rows: tuple  # tuple of row tuples, strictly increasing pivot columns
    ring: RingConfig

    def __len__(self):
        return len(self.rows)

    def pivots(self):
        """List of (column, pivot valuation) per row."""
        return [(c, self.ring.val(pe)) for c, pe, _ in _basis_pivots(self)]

    def span_size_log(self) -> int:
        """log_l of the number of elements in the span."""
        return sum(self.ring.n - e for _, e in self.pivots())

    def span_size(self) -> int:
        return self.ring.ell ** self.span_size_log()

    def coordinate_orders(self):
        """Order of the coefficient of each basis row: l^(n-e_i)."""
        return tuple(self.ring.ell ** (self.ring.n - e) for _, e in self.pivots())


# ---------------------------------------------------------------------------
# Row engines.  Each returns a list of (pivot_col, pivot_value, row): the
# pivot value is the entry l^e at the pivot column, rows are fully reduced
# above pivots and are dicts or packed ints per engine.  That list is the
# shape the pivot reducers take.
# ---------------------------------------------------------------------------


def _as_dict(r, q: int) -> dict:
    """A dict or dense row as a dict of its nonzero residues mod q."""
    items = r.items() if isinstance(r, dict) else enumerate(r)
    return {c: v % q for c, v in items if v % q}


def _pack(r) -> int:
    """A dict or dense row over F_2 as an int, bit j = column j."""
    x = 0
    for c, v in r.items() if isinstance(r, dict) else enumerate(r):
        if v % 2:
            x |= 1 << c
    return x


def _sub_scaled(r: dict, f: int, p: dict, q: int) -> None:
    for c, v in p.items():
        nv = (r.get(c, 0) - f * v) % q
        if nv:
            r[c] = nv
        else:
            r.pop(c, None)


def _howell_dicts(rows, ring: RingConfig):
    q, ell, n = ring.modulus, ring.ell, ring.n
    heap = []
    cnt = 0
    for r in rows:
        rr = _as_dict(r, q)
        if rr:
            heapq.heappush(heap, (min(rr), cnt, rr))
            cnt += 1
    pivots = []
    while heap:
        lead, c0, r = heapq.heappop(heap)
        if heap and heap[0][0] == lead:
            _, c1, r2 = heapq.heappop(heap)
            if ring.val(r2[lead]) < ring.val(r[lead]):
                r, r2 = r2, r
            vp = ring.val(r[lead])
            pe = ell**vp
            f = (r2[lead] // pe) * ring.unit_inv(r[lead]) % q
            _sub_scaled(r2, f, r, q)
            heapq.heappush(heap, (lead, min(c0, c1), r))
            if r2:
                heapq.heappush(heap, (min(r2), max(c0, c1), r2))
            continue
        vp = ring.val(r[lead])
        uinv = ring.unit_inv(r[lead])
        if uinv != 1:
            r = {c: (v * uinv) % q for c, v in r.items()}
        pivots.append((lead, ell**vp, r))
        if vp:
            sh = ell ** (n - vp)
            shadow = {c: w for c, v in r.items() if (w := (v * sh) % q)}
            if shadow:
                heapq.heappush(heap, (min(shadow), cnt, shadow))
                cnt += 1
    for i, (col, pe, prow) in enumerate(pivots):
        for j in range(i):
            r0 = pivots[j][2]
            f = r0.get(col, 0) // pe
            if f:
                _sub_scaled(r0, f, prow, q)
    return pivots


def _howell_bits(rows):
    """RREF over F_2 with rows packed as ints (bit j = column j)."""
    table = {}
    for row in rows:
        while row:
            c = (row & -row).bit_length() - 1
            p = table.get(c)
            if p is None:
                table[c] = row
                break
            row ^= p
    cols = sorted(table)
    pivot_mask = sum(1 << c for c in cols)
    for c in reversed(cols):
        r = table[c]
        # rows of larger pivots are already reduced: each XOR clears one pivot bit
        hits = (r & pivot_mask) >> (c + 1)
        while hits:
            low = hits & -hits
            r ^= table[c + low.bit_length()]
            hits ^= low
        table[c] = r
    return [(c, 1, table[c]) for c in cols]


def _reduce(r: dict, pivots, q: int) -> dict:
    """Reduce r in place against Howell pivots (column, pivot value, row).

    Pivot columns increase and a row is zero left of its pivot, so each step
    leaves its column in [0, pivot value) for good: r ends as the canonical,
    lexicographically least member of r + span(rows), and r lies in the span
    exactly when it ends empty.  Returns the nonzero multipliers of the pivot
    rows, by pivot column.
    """
    fs = {}
    get = r.get
    for c, pe, row in pivots:
        a = get(c, 0)
        if a >= pe:
            fs[c] = f = a // pe
            _sub_scaled(r, f, row, q)
    return fs


def _reduce_bits(x: int, pivots) -> int:
    """_reduce over F_2 with packed rows; returns the reduced x."""
    for c, _, row in pivots:
        if (x >> c) & 1:
            x ^= row
    return x


def _check_lengths(rows, width: int) -> None:
    """Every dense row has length width; dict rows are sparse and exempt."""
    for r in rows:
        if not isinstance(r, dict) and len(r) != width:
            raise DimensionMismatch(f"row length {len(r)} != width {width}")


def _basis_pivots(sub: HowellBasis):
    """The rows of a Howell basis as pivots for _reduce."""
    out = []
    for row in sub.rows:
        d = {j: w for j, w in enumerate(row) if w}
        c = min(d)
        out.append((c, d[c], d))
    return out


class LinearSolver:
    """Canonical solving machinery for one matrix: x . A = b.

    Built from the Howell form of [A | I]; exposes the canonical image basis,
    the canonical kernel basis (in coefficient space), and lexicographically
    least solutions (None when b is outside the image).  Accepts dense rows
    of length ncols or sparse row dicts.  The Howell rows are kept whole: a
    row [a | t] with pivot in A satisfies t . A = a, and a row [0 | t] spans
    the kernel.
    """

    def __init__(self, rows, ncols: int, ring: RingConfig):
        self.ring = ring
        self.ncols = ncols
        rows = list(rows)
        _check_lengths(rows, ncols)
        self.nrows = len(rows)
        self.bits = ring.modulus == 2
        if self.bits:
            pivots = _howell_bits(_pack(r) | (1 << (ncols + i)) for i, r in enumerate(rows))
        else:
            dict_rows = []
            for i, r in enumerate(rows):
                d = _as_dict(r, ring.modulus)
                d[ncols + i] = 1
                dict_rows.append(d)
            # fresh copies: a row dict keeps the table it grew to while eliminating
            pivots = [(c, pe, dict(row)) for c, pe, row in _howell_dicts(dict_rows, ring)]
        self._image = [p for p in pivots if p[0] < ncols]
        self._kernel = [p for p in pivots if p[0] >= ncols]

    # -- representation helpers ------------------------------------------

    def _tuples(self, pivots, start: int, width: int):
        """Columns start..start+width of the given Howell rows, as tuples."""
        cols = range(start, start + width)
        if self.bits:
            return tuple(tuple((row >> j) & 1 for j in cols) for _, _, row in pivots)
        return tuple(tuple(row.get(j, 0) for j in cols) for _, _, row in pivots)

    def kernel_row_tuples(self):
        return self._tuples(self._kernel, self.ncols, self.nrows)

    # -- solving ----------------------------------------------------------

    def solve(self, b):
        """Lexicographically least x with x . A = b, or None.

        Reducing [-b | 0] by the rows [a | t] leaves [0 | x] exactly when b
        lies in the image, and then x . A = b; reducing x by the kernel rows
        makes it the least solution.
        """
        n = self.ncols
        _check_lengths((b,), n)
        if self.bits:
            # the rows are in RREF, so x is already clear at the kernel pivots
            x = _reduce_bits(_pack(b), self._image)
            if x & ((1 << n) - 1):
                return None
            return tuple((x >> (n + i)) & 1 for i in range(self.nrows))
        q = self.ring.modulus
        r = {c: q - v for c, v in _as_dict(b, q).items()}
        _reduce(r, self._image, q)
        if r and min(r) < n:
            return None
        _reduce(r, self._kernel, q)
        return tuple([r.get(i, 0) for i in range(n, n + self.nrows)])


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------


def howell_form_rows(rows, ambient_rank: int, ring: RingConfig) -> HowellBasis:
    rows = list(rows)
    _check_lengths(rows, ambient_rank)
    if ring.modulus == 2:
        pivots = _howell_bits(_pack(r) for r in rows)
        out = [tuple((row >> j) & 1 for j in range(ambient_rank)) for _, _, row in pivots]
    else:
        pivots = _howell_dicts(rows, ring)
        out = [tuple(row.get(j, 0) for j in range(ambient_rank)) for _, _, row in pivots]
    return HowellBasis(ambient_rank, tuple(out), ring)


def contains(sub: HowellBasis, v) -> bool:
    """Membership of v in the span of a Howell basis."""
    return coords_in_basis(sub, v) is not None


def coords_in_basis(sub: HowellBasis, v):
    """Unique coefficients (c_i in [0, l^(n-e_i))) with v = sum c_i row_i, or None."""
    _check_lengths((v,), sub.ambient_rank)
    r = _as_dict(v, sub.ring.modulus)
    pivots = _basis_pivots(sub)
    fs = _reduce(r, pivots, sub.ring.modulus)
    return None if r else tuple(fs.get(c, 0) for c, _, _ in pivots)


def enumerate_span(sub: HowellBasis):
    """All elements of the span, deterministically ordered by coefficients."""
    orders = sub.coordinate_orders()
    q = sub.ring.modulus
    amb = sub.ambient_rank
    for cs in product(*(range(o) for o in orders)):
        v = [0] * amb
        for f, row in zip(cs, sub.rows):
            if f:
                for k, w in enumerate(row):
                    if w:
                        v[k] = (v[k] + f * w) % q
        yield tuple(v)


# ---------------------------------------------------------------------------
# Quotients.
# ---------------------------------------------------------------------------


def _identity(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def smith_normal_form(rows, ncols: int, ring: RingConfig):
    """Diagonalize over Z/l^n by unimodular row/column operations.

    Returns (diag, Q, Qinv) where diag lists the diagonal entries (canonical
    powers of l, possibly 0) and Q / Qinv are the accumulated column
    transforms: new coordinates of an ambient row vector x are x . Q.
    """
    q, ell, n = ring.modulus, ring.ell, ring.n
    M = [[v % q for v in r] for r in rows]
    nr = len(M)
    Q = _identity(ncols)
    Qinv = _identity(ncols)
    t = 0
    lim = min(nr, ncols)
    while t < lim:
        best = None
        for i in range(t, nr):
            Mi = M[i]
            for j in range(t, ncols):
                if Mi[j]:
                    v = ring.val(Mi[j])
                    if best is None or v < best[0]:
                        best = (v, i, j)
                        if v == 0:
                            break
            if best is not None and best[0] == 0:
                break
        if best is None:
            break
        v, bi, bj = best
        if bi != t:
            M[bi], M[t] = M[t], M[bi]
        if bj != t:
            for row in M:
                row[bj], row[t] = row[t], row[bj]
            for row in Q:
                row[bj], row[t] = row[t], row[bj]
            Qinv[bj], Qinv[t] = Qinv[t], Qinv[bj]
        uinv = ring.unit_inv(M[t][t])
        if uinv != 1:
            M[t] = [(x * uinv) % q for x in M[t]]
        pe = ell**v
        for i in range(nr):
            if i == t:
                continue
            f = M[i][t] // pe
            if f:
                Mi, Mt = M[i], M[t]
                for k in range(t, ncols):
                    Mi[k] = (Mi[k] - f * Mt[k]) % q
        for j in range(t + 1, ncols):
            f = M[t][j] // pe
            if f:
                for row in M:
                    row[j] = (row[j] - f * row[t]) % q
                for row in Q:
                    row[j] = (row[j] - f * row[t]) % q
                Qj, Qt = Qinv[j], Qinv[t]
                for k in range(ncols):
                    Qt[k] = (Qt[k] + f * Qj[k]) % q
        t += 1
    diag = [M[i][i] if i < nr else 0 for i in range(min(t, ncols))]
    return diag, Q, Qinv


@dataclass(frozen=True)
class QuotientPresentation:
    """Ambient/sub as a product of cyclic groups with transfer maps.

    orders[i] is the order of quotient coordinate i; project/section are
    matrices in the row convention (project: ambient -> quotient coords,
    section: quotient -> ambient representatives).
    """

    ambient_rank: int
    orders: tuple
    project: tuple  # ambient_rank x len(orders)
    section: tuple  # len(orders) x ambient_rank
    ring: RingConfig

    def project_vec(self, v):
        q = self.ring.modulus
        out = [0] * len(self.orders)
        for i, x in enumerate(v):
            if x % q:
                prow = self.project[i]
                for j in range(len(self.orders)):
                    if prow[j]:
                        out[j] = (out[j] + x * prow[j]) % self.orders[j]
        return tuple(out)

    def section_vec(self, y):
        q = self.ring.modulus
        out = [0] * self.ambient_rank
        for i, x in enumerate(y):
            if x % self.orders[i]:
                srow = self.section[i]
                for j in range(self.ambient_rank):
                    if srow[j]:
                        out[j] = (out[j] + x * srow[j]) % q
        return tuple(out)


def quotient_presentation(sub: HowellBasis) -> QuotientPresentation:
    """Present ambient/span(sub) as a product of cyclic l-power groups."""
    ring = sub.ring
    ambient_rank = sub.ambient_rank
    diag, Q, Qinv = smith_normal_form(list(sub.rows), ambient_rank, ring)
    orders = []
    kept = []
    for j in range(ambient_rank):
        v = ring.val(diag[j]) if j < len(diag) else ring.n
        if v:  # a unit pivot kills its coordinate in the quotient
            orders.append(ring.ell**v)
            kept.append(j)
    project = tuple(tuple(Q[i][j] for j in kept) for i in range(ambient_rank))
    section = tuple(tuple(Qinv[j]) for j in kept)
    return QuotientPresentation(ambient_rank, tuple(orders), project, section, ring)


def span_orders(h: HowellBasis):
    """Invariant factors of the span as an abstract module, descending."""
    return quotient_orders(h, HowellBasis(h.ambient_rank, (), h.ring))


def quotient_orders(u: HowellBasis, v: HowellBasis):
    """Invariant factors of span(u)/span(v), descending; v must lie in u."""
    if u.ambient_rank != v.ambient_rank:
        raise DimensionMismatch("ambient ranks differ")
    ring = u.ring
    ell, n = ring.ell, ring.n
    size_u = u.span_size_log()
    s = [0] * (n + 1)
    for j in range(1, n + 1):
        scaled = [tuple((x * ell**j) % ring.modulus for x in row) for row in u.rows]
        w = howell_form_rows(list(v.rows) + scaled, u.ambient_rank, ring)
        s[j] = size_u - w.span_size_log()
    m = [0] * (n + 2)
    for j in range(1, n + 1):
        m[j] = s[j] - s[j - 1]
    out = []
    for c in range(n, 0, -1):
        out.extend([ell**c] * (m[c] - m[c + 1]))
    return tuple(out)
