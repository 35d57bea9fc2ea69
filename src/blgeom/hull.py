"""The polytope inscribed in a 3D body through the Fibonacci lattice.

``sphere_grid(3, size)`` is a spherical Fibonacci lattice: point i sits at
z = 1 - (2i+1)/size and longitude 2 pi frac(phi (i + 1/2)), phi the golden
ratio.  Its Delaunay neighbours are Fibonacci index offsets (Keinert et al.,
"Spherical Fibonacci Mapping", ACM TOG 34(6), 2015), so the surface through
the radial samples u / F(u) of a body is written down from the lattice
instead of searched for:

* with f = 1, 2, 3, 5, ... the offsets (f_k, f_{k+1}) span the lattice, and
  the cell (p, p+f_k, p+f_{k+2}, p+f_{k+1}) is cut by its f_{k+2} or its
  f_{k-1} diagonal, whichever is shorter on the unit sphere; where neither
  is shorter by more than a factor 3/2 (near-square cells), the one that
  makes the body's surface convex;
* a level-k triangle is kept when its (f_k, f_{k+1}) cell took f_{k+2} and
  its (f_{k+1}, f_{k+2}) cell did not take f_{k+3}; what is left open is
  the triangle of the first (last) three points at each pole.

Any choice in the near-square cells gives a closed surface (checked at
every size ``quermassintegrals`` uses, 20000 * 2^level for levels 0 to 4).  The norm's extremal
candidates are then inserted, except those within the tolerance of a kept
point, and reflex edges are repaired by Lawson flips.  The result is kept
only if it is certified to be the convex hull of its points; otherwise, and
for a body with flat faces, ``lattice_steiner`` returns None and the caller
builds Qhull's hull, measured by the same array function (``hull_steiner``).
"""

from __future__ import annotations

import functools

import numpy as np

from .norms import sphere_grid

_GOLDEN = 0.5 * (1.0 + np.sqrt(5.0))
_WALK = 64   # triangles a point location may visit from the nearest lattice point
_NEXT = (1, 2, 0, 1)


@functools.lru_cache(maxsize=4)
def _cells(size):
    """Per lattice level: (f_k, f_{k+1}, f_{k+2}, which cells take the f_{k+2}
    diagonal on the unit sphere, the near-square cells, whether the triangle
    (p, p+f_k, p+f_{k+2}) is outward).  Built once per size and shared."""
    x, y, z = (np.ascontiguousarray(c) for c in sphere_grid(3, size).T)
    cells = []
    f0, f1 = 1, 2
    while f0 + f1 < size:
        f2 = f0 + f1
        m = size - f2
        # 1 - cosine of each diagonal: half its squared chord
        long_ = 1.0 - (x[:m] * x[f2:] + y[:m] * y[f2:] + z[:m] * z[f2:])
        short = 1.0 - (x[f0:f0 + m] * x[f1:f1 + m] + y[f0:f0 + m] * y[f1:f1 + m]
                       + z[f0:f0 + m] * z[f1:f1 + m])
        took = long_ < short
        square = np.flatnonzero((2.0 * long_ < 3.0 * short) & (2.0 * short < 3.0 * long_))
        took.setflags(write=False)
        square.setflags(write=False)
        # the f_k step turns west exactly when frac(phi f_k) > 1/2
        cells.append((f0, f1, f2, took, square, (_GOLDEN * f0) % 1.0 > 0.5))
        f0, f1 = f1, f2
    return tuple(cells)


def _cross(b, c):
    """Row-wise b x c of 3-vectors held as (3, k) arrays."""
    return np.array([b[1] * c[2] - b[2] * c[1], b[2] * c[0] - b[0] * c[2], b[0] * c[1] - b[1] * c[0]])


def _orient(p, q, r):
    """det[p, q, r] of three 3-vectors given as sequences."""
    return (p[0] * (q[1] * r[2] - q[2] * r[1]) + p[1] * (q[2] * r[0] - q[0] * r[2])
            + p[2] * (q[0] * r[1] - q[1] * r[0]))


def _lattice_triangles(x, size, tol):
    """(3, 2 size - 4) outward triangles on the first ``size`` columns of the
    (3, V) points ``x``, the radial images of ``sphere_grid(3, size)``; None
    when the four points of a near-square cell are coplanar within ``tol``
    (a flat face, which the certificate would refuse)."""
    took = []
    for f0, f1, f2, base, square, outward in _cells(size):
        if square.size:
            # the long diagonal is convex when p + f_{k+1} lies below the
            # outward plane through p, p + f_k and p + f_{k+2}
            a = x.take(square, axis=1)
            normal = _cross(x.take(square + f0, axis=1) - a, x.take(square + f2, axis=1) - a)
            vol = (normal * (x.take(square + f1, axis=1) - a)).sum(axis=0)
            if (np.abs(vol) <= tol * np.sqrt((normal * normal).sum(axis=0))).any():
                return None
            base = base.copy()
            base[square] = vol < 0.0 if outward else vol > 0.0
        took.append(base)
    took.append(np.zeros(0, bool))
    blocks = []
    for k, (f0, f1, f2, _, _, outward) in enumerate(_cells(size)):
        here, up = took[k], took[k + 1]
        m = len(here)
        # (p, p+f_k, p+f_{k+2}) lies in the level-(k+1) cell at p - f_{k+1},
        # (p, p+f_{k+2}, p+f_{k+1}) in the one at p
        cut_a = np.zeros(m, bool)
        cut_a[f1:f1 + len(up)] = up[:max(m - f1, 0)]
        cut_b = np.zeros(m, bool)
        cut_b[:len(up)] = up[:m]
        pa = np.flatnonzero(here & ~cut_a).astype(np.int32)
        pb = np.flatnonzero(here & ~cut_b).astype(np.int32)
        a = (pa, pa + f0, pa + f2)
        b = (pb, pb + f2, pb + f1)
        blocks += [a, b] if outward else [a[::-1], b[::-1]]
    poles = np.array([[0, 1, 2], [size - 1, size - 2, size - 3]], dtype=np.int32).T
    a, b, c = sphere_grid(3, size)[poles].transpose(0, 2, 1)
    inward = (a * _cross(b, c)).sum(axis=0) < 0.0
    poles[:, inward] = poles[::-1, inward]
    return np.hstack([np.array(block, dtype=np.int32) for block in blocks] + [poles])


def _twins(tri, size):
    """(nbr, slot): half-edge (i, t), the edge from vertex tri[i+1, t] to
    tri[i+2, t] opposite slot i, is the reverse of half-edge (slot[i, t],
    nbr[i, t]).  None unless every edge is shared by exactly two triangles
    that run it in opposite directions."""
    n = tri.shape[1]
    head = tri[[1, 2, 0]].ravel()
    tail = tri[[2, 0, 1]].ravel()
    key = np.minimum(head, tail).astype(np.int64) * size + np.maximum(head, tail)
    order = np.argsort(key, kind="stable").astype(np.int32)
    key = key.take(order)
    first, second = order[0::2], order[1::2]
    if not ((key[0::2] == key[1::2]).all() and (key[2::2] > key[1:-1:2]).all()
            and (head.take(first) == tail.take(second)).all()):
        return None
    del key, head, tail
    twin = np.empty(3 * n, np.int32)
    twin[first] = second
    twin[second] = first
    slot, nbr = np.divmod(twin, n)
    return nbr.reshape(3, n), slot.astype(np.int8).reshape(3, n)


class _Points(dict):
    """Columns of the (3, V) points ``x`` as Python lists, read on first use."""

    def __init__(self, x):
        super().__init__()
        self.x = x

    def __missing__(self, v):
        p = self[v] = self.x[:, v].tolist()
        return p


class _Surface:
    """Outward triangles ``tri[:, t]`` with their half-edge twins, edited in
    place: point location, insertion and Lawson flips."""

    def __init__(self, x, tri, nbr, slot, room):
        self.count = tri.shape[1]
        self.tri, self.nbr, self.slot = (
            np.concatenate([a, np.zeros((3, room), a.dtype)], axis=1) for a in (tri, nbr, slot))
        self.pts = _Points(x)
        self.flips = 0

    def locate(self, r, t, tol):
        """(t, its vertices) for the triangle whose cone holds the ray r, or
        (t, None) when r lies within ``tol`` of a vertex of t; walks at most
        ``_WALK`` triangles from t, and gives None past that."""
        tri, nbr, pts = self.tri, self.nbr, self.pts
        for _ in range(_WALK):
            v = tri[:, t].tolist()
            pa, pb, pc = pts[v[0]], pts[v[1]], pts[v[2]]
            if min(sum((p[m] - r[m]) ** 2 for m in range(3)) for p in (pa, pb, pc)) <= tol * tol:
                return t, None
            side = [_orient(pb, pc, r), _orient(pc, pa, r), _orient(pa, pb, r)]
            worst = min(side)
            if worst >= 0.0:
                return t, v
            t = nbr.item(side.index(worst), t)
        return None

    def insert(self, k, t, v):
        """Split t = (a, b, c) into (k, b, c), (k, c, a), (k, a, b); returns
        the half-edges opposite k."""
        tri, nbr, slot = self.tri, self.nbr, self.slot
        a, b, c = v
        t1, t2 = self.count, self.count + 1
        self.count += 2
        ub, jb, uc, jc = nbr.item(1, t), slot.item(1, t), nbr.item(2, t), slot.item(2, t)
        tri[:, t], tri[:, t1], tri[:, t2] = (k, b, c), (k, c, a), (k, a, b)
        nbr[:, t], slot[:, t] = (nbr.item(0, t), t1, t2), (slot.item(0, t), 2, 1)
        nbr[:, t1], slot[:, t1] = (ub, t2, t), (jb, 2, 1)
        nbr[:, t2], slot[:, t2] = (uc, t, t1), (jc, 2, 1)
        nbr[jb, ub], slot[jb, ub] = t1, 0
        nbr[jc, uc], slot[jc, uc] = t2, 0
        return [(0, t), (0, t1), (0, t2)]

    def flip(self, stack, tol, budget):
        """Flip every edge on the stack (half-edges (i, t)) where either
        triangle's far vertex lies more than ``tol`` above the other's plane,
        pushing the edges each flip exposes.  A flip is made only where both
        new triangles face away from the origin.  False once ``budget``
        flips have been made."""
        tri, nbr, slot, pts = self.tri, self.nbr, self.slot, self.pts
        while stack:
            i, t = stack.pop()
            u, j = nbr.item(i, t), slot.item(i, t)
            i1, i2, j1, j2 = _NEXT[i], _NEXT[i + 1], _NEXT[j], _NEXT[j + 1]
            a, b, c, d = tri.item(i, t), tri.item(i1, t), tri.item(i2, t), tri.item(j, u)
            pa, pb, pc, pd = pts[a], pts[b], pts[c], pts[d]
            bx, by, bz = pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]
            cx, cy, cz = pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2]
            dx, dy, dz = pd[0] - pa[0], pd[1] - pa[1], pd[2] - pa[2]
            nx, ny, nz = by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx
            # (c - d) x (b - d), the normal of u, from the same differences
            mx = (cy - dy) * (bz - dz) - (cz - dz) * (by - dy)
            my = (cz - dz) * (bx - dx) - (cx - dx) * (bz - dz)
            mz = (cx - dx) * (by - dy) - (cy - dy) * (bx - dx)
            twice = min(nx * nx + ny * ny + nz * nz, mx * mx + my * my + mz * mz) ** 0.5
            if not (nx * dx + ny * dy + nz * dz > tol * twice
                    and _orient(pa, pb, pd) > 0.0 and _orient(pa, pd, pc) > 0.0):
                continue
            if self.flips == budget:
                return False
            self.flips += 1
            # t = (a, b, c) becomes (a, b, d) and u = (d, c, b) becomes (d, c, a)
            tri[i2, t], tri[j2, u] = d, a
            y, ys, w, ws = nbr.item(j1, u), slot.item(j1, u), nbr.item(i1, t), slot.item(i1, t)
            nbr[i, t], slot[i, t], nbr[ys, y], slot[ys, y] = y, ys, t, i
            nbr[j, u], slot[j, u], nbr[ws, w], slot[ws, w] = w, ws, u, j
            nbr[i1, t], slot[i1, t], nbr[j1, u], slot[j1, u] = u, j1, t, i1
            stack += [(i, t), (i2, t), (j, u), (j2, u)]
        return True


def _facets(x, tri):
    """Unit normals (3, T), plane offsets and areas of the triangles, each
    normal along (b - a) x (c - a)."""
    a = x.take(tri[0], axis=1)
    normals = _cross(x.take(tri[1], axis=1) - a, x.take(tri[2], axis=1) - a)
    twice = np.sqrt(normals[0] * normals[0] + normals[1] * normals[1] + normals[2] * normals[2])
    with np.errstate(invalid="ignore", divide="ignore"):   # a degenerate face fails the certificate
        normals /= twice
    return normals, normals[0] * a[0] + normals[1] * a[1] + normals[2] * a[2], 0.5 * twice


def _steiner(x, tri, nbr, normals, offsets, areas, tol):
    """(W_0, W_1, W_2) of the closed polytope surface with triangles ``tri``
    (columns of the (3, V) points ``x``) and neighbours ``nbr`` (the
    triangle across the edge opposite each slot); the half-edges i T + t
    where a far vertex lies more than ``tol`` above the other triangle's
    plane (reflex edges); and whether some edge is flat, its far vertices
    within ``tol`` of the other plane on both sides.

    W_0 = sum(area * offset) / 3, W_1 = sum(area) / 3 and W_2 = sum over
    edges of length times exterior angle / 6, the angle between the two
    unit normals taken as atan2(|n1 x n2|, n1 . n2), which keeps its
    accuracy near 0 where arccos loses half the digits.  Each edge is met
    once, from its lower-numbered triangle."""
    n = tri.shape[1]
    mean_width = 0.0
    reflex = []
    flat = False
    own = np.arange(n, dtype=np.int32)
    for i in range(3):
        keep = own < nbr[i]
        t = own[keep]
        u = nbr[i][keep]
        ends = x.take(tri[_NEXT[i]].take(t), axis=1) - x.take(tri[_NEXT[i + 1]].take(t), axis=1)
        length = np.sqrt(ends[0] * ends[0] + ends[1] * ends[1] + ends[2] * ends[2])
        del ends
        p, q = normals.take(t, axis=1), normals.take(u, axis=1)
        cross = _cross(p, q)
        angle = np.arctan2(np.sqrt(cross[0] * cross[0] + cross[1] * cross[1] + cross[2] * cross[2]),
                           p[0] * q[0] + p[1] * q[1] + p[2] * q[2])
        mean_width += float((length * angle).sum())
        del p, cross
        far = x.take(tri[i].take(t), axis=1)
        # the far vertex of t lies h above the plane of u, and the one of u
        # h area(u) / area(t) above the plane of t: the larger exceeds tol
        # when h max(area(t), area(u)) exceeds tol area(t)
        height = q[0] * far[0] + q[1] * far[1] + q[2] * far[2] - offsets.take(u)
        height *= np.maximum(areas.take(t), areas.take(u))
        bound = tol * areas.take(t)
        reflex.append(i * n + t[height > bound])
        flat = flat or bool((np.abs(height) <= bound).any())
    w = np.array([float((areas * offsets).sum()), float(areas.sum()), 0.5 * mean_width]) / 3.0
    return w, np.concatenate(reflex), flat


def _certified(x, tri, nbr, slot, tol):
    """(W, reflex half-edges) when the triangles form one closed surface,
    consistently oriented, with 2V - 4 faces, every face looking away from
    the origin and winding once around it (its solid angles sum to 4 pi),
    and no two neighbours coplanar within ``tol``; None otherwise.  Such a
    surface with no reflex half-edge bounds the convex hull of its V points.

    Coplanar samples (a flat face) are left to Qhull: the lattice cuts a
    flat face into triangles whose round-off bends add up in W_2 (3e-11 of
    it on an octahedron under a random map), where Qhull merges the face."""
    n, size = tri.shape[1], x.shape[1]
    twin = slot.ravel().astype(np.int32) * n + nbr.ravel()
    half = np.arange(3 * n, dtype=np.int32)
    head, tail = tri[[1, 2, 0]].ravel(), tri[[2, 0, 1]].ravel()
    if not (n == 2 * size - 4 and (nbr.ravel().take(twin) == half % n).all()
            and (slot.ravel().take(twin) == half // n).all() and (head.take(twin) == tail).all()):
        return None
    del twin, half, head, tail
    normals, offsets, areas = _facets(x, tri)
    if not (areas.min() > 0.0 and offsets.min() > 0.0):
        return None
    # solid angle of each face: 2 atan2(det[a, b, c], |a||b||c| + (a.b)|c| + (b.c)|a| + (c.a)|b|)
    radius = np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    a, b, c = (x.take(tri[i], axis=1) for i in range(3))
    ra, rb, rc = (radius.take(tri[i]) for i in range(3))
    den = (ra * rb * rc + (a[0] * b[0] + a[1] * b[1] + a[2] * b[2]) * rc
           + (b[0] * c[0] + b[1] * c[1] + b[2] * c[2]) * ra
           + (c[0] * a[0] + c[1] * a[1] + c[2] * a[2]) * rb)
    del a, b, c
    if not abs(2.0 * float(np.arctan2(2.0 * areas * offsets, den).sum()) - 4.0 * np.pi) < 2.0 * np.pi:
        return None
    w, reflex, flat = _steiner(x, tri, nbr, normals, offsets, areas, tol)
    return None if flat else (w, reflex)


def lattice_steiner(verts: np.ndarray, size: int):
    """(W_0, W_1, W_2) of the convex hull of ``verts``, whose first ``size``
    rows are the radial images of ``sphere_grid(3, size)`` in a body
    containing the origin, from the lattice's own triangulation; None when
    the body has a flat face or the surface fails its certificate.

    The tolerance is 1e-12 max|coordinate|.  The rows after ``size`` (the
    norm's extremal candidates) are inserted unless they lie within the
    tolerance of a kept point (Qhull drops such points too).  Reflex edges,
    where a far vertex lies more than the tolerance above the other
    triangle's plane, are flipped, at most size / 4 times in all; when more
    edges than that are reflex, no flip is tried."""
    tol = 1e-12 * float(np.abs(verts).max())
    budget = size // 4
    x = np.ascontiguousarray(verts.T)
    tri = _lattice_triangles(x, size, tol)
    twins = None if tri is None else _twins(tri, size)
    if twins is None:
        return None
    surface = _Surface(x, tri, *twins, 2 * (len(verts) - size))
    kept = size
    if len(verts) > size:
        grid = sphere_grid(3, size)
        star = np.empty(size, np.int32)
        for i in range(3):
            star[tri[i]] = np.arange(tri.shape[1], dtype=np.int32)
        reach = int(4.0 * np.sqrt(size)) + 3   # index span of the lattice's covering radius
        for row in verts[size:]:
            r = row.tolist()
            z = r[2] / (r[0] * r[0] + r[1] * r[1] + r[2] * r[2]) ** 0.5
            mid = min(max(int(0.5 * (1.0 - z) * size), 0), size - 1)
            lo = max(mid - reach, 0)
            near = lo + int(np.argmax(grid[lo:mid + reach] @ row))
            found = surface.locate(r, int(star[near]), tol)
            if found is None:
                return None
            t, v = found
            if v is None:
                continue
            x[:, kept] = row
            if not surface.flip(surface.insert(kept, t, v), tol, budget):
                return None
            kept += 1
    x = x[:, :kept]
    parts = [a[:, :surface.count] for a in (surface.tri, surface.nbr, surface.slot)]
    found = _certified(x, *parts, tol)
    if found is None:
        return None
    w, reflex = found
    if reflex.size:
        n = surface.count
        if (reflex.size > budget - surface.flips
                or not surface.flip([divmod(int(h), n) for h in reflex], tol, budget)):
            return None
        found = _certified(x, *parts, tol)
        if found is None or found[1].size:
            return None
        w = found[0]
    return w


def hull_steiner(hull) -> np.ndarray:
    """(W_0, W_1, W_2) of a scipy ``ConvexHull`` in 3D, measured as
    ``lattice_steiner`` measures its surface, with Qhull's facet planes."""
    x = np.ascontiguousarray(hull.points.T)
    tri = np.ascontiguousarray(hull.simplices.T, dtype=np.int32)
    areas = _facets(x, tri)[2]
    normals = np.ascontiguousarray(hull.equations[:, :3].T)
    offsets = -hull.equations[:, 3]
    nbr = np.ascontiguousarray(hull.neighbors.T, dtype=np.int32)
    return _steiner(x, tri, nbr, normals, offsets, areas, 0.0)[0]   # a hull has no reflex edge to read
