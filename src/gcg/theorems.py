"""Mechanical, instance-level verification of the library's structural results.

Every verifier here builds an explicit certificate — an isomorphism witness,
a decomposition, or a non-transitivity orbit split — and re-checks it through
the independent graph-engine checkers rather than trusting its own
construction.  Sweeps are budgeted: when a sweep would exceed its instance
budget it emits a "skipped" report describing what was not covered instead
of silently truncating.

Verdicts are "verified", "refuted" (an instance contradicts the claimed
statement, which would indicate a bug in this artifact), or "skipped".
"""
from __future__ import annotations

import inspect
from copy import deepcopy
from dataclasses import dataclass, field, replace
from functools import cache, partial
from typing import Callable, Iterable, Iterator

from .automorphisms import (
    AutomorphismMap,
    DihedralInvolutionParams,
    _two_part,
    automorphism_from_perm,
    classify_dihedral_involutions,
    decompose_cyclic_sylow,
    decompose_odd_abelian,
    enumerate_automorphisms,
    enumerate_involutory_automorphisms,
    fix_set,
    identity_automorphism,
    inversion_map,
    is_prime,
    omega_set,
)
from .canon import automorphism_group
from .caps import Caps, caps_from_env
from .catalog import builtin_groups
from .construct import (
    GCSpec,
    build_gc_graph,
    capped_connection_orbits,
    connection_orbits,
    connection_rows,
    enumerate_connection_sets,
    kernel_subgroup,
    make_spec,
    quotient_by_kernel,
)
from .errors import DescriptorError, ShapeError, SpecError
from .graphs import (
    Graph,
    IsomorphismWitness,
    check_witness,
    direct_product,
    empty_graph,
    lexicographic_product,
    triangle_profile,
    triangles,
)
from .groups import (
    Cyclic,
    Dih,
    Dihedral,
    FiniteGroup,
    Product,
    SubgroupHandle,
    bits,
    make_generalized_dihedral,
    make_group,
    mask_of,
    product_coords,
    product_group,
    product_id,
    subgroup_closure,
    subgroup_handle,
)
from .perms import Perm, pinv


@dataclass(frozen=True)
class TheoremReport:
    theorem_id: str
    instance: str
    verdict: str                 # "verified" | "refuted" | "skipped"
    certificate: dict = field(default_factory=dict)
    stats: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "instance": self.instance,
            "verdict": self.verdict,
            "certificate": self.certificate,
            "stats": self.stats,
        }


class _SweepBudget:
    """Counts checks; `take` grants none once the budget is gone so the
    caller can emit an explicit skipped report."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def take(self) -> bool:
        """Spend one unit on one check; False once the budget is gone."""
        if self.used == self.limit:
            return False
        self.used += 1
        return True


def _sweep(items: Iterable, check: Callable, budget: _SweepBudget) -> tuple[int, bool, object]:
    """Check items one by one until one is refuted or the budget runs out.

    Each item costs one budget unit: a connection set, a (spec, phi) pair or
    a connection-orbit layer.  `check` returns None when the item conforms
    and the refutation otherwise (it may also raise).  Returns how many items
    passed, whether the budget ran out, and the refutation or None."""
    covered = 0
    for item in items:
        if not budget.take():
            return covered, True, None
        refutation = check(item)
        if refutation is not None:
            return covered, False, refutation
        covered += 1
    return covered, False, None


def _sweep_layers(
    g: FiniteGroup, alpha: AutomorphismMap, certify: Callable[[GCSpec], Perm] | None
) -> Callable[[tuple[int, ...]], None]:
    """A `_sweep` check over `connection_orbits(g, alpha)` that certifies
    the sets `enumerate_connection_sets(g, alpha)` would yield through one
    vertex map checked on single-orbit layers, instead of set by set.

    Lemma.  Let S be the union of connection orbits O.  Every row of
    GC(G, S, alpha) is the OR of the same row of the layers X_O, by the
    lemma of `connection_rows`.  The same holds for the edge rule of
    `normal_form_odd_abelian` and for every Cayley target Cay(H, t(S)) with
    t applied element by element, as in `dihedralize_inversion` and
    `order_2p_witness`, and the vertex maps of all of them depend on
    (G, alpha) only.  A bijection f maps a union of rows to the union of the
    images, so if one f passes `check_witness` on every layer X_O -> Y_O, it
    is an isomorphism X_S -> Y_S for every union S of them.

    `certify` checks the witness on one layer (raising on failure) and
    returns its vertex map; every layer must return the same map.  With
    `certify` None the layers are only counted.  Set i of the enumeration is
    the union of the orbits at the one bits of i, so the first j layers
    certify exactly the sets with index below 2^j."""
    mapping = None

    def check(orbit: tuple[int, ...]) -> None:
        nonlocal mapping
        if certify is None:
            return
        layer_map = certify(make_spec(g, alpha, orbit))
        if mapping is None:
            mapping = layer_map
        elif layer_map != mapping:
            raise AssertionError(f"layer {orbit} was certified by a different vertex map")

    return check


def _sweep_report(
    theorem_id: str, instance: str, count: int, skipped: bool, stats: dict | None = None, **fields
) -> TheoremReport:
    """The report of a set or layer sweep that certified `count` connection
    sets: "skipped" with `covered_sets` when the budget ran out first,
    "verified" with `sets_swept` otherwise.  `fields` are the runner's other
    certificate fields."""
    if skipped:
        return TheoremReport(theorem_id, instance, "skipped", {"covered_sets": count, **fields}, stats or {})
    return TheoremReport(theorem_id, instance, "verified", {"sets_swept": count, **fields}, stats or {})


def _dihedral_map(spec: GCSpec) -> Perm:
    return dihedralize_inversion(spec).mapping


def _normal_form_map(spec: GCSpec) -> Perm:
    return normal_form_odd_abelian(spec).witness.mapping


def _refutation(report: TheoremReport) -> TheoremReport | None:
    """A sweep check's result for a verifier that returns its own report."""
    return None if report.verdict == "verified" else report


# ---------------------------------------------------------------------------
# coordinate helpers for groups presented as products of cyclic groups


def _cyclic_orders(g: FiniteGroup) -> list[int]:
    d = g.descriptor
    if isinstance(d, Cyclic):
        return [d.n]
    if isinstance(d, Product) and all(isinstance(f, Cyclic) for f in d.factors):
        return [f.n for f in d.factors]
    raise ShapeError(
        f"{g.name} needs a direct-product-of-cyclic-groups presentation for this construction"
    )


def _product_descriptor(orders: list[int]):
    if not orders:
        return Cyclic(1)
    if len(orders) == 1:
        return Cyclic(orders[0])
    return Product(tuple(Cyclic(m) for m in orders))


@dataclass(frozen=True)
class _PrimaryFactor:
    coord: int
    prime: int
    power: int       # p^a, the order of the basis element
    element: int     # element id generating this primary cyclic factor


def _primary_basis(g: FiniteGroup) -> list[_PrimaryFactor]:
    """One generator per primary cyclic factor, read off the coordinates."""
    orders = _cyclic_orders(g)
    out = []
    for c, m in enumerate(orders):
        rest = m
        p = 2
        while rest > 1:
            if rest % p == 0:
                q = 1
                while rest % p == 0:
                    rest //= p
                    q *= p
                unit = [(m // q) % m if j == c else 0 for j in range(len(orders))]
                out.append(_PrimaryFactor(c, p, q, product_id(unit, orders)))
            p += 1 if p == 2 else 2
    return out


# ---------------------------------------------------------------------------
# conjugation invariance


def verify_conjugation_isomorphism(spec: GCSpec, phi: AutomorphismMap) -> TheoremReport:
    """GC(G,S,a) and GC(G, phi(S), phi a phi^-1) are isomorphic via phi."""
    g = spec.group
    if phi.group is not g:
        raise ShapeError("phi must be an automorphism of the spec's group")
    inv_phi = pinv(phi.perm)
    conj_perm = tuple(phi.perm[spec.alpha.perm[inv_phi[x]]] for x in range(g.order))
    conj_alpha = automorphism_from_perm(g, conj_perm)
    conj_ids = tuple(sorted(phi.perm[s] for s in spec.set_ids()))
    try:
        conj_spec = make_spec(g, conj_alpha, conj_ids)
    except SpecError as exc:
        return TheoremReport(
            "prop-2.1", _spec_key(spec), "refuted", {"reason": str(exc)}
        )
    x_graph = build_gc_graph(spec)
    y_graph = build_gc_graph(conj_spec)
    witness = IsomorphismWitness(x_graph, y_graph, phi.perm)
    ok = check_witness(witness)
    return TheoremReport(
        "prop-2.1",
        _spec_key(spec),
        "verified" if ok else "refuted",
        {
            "phi": list(phi.perm),
            "conjugated_alpha": list(conj_perm),
            "conjugated_set": list(conj_ids),
        },
    )


# ---------------------------------------------------------------------------
# odd-abelian normal form


@dataclass(frozen=True)
class OddAbelianNormalForm:
    spec: GCSpec
    fix_ids: tuple[int, ...]     # G1 members
    omega_ids: tuple[int, ...]   # G2 members
    sbar: tuple[tuple[int, int], ...]  # pairs (fix part, omega part) of S
    normal_graph: Graph
    witness: IsomorphismWitness


def normal_form_odd_abelian(spec: GCSpec) -> OddAbelianNormalForm:
    """Rewrite a GC graph on an odd abelian group over Fix x omega coordinates
    with the edge rule (g1,g2) ~ (g1 s1, g2^{-1} s2)."""
    g = spec.group
    dec = decompose_odd_abelian(g, spec.alpha)
    fix_ids = dec.fix.members()
    omega_ids = dec.omega.members()
    fix_pos = {x: i for i, x in enumerate(fix_ids)}
    omega_pos = {x: i for i, x in enumerate(omega_ids)}
    n2 = len(omega_ids)

    def pair_vertex(x: int) -> int:
        a, b = dec.pair_of[x]
        return fix_pos[a] * n2 + omega_pos[b]

    sbar = tuple(dec.pair_of[s] for s in spec.set_ids())
    for s1, s2 in sbar:
        if s1 == 0:
            raise ShapeError("connection element lands in the omega factor")
        if (g.inv[s1], s2) not in sbar:
            raise ShapeError("normal-form set is not symmetric in its first slot")
    rows = [0] * g.order
    for a in fix_ids:
        for b in omega_ids:
            v = fix_pos[a] * n2 + omega_pos[b]
            r = 0
            for s1, s2 in sbar:
                w = fix_pos[g.mul[a][s1]] * n2 + omega_pos[g.mul[g.inv[b]][s2]]
                r |= 1 << w
            rows[v] = r
    y = Graph(g.order, tuple(rows))
    mapping = tuple(pair_vertex(x) for x in range(g.order))
    witness = IsomorphismWitness(build_gc_graph(spec), y, mapping)
    if not check_witness(witness):
        raise AssertionError("odd-abelian normal form failed its witness check")
    return OddAbelianNormalForm(spec, fix_ids, omega_ids, sbar, y, witness)


# ---------------------------------------------------------------------------
# dihedralization of inversion specs


@dataclass(frozen=True)
class _DihedralTarget:
    dih: FiniteGroup             # Dih(Z_{2^(n-1)} x odd part); ids from |dih|/2 on are reflections
    phi: Perm                    # vertex map G -> dih
    eq1_pairs: int               # product-identity pairs checked


@cache
def _dihedral_target(g: FiniteGroup) -> _DihedralTarget:
    """Dih(Z_{2^(n-1)} x H) for an abelian G = Z_{2^n} x H with H odd, with
    a vertex bijection and the checked semidirect-product identity.

    G's one coordinate c of even order 2^n * m splits by the Chinese
    remainder theorem into x = c mod 2^n and c mod m; vertex v goes to
    (x mod 2) * |inner| + id(x // 2, c mod m, G's other coordinates of
    order > 1), where inner = Z_{2^(n-1)} x Z_m x (those coordinates)."""
    if not g.abelian:
        raise ShapeError("dihedralization needs an abelian group")
    orders = _cyclic_orders(g)
    evens = [i for i, m in enumerate(orders) if m % 2 == 0]
    if not evens:
        raise ShapeError("group has odd order; nothing to dihedralize")
    if len(evens) > 1:
        raise ShapeError("Sylow 2-subgroup is not cyclic")
    e = evens[0]
    n, odd = _two_part(orders[e])
    rest = [j for j, m in enumerate(orders) if j != e and m > 1]
    inner_orders = ([1 << (n - 1)] if n > 1 else []) + ([odd] if odd > 1 else []) + [orders[j] for j in rest]
    inner = make_group(_product_descriptor(inner_orders))
    dih = make_generalized_dihedral(inner, Dih(inner.descriptor))
    phi = []
    for v in range(g.order):
        coords = product_coords(v, orders)
        x = coords[e] % (1 << n)
        inner_coords = ([x // 2] if n > 1 else []) + ([coords[e] % odd] if odd > 1 else [])
        inner_coords += [coords[j] for j in rest]
        phi.append((x % 2) * inner.order + product_id(inner_coords, inner_orders))
    phi = tuple(phi)
    if sorted(phi) != list(range(dih.order)):
        raise AssertionError("dihedral vertex map is not a bijection")
    # the semidirect-product identity behind the edge computation:
    # (i1,0)^-1 (i2,1) = (i1,1)^-1 (i2,0) = (i1*i2, 1)
    m = inner.order
    pairs = 0
    for i1 in range(m):
        a0 = dih.inv[i1]          # (i1, 0)^-1
        a1 = dih.inv[m + i1]      # (i1, 1)^-1
        for i2 in range(m):
            want = m + inner.mul[i1][i2]
            if dih.mul[a0][m + i2] != want or dih.mul[a1][i2] != want:
                raise AssertionError("semidirect product identity failed")
            pairs += 1
    return _DihedralTarget(dih, phi, pairs)


@dataclass(frozen=True)
class CayleyWitness:
    """A checked isomorphism `mapping` from GC(G, S, alpha) onto the Cayley
    graph Cay(H, T), H = `target_group` and T = `target_set_ids`, found by
    the named route."""

    route: str
    source: GCSpec
    target_group: FiniteGroup
    target_set_ids: tuple[int, ...]
    mapping: Perm                # source vertex -> target vertex
    witness: IsomorphismWitness
    params: dict


def _cayley_witness(spec: GCSpec, route: str, h: FiniteGroup, t_ids: tuple[int, ...], phi: Perm,
                    params: dict) -> CayleyWitness:
    """Build Cay(H, T) and check that phi maps GC(G, S, alpha) onto it."""
    cay = make_spec(h, identity_automorphism(h), t_ids)
    witness = IsomorphismWitness(build_gc_graph(spec), build_gc_graph(cay), phi)
    if not check_witness(witness):
        raise AssertionError(f"{route} route witness failed")
    return CayleyWitness(route, spec, h, t_ids, phi, witness, params)


def dihedralize_inversion(spec: GCSpec) -> CayleyWitness:
    """Turn GC(G, S, inversion) on an abelian G with cyclic Sylow 2-subgroup
    into the ordinary Cayley graph Cay(Dih(Z_{2^(n-1)} x H), f(S)) (Thm 3.1).

    One vertex map f, read off G's own coordinates by `_dihedral_target`,
    sends x to its image in Dih(.); `check_witness` then checks that f is an
    isomorphism X -> Cay(Dih(.), f(S))."""
    g = spec.group
    if spec.alpha.perm != tuple(g.inv):
        raise ShapeError("dihedralization applies to the inversion map only")
    target = _dihedral_target(g)
    n = _two_part(g.order)[0]
    phi_s = []
    for s in spec.set_ids():
        # s has an odd Z_{2^n} coordinate iff 2^n divides its order
        if _two_part(g.element_orders[s])[0] < n:
            raise SpecError(
                f"connection element {s} has an even 2-part coordinate; spec cannot be valid"
            )
        img = target.phi[s]
        if img < target.dih.order // 2:
            raise AssertionError("connection image missed the reflection half")
        phi_s.append(img)
    params = {"eq1_pairs": target.eq1_pairs}
    return _cayley_witness(spec, "dihedralize", target.dih, tuple(sorted(phi_s)), target.phi, params)


# ---------------------------------------------------------------------------
# the two non-vertex-transitive families


def _orbit_split(x: Graph, caps: Caps) -> dict:
    """The orbit count of Aut(x) and, when there are two orbits or more, an
    `orbit_witness`: one vertex of each of the first two, which no
    automorphism maps to each other."""
    orbits = automorphism_group(x, caps.aut_node_budget).orbits
    cert: dict = {"orbit_count": len(orbits)}
    if len(orbits) >= 2:
        cert["orbit_witness"] = [orbits[0][0], orbits[1][0]]
    return cert


def build_counterexample(kind: str, params: dict, caps: Caps | None = None) -> GCSpec:
    """The inversion spec of one family member: `params` holds m and n for
    "ex32" (Ex 3.2), k for "ex33" (Ex 3.3)."""
    caps = caps or caps_from_env()
    if kind == "ex32":
        m, n = params["m"], params["n"]
        if m < 1 or n < 2:
            raise ShapeError("the two-power family needs m >= 1 and n >= 2")
        g = make_group(Product((Cyclic(1 << m), Cyclic(1 << n))), caps)
        stride = 1 << n
        s_ids = (stride, 1, stride + 1)       # (1,0), (0,1), (1,1)
    elif kind == "ex33":
        k = params["k"]
        if k < 1:
            raise ShapeError("the elementary-times-odd family needs k >= 1")
        q = 2 * k + 1
        g = make_group(Product((Cyclic(2), Cyclic(2), Cyclic(q))), caps)
        s_ids = (2 * q, q, 3 * q + 1)         # (1,0,0), (0,1,0), (1,1,1)
    else:
        raise ShapeError(f"unknown counterexample family {kind!r}")
    return make_spec(g, inversion_map(g), s_ids)


def verify_example_32(m: int, n: int, caps: Caps | None = None) -> TheoremReport:
    caps = caps or caps_from_env()
    spec = build_counterexample("ex32", {"m": m, "n": n}, caps)
    g = spec.group
    x = build_gc_graph(spec)
    cert: dict = {"set": list(spec.set_ids()), **_orbit_split(x, caps)}
    ok = cert["orbit_count"] >= 2
    # every triangle contains an element of order dividing 2
    for u, v, w in triangles(x):
        if not any(g.mul[t][t] == 0 for t in (u, v, w)):
            ok = False
            cert["triangle_without_involution"] = [u, v, w]
            break
    profile = triangle_profile(x)
    if m >= 3 or n >= 3:
        # the element (2, 2), coordinates reduced into the actual factors;
        # its double is nonzero, so it cannot lie on a triangle
        vertex = (2 % (1 << m)) * (1 << n) + (2 % (1 << n))
        cert["vertex_2_2"] = vertex
        cert["vertex_2_2_triangles"] = profile[vertex]
        ok = ok and profile[vertex] == 0 and max(profile) > 0
    else:
        cert["triangle_profile_values"] = sorted(set(profile))
        ok = ok and len(set(profile)) > 1
    return TheoremReport(
        "ex-3.2", f"m={m},n={n}", "verified" if ok else "refuted", cert,
        {"vertices": x.n},
    )


def verify_example_33(k: int, caps: Caps | None = None) -> TheoremReport:
    caps = caps or caps_from_env()
    spec = build_counterexample("ex33", {"k": k}, caps)
    x = build_gc_graph(spec)
    q = 2 * k + 1
    profile = triangle_profile(x)
    # (0,0,k) sits on the triangle [(0,0,k), (1,0,-k), (0,1,k+1)]
    v1, v2, v3 = k, 2 * q + (q - k), q + (k + 1)
    triangle_ok = x.has_edge(v1, v2) and x.has_edge(v2, v3) and x.has_edge(v1, v3)
    cert = {
        "set": list(spec.set_ids()),
        **_orbit_split(x, caps),
        "triangle_free_vertex": 0,
        "triangle": [v1, v2, v3],
    }
    ok = cert["orbit_count"] >= 2 and profile[0] == 0 and triangle_ok
    return TheoremReport(
        "ex-3.3", f"k={k}", "verified" if ok else "refuted", cert, {"vertices": x.n}
    )


# ---------------------------------------------------------------------------
# direct products


def verify_product_lemma(spec_a: GCSpec, spec_b: GCSpec) -> TheoremReport:
    """direct_product(X, Y) coincides with the GC graph of the product spec."""
    ga, gb = spec_a.group, spec_b.group
    g = product_group(ga, gb)
    nb = gb.order
    alpha_perm = tuple(
        spec_a.alpha.perm[v // nb] * nb + spec_b.alpha.perm[v % nb]
        for v in range(g.order)
    )
    alpha = automorphism_from_perm(g, alpha_perm)
    want_omega = mask_of(
        wa * nb + wb
        for wa in omega_set(ga, spec_a.alpha).set.members()
        for wb in omega_set(gb, spec_b.alpha).set.members()
    )
    omega_ok = omega_set(g, alpha).set.mask == want_omega
    s_ids = tuple(
        sa * nb + sb for sa in spec_a.set_ids() for sb in spec_b.set_ids()
    )
    try:
        spec = make_spec(g, alpha, s_ids)
    except SpecError as exc:
        return TheoremReport(
            "lemma-3.4", _pair_key(spec_a, spec_b), "refuted", {"reason": str(exc)}
        )
    lhs = direct_product(build_gc_graph(spec_a), build_gc_graph(spec_b))
    rhs = build_gc_graph(spec)
    ok = omega_ok and lhs.rows == rhs.rows
    return TheoremReport(
        "lemma-3.4",
        _pair_key(spec_a, spec_b),
        "verified" if ok else "refuted",
        {
            "product_order": g.order,
            "omega_product_law": omega_ok,
            "edges": rhs.edge_count(),
        },
    )


# ---------------------------------------------------------------------------
# the inversion dichotomy


def _dichotomy_branch(g: FiniteGroup) -> str:
    if not g.abelian:
        raise ShapeError("the inversion dichotomy concerns abelian groups")
    if all(o <= 2 for o in g.element_orders):
        return "elementary"
    involutions = sum(1 for o in g.element_orders if o == 2)
    return "cyclic-sylow" if involutions <= 1 else "neither"


def _neither_witness_spec(g: FiniteGroup) -> tuple[GCSpec, dict]:
    """Build the non-vertex-transitive spec used by the dichotomy's negative
    branch: one of the two counterexample patterns on primary coordinates,
    multiplied with all of a complement subgroup when one is present."""
    basis = _primary_basis(g)
    twos = sorted(
        (b for b in basis if b.prime == 2),
        key=lambda b: (-b.power, b.coord),
    )
    if len(twos) < 2:
        raise ShapeError("Sylow 2-subgroup is cyclic; no witness needed")
    detail: dict = {}
    if twos[0].power >= 4:
        big, small = twos[0], twos[1]
        u, v = small.element, big.element
        core = [big, small]
        s1 = (u, v, g.mul[u][v])
        detail["pattern"] = "two-power"
        detail["pattern_params"] = {
            "m": small.power.bit_length() - 1,
            "n": big.power.bit_length() - 1,
        }
    else:
        odds = sorted(
            (b for b in basis if b.prime != 2), key=lambda b: (b.coord, b.prime)
        )
        if not odds:
            raise ShapeError("elementary abelian 2-group; no witness needed")
        e1, e2 = sorted(twos[:2], key=lambda b: b.coord)
        bodd = odds[0]
        core = [e1, e2, bodd]
        u, v, w = e1.element, e2.element, bodd.element
        s1 = (u, v, g.mul[g.mul[u][v]][w])
        detail["pattern"] = "elementary-times-odd"
        detail["pattern_params"] = {"k": (bodd.power - 1) // 2}
    core_ids = {b.element for b in core}
    complement = [b.element for b in basis if b.element not in core_ids]
    h_mask = subgroup_closure(g, complement)
    h_members = list(bits(h_mask))
    detail["complement_order"] = len(h_members)
    # Multiplying by the whole complement subgroup makes adjacency ignore
    # the complement coordinate, so the graph is the |H|-fold blowup of the
    # base counterexample and inherits its broken transitivity.  (Multiplying
    # by H minus the identity instead would tensor with K_{|H|}, which turns
    # into a bipartite double cover when |H| = 2 and can regain transitivity.)
    s_ids = tuple(sorted(g.mul[a][b] for a in s1 for b in h_members))
    detail["set"] = list(s_ids)
    return make_spec(g, inversion_map(g), s_ids), detail


def check_inversion_dichotomy(g: FiniteGroup, caps: Caps | None = None) -> TheoremReport:
    caps = caps or caps_from_env()
    branch = _dichotomy_branch(g)
    iota = inversion_map(g)
    if branch == "elementary" and iota.perm != tuple(range(g.order)):
        return TheoremReport(
            "thm-3.5", g.name, "refuted",
            {"branch": branch, "reason": "inversion is not the identity"},
        )
    if branch != "neither":
        # on an elementary 2-group GC(G, S, iota) is Cay(G, S) itself
        if branch == "elementary":
            certify, detail = None, {"reduction": "inversion equals identity"}
        else:
            certify, detail = _dihedral_map, {"route": "dihedralization witness per connection orbit"}
        budget = _SweepBudget(caps.sweep_instance_budget)
        layers, skipped, _ = _sweep(connection_orbits(g, iota), _sweep_layers(g, iota, certify), budget)
        if skipped:
            return _sweep_report("thm-3.5", g.name, 1 << layers, True, {"budget": budget.limit}, branch=branch)
        return _sweep_report("thm-3.5", g.name, 1 << layers, False, branch=branch, **detail)
    spec, detail = _neither_witness_spec(g)
    cert = {"branch": branch, **detail, **_orbit_split(build_gc_graph(spec), caps)}
    ok = cert["orbit_count"] >= 2
    return TheoremReport("thm-3.5", g.name, "verified" if ok else "refuted", cert)


# ---------------------------------------------------------------------------
# order 2p


def order_2p_witness(spec: GCSpec) -> CayleyWitness:
    """A checked isomorphism from GC(G, S, alpha), |G| = 2p, onto a Cayley
    graph (Thm 4.3).  The vertex map depends on (G, alpha) only."""
    g = spec.group
    if g.order % 2 != 0 or not is_prime(g.order // 2):
        raise ShapeError("the order must be twice a prime")
    p = g.order // 2
    n = g.order
    identity_perm = tuple(range(n))
    cyclic = any(o == n for o in g.element_orders)
    if cyclic and spec.alpha.perm != identity_perm:
        if spec.alpha.perm != tuple(g.inv):
            raise ShapeError("cyclic groups of order 2p admit only identity and inversion")
        return replace(dihedralize_inversion(spec), route="cyclic-dihedralize")
    if not cyclic and p > 2 and not isinstance(g.descriptor, Dihedral):
        raise ShapeError("expected a dihedral presentation for the non-cyclic case")
    if cyclic or p == 2 or spec.alpha.perm == identity_perm:
        # GC(G, S, alpha) is Cay(G, S) row for row: alpha(x)S = xS.  For
        # alpha = id that is the definition.  On Z2 x Z2 with alpha != id, S
        # avoids omega(G) = {1, c}, c the element alpha fixes, so S is empty
        # or the other two elements; then cS = S and alpha(x) is x or xc.
        route = "cyclic-identity" if cyclic else "small-direct" if p == 2 else "dihedral-identity"
        s1, phi, params = spec.set_ids(), identity_perm, {}
    else:
        # alpha is r -> r^-1, t -> t r^l (classify_dihedral_involutions): k
        # and l are read off the images of r = 1 and t = p
        l = spec.alpha.perm[p] - p
        match = DihedralInvolutionParams(p, -1, l, l * ((p + 1) // 2) % p)
        if spec.alpha.perm[1] != p - 1 or match.to_automorphism(g).perm != spec.alpha.perm:
            raise ShapeError("alpha is not an involutory automorphism of this group")
        kprime = match.halfshift
        s_ids = spec.set_ids()
        if any(s < p for s in s_ids):
            raise AssertionError("a rotation slipped into the connection set")
        s_prime = sorted((s - p) % p for s in s_ids)
        if sorted((2 * kprime - i) % p for i in s_prime) != s_prime:
            raise AssertionError("connection indices are not symmetric about the halfshift")
        route = "dihedral-phi"
        s1 = tuple(sorted(p + (i - kprime) % p for i in s_prime))
        phi = tuple(((-i - kprime) % p) if i < p else i for i in range(2 * p))
        params = {"k": match.k, "l": match.l, "halfshift": kprime, "s_prime": s_prime}
    return _cayley_witness(spec, route, g, s1, phi, params)


# ---------------------------------------------------------------------------
# duplicate neighborhoods


def coset_law_and_duplicates(rows: tuple[int, ...], coset_of: tuple[int, ...]) -> tuple[bool, bool]:
    """(coset law, duplicate rows) for vertex rows over the elements of a
    group, given the mask `coset_of[a]` of the left coset aK of each a.

    The coset law says rows[a] == rows[b] exactly when a^-1 b lies in the
    subgroup K, that is, each class of equal rows is the left coset aK of
    its members.  Grouping the vertices by row and comparing each class with
    the coset of one member decides it in O(|G|) steps: if a class C holding
    a equals aK, then bK = aK = C for every b in C.  Duplicate rows exist
    exactly when there are fewer classes than vertices."""
    classes: dict[int, int] = {}
    for v, row in enumerate(rows):
        classes[row] = classes.get(row, 0) | 1 << v
    law = all(members == coset_of[(members & -members).bit_length() - 1] for members in classes.values())
    return law, len(classes) < len(rows)


def _unworthy_certificate(
    g: FiniteGroup, s_mask: int, rows: tuple[int, ...], k: SubgroupHandle, omega_mask: int | None
) -> tuple[bool, bool, dict]:
    """The unworthiness check of one set S: (passed, S is the complement of
    omega, certificate), for `rows` the rows of X = GC(G, S, alpha), K its
    kernel and `omega_mask` the omega set of alpha when G is abelian (None
    otherwise).

    Checked: the coset law for equal rows, duplicate rows exactly when
    |K| > 1 (Prop 5.1, Cor 5.2), X = X/K[empty |K|] through a witness when
    |K| > 1 (Prop 5.3), and, when S = G minus omega, K = omega with a
    complete quotient (Cor 5.4)."""
    k_size = len(k)
    cert: dict = {"kernel": list(k.members()), "kernel_size": k_size}
    coset_law, duplicate = coset_law_and_duplicates(rows, k.coset_of)
    cert["coset_law"] = coset_law
    unworthy_ok = duplicate == (k_size > 1)
    cert["unworthy"] = duplicate
    decomposition_ok = True
    quotient = None
    if k_size > 1:
        x = Graph(g.order, rows)
        quotient = quotient_by_kernel(x, k)
        # the r-th member of the i-th coset goes to vertex i|K| + r
        lex_map = [0] * g.order
        for i, coset in enumerate(k.cosets()):
            for rank, v in enumerate(bits(coset)):
                lex_map[v] = i * k_size + rank
        lex = lexicographic_product(quotient, empty_graph(k_size))
        decomposition_ok = check_witness(IsomorphismWitness(x, lex, tuple(lex_map)))
        cert["quotient_vertices"] = quotient.n
        cert["lex_decomposition"] = decomposition_ok
    complement_case = omega_mask is not None and s_mask == ((1 << g.order) - 1) ^ omega_mask
    complement_ok = True
    if complement_case:
        complement_ok = k.set.mask == omega_mask
        if quotient is not None:
            m = quotient.n
            complement_ok = complement_ok and all(
                quotient.rows[v] == (((1 << m) - 1) ^ (1 << v)) for v in range(m)
            )
        cert["complement_set_case"] = {
            "m": g.order // k_size,
            "n": k_size,
            "quotient_complete": complement_ok,
        }
    ok = coset_law and unworthy_ok and decomposition_ok and complement_ok
    return ok, complement_case, cert


def verify_unworthy_theory(spec: GCSpec) -> TheoremReport:
    """Coset law for equal neighborhoods, the unworthiness criterion, and the
    lexicographic decomposition, all on one spec, from its own graph and
    `kernel_subgroup`."""
    g = spec.group
    omega_mask = omega_set(g, spec.alpha).set.mask if g.abelian else None
    ok, complement_case, cert = _unworthy_certificate(
        g, spec.connection.mask, build_gc_graph(spec).rows, kernel_subgroup(spec), omega_mask
    )
    return TheoremReport(
        "prop-5.3" if not complement_case else "cor-5.4",
        _spec_key(spec),
        "verified" if ok else "refuted",
        cert,
    )


# ---------------------------------------------------------------------------
# sweep drivers


def _spec_key(spec: GCSpec) -> str:
    alpha = ",".join(map(str, spec.alpha.perm))
    ids = ",".join(map(str, spec.set_ids()))
    return f"{spec.group.name}|alpha=({alpha})|S={{{ids}}}"


def _pair_key(a: GCSpec, b: GCSpec) -> str:
    return f"{_spec_key(a)} x {_spec_key(b)}"


def _alpha_walk(groups: Iterable[FiniteGroup]) -> Iterator[tuple[str, FiniteGroup, AutomorphismMap]]:
    """Each involutory automorphism of each group, with its instance name
    `G|alpha#i` (i its index in `enumerate_involutory_automorphisms`)."""
    for g in groups:
        for idx, alpha in enumerate(enumerate_involutory_automorphisms(g)):
            yield f"{g.name}|alpha#{idx}", g, alpha


def run_prop_2_1(caps: Caps, max_order: int = 6) -> list[TheoremReport]:
    budget = _SweepBudget(caps.sweep_instance_budget)
    reports = []
    for g in builtin_groups(max_order, caps):
        autos = enumerate_automorphisms(g)
        pairs = (
            (spec, phi)
            for alpha in enumerate_involutory_automorphisms(g)
            for spec in enumerate_connection_sets(g, alpha, caps=caps)
            for phi in autos
        )
        checked, stopped, bad = _sweep(
            pairs, lambda pair: _refutation(verify_conjugation_isomorphism(*pair)), budget
        )
        if bad:
            reports.append(bad)
        elif stopped:
            reports.append(TheoremReport(
                "prop-2.1", g.name, "skipped",
                {"checked_pairs": checked, "reason": "sweep budget exhausted"},
            ))
        else:
            reports.append(TheoremReport(
                "prop-2.1", g.name, "verified",
                {"automorphisms": len(autos)}, {"checked_pairs": checked},
            ))
    return reports


def run_prop_2_2(caps: Caps, max_order: int = 16) -> list[TheoremReport]:
    reports = []
    for key, g, alpha in _alpha_walk(builtin_groups(max_order, caps)):
        fix = fix_set(g, alpha)          # raises if not a subgroup
        om = omega_set(g, alpha)
        inverted = all(alpha.perm[x] == g.inv[x] for x in om.set.members())
        ok = inverted and (om.is_subgroup or not g.abelian)
        reports.append(TheoremReport(
            "prop-2.2", key, "verified" if ok else "refuted",
            {
                "fix_size": len(fix),
                "omega_size": len(om.set),
                "omega_subgroup": om.is_subgroup,
                "abelian": g.abelian,
                "alpha_inverts_omega": inverted,
            },
        ))
    return reports


def run_lemma_2_3(caps: Caps, max_order: int = 16) -> list[TheoremReport]:
    reports = []
    for key, g, alpha in _alpha_walk(builtin_groups(max_order, caps)):
        fix = fix_set(g, alpha)
        om = omega_set(g, alpha)
        ok = len(fix) * len(om.set) == g.order
        reports.append(TheoremReport(
            "lemma-2.3", key, "verified" if ok else "refuted",
            {"fix_size": len(fix), "omega_size": len(om.set), "order": g.order},
        ))
    return reports


def _odd_abelian_groups(max_order: int, caps: Caps) -> Iterator[FiniteGroup]:
    return (g for g in builtin_groups(max_order, caps) if g.abelian and g.order % 2)


def run_prop_2_4(caps: Caps, max_order: int = 21) -> list[TheoremReport]:
    reports = []
    for key, g, alpha in _alpha_walk(_odd_abelian_groups(max_order, caps)):
        dec = decompose_odd_abelian(g, alpha)   # raises on any failure
        reports.append(TheoremReport(
            "prop-2.4", key, "verified",
            {"fix": list(dec.fix.members()), "omega": list(dec.omega.members())},
        ))
    return reports


def run_prop_2_5(caps: Caps, max_order: int = 21) -> list[TheoremReport]:
    budget = _SweepBudget(caps.sweep_instance_budget)
    reports = []
    for key, g, alpha in _alpha_walk(_odd_abelian_groups(max_order, caps)):
        check = _sweep_layers(g, alpha, _normal_form_map)
        layers, skipped, _ = _sweep(connection_orbits(g, alpha), check, budget)
        reports.append(_sweep_report("prop-2.5", key, 1 << layers, skipped))
    return reports


def run_prop_2_6(caps: Caps, max_order: int = 24) -> list[TheoremReport]:
    # the Sylow 2-subgroup of an abelian group is cyclic iff it has one involution
    groups = (
        g for g in builtin_groups(max_order, caps)
        if g.abelian and g.order % 2 == 0 and sum(o == 2 for o in g.element_orders) <= 1
    )
    reports = []
    for key, g, alpha in _alpha_walk(groups):
        dec = decompose_cyclic_sylow(g, alpha)  # raises on any failure
        reports.append(TheoremReport(
            "prop-2.6", key, "verified",
            {"n": dec.n, "a": dec.a, "h1_size": len(dec.h1), "h2_size": len(dec.h2)},
        ))
    return reports


def run_thm_3_1(
    caps: Caps, groups: Iterable[str] = ("Z2", "Z4", "Z8", "Z6", "Z12", "Z20")
) -> list[TheoremReport]:
    resolved = [make_group(name, caps) for name in groups]
    for i, g in enumerate(resolved):
        if any(h.name == g.name for h in resolved[:i]):
            raise DescriptorError(f"thm-3.1 group {g.name} is listed twice")
    budget = _SweepBudget(caps.sweep_instance_budget)
    reports = []
    for g in resolved:
        try:
            target = _dihedral_target(g)
        except ShapeError as exc:
            raise ShapeError(
                f"thm-3.1 needs an abelian group of even order with a cyclic Sylow 2-subgroup; "
                f"{g.name}: {exc}"
            ) from None
        iota = inversion_map(g)
        layers, skipped, _ = _sweep(connection_orbits(g, iota), _sweep_layers(g, iota, _dihedral_map), budget)
        reports.append(_sweep_report(
            "thm-3.1", g.name, 1 << layers, skipped,
            target_group=target.dih.name, eq1_pairs=target.eq1_pairs,
        ))
    return reports


def run_ex_3_2(caps: Caps, m: int | None = None, n: int | None = None) -> list[TheoremReport]:
    if (m is None) != (n is None):
        raise ShapeError("ex-3.2 reads m and n together")
    pairs = [(1, 2), (2, 2), (1, 3)] if m is None else [(m, n)]
    return [verify_example_32(m, n, caps) for m, n in pairs]


def run_ex_3_3(caps: Caps, k: int | None = None) -> list[TheoremReport]:
    return [verify_example_33(k, caps) for k in ([1, 2] if k is None else [k])]


def run_lemma_3_4(caps: Caps) -> list[TheoremReport]:
    z4 = make_group("Z4", caps)
    z3 = make_group("Z3", caps)
    z5 = make_group("Z5", caps)
    z1 = make_group("Z1", caps)
    cases = [
        (
            make_spec(z4, inversion_map(z4), (1, 3)),
            make_spec(z1, identity_automorphism(z1), ()),
        ),
        (
            make_spec(z4, inversion_map(z4), (1, 3)),
            make_spec(z3, identity_automorphism(z3), (1, 2)),
        ),
        (
            build_counterexample("ex33", {"k": 1}, caps),
            make_spec(z5, identity_automorphism(z5), (1, 2, 3, 4)),
        ),
    ]
    reports = [verify_product_lemma(a, b) for a, b in cases]
    # a non-transitive factor keeps the product non-transitive
    prod = direct_product(
        build_gc_graph(cases[2][0]), build_gc_graph(cases[2][1])
    )
    desc = automorphism_group(prod, caps.aut_node_budget)
    reports.append(TheoremReport(
        "lemma-3.4", "ex33(1) x Z5 orbit check",
        "verified" if len(desc.orbits) >= 2 else "refuted",
        {"orbit_count": len(desc.orbits)},
    ))
    return reports


def run_thm_3_5(caps: Caps, group: str | None = None, max_order: int = 24) -> list[TheoremReport]:
    if group is not None:
        return [check_inversion_dichotomy(make_group(group, caps), caps)]
    return [
        check_inversion_dichotomy(g, caps)
        for g in builtin_groups(max_order, caps) if g.abelian
    ]


def run_lemma_4_1(caps: Caps, p: int | None = None) -> list[TheoremReport]:
    ps = [2, 3, 5] if p is None else [p]
    reports = []
    for p in ps:
        if not is_prime(p):
            raise ShapeError(f"{p} is not prime")
        g = make_group(f"Z{2 * p}", caps)
        autos = enumerate_involutory_automorphisms(g)
        perms = {a.perm for a in autos}
        want = {tuple(range(g.order)), tuple(g.inv)}
        ok = perms == want and len(autos) == 2
        reports.append(TheoremReport(
            "lemma-4.1", f"Z{2 * p}", "verified" if ok else "refuted",
            {"count": len(autos)},
        ))
    return reports


def _order_2p_sweeps(g: FiniteGroup, budget: _SweepBudget) -> Iterator[tuple[str, int, bool, str | None]]:
    """Certify the connection sets of each alpha of g by `order_2p_witness`,
    which raises on any failure, one connection-orbit layer per budget unit
    (`_sweep_layers`).  Yields, per alpha, the instance name, the sets
    certified, whether the budget ran out first and the witness's route,
    which depends on (G, alpha) only."""

    def certify(spec: GCSpec) -> Perm:
        nonlocal route
        witness = order_2p_witness(spec)
        route = witness.route
        return witness.mapping

    for key, _, alpha in _alpha_walk([g]):
        route = None
        layers, skipped, _ = _sweep(connection_orbits(g, alpha), _sweep_layers(g, alpha, certify), budget)
        yield key, 1 << layers, skipped, route


def run_lemma_4_2(caps: Caps, p: int | None = None) -> list[TheoremReport]:
    budget = _SweepBudget(caps.sweep_instance_budget)
    reports = []
    ps = [3, 5] if p is None else [p]
    for p in ps:
        if not is_prime(p) or p == 2:
            raise ShapeError(f"{p} must be an odd prime")
        g = make_group(f"D{2 * p}", caps)
        classified = classify_dihedral_involutions(p)
        perms = {c.to_automorphism(g).perm for c in classified}
        found = {a.perm for a in enumerate_involutory_automorphisms(g)}
        if perms != found:
            reports.append(TheoremReport(
                "lemma-4.2", g.name, "refuted",
                {"reason": "classification does not match enumeration"},
            ))
            continue
        for key, count, skipped, _ in _order_2p_sweeps(g, budget):
            reports.append(_sweep_report("lemma-4.2", key, count, skipped, involutions=len(classified)))
    return reports


def run_thm_4_3(caps: Caps, p: int | None = None) -> list[TheoremReport]:
    ps = [2, 3, 5] if p is None else [p]
    for p in ps:
        if not is_prime(p):
            raise ShapeError(f"{p} is not prime")
    budget = _SweepBudget(caps.sweep_instance_budget)
    reports = []
    for g in (make_group(f"{kind}{2 * p}", caps) for p in ps for kind in "ZD"):
        for key, count, skipped, route in _order_2p_sweeps(g, budget):
            last = {} if skipped else {"route_of_last": route}
            reports.append(_sweep_report("thm-4.3", key, count, skipped, **last))
    return reports


def _unworthy_checks(g: FiniteGroup, caps: Caps) -> Iterator[tuple[str, AutomorphismMap, Iterator, Callable]]:
    """For each involutory automorphism alpha of g: its instance name, alpha,
    the (S mask, rows) pairs of `connection_rows`, and `certify`, which runs
    `_unworthy_certificate` on one pair.

    K(S) = {x : rows[x] == S}, because alpha(x)S is contained in S only
    when it equals S, both having |S| members.  Every set of g with the
    same kernel shares one `SubgroupHandle`, so each kernel's closure is
    checked and its coset table built once per group."""
    kernels: dict[int, SubgroupHandle] = {}
    for key, _, alpha in _alpha_walk([g]):
        omega_mask = omega_set(g, alpha).set.mask if g.abelian else None

        def certify(item: tuple[int, tuple[int, ...]], omega_mask=omega_mask) -> tuple[bool, bool, dict]:
            s_mask, rows = item
            k_mask = mask_of(x for x, row in enumerate(rows) if row == s_mask)
            if k_mask not in kernels:
                kernels[k_mask] = subgroup_handle(g, k_mask)
            return _unworthy_certificate(g, s_mask, rows, kernels[k_mask], omega_mask)

        orbits = capped_connection_orbits(g, alpha, caps)
        yield key, alpha, connection_rows(g, alpha, orbits), certify


def _unworthy_refutation(
    alpha: AutomorphismMap, certify: Callable, item: tuple[int, tuple[int, ...]]
) -> TheoremReport | None:
    """A `_sweep` check: None when the set passes `certify`, and otherwise
    the full report of `verify_unworthy_theory` on the set's own spec."""
    if certify(item)[0]:
        return None
    report = verify_unworthy_theory(make_spec(alpha.group, alpha, item[0]))
    if report.verdict == "verified":
        raise AssertionError(f"{report.instance}: the layer-built rows disagree with the set's own graph")
    return report


@cache
def _unworthy_sweep(max_order: int, caps: Caps) -> tuple[TheoremReport, ...]:
    """The unworthiness sweep that prop-5.1, cor-5.2 and prop-5.3 share,
    run once per (max_order, caps) and reported under "prop-5.3".  Each set
    is one budget unit and checked on its own."""
    budget = _SweepBudget(caps.sweep_instance_budget)
    reports = []
    for g in builtin_groups(max_order, caps):
        for key, alpha, items, certify in _unworthy_checks(g, caps):
            count, skipped, bad = _sweep(items, partial(_unworthy_refutation, alpha, certify), budget)
            if bad:
                reports.append(TheoremReport("prop-5.3", bad.instance, "refuted", bad.certificate))
            else:
                reports.append(_sweep_report("prop-5.3", key, count, skipped))
    return tuple(reports)


def _run_unworthy(theorem_id: str, caps: Caps, max_order: int = 12) -> list[TheoremReport]:
    # a deep copy, so a caller that edits a certificate leaves the cache intact
    return [replace(r, theorem_id=theorem_id) for r in deepcopy(_unworthy_sweep(max_order, caps))]


def run_cor_5_4(caps: Caps, max_order: int = 12) -> list[TheoremReport]:
    """The complement-of-omega specs on abelian groups decompose into a
    complete graph blown up by an edgeless one."""
    reports = []
    for key, g, alpha in _alpha_walk(g for g in builtin_groups(max_order, caps) if g.abelian):
        full = (1 << g.order) - 1
        spec = make_spec(g, alpha, full ^ omega_set(g, alpha).set.mask)
        rep = verify_unworthy_theory(spec)
        reports.append(TheoremReport("cor-5.4", key, rep.verdict, rep.certificate))
    return reports


# Each runner takes the caps and then its parameters as keywords with their
# defaults; those keywords are the parameters the verifier reads.
THEOREM_RUNNERS: dict[str, Callable[..., list[TheoremReport]]] = {
    "prop-2.1": run_prop_2_1,
    "prop-2.2": run_prop_2_2,
    "lemma-2.3": run_lemma_2_3,
    "prop-2.4": run_prop_2_4,
    "prop-2.5": run_prop_2_5,
    "prop-2.6": run_prop_2_6,
    "thm-3.1": run_thm_3_1,
    "ex-3.2": run_ex_3_2,
    "ex-3.3": run_ex_3_3,
    "lemma-3.4": run_lemma_3_4,
    "thm-3.5": run_thm_3_5,
    "lemma-4.1": run_lemma_4_1,
    "lemma-4.2": run_lemma_4_2,
    "thm-4.3": run_thm_4_3,
    "prop-5.1": partial(_run_unworthy, "prop-5.1"),
    "cor-5.2": partial(_run_unworthy, "cor-5.2"),
    "prop-5.3": partial(_run_unworthy, "prop-5.3"),
    "cor-5.4": run_cor_5_4,
}

THEOREM_IDS = tuple(THEOREM_RUNNERS)


def run_theorem(theorem_id: str, params: dict | None = None, caps: Caps | None = None) -> list[TheoremReport]:
    """Run one verifier with `params` as its runner's keyword parameters.

    A parameter the runner does not take is refused before any work, so a
    command-line flag is never silently ignored.  The runner is looked up in
    THEOREM_RUNNERS at call time, and its parameters are read from its
    signature (which follows `__wrapped__`), so a wrapped runner put in its
    place keeps them."""
    caps = caps or caps_from_env()
    params = params or {}
    runner = THEOREM_RUNNERS.get(theorem_id)
    if runner is None:
        raise ShapeError(f"unknown theorem id {theorem_id!r}")
    reads = list(inspect.signature(runner).parameters)[1:]   # all but caps
    unread = sorted(set(params) - set(reads))
    if unread:
        raise ShapeError(
            f"{theorem_id} does not read {', '.join(unread)}; "
            f"it reads {', '.join(reads) or 'no parameters'}"
        )
    reports = runner(caps, **params)
    if not reports:
        given = ", ".join(f"{key}={value!r}" for key, value in params.items())
        raise ShapeError(f"{theorem_id} found no instance to check with {given or 'its defaults'}")
    return reports
