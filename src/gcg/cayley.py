"""Cayley-graph recognition and Zelinka-style stability of graphs.

A graph on n vertices is a Cayley graph iff its automorphism group contains
a regular subgroup (order n, transitive, only the identity has fixed
points).  The detector never lists Aut(X).  Complete and edgeless graphs
are circulants.  A graph whose complement or itself is disconnected is
reduced to one component Y: Aut(X) equals Aut of the complement, a
vertex-transitive mY has isomorphic components, and mY is Cayley iff Y is
(a regular R of Aut(Y) lifts to R x Z_m, along isomorphisms between the
components read off Aut(X)'s first transversal).  A connected, co-connected graph
goes to a search over the stabilizer chain of Aut(X) that grows a
semiregular subgroup one coset of the base-point stabilizer at a time
(Seress, Permutation Group Algorithms, 2003); its node budget bounds the
time however large Aut(X) is.  Positive answers carry a group table plus an
explicit isomorphism witness; negative answers carry either an orbit-split
witness or the exhausted-search marker; anything cut short by a budget is
reported as unknown rather than guessed.
"""
from __future__ import annotations

from dataclasses import dataclass

from .canon import automorphism_group, double_cover_automorphism_group
from .caps import Caps, caps_from_env
from .errors import BudgetExceeded
from .graphs import Graph, IsomorphismWitness, check_witness
from .groups import FiniteGroup, Opaque, bits, group_from_table, mask_of
from .perms import Perm, StabilizerChain, pmul


def is_vertex_transitive(g: Graph, budget: int | None = None) -> bool:
    return len(automorphism_group(g, budget).orbits) <= 1


@dataclass(frozen=True)
class CayleyVerdict:
    status: str                       # "cayley" | "not_cayley" | "unknown"
    reason: str
    group: FiniteGroup | None = None
    connection_ids: tuple[int, ...] | None = None
    witness: IsomorphismWitness | None = None
    orbit_witness: tuple[int, int] | None = None
    aut_order: int | None = None


def _cyclic_shifts(n: int) -> list[Perm]:
    return [tuple((v + s) % n for v in range(n)) for s in range(n)]


def _component_graph(g: Graph, comp: list[int]) -> Graph:
    """The component on the sorted vertex list comp, relabeled 0..len-1."""
    index = {v: i for i, v in enumerate(comp)}
    return Graph(len(comp), tuple(mask_of(index[w] for w in bits(g.rows[v])) for v in comp))


def _lift_components(x: Graph, chain: StabilizerChain, caps: Caps) -> list[Perm] | None:
    """Regular subgroup of Aut(x) for a disconnected vertex-transitive x = mY,
    given a stabilizer chain of a transitive group of automorphisms of x.

    Y is the component through the base point b0.  A regular R of Aut(Y)
    lifts to R x Z_m: (r, j) sends phi_i(y) to phi_{i+j}(r(y)), where phi_i:
    Y -> component i is the first-transversal element sending b0 into
    component i, restricted to Y.  If Y is not Cayley neither is x, because
    the component of Cay(G, S) through the identity is Cay(<S>, S)."""
    comps = x.components()
    home = next(comp for comp in comps if chain.base[0] in comp)
    ry = _regular_subgroup(_component_graph(x, home), caps)
    if ry is None:
        return None
    u0 = chain.transversal[0]
    phis = [[u0[comp[0]][v] for v in home] for comp in comps]
    m = len(phis)
    lifted = []
    for j in range(m):
        for r in ry:
            p = [0] * x.n
            for i, phi in enumerate(phis):
                target = phis[(i + j) % m]
                for yv, v in enumerate(phi):
                    p[v] = target[r[yv]]
            lifted.append(tuple(p))
    return lifted


def _join(h: dict[int, Perm], hgens: list[Perm], g: Perm, b0: int) -> dict[int, Perm] | None:
    """<H, g> keyed by image of b0, or None unless it is semiregular.

    The closure adds whole left cosets of H.  In a semiregular group the
    image of b0 determines the element, so a repeated key with a different
    permutation, or any fixed point, proves <H, g> is not semiregular."""
    n = len(g)
    out = dict(h)
    hs = list(h.values())
    gens = hgens + [g]
    reps = [h[b0]]  # the identity
    for r in reps:
        for s in gens:
            y = pmul(s, r)
            k = y[b0]
            if k in out:
                if out[k] != y:
                    return None
                continue
            for e in hs:
                ye = pmul(y, e)
                ke = ye[b0]
                if ke in out or any(ye[i] == i for i in range(n)):
                    return None
                out[ke] = ye
            reps.append(y)
    return out


def _chain_search(chain: StabilizerChain, budget: int) -> list[Perm] | None:
    """Regular subgroup of the transitive group with this chain, or None.

    Grows a semiregular H one coset at a time.  For the least vertex v that H
    does not reach from the base point b0, the elements g with g(b0) = v are
    u0[v] * u1 * ... * uk over the chain's transversals; a prefix already
    determines g on base[:level], so it is pruned once it maps a base point b
    into the H-orbit of b (h^-1 g would fix b).  Any regular R containing H holds
    exactly one element of that coset, so trying all of them is complete."""
    n = chain.degree
    base = chain.base
    levels = [list(t.items()) for t in chain.transversal]
    b0 = base[0]
    nodes = 0

    def grow(h: dict[int, Perm], hgens: list[Perm]) -> dict[int, Perm] | None:
        if len(h) == n:
            return h
        v = next(x for x in range(n) if x not in h)
        orbit_mask = [0] * n
        for p in h.values():
            for x in range(n):
                orbit_mask[x] |= 1 << p[x]
        base_masks = [orbit_mask[b] for b in base]

        def walk(level: int, prefix: Perm) -> dict[int, Perm] | None:
            nonlocal nodes
            nodes += 1
            if nodes > budget:
                raise BudgetExceeded(f"regular-subgroup search: budget exhausted after {budget} chain nodes")
            if level == len(base):
                if any(orbit_mask[x] >> prefix[x] & 1 for x in range(n)):
                    return None
                joined = _join(h, hgens, prefix, b0)
                return None if joined is None else grow(joined, hgens + [prefix])
            mask = base_masks[level]
            for x, u in levels[level]:
                if mask >> prefix[x] & 1:
                    continue
                found = walk(level + 1, pmul(prefix, u))
                if found is not None:
                    return found
            return None

        return walk(1, chain.transversal[0][v])

    found = grow({b0: chain.identity}, [])
    return None if found is None else list(found.values())


def _regular_subgroup(g: Graph, caps: Caps) -> list[Perm] | None:
    """A regular subgroup of Aut(g) for a vertex-transitive g, or None when
    there is none; raises BudgetExceeded when a search runs out of budget.

    Aut(g) is never listed: complete and edgeless graphs take the cyclic
    shifts with no search; any other g reads the stabilizer chain of Aut(g),
    a disconnected g or complement reduces to one component (the complement
    has the same automorphisms), and only a connected, co-connected graph
    reaches the stabilizer-chain search."""
    n = g.n
    if g.edge_count() in (0, n * (n - 1) // 2):
        return _cyclic_shifts(n)
    chain = automorphism_group(g, caps.aut_node_budget).chain
    if not g.is_connected():
        return _lift_components(g, chain, caps)
    co = g.complement()
    if not co.is_connected():
        return _lift_components(co, chain, caps)
    return _chain_search(chain, caps.regular_search_budget)


def _regular_to_cayley(g: Graph, regular: list[Perm]) -> tuple[FiniteGroup, tuple[int, ...], IsomorphismWitness]:
    """Read a group table off a regular action (base point 0) and package the
    resulting Cayley isomorphism, which is the identity on vertices."""
    n = g.n
    by_image: dict[int, Perm] = {p[0]: p for p in regular}
    if len(by_image) != n:
        raise AssertionError("claimed regular subgroup is not transitive from 0")
    mul = [[by_image[v][w] for w in range(n)] for v in range(n)]
    group = group_from_table(mul, [str(v) for v in range(n)], Opaque(f"Reg{n}", n))
    connection = tuple(bits(g.rows[0]))
    # Cay(group, connection) joins x to xs for s in S; regularity makes that
    # coincide with adjacency of g vertex-for-vertex.
    cay = Graph(n, tuple(mask_of(row[s] for s in connection) for row in mul))
    witness = IsomorphismWitness(cay, g, tuple(range(n)))
    if not check_witness(witness):
        raise AssertionError("regular subgroup did not reproduce the adjacency")
    return group, connection, witness


def detect_cayley(g: Graph, caps: Caps | None = None) -> CayleyVerdict:
    caps = caps or caps_from_env()
    n = g.n
    if n == 0:
        return CayleyVerdict(status="unknown", reason="empty vertex set")
    # complete and edgeless graphs are circulants, with no search and no |Aut|
    reason, aut_order = "regular subgroup of automorphisms found", None
    if g.edge_count() == 0:
        reason = "edgeless graph is a circulant"
    elif g.edge_count() == n * (n - 1) // 2:
        reason = "complete graph is a circulant"
    else:
        try:
            desc = automorphism_group(g, caps.aut_node_budget)
        except BudgetExceeded as exc:
            return CayleyVerdict(status="unknown", reason=str(exc))
        aut_order = desc.order
        if len(desc.orbits) > 1:
            return CayleyVerdict(
                status="not_cayley",
                reason="automorphism group is not transitive",
                orbit_witness=(desc.orbits[0][0], desc.orbits[1][0]),
                aut_order=aut_order,
            )
    try:
        regular = _regular_subgroup(g, caps)
    except BudgetExceeded as exc:
        return CayleyVerdict(status="unknown", reason=str(exc), aut_order=aut_order)
    if regular is None:
        return CayleyVerdict(
            status="not_cayley",
            reason="no regular subgroup in the full automorphism group",
            aut_order=aut_order,
        )
    group, connection, witness = _regular_to_cayley(g, regular)
    return CayleyVerdict(
        status="cayley",
        reason=reason,
        group=group,
        connection_ids=connection,
        witness=witness,
        aut_order=aut_order,
    )


@dataclass(frozen=True)
class StabilityResult:
    status: str          # "stable" | "unstable" | "not_applicable"
    reason: str
    aut_order: int | None = None
    cover_aut_order: int | None = None
    two_fold: tuple[Perm, Perm] | None = None   # the checked (sigma, tau) behind an unstable answer


def twisted_translation(g: FiniteGroup, alpha: Perm) -> tuple[Perm, Perm] | None:
    """The two-fold automorphism (x -> alpha(t)x, x -> tx) of every
    GC(G, S, alpha), for the first t with alpha(t) != t; None when alpha is
    the identity.  `stability_check` states and checks it."""
    t = next((t for t in range(g.order) if alpha[t] != t), None)
    return None if t is None else (g.mul[alpha[t]], g.mul[t])


def _check_two_fold(g: Graph, sigma: Perm, tau: Perm) -> None:
    """Raise ValueError unless sigma and tau are distinct permutations of
    the vertices with N(sigma x) = tau(N(x)) for every x."""
    n = g.n
    for p in (sigma, tau):
        if len(p) != n or set(p) != set(range(n)):
            raise ValueError(f"two-fold automorphism: a map is not a permutation of {n} vertices")
    for x in range(n):
        image = 0
        for y in bits(g.rows[x]):
            image |= 1 << tau[y]
        if image != g.rows[sigma[x]]:
            raise ValueError(f"two-fold automorphism: N(sigma({x})) != tau(N({x}))")
    if tuple(sigma) == tuple(tau):
        raise ValueError("two-fold automorphism: sigma = tau is the lift of an automorphism")


def stability_check(g: Graph, budget: int | None = None,
                    two_fold: tuple[Perm, Perm] | None = None) -> StabilityResult:
    """Compare |Aut(X x K2)| against 2|Aut(X)|.

    The comparison only characterizes stability for connected non-bipartite
    graphs, so anything else is reported as not_applicable.  |Aut(X x K2)|
    comes from a search seeded with the lifts of Aut(X) and the layer swap,
    which always lie in it; the order is exact, and a budget error names the
    double-cover search.

    A two-fold automorphism (sigma, tau) of X is a pair of permutations with
    N(sigma x) = tau(N(x)) for every x (Lauri, Mizzi and Scapellato,
    Two-fold automorphisms of graphs, Australas. J. Combin. 2011).  Then
    (x, 0) -> (sigma x, 0), (x, 1) -> (tau x, 1) is an automorphism of
    X x K2: x ~ y iff tau y lies in tau(N(x)) = N(sigma x).  It keeps the
    layers, so it lies in Aut(X) x Z2 only as the lift of sigma = tau; when
    sigma != tau, |Aut(X x K2)| > 2|Aut(X)| and X is unstable.  On a
    connected non-bipartite graph an offered pair is checked (both maps
    permutations, N(sigma x) = tau(N(x)) for all x, in O(n d), and sigma !=
    tau), a bad one raises ValueError, and a good one answers unstable with
    no search at all, so aut_order and cover_aut_order stay None.

    Lemma (any group).  Let X = GC(G, S, alpha), so N(x) = alpha(x)S, and
    take t with alpha(t) != t.  With sigma x = alpha(t)x and tau x = tx,
    N(sigma x) = alpha(alpha(t)x)S = t alpha(x)S = tau(N(x)), since alpha is
    an involutory automorphism; and at the identity, vertex 0, sigma(0) =
    alpha(t) != t = tau(0).  So every connected non-bipartite GC graph with
    alpha != id is unstable; `twisted_translation` builds the pair, and the
    reason names its t = tau(0).
    """
    if not g.is_connected():
        return StabilityResult(status="not_applicable", reason="graph is disconnected")
    if g.is_bipartite():
        return StabilityResult(status="not_applicable", reason="graph is bipartite")
    if two_fold is not None:
        sigma, tau = two_fold
        _check_two_fold(g, sigma, tau)
        return StabilityResult(
            status="unstable",
            reason=f"two-fold automorphism with sigma != tau, t = tau(0) = {tau[0]}",
            two_fold=(tuple(sigma), tuple(tau)),
        )
    a = automorphism_group(g, budget).order
    b = double_cover_automorphism_group(g, budget).order
    if b < 2 * a:
        raise AssertionError("double cover lost automorphisms")
    status = "stable" if b == 2 * a else "unstable"
    return StabilityResult(
        status=status,
        reason=f"|Aut(cover)| = {b} vs 2|Aut| = {2 * a}",
        aut_order=a,
        cover_aut_order=b,
    )
