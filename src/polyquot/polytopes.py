"""Flags, face posets, polytopality, sections, duality and isomorphism.

A FlagGraph carries the combinatorics of a polytope as rank-indexed adjacency
involutions on flags.  Faces are recovered as orbits of flags under the
adjacencies omitting one rank; the face poset (with virtual least and greatest
faces) is what the polytopality axioms are checked against.

Isomorphism is decided by a canonical certificate built from one deterministic
BFS relabelling of the flag adjacencies.  Equal certificates from two start
flags give an automorphism mapping one start to the other, so a polytope is
regular exactly when flag 0 and each of its rank neighbours have the same
certificate: the automorphism orbit of flag 0 is then closed under every
adjacency and, the flag graph being connected, holds every flag.  That test
takes rank+1 BFS runs.  A regular polytope's canonical certificate is the run
from flag 0 and its automorphism group order is the flag count; only a
non-regular polytope minimises over all start flags, and its automorphism
group order is the number of starts tied with flag 0.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .permgroups import MarkedGroup, orbit_min_labels


# ---------------------------------------------------------------------------
# flag graphs


@dataclass
class FlagGraph:
    adj: list[np.ndarray]  # adj[i] = i-adjacency involution on flags

    @property
    def rank(self) -> int:
        return len(self.adj)

    @property
    def n_flags(self) -> int:
        return len(self.adj[0]) if self.adj else 1

    def validate(self):
        n = self.n_flags
        idx = np.arange(n)
        for i, a in enumerate(self.adj):
            if not np.array_equal(a[a], idx):
                raise ValueError(f"{i}-adjacency is not an involution")
            if (a == idx).any():
                raise ValueError(f"{i}-adjacency has fixed points")
        for i in range(self.rank):
            for j in range(i + 2, self.rank):
                if not np.array_equal(self.adj[i][self.adj[j]], self.adj[j][self.adj[i]]):
                    raise ValueError(f"{i}- and {j}-adjacencies do not commute")
        if self.rank and orbit_min_labels(self.adj, n).any():
            raise ValueError("flag graph is not connected")


def string_condition(g: MarkedGroup) -> bool:
    """Generators pairwise commute at distance >= 2 in the string diagram."""
    for i in range(g.rank):
        for j in range(i + 2, g.rank):
            p = g.gens[i][g.gens[j]]
            if not np.array_equal(p, g.gens[j][g.gens[i]]):
                return False
    return True


def intersection_condition(g: MarkedGroup) -> bool:
    """<s_i : i in I> ∩ <s_j : j in J> = <s_k : k in I∩J> for all I, J.

    Each parabolic is a boolean mask over the element ids, read from the
    generator permutations without the multiplication table; the right side
    always lies in the left, so comparing sizes decides equality.  Evaluated
    once per group; the result is kept on the group."""
    if g._intersection is None:
        from itertools import combinations, chain

        subsets = list(chain.from_iterable(
            combinations(range(g.rank), r) for r in range(g.rank + 1)))
        para = {}
        for s in subsets:
            para[s] = np.zeros(g.order, dtype=bool)
            para[s][g.parabolic(s).elem_ids] = True
        g._intersection = all(
            np.count_nonzero(para[a] & para[b])
            == np.count_nonzero(para[tuple(sorted(set(a) & set(b)))])
            for a in subsets for b in subsets)
    return g._intersection


def require_polytope_group(g: MarkedGroup):
    """Raise ValueError unless g is a string C-group, the automorphism group
    of a regular polytope."""
    if not string_condition(g):
        raise ValueError("commuting relator check fails: not a string group")
    if not intersection_condition(g):
        raise ValueError("intersection condition fails: not a polytope group")


def flag_graph_from_group(g: MarkedGroup) -> FlagGraph:
    """Coset-geometry flag graph: flags are group elements, i-adjacency is
    right multiplication by s_i."""
    require_polytope_group(g)
    adj = [s.astype(np.int32) for s in g.gens]
    fg = FlagGraph(adj)
    fg.validate()
    return fg


# ---------------------------------------------------------------------------
# face posets


@dataclass
class FacePoset:
    """Ranked candidate poset: faces per rank plus consecutive-rank incidences.

    The least and greatest faces are implicit.  `mats[i]` is the boolean
    incidence matrix between rank-i and rank-(i+1) faces.
    """

    counts: list[int]
    mats: list[np.ndarray]

    @property
    def rank(self) -> int:
        return len(self.counts)

    @classmethod
    def from_incidences(cls, counts, pairs_per_level) -> "FacePoset":
        mats = []
        for i, pairs in enumerate(pairs_per_level):
            m = np.zeros((counts[i], counts[i + 1]), dtype=bool)
            for a, b in pairs:
                m[a, b] = True
            mats.append(m)
        return cls(list(counts), mats)


class Polytope:
    """Polytope backed by a flag graph with derived faces.

    face_of_flag[w, i] is the rank-i face through flag w; faces are numbered
    by least member flag, so the numbering is deterministic.
    """

    def __init__(self, fg: FlagGraph):
        self.fg = fg
        n, k = fg.n_flags, fg.rank
        self.face_of_flag = np.empty((n, k), dtype=np.int64)
        self.counts = []
        for i in range(k):
            others = [a for j, a in enumerate(fg.adj) if j != i]
            lab = orbit_min_labels(others, n)
            uniq, inverse = np.unique(lab, return_inverse=True)
            self.face_of_flag[:, i] = inverse
            self.counts.append(len(uniq))
        self.mats = []
        for i in range(k - 1):
            m = np.zeros((self.counts[i], self.counts[i + 1]), dtype=bool)
            m[self.face_of_flag[:, i], self.face_of_flag[:, i + 1]] = True
            self.mats.append(m)
        self._regular = None
        self._cert = None
        self._aut = None

    @property
    def rank(self) -> int:
        return self.fg.rank

    @property
    def n_flags(self) -> int:
        return self.fg.n_flags

    def poset(self) -> FacePoset:
        return FacePoset(list(self.counts), list(self.mats))

    # -- certificates -----------------------------------------------------

    def _certificates(self):
        """(canonical certificate, automorphism group order), computed once."""
        if self._cert is None and not is_regular(self):
            adj = [a.tolist() for a in self.fg.adj]
            certs = [_certificate_from(adj, s) for s in range(self.n_flags)]
            self._cert = _cert_header(self.fg) + min(certs)
            self._aut = certs.count(certs[0])
        return self._cert, self._aut

    @property
    def certificate(self) -> bytes:
        return self._certificates()[0]

    @property
    def aut_order(self) -> int:
        return self._certificates()[1]

    def schlafli_type(self) -> tuple[int, ...]:
        """Orders of the products r_{i-1} r_i on flags (the polygon orders):
        the lcm of the cycle lengths, which are the product's orbit sizes."""
        out = []
        for i in range(1, self.rank):
            p = self.fg.adj[i][self.fg.adj[i - 1]]
            cycles = np.unique(orbit_min_labels([p], len(p)), return_counts=True)[1]
            out.append(int(np.lcm.reduce(cycles)))
        return tuple(out)


def polytope_from_group(g: MarkedGroup) -> Polytope:
    return Polytope(flag_graph_from_group(g))


# ---------------------------------------------------------------------------
# polytopality axioms


def _chain_mats(poset: FacePoset) -> list[np.ndarray]:
    """Incidence matrices extended by the virtual least and greatest faces."""
    lo = np.ones((1, poset.counts[0]), dtype=bool) if poset.rank else None
    hi = np.ones((poset.counts[-1], 1), dtype=bool) if poset.rank else None
    if poset.rank == 0:
        return [np.ones((1, 1), dtype=bool)]
    return [lo] + list(poset.mats) + [hi]


def is_polytopal(poset: FacePoset) -> tuple[bool, str | None]:
    """Check bounded / ranked / diamond / strong connectivity, in that order.

    Returns (True, None) or (False, name of the first failed axiom).
    """
    # bounded: the representation always carries a least and a greatest face,
    # but empty ranks make them non-unique joins (no faces at all in between)
    for i, c in enumerate(poset.counts):
        if c == 0:
            return False, f"bounded: no faces of rank {i}"
    mats = _chain_mats(poset)
    # ranked: every face lies on a maximal chain through every rank
    for i, m in enumerate(mats):
        if not m.any(axis=1).all():
            return False, f"ranked: rank-{i - 1} face with nothing above"
        if not m.any(axis=0).all():
            return False, f"ranked: rank-{i} face with nothing below"
    # diamond: every section of rank 1 has exactly two proper faces
    for i in range(len(mats) - 1):
        prod = mats[i].astype(np.int32) @ mats[i + 1].astype(np.int32)
        bad = prod[(prod != 0) & (prod != 2)]
        if bad.size:
            return False, f"diamond: a rank-1 section between ranks {i - 1} and {i + 1} has {int(bad[0])} faces"
    # strong connectivity: every section of rank >= 2 is connected
    if not _strongly_connected(mats):
        return False, "connected: some section of rank >= 2 is disconnected"
    return True, None


def _strongly_connected(mats) -> bool:
    """Every section of rank >= 2 is connected.

    All sections G < F with G at chain index i and F at chain index j are
    tested in one pass: the nodes are (section, face) pairs of the open
    interval, the edges are the consecutive incidences inside one section,
    and min-label propagation finds the components.  Chain index 0 is the
    least face, index k the rank-(k-1) faces and the last the greatest face.
    """
    top = len(mats)
    # reach[(i, j)]: boolean reachability between index-i and index-j faces
    reach = {}
    for i in range(top):
        reach[(i, i + 1)] = mats[i]
        for j in range(i + 2, top + 1):
            reach[(i, j)] = (reach[(i, j - 1)].astype(np.int32) @ mats[j - 1].astype(np.int32)) > 0
    for i in range(top + 1):
        for j in range(i + 3, top + 1):
            lo, hi = np.nonzero(reach[(i, j)])  # one section per incident pair
            # member[k][s, f]: face f at index i+1+k lies in section s
            member = [reach[(i, k)][lo] & reach[(k, j)][:, hi].T for k in range(i + 1, j)]
            node, count = [], 0
            for m in member:
                ids = np.full(m.shape, -1, dtype=np.int64)
                ids[m] = count + np.arange(m.sum())
                count += int(m.sum())
                node.append(ids)
            us, vs = [], []
            for k in range(len(member) - 1):
                f, f2 = np.nonzero(mats[i + 1 + k])
                s, e = np.nonzero(member[k][:, f] & member[k + 1][:, f2])
                us.append(node[k][s, f[e]])
                vs.append(node[k + 1][s, f2[e]])
            u, v = np.concatenate(us), np.concatenate(vs)
            lab = np.arange(count)
            while True:
                nl = lab.copy()
                np.minimum.at(nl, u, lab[v])
                np.minimum.at(nl, v, lab[u])
                nl = nl[nl]
                if np.array_equal(nl, lab):
                    break
                lab = nl
            # G < F puts a face of every interior index in the section
            if len(np.unique(lab)) != len(lo):
                return False
    return True


# ---------------------------------------------------------------------------
# canonical certificates


def _certificate_from(adj: list[list[int]], start: int) -> bytes:
    """Adjacencies relabelled by a deterministic BFS from `start`: children
    explored in rank order from each parent, parents in label order."""
    ln = [-1] * len(adj[0])
    ln[start] = 0
    order = [start]
    count = 1
    qi = 0
    while qi < len(order):
        f = order[qi]
        qi += 1
        for a in adj:
            g = a[f]
            if ln[g] < 0:
                ln[g] = count
                count += 1
                order.append(g)
    out = []
    for a in adj:
        for f in order:
            out.append(ln[a[f]])
    return np.asarray(out, dtype=np.int64).tobytes()


def _cert_header(fg: FlagGraph) -> bytes:
    return repr((fg.rank, fg.n_flags)).encode()


def is_regular(p: Polytope) -> bool:
    """Flag-transitivity of the combinatorial automorphism group, from the
    certificates of flag 0 and of its rank neighbours (rank+1 BFS runs)."""
    if p._regular is None:
        adj = [a.tolist() for a in p.fg.adj]
        base = _certificate_from(adj, 0) if adj else b""
        p._regular = all(_certificate_from(adj, a[0]) == base for a in adj)
        if p._regular:
            p._cert, p._aut = _cert_header(p.fg) + base, p.n_flags
    return p._regular


def are_isomorphic(p1: Polytope, p2: Polytope) -> bool:
    if p1.rank != p2.rank or p1.n_flags != p2.n_flags or p1.counts != p2.counts:
        return False
    return p1.certificate == p2.certificate


def dual(p: Polytope) -> Polytope:
    """Order-reversed polytope: adjacency ranks reversed."""
    return Polytope(FlagGraph([a.copy() for a in p.fg.adj[::-1]]))


# ---------------------------------------------------------------------------
# sections


def section(p: Polytope, upper: tuple[int, int] | None, lower: tuple[int, int] | None) -> Polytope:
    """Section F/G for faces given as (rank, index); None means the virtual
    greatest (for F) or least (for G) face."""
    n = p.n_flags
    jf, f_idx = upper if upper is not None else (p.rank, 0)
    ig, g_idx = lower if lower is not None else (-1, 0)
    if not (-1 <= ig < jf <= p.rank):
        raise ValueError("section requires lower rank < upper rank")
    mask = np.ones(n, dtype=bool)
    if jf < p.rank:
        mask &= p.face_of_flag[:, jf] == f_idx
    if ig >= 0:
        mask &= p.face_of_flag[:, ig] == g_idx
    flags = np.flatnonzero(mask)
    if flags.size == 0:
        raise ValueError("faces are not incident")
    ranks = list(range(ig + 1, jf))
    if not ranks:
        return Polytope(FlagGraph([]))
    rows = p.face_of_flag[np.ix_(flags, ranks)]
    uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
    m = len(uniq)
    adj = []
    flag_class = np.full(n, -1, dtype=np.int64)
    flag_class[flags] = inverse
    for i in ranks:
        a = np.full(m, -1, dtype=np.int32)
        img = flag_class[p.fg.adj[i][flags]]
        a[inverse] = img
        adj.append(a)
    return Polytope(FlagGraph(adj))


@dataclass
class SectionProfile:
    """Multisets of section isomorphism classes per rank pair (i, j), j >= i+2.

    classes[(i, j)] maps a class key to the number of sections in that
    isomorphism class.  Rank-1 sections are diamonds once the diamond axiom
    holds, and a rank-2 section is a polygon, fixed by its flag count, which
    is its key; neither is built.  The pair (-1, rank) is the polytope itself.
    Every other section is built and keyed by its canonical certificate.
    """

    classes: dict[tuple[int, int], dict[bytes | int, int]]

    def is_section_regular(self) -> bool:
        return all(len(v) <= 1 for v in self.classes.values())

    def summary(self) -> dict[str, list[int]]:
        return {f"({i},{j})": sorted(v.values(), reverse=True)
                for (i, j), v in sorted(self.classes.items())}


def section_profile(p: Polytope) -> SectionProfile:
    classes: dict[tuple[int, int], dict[bytes | int, int]] = {}
    for i in range(-1, p.rank - 1):
        for j in range(i + 2, p.rank + 1):
            if (i, j) == (-1, p.rank):
                classes[(i, j)] = {b"whole": 1}
                continue
            rows, flags = _incident_pairs(p, i, j)
            if j == i + 2:
                classes[(i, j)] = {b"diamond": len(rows)}
            elif j == i + 3:
                classes[(i, j)] = Counter(flags.tolist())
            else:
                classes[(i, j)] = Counter(
                    section(p, (j, int(row[-1])) if j < p.rank else None,
                            (i, int(row[0])) if i >= 0 else None).certificate
                    for row in rows)
    return SectionProfile(classes)


def _incident_pairs(p: Polytope, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The incident faces G, F of ranks i < j other than the virtual ones,
    one sorted row (G, F) per section F/G, and each section's flag count."""
    ends = [k for k in (i, j) if 0 <= k < p.rank]
    chains = np.unique(p.face_of_flag[:, ends + list(range(i + 1, j))], axis=0)
    return np.unique(chains[:, :len(ends)], axis=0, return_counts=True)


def is_section_regular(p: Polytope) -> bool:
    return section_profile(p).is_section_regular()


# ---------------------------------------------------------------------------
# exports


def polytope_json(p: Polytope) -> dict:
    prof = section_profile(p)
    return {
        "rank": p.rank,
        "flags": p.n_flags,
        "face_counts": list(p.counts),
        "schlafli_type": list(p.schlafli_type()),
        "regular": is_regular(p),
        "section_regular": prof.is_section_regular(),
        "section_profile": prof.summary(),
    }


def hasse_dot(p: Polytope, name: str = "polytope") -> str:
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines.append('  least [label="rank -1", rank="-1"];')
    for i, c in enumerate(p.counts):
        for f in range(c):
            lines.append(f'  f{i}_{f} [label="r{i}#{f}", rank="{i}"];')
    lines.append(f'  greatest [label="rank {p.rank}", rank="{p.rank}"];')
    for f in range(p.counts[0]):
        lines.append(f"  least -> f0_{f};")
    for i, m in enumerate(p.mats):
        for a, b in zip(*np.nonzero(m)):
            lines.append(f"  f{i}_{a} -> f{i + 1}_{b};")
    for f in range(p.counts[-1]):
        lines.append(f"  f{p.rank - 1}_{f} -> greatest;")
    lines.append("}")
    return "\n".join(lines) + "\n"


_DOT_COLORS = ["red", "green", "blue", "orange", "purple", "brown", "cyan"]


def flag_graph_dot(fg: FlagGraph, name: str = "flags") -> str:
    lines = [f"graph {name} {{"]
    for i, a in enumerate(fg.adj):
        color = _DOT_COLORS[i % len(_DOT_COLORS)]
        for x in range(fg.n_flags):
            y = int(a[x])
            if x < y:
                lines.append(f'  {x} -- {y} [color={color}, label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
