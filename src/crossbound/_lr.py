"""The left-right planarity test, as a test phase and an embed phase.

A port of networkx 3.6.1's non-recursive ``LRPlanarity`` (de Fraysseix,
Ossona de Mendez & Rosenstiehl, 2006; Brandes, 2009) on plain dicts and
lists, with its DFS orders, stable sorts by nesting depth, sign resolution
and half-edge insertions. Given the adjacency networkx's LR copy of a
graph sees, each vertex's rotation is networkx's, read clockwise from its
leftmost neighbor as ``PlanarEmbedding.get_data`` reads it.

An adjacency maps each vertex of a simple graph, in DFS root order, to its
neighbors in scan order. An edge is the tuple (v, w) of its orientation. A
conflict pair is the list [left low, left high, right low, right high],
None where an interval is empty; pairs are compared by identity, as
networkx compares its ``ConflictPair`` objects.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Optional, Sequence


def lr_test(adj: Mapping[Hashable, Sequence[Hashable]]) -> Optional[tuple]:
    """The test phase: None if the graph is not planar, else the state
    lr_rotation embeds it from (roots, parent edges, each vertex's oriented
    out-neighbors with their nesting depths, reference edges and sides)."""
    n = len(adj)
    if n > 2 and sum(len(ws) for ws in adj.values()) > 2 * (3 * n - 6):
        return None
    height: dict = {}
    lowpt: dict = {}
    lowpt2: dict = {}
    parent: dict = {}
    out: Dict[Hashable, dict] = {v: {} for v in adj}
    roots = []

    def nest(vw):
        # nesting depth of vw, chordal if it has a second return point
        # below v, then vw's lowpoints folded into v's parent edge
        v = vw[0]
        out[v][vw[1]] = 2 * lowpt[vw] + (lowpt2[vw] < height[v])
        e = parent.get(v)
        if e is not None:
            if lowpt[vw] < lowpt[e]:
                lowpt2[e] = min(lowpt[e], lowpt2[vw])
                lowpt[e] = lowpt[vw]
            elif lowpt[vw] > lowpt[e]:
                lowpt2[e] = min(lowpt2[e], lowpt[vw])
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    for root in adj:  # orientation by DFS: lowpoints and nesting depths
        if root in height:
            continue
        height[root] = 0
        roots.append(root)
        stack = [(root, iter(adj[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                if v in out[w]:
                    continue  # oriented from w
                vw = (v, w)
                out[v][w] = None
                lowpt[vw] = lowpt2[vw] = height[v]
                if w not in height:  # tree edge: nest it once w is done
                    parent[w] = vw
                    height[w] = height[v] + 1
                    stack.append((w, iter(adj[w])))
                    break
                lowpt[vw] = height[w]  # back edge
                nest(vw)
            else:
                stack.pop()
                if v in parent:
                    nest(parent[v])

    ordered = {v: sorted(ws, key=ws.__getitem__) for v, ws in out.items()}
    ref: dict = {}
    side: dict = {}
    lowpt_edge: dict = {}
    bottom: dict = {}
    S: List[list] = []

    def conflicting(low, high, b):
        return (low is not None or high is not None) and lowpt[high] > lowpt[b]

    def add_constraints(ei, e):
        P = [None, None, None, None]
        while True:  # merge the return edges of ei into P's right
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > lowpt[e]:
                if P[2] is None and P[3] is None:
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom[ei]:
                break
        # merge the conflicting return edges of earlier siblings into P's left
        while conflicting(S[-1][0], S[-1][1], ei) or conflicting(S[-1][2], S[-1][3], ei):
            Q = S.pop()
            if conflicting(Q[2], Q[3], ei):
                Q[:] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[2], Q[3], ei):
                return False
            ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
        if any(x is not None for x in P):
            S.append(P)
        return True

    def lowest(P):
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e):
        u = e[0]
        while S and lowest(S[-1]) == height[u]:  # drop whole pairs
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:  # trim the next pair's intervals
            P = S[-1]
            while P[1] is not None and P[1][1] == u:
                P[1] = ref.get(P[1])
            if P[1] is None and P[0] is not None:
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and P[3][1] == u:
                P[3] = ref.get(P[3])
            if P[3] is None and P[2] is not None:
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        if lowpt[e] < height[u]:  # e takes the side of a highest return edge
            hl, hr = S[-1][1], S[-1][3]
            ref[e] = hl if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]) else hr

    def integrate(v, w, e):
        # ei = (v, w) with e the parent edge of v: its return edges join
        # e's, or constrain those of v's earlier children
        ei = (v, w)
        if lowpt[ei] < height[v]:
            if w == ordered[v][0]:
                lowpt_edge[e] = lowpt_edge[ei]
            elif not add_constraints(ei, e):
                return False
        return True

    for root in roots:  # testing
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, nbrs = stack[-1]
            e = parent.get(v)
            for w in nbrs:
                ei = (v, w)
                bottom[ei] = S[-1] if S else None
                if parent.get(w) == ei:  # tree edge: integrate it once w is done
                    stack.append((w, iter(ordered[w])))
                    break
                lowpt_edge[ei] = ei
                S.append([None, None, ei, ei])
                if not integrate(v, w, e):
                    return None
            else:
                stack.pop()
                if e is not None:
                    remove_back_edges(e)
                    if not integrate(e[0], v, parent.get(e[0])):
                        return None
    return roots, parent, out, ref, side


def lr_rotation(state: tuple) -> Dict[Hashable, List[Hashable]]:
    """The embed phase: each vertex's neighbors in clockwise order from its
    leftmost one, which is first in its list."""
    roots, parent, out, ref, side = state
    for v, ws in out.items():  # nesting depths signed by each edge's side
        for w in ws:
            ws[w] *= _sign((v, w), ref, side)
    ordered = {v: sorted(ws, key=ws.__getitem__) for v, ws in out.items()}
    rotation = {v: list(ws) for v, ws in ordered.items()}
    left: dict = {}
    right: dict = {}
    for root in roots:
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                r = rotation[w]
                if parent.get(w) == (v, w):  # tree edge: v becomes w's leftmost
                    r.insert(0, v)
                    left[v] = right[v] = w
                    stack.append((w, iter(ordered[w])))
                    break
                if side.get((v, w), 1) == 1:  # back edge, clockwise after right[w]
                    r.insert(r.index(right[w]) + 1, v)
                else:  # counterclockwise before left[w], leftmost if left[w] was
                    r.insert(r.index(left[w]), v)
                    left[w] = v
            else:
                stack.pop()
    return rotation


def _sign(e, ref, side) -> int:
    """The side of e relative to its DFS root, resolved along its chain of
    reference edges; each resolved edge drops its reference."""
    stack = [e]
    old_ref: dict = {}
    while stack:
        e = stack.pop()
        if ref.get(e) is not None:
            stack += (e, ref[e])
            old_ref[e] = ref[e]
            ref[e] = None
        else:
            side[e] = side.get(e, 1) * side.get(old_ref.get(e), 1)
    return side[e]
