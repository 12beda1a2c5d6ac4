"""The basis tree that rebuilds itself on every pivot.

:class:`repro.lp.transportation._BasisTree` re-hangs only the subtree a
pivot cuts off and re-derives only that subtree's potentials. This
twin rebuilds ``parent`` / ``depth`` / ``pcell`` with one BFS from row
node 0 after every pivot and solves every ``u_i + v_j = c_ij`` again on
each :meth:`potentials` call. A spanning tree rooted at node 0 has one
``parent`` / ``depth`` / ``pcell`` array, and each potential is one
subtraction from its parent's, so the two must agree ``==`` — patched in
for ``_BasisTree``, every solve must come out the same.
"""

from typing import List, Sequence, Tuple

import numpy as np

from repro.errors import SolverError
from repro.lp.transportation import _EPS


class RebuildBasisTree:
    """Spanning-tree basis kept as index arrays refreshed in full per pivot.

    Nodes are flat indices: row ``i`` is node ``i``, column ``j`` is
    node ``mb + j``. Same methods as ``_BasisTree``.
    """

    def __init__(self, cells: Sequence[Tuple[int, int]], mb: int, n: int) -> None:
        if len(cells) != mb + n - 1:
            raise SolverError(f"basis has {len(cells)} cells, expected {mb + n - 1}")
        self.mb = mb
        self.n = n
        self.bi = np.fromiter((c[0] for c in cells), dtype=np.int64, count=len(cells))
        self.bj = np.fromiter((c[1] for c in cells), dtype=np.int64, count=len(cells))
        self.slot = {cell: k for k, cell in enumerate(cells)}
        if len(self.slot) != len(cells):
            raise SolverError("duplicate cells in transportation basis")
        N = mb + n
        self.parent = np.empty(N, dtype=np.int64)
        self.depth = np.empty(N, dtype=np.int64)
        self.pcell = np.empty(N, dtype=np.int64)  # basis slot linking to parent
        self.order = np.empty(N, dtype=np.int64)  # BFS visit order (parents first)

    def refresh(self) -> None:
        """Rebuild parent/depth arrays from the current cell set (one
        O(m+n) BFS from row node 0)."""
        mb, n = self.mb, self.n
        N = mb + n
        adjacency: List[List[Tuple[int, int]]] = [[] for _ in range(N)]
        for k in range(len(self.bi)):
            i, j = int(self.bi[k]), mb + int(self.bj[k])
            adjacency[i].append((j, k))
            adjacency[j].append((i, k))
        parent, depth, pcell, order = self.parent, self.depth, self.pcell, self.order
        parent.fill(-2)  # -2 = unvisited, -1 = root
        parent[0] = -1
        depth[0] = 0
        pcell[0] = -1
        order[0] = 0
        head, tail = 0, 1
        while head < tail:
            node = int(order[head])
            head += 1
            for nxt, k in adjacency[node]:
                if parent[nxt] == -2:
                    parent[nxt] = node
                    depth[nxt] = depth[node] + 1
                    pcell[nxt] = k
                    order[tail] = nxt
                    tail += 1
        if tail != N:
            raise SolverError("transportation basis is not a spanning tree")

    def potentials(self, slot_cost: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Solve ``u_i + v_j = c_ij`` over the whole tree in visit order,
        from ``slot_cost[k]`` — the cost of the cell in basis slot ``k``."""
        mb = self.mb
        u = np.empty(mb)
        v = np.empty(self.n)
        u[0] = 0.0
        bi, bj, pcell = self.bi, self.bj, self.pcell
        for node in self.order[1:]:
            k = pcell[node]
            i, j = int(bi[k]), int(bj[k])
            if node < mb:  # row node hangs off its column parent
                u[i] = slot_cost[k] - v[j]
            else:
                v[j] = slot_cost[k] - u[i]
        return u, v

    def cycle(self, ei: int, ej: int) -> List[Tuple[int, int]]:
        """Cells of the cycle closed by entering cell ``(ei, ej)``,
        starting at the entering cell (even positions gain flow)."""
        mb = self.mb
        parent, depth, pcell = self.parent, self.depth, self.pcell
        a, b = ei, mb + ej
        side_a: List[int] = []  # basis slots from row endpoint up
        side_b: List[int] = []  # basis slots from column endpoint up
        while depth[a] > depth[b]:
            side_a.append(int(pcell[a]))
            a = int(parent[a])
        while depth[b] > depth[a]:
            side_b.append(int(pcell[b]))
            b = int(parent[b])
        while a != b:
            side_a.append(int(pcell[a]))
            a = int(parent[a])
            side_b.append(int(pcell[b]))
            b = int(parent[b])
        bi, bj = self.bi, self.bj
        path = [(int(bi[k]), int(bj[k])) for k in side_b]
        path.extend((int(bi[k]), int(bj[k])) for k in reversed(side_a))
        return [(ei, ej)] + path

    def pivot(self, ei: int, ej: int, flow) -> Tuple[int, int]:
        """Enter cell ``(ei, ej)`` and return the cell that leaves (the
        ``(row, col)``-smallest losing cell left at θ)."""
        cycle = self.cycle(ei, ej)
        minus = cycle[1::2]
        theta = min(flow[c] for c in minus)
        leaving = min(c for c in minus if abs(flow[c] - theta) <= _EPS)
        for pos, cell in enumerate(cycle):
            if pos % 2 == 0:
                flow[cell] += theta
            else:
                flow[cell] -= theta
        flow[leaving] = 0.0
        self.replace(leaving, (ei, ej))
        return leaving

    def replace(self, leaving: Tuple[int, int], entering: Tuple[int, int]) -> None:
        k = self.slot.pop(leaving)
        self.slot[entering] = k
        self.bi[k], self.bj[k] = entering
        self.refresh()

    def cells(self) -> Tuple[Tuple[int, int], ...]:
        return tuple(sorted(zip(self.bi.tolist(), self.bj.tolist())))
