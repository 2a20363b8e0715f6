"""The union-find used by forest checks, component partitions and backtracking searches."""


class UnionFind:
    """Union by rank without path compression, over hashable items.

    Each union changes one parent pointer and is recorded on a trail, so a
    backtracking search can ``mark`` the trail, perform unions, and
    ``rollback`` to the mark when it retreats; rank keeps finds logarithmic.
    """

    def __init__(self, items=()):
        self.parent = {item: item for item in items}
        self.rank = dict.fromkeys(self.parent, 0)
        self.count = len(self.parent)
        self._trail = []

    def find(self, item):
        parent = self.parent
        while parent[item] != item:
            item = parent[item]
        return item

    def union(self, a, b):
        """Merge the classes of ``a`` and ``b``; return True if they were distinct."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.rank[ra] < self.rank[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        bumped = self.rank[ra] == self.rank[rb]
        if bumped:
            self.rank[ra] += 1
        self._trail.append((rb, ra, bumped))
        self.count -= 1
        return True

    def together(self, a, b):
        return self.find(a) == self.find(b)

    def components(self):
        """Partition as a tuple of classes, each a sorted tuple, ordered by
        their smallest member; items must be mutually comparable."""
        comps = {}
        for item in self.parent:
            comps.setdefault(self.find(item), []).append(item)
        return tuple(sorted(tuple(sorted(members)) for members in comps.values()))

    def mark(self):
        return len(self._trail)

    def rollback(self, mark):
        """Undo every union made since ``mark`` was taken."""
        while len(self._trail) > mark:
            child, parent, bumped = self._trail.pop()
            self.parent[child] = child
            if bumped:
                self.rank[parent] -= 1
            self.count += 1
