"""Union-find structures used by forest checks, component partitions, and gluing search."""


class UnionFind:
    """Union by rank with path halving, over arbitrary hashable items."""

    def __init__(self, items=()):
        self.parent = {}
        self.rank = {}
        self.count = 0
        for item in items:
            self.add(item)

    def add(self, item):
        if item not in self.parent:
            self.parent[item] = item
            self.rank[item] = 0
            self.count += 1

    def find(self, item):
        parent = self.parent
        while parent[item] != item:
            parent[item] = parent[parent[item]]
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
        if self.rank[ra] == self.rank[rb]:
            self.rank[ra] += 1
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


class RollbackUnionFind:
    """Union by rank without path compression, with an undo stack.

    Backtracking searches mark the trail, perform unions, and roll back to
    the mark when retreating.
    """

    def __init__(self, items=()):
        self.parent = {}
        self.rank = {}
        self.count = 0
        self._trail = []
        for item in items:
            self.parent[item] = item
            self.rank[item] = 0
            self.count += 1

    def find(self, item):
        parent = self.parent
        while parent[item] != item:
            item = parent[item]
        return item

    def union(self, a, b):
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

    def mark(self):
        return len(self._trail)

    def rollback(self, mark):
        while len(self._trail) > mark:
            child, parent, bumped = self._trail.pop()
            self.parent[child] = child
            if bumped:
                self.rank[parent] -= 1
            self.count += 1
