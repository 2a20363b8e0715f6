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
        parent = self.parent
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return False
        rank = self.rank
        rank_a, rank_b = rank[a], rank[b]
        if rank_a < rank_b:
            a, b = b, a
        parent[b] = a
        bumped = rank_a == rank_b
        if bumped:
            rank[a] += 1
        self._trail.append((b, a, bumped))
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
        trail = self._trail
        undone = len(trail) - mark
        if undone > 0:
            parent, rank = self.parent, self.rank
            for _ in range(undone):
                child, root, bumped = trail.pop()
                parent[child] = child
                if bumped:
                    rank[root] -= 1
            self.count += undone


def first_acyclic_choices(levels, options, accept):
    """The first choices, one value a level, whose unions keep every union-find
    a forest and that ``accept(chosen)`` takes; a list, or None.  ``options(level,
    chosen)`` yields ``(value, uf, pairs)`` in the order to try; ``pairs``, read
    after ``chosen[level] = value``, are the end pairs the value unions in ``uf``.
    Its generator resumes only once every choice below has been rolled back."""
    chosen = [None] * levels

    def extend(level):
        if level == levels:
            return accept(chosen)
        for value, uf, pairs in options(level, chosen):
            chosen[level] = value
            mark = uf.mark()
            for a, b in pairs:
                if not uf.union(a, b):
                    break
            else:
                if extend(level + 1):
                    return True
            uf.rollback(mark)
        return False

    return chosen if extend(0) else None
