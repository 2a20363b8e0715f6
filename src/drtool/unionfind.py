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

    def numbering(self, items):
        """Each item's class number, classes numbered in the order of their
        first item."""
        number = {}  # root -> its class number
        return [number.setdefault(self.find(item), len(number)) for item in items]

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
    chosen)`` is a generator of ``(value, uf, pairs)`` in the order to try;
    ``pairs``, read after ``chosen[level] = value``, are the ``(a, b, deps)`` the
    value unions in ``uf``, ``deps`` a bitmask of the levels whose values put
    the pair there; each ``uf`` starts with every item apart.  The generator
    resumes only once every choice below has been rolled back, and is closed
    when its level is left early.

    Conflict-directed backjumping (Prosser, "Hybrid algorithms for the
    constraint satisfaction problem", 1993): a value whose union closes a cycle
    conflicts with the deps of the cycle's pairs, and a level whose values all
    fail returns the union of their conflicts less itself; a level outside the
    conflict it gets back skips its remaining values.  A failure the engine
    cannot see, an empty ``options`` or a false ``accept``, conflicts with every
    earlier level; a front end whose values at a level hang on earlier choices
    that its deps do not name must give each pair every level up to its own.
    Only levels that cannot change the outcome are skipped, so the first
    choices are those of the chronological search."""
    chosen = [None] * levels
    joined = []  # (uf, a, b, deps) of each union in effect, oldest first

    def extend(level):
        """True once the choices from ``level`` on are made, else the bitmask of
        earlier levels the failure depends on."""
        if level == levels:
            return True if accept(chosen) else (1 << levels) - 1
        conflict = None
        values = options(level, chosen)
        try:
            for value, uf, pairs in values:
                chosen[level] = value
                mark, depth = uf.mark(), len(joined)
                for a, b, deps in pairs:
                    if not uf.union(a, b):
                        found = deps | _path_deps(joined, uf, a, b)
                        break
                    joined.append((uf, a, b, deps))
                else:
                    found = extend(level + 1)
                    if found is True:
                        return True
                uf.rollback(mark)
                del joined[depth:]
                if not found >> level & 1:
                    return found  # no other value here mends it
                conflict = found if conflict is None else conflict | found
        finally:
            values.close()
        below = (1 << level) - 1
        return below if conflict is None else conflict & below

    return chosen if extend(0) is True else None


def _path_deps(joined, uf, a, b):
    """The union of the deps of the ``joined`` pairs on the path from ``a`` to
    ``b`` in the forest they make in ``uf``; the two ends are joined."""
    adjacent = {}
    for owner, x, y, deps in joined:
        if owner is uf:
            adjacent.setdefault(x, []).append((y, deps))
            adjacent.setdefault(y, []).append((x, deps))
    reached = {a: 0}  # node -> deps on the forest path from a
    stack = [a]
    while b not in reached:
        x = stack.pop()
        for y, deps in adjacent[x]:
            if y not in reached:
                reached[y] = reached[x] | deps
                stack.append(y)
    return reached[b]
