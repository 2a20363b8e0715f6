import random

from drtool.unionfind import UnionFind


def partition(items, pairs):
    """Classes of ``items`` under the unions ``pairs``, recomputed from scratch
    in the form ``UnionFind.components`` returns."""
    label = {item: item for item in items}
    changed = True
    while changed:
        changed = False
        for a, b in pairs:
            low = min(label[a], label[b])
            for item in (a, b):
                if label[item] != low:
                    label[item] = low
                    changed = True
    classes = {}
    for item in items:
        classes.setdefault(label[item], []).append(item)
    return tuple(sorted(tuple(sorted(c)) for c in classes.values()))


def snapshot(uf):
    return dict(uf.parent), dict(uf.rank), uf.count


def test_random_unions_and_rollbacks_match_recomputed_partition():
    rng = random.Random(3)
    for _ in range(100):
        items = list(range(rng.randint(1, 9)))
        uf = UnionFind(items)
        live = []  # every union call still in effect, in order
        marks = []  # (uf mark, len(live), snapshot at the mark), oldest first
        for _ in range(40):
            op = rng.random()
            if op < 0.6:
                a, b = rng.choice(items), rng.choice(items)
                before = partition(items, live)
                joined = not any(a in c and b in c for c in before)
                assert uf.union(a, b) is joined
                live.append((a, b))
            elif op < 0.8 or not marks:
                marks.append((uf.mark(), len(live), snapshot(uf)))
            else:
                del marks[rng.randrange(len(marks)) + 1:]
                mark, kept, state = marks[-1]
                uf.rollback(mark)
                del live[kept:]
                # parent pointers, ranks and count are exactly as at the mark
                assert snapshot(uf) == state
            expected = partition(items, live)
            assert uf.components() == expected
            assert uf.count == len(expected)
            for a in items:
                for b in items:
                    assert uf.together(a, b) == any(a in c and b in c for c in expected)

