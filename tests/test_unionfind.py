import random

from drtool.unionfind import UnionFind, first_acyclic_choices

from genutil import uf_classes


def partition(items, pairs):
    """Classes of ``items`` under the unions ``pairs``, recomputed from scratch
    in the form ``genutil.uf_classes`` returns."""
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
            assert uf_classes(uf) == expected
            assert uf.count == len(expected)
            for a in items:
                for b in items:
                    assert uf.together(a, b) == any(a in c and b in c for c in expected)


def test_numbering_numbers_the_classes_by_their_least_item():
    rng = random.Random(33)
    for _ in range(100):
        items = list(range(rng.randint(1, 12)))
        uf = UnionFind(items)
        for _ in range(rng.randint(0, 15)):
            uf.union(rng.choice(items), rng.choice(items))
        least = [min(j for j in items if uf.together(i, j)) for i in items]
        assert uf.numbering(items) == [sorted(set(least)).index(m) for m in least]


def backjump_case(chronological):
    """Three levels: level 0 picks "a", which joins x and y, or "b"; level 1
    picks 0 or 1 and joins nothing; level 2 joins y and x.  Returns the
    first choices, the (level, value) pairs tried in order, and the levels
    whose options generator was open each time level 0 resumed.  With
    ``chronological`` every pair depends on every level up to its own."""
    uf = UnionFind("xy")
    tried, open_levels, resumed_with = [], set(), []

    def deps(*levels):
        return (2 << max(levels)) - 1 if chronological else sum(1 << i for i in levels)

    def options(level, chosen):
        open_levels.add(level)
        try:
            if level == 0:
                for value, pairs in (("a", [("x", "y", deps(0))]), ("b", [])):
                    tried.append((0, value))
                    yield value, uf, pairs
                    resumed_with.append(sorted(open_levels))
            elif level == 1:
                for value in (0, 1):
                    tried.append((1, value))
                    yield value, uf, []
            else:
                tried.append((2, "c"))
                yield "c", uf, [("y", "x", deps(2))]
        finally:
            open_levels.discard(level)

    return first_acyclic_choices(3, options, lambda chosen: True), tried, resumed_with


def test_a_level_outside_the_conflict_is_skipped():
    # "a" at level 0 and level 2 close the cycle x-y-x; level 1 plays no part
    found, tried, resumed_with = backjump_case(chronological=False)
    assert tried == [(0, "a"), (1, 0), (2, "c"), (0, "b"), (1, 0), (2, "c")]
    # level 1's generator was closed, not left waiting, when the search jumped over it
    assert resumed_with[0] == [0]
    chronological, every_try, _ = backjump_case(chronological=True)
    assert (1, 1) in every_try and len(every_try) > len(tried)
    assert found == chronological == ["b", 0, "c"]


def test_every_earlier_level_conflicts_with_a_failure_the_engine_cannot_see():
    # level 2 fails while level 1 holds 0, by an empty options or a false accept
    uf = UnionFind("x")

    def search(empty_options):
        def options(level, chosen):
            if level == 2 and empty_options and chosen[1] == 0:
                return
            for value in ("a", "b") if level == 0 else (0, 1) if level == 1 else ("c",):
                yield value, uf, []

        return first_acyclic_choices(
            3, options, lambda chosen: empty_options or chosen[1] == 1)

    assert search(empty_options=True) == search(empty_options=False) == ["a", 1, "c"]
