"""The coordinate kernel as it was before it read the one LCA image.

`coordinates(family)` builds, per row i, the nodes a = LCA(x, i+1)
for every x < i+1 (walking the whole family backward) with the labels x that
select them, then backtracks over the rows for every injective choice of
nodes and adds its permutation sign at every k that selects it.  It assumes
nothing about how many such choices exist.  Tests use it as the oracle for
`decomposition._coordinates` and `decomposition._coordinate`.
"""

import itertools

from braidcycles.arnold import perm_sign_of


def mask_labels(m):
    return [x for x in range(m.bit_length()) if m >> x & 1]


def coordinates(family):
    """Every nonzero incidence determinant of the tree with canonical mask
    family `family`, keyed by k."""
    m = len(family)
    rows = []
    for i in range(1, m + 1):
        leaf = 1 << (i + 1)
        free = leaf - 2
        choices = {}
        for p in range(m - 1, -1, -1):
            if family[p] & leaf and family[p] & free:
                choices[p] = mask_labels(family[p] & free)
                free &= ~family[p]
        rows.append(choices)
    coords = {}
    _extend(rows, [], coords)
    return coords


def _extend(rows, image, coords):
    if len(image) == len(rows):
        sign = perm_sign_of(image)
        for seq in itertools.product(*(row[a] for row, a in zip(rows, image))):
            coords[seq] = sign
        return
    for a in rows[len(image)]:
        if a not in image:
            image.append(a)
            _extend(rows, image, coords)
            image.pop()
