"""Fixed numeric parameters for the verification suites.

Everything a suite iterates over lives here so that a given manifest
version pins the exact checks byte for byte.  Do not edit values in
place: bump MANIFEST_VERSION when the parameter set changes.
"""

MANIFEST_VERSION = 2

# deleted permutation module cases: cycle type acts on n points over F_p,
# e is the stingray degree under test, delta the deleted codimension
PERMMOD_CASES = (
    dict(label="9cycle-n9-p2", n=9, p=2,
         cycles=(tuple(range(1, 10)),), e=4, order=9, stingray=False),
    dict(label="9cycle-n10-p2", n=10, p=2,
         cycles=(tuple(range(1, 10)),), e=4, order=9, stingray=False),
    dict(label="5cycle-n9-p2", n=9, p=2,
         cycles=((1, 2, 3, 4, 5),), e=4, order=5, stingray=True),
    dict(label="5cycle-n10-p2", n=10, p=2,
         cycles=((1, 2, 3, 4, 5),), e=4, order=5, stingray=True),
    dict(label="5sq-n10-p2", n=10, p=2,
         cycles=((1, 2, 3, 4, 5), (6, 7, 8, 9, 10)), e=4, order=5,
         stingray=False),
    dict(label="7cycle-n11-p3", n=11, p=3,
         cycles=(tuple(range(1, 8)),), e=6, order=7, stingray=True),
)

# SL2(q) module dichotomy, decided over the (r-1)/2 conjugacy classes of
# order-r elements of SL2(q): "found" when some class acts on the module as
# an e-stingray, "none" when no class does and every class image is
# diagonalizable over F_q
PSL2_CASES = (
    dict(label="symcube-q5", q=5, module="symcube", r=3, e=2, expect="found"),
    dict(label="symcube-q11", q=11, module="symcube", r=3, e=2,
         expect="found"),
    dict(label="symcube-q7", q=7, module="symcube", r=3, e=2, expect="none"),
    dict(label="twist01-q8", q=8, module=("twist", 0, 1), r=3, e=2,
         expect="found"),
    dict(label="twist02-q64", q=64, module=("twist", 0, 2), r=5, e=2,
         expect="found"),
    dict(label="twist01-q16", q=16, module=("twist", 0, 1), r=3, e=2,
         expect="none"),
)

# order-9 images in the A_14 deleted permutation module over F_2
PROP122_N = 14
PROP122_P = 2
PROP122_ELEMENTS = (
    dict(label="9cycle", cycles=(tuple(range(1, 10)),)),
    dict(label="9x3", cycles=(tuple(range(1, 10)), (10, 11, 12))),
)
PROP122_FIXED_DIM_MAX = 4
PROP122_E = 6
PROP122_ORDER = 9

# ppd table sweep bounds
PPDTABLE_QMAX = 32
PPDTABLE_EMAX = 20

# bounded random search budget for the optional user-supplied-files suite
ATLAS_SEARCH_DRAWS = 3000
