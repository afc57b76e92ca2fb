"""Golden outputs of fixed anchor inputs, checked on every run.

The anchors do not depend on ``--seed``: they pin the program's outputs
bit for bit, so a change that alters results (a smaller secret, a
different record) fails the run even where the seeded checks, which
compare two paths of the same program, would still agree.
"""

#: fig2_sweep anchor: (campaign seed, placements per n, group sizes).
FIG2_ANCHOR = (2012, 1, (3, 4, 5))
FIG2_RECORDS_DIGEST = "6ed581b30f20a265ef8029c0ed09d4879fb91e6aec407397bb2b2e3c5a74dd49"
FIG2_AGGREGATES_DIGEST = "f527350d66446b512891276558d7a21e45a8e00787882873db765f0509d8e2b2"

#: grid_sweep anchor: campaign seed; the grid is ``wl_grid.anchor_grid()``.
GRID_ANCHOR_SEED = 2012
GRID_DIGEST = "0da480392a71cca7513aa04190618c9bd448277ac81240864ac7508f8ebcff95"

#: service_open anchors: (leader, followers, nonce, loss_seed, payload_seed).
SERVICE_ANCHORS = (
    ("peer00", ("peer01",), 0, 11, 7),
    ("peer02", ("peer03", "peer04"), 1, 12, 8),
    ("peer05", ("peer06",), 2, 13, 9),
)
SERVICE_FINGERPRINTS = ("fcc57c1e7998a9b1", "e9119ac7413c8ff8", "238ec68e91205409")
