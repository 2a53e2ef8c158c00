"""Labels are validated once, at the public entry points.

Internal stages take labels that are already validated: the branchings
and the 3D layers read the cached orbit, their part sizes are counted
off its coset forms, and the duals read the cached orbit and complex.
One label through the seven stages of a full request is
checked seven times, and each entry point still rejects a bad label
with the same one-line message.
"""

import sys

import pytest

from f4weyl import orbits
from f4weyl.branching import branch_b3a1, branch_b4, project_3d
from f4weyl.duals import dual_cell, dual_polytope, solve_scales
from f4weyl.orbits import f_vector, generate_orbit, stabilizer_order
from f4weyl.rootsys import RootSystem, b3r_system, b4_system, f4_system
from f4weyl.verify import cells_at_vertex
import oracles

F4 = f4_system()

#: the per-label request, stage by stage
PIPELINE = (
    ("f_vector", lambda labels: f_vector(F4, labels)),
    ("generate_orbit", lambda labels: generate_orbit(F4, labels)),
    ("branch_b4", branch_b4),
    ("branch_b3a1", branch_b3a1),
    ("project_3d", project_3d),
    ("dual_polytope", lambda labels: dual_polytope(F4, labels)),
    ("dual_cell", lambda labels: dual_cell(F4, labels)),
)

#: every public function that takes a label
ENTRY_POINTS = PIPELINE + (
    ("solve_scales", lambda labels: solve_scales(F4, labels)),
    # the closed-form size (a test oracle) validates through stabilizer_order
    ("orbit_size", lambda labels: oracles.orbit_size(F4, labels)),
    ("stabilizer_order", lambda labels: stabilizer_order(F4, labels)),
)
ACCEPT_ZERO = {"orbit_size", "stabilizer_order"}


@pytest.fixture
def validations(monkeypatch):
    """A one-element count of ``_validated`` calls, through every module
    namespace that binds it."""
    count, original = [0], orbits._validated

    def counted(*args, **kwargs):
        count[0] += 1
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "_validated", None) is original:
            monkeypatch.setattr(module, "_validated", counted)
    return count


def test_each_public_stage_validates_once(validations):
    # one label of each 0/1 pattern that no other test draws, so every
    # label cache misses and the internal stages run
    for labels in oracles.pattern_labels(1, 21):
        misses = orbits._orbit_cached.cache_info().misses
        for name, stage in PIPELINE:
            before = validations[0]
            stage(labels)
            assert validations[0] - before == 1, (name, labels)
        assert orbits._orbit_cached.cache_info().misses > misses, labels


BAD_LABELS = [
    ((1, 0, 0), "F4 takes 4 labels, got 3"),
    ((1, -1, 0, 0), "the label is not dominant (negative entry)"),
    ((0, 0, 0, 0), "the zero label spans no polytope"),
]


@pytest.mark.parametrize("name,entry", ENTRY_POINTS,
                         ids=[name for name, _ in ENTRY_POINTS])
@pytest.mark.parametrize("labels,message", BAD_LABELS,
                         ids=["length", "negative", "zero"])
def test_entry_points_reject_bad_labels(name, entry, labels, message):
    if name in ACCEPT_ZERO and not any(labels):
        assert entry(labels) == (1 if name == "orbit_size" else 1152)
        return
    with pytest.raises(ValueError) as info:
        entry(labels)
    assert str(info.value) == message


def test_a_system_apart_from_the_registry_is_refused():
    # every cache keys on the system's name, so an F4 built from B4's roots
    # would read F4's orbit (24 vertices; its own roots give 8)
    b4 = b4_system()
    posing = RootSystem("F4", b4.root_vectors, b4.weight_vectors,
                        b4.weight_den)
    with pytest.raises(ValueError) as info:
        generate_orbit(posing, (1, 0, 0, 0))
    assert str(info.value) == "F4 is not the registered F4 system"


@pytest.mark.parametrize("entry", [f_vector, dual_polytope, dual_cell,
                                   solve_scales, cells_at_vertex],
                         ids=lambda entry: entry.__name__)
def test_rank_4_readers_refuse_a_rank_3_label(entry):
    with pytest.raises(ValueError) as info:
        entry(b3r_system(), (1, 0, 0))
    assert str(info.value) == "f_vector needs a rank-4 system"
