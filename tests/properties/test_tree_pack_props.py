"""A decision tree survives its pickle round trip.

A tree pickles as its name, its size and one flat tuple
(:mod:`repro.ir.treepack`) and is decoded on first read; on random
trees, with and without guards, the decoded tree must equal the
original field by field, and its size must be right before and after
decoding.
"""

import pickle

from hypothesis import HealthCheck, given, settings, strategies as st

from .test_sched_props import guarded_trees, random_trees

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])


@_SETTINGS
@given(tree=st.one_of(random_trees(), guarded_trees()),
       resolved=st.sets(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                        max_size=4),
       temps=st.integers(0, 3))
def test_tree_round_trips_through_pickle(tree, resolved, temps):
    tree.spd_resolved = set(resolved)
    tree.next_temp_id += temps
    loaded = pickle.loads(pickle.dumps(tree))
    assert "_packed" in vars(loaded)
    assert loaded.size() == tree.size()
    assert loaded.ops == tree.ops
    assert loaded.exits == tree.exits
    assert loaded.spd_resolved == tree.spd_resolved
    assert (loaded.next_op_id, loaded.next_temp_id) == (tree.next_op_id,
                                                        tree.next_temp_id)
    assert "_packed" not in vars(loaded)
    assert loaded.size() == tree.size()
    assert loaded == tree
