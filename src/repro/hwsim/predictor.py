"""Memory-dependence predictors for the hardware simulator.

A predictor answers one question, per (load, earlier store) pair whose
store address is still unknown when the load is otherwise ready: *may
the load issue speculatively past this store?*  Operations are
identified by their static identity ``(function, tree, op_id)`` — the
stand-in for the instruction PC a real predictor indexes by.

Three policies bracket the design space, plus the idealised oracle:

==============  =========================================================
``always``      blind speculation — every load bypasses every unresolved
                store (maximum ILP, maximum squashes)
``never``       no speculation — a load waits until every earlier store
                address is known (zero squashes, by construction)
``store-set``   Chrysos & Emer-style learning: a misspeculation merges
                the load and the store into one *store set*; a load
                thereafter waits for unresolved stores in its set and
                bypasses the rest
``oracle``      perfect disambiguation, resolved by the simulator from
                the actual addresses (no policy object); defines the
                dataflow lower bound
==============  =========================================================
"""

from __future__ import annotations

from typing import Dict, Tuple, Type

__all__ = ["OpKey", "DependencePredictor", "AlwaysSpeculate",
           "NeverSpeculate", "StoreSetPredictor", "make_predictor"]

#: Static identity of an operation: (function name, tree name, op_id).
OpKey = Tuple[str, str, int]


class DependencePredictor:
    """Base policy: blind speculation with no learning."""

    #: policy name (one of :data:`repro.machine.hw.PREDICTOR_NAMES`)
    name = "always"

    def may_bypass(self, load: OpKey, store: OpKey) -> bool:
        """May *load* issue while *store*'s address is still unknown?"""
        raise NotImplementedError

    def train(self, load: OpKey, store: OpKey) -> None:
        """Record one misspeculation of *load* past *store*."""


class AlwaysSpeculate(DependencePredictor):
    """Every load bypasses every unresolved store."""

    name = "always"

    def may_bypass(self, load: OpKey, store: OpKey) -> bool:
        return True


class NeverSpeculate(DependencePredictor):
    """No load ever bypasses an unresolved store."""

    name = "never"

    def may_bypass(self, load: OpKey, store: OpKey) -> bool:
        return False


class StoreSetPredictor(DependencePredictor):
    """Store-set learning predictor (Chrysos & Emer, ISCA 1998).

    The store-set identifier table maps an operation's static identity
    to a set id; a load bypasses an unresolved store unless both map to
    the same set.  On a violation the two operations' sets are merged
    (union-find with path compression), so a load that ever
    misspeculated past a store waits for it — and for everything else
    that store collided with — forever after.  Real hardware ages these
    tables out; our programs are short enough that pure accumulation
    matches the steady state.
    """

    name = "store-set"

    def __init__(self) -> None:
        self._set_of: Dict[OpKey, OpKey] = {}
        self.violations_trained = 0

    def _find(self, key: OpKey) -> OpKey:
        root = key
        while self._set_of.get(root, root) != root:
            root = self._set_of[root]
        while self._set_of.get(key, key) != key:
            self._set_of[key], key = root, self._set_of[key]
        return root

    def may_bypass(self, load: OpKey, store: OpKey) -> bool:
        if load not in self._set_of or store not in self._set_of:
            return True
        return self._find(load) != self._find(store)

    def train(self, load: OpKey, store: OpKey) -> None:
        self.violations_trained += 1
        self._set_of.setdefault(load, load)
        self._set_of.setdefault(store, store)
        self._set_of[self._find(store)] = self._find(load)


#: The policy behind each non-oracle predictor name.
_POLICIES: Dict[str, Type[DependencePredictor]] = {
    "always": AlwaysSpeculate,
    "never": NeverSpeculate,
    "store-set": StoreSetPredictor,
}


def make_predictor(name: str) -> DependencePredictor:
    """Instantiate the policy named *name*."""
    policy = _POLICIES.get(name)
    if policy is None:
        raise ValueError(f"unknown predictor {name!r}; "
                         f"choose from {', '.join(_POLICIES)}")
    return policy()
