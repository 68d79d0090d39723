"""Fixture: serialization and deep copies of simulator state."""

import marshal
import pickle
from copy import deepcopy


def stash(kernel):
    return pickle.dumps(kernel)


def stash_code(blob):
    return marshal.dumps(blob)


def fork_state(kernel):
    twin = deepcopy(kernel)
    return twin


def fork_state_qualified(kernel):
    import copy

    return copy.deepcopy(kernel)
