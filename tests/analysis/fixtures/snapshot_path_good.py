"""Fixture: a run leaves only as a JSON payload.

Shallow ``copy.copy`` stays legal — only deep copies split the shared
references a kernel graph holds.
"""

import copy
import json


def stash(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")


def unstash(path):
    return json.loads(path.read_text(encoding="utf-8"))


def shallow_view(config):
    return copy.copy(config)
