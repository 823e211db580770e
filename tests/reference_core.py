"""Helpers the tests use on the core data model: a folded sparse-vector sum
and a JSON text round trip of an instance."""

import json

from treepack.core import instance_from_json, instance_to_json, vec_add


def vec_sum(vecs):
    out = {}
    for v in vecs:
        out = vec_add(out, v)
    return out


def dumps_instance(inst):
    return json.dumps(instance_to_json(inst), indent=2, sort_keys=False)


def loads_instance(text):
    return instance_from_json(json.loads(text))
