"""Named traversal of nested weight containers.

Weight trees are dataclasses whose fields are numpy arrays, other weight
dataclasses, or lists of either; ints/strings ride along untouched. Leaves
get dotted names from the field path, which is what the optimizer and the
checkpoint archive key on.
"""
from __future__ import annotations

import dataclasses

import numpy as np


def tree_leaves(tree, prefix=""):
    """Yield (dotted_name, array) pairs in deterministic field order."""
    if isinstance(tree, np.ndarray):
        yield prefix, tree
    elif dataclasses.is_dataclass(tree):
        for f in dataclasses.fields(tree):
            name = f"{prefix}.{f.name}" if prefix else f.name
            yield from tree_leaves(getattr(tree, f.name), name)
    elif isinstance(tree, (list, tuple)):
        for i, item in enumerate(tree):
            name = f"{prefix}.{i}" if prefix else str(i)
            yield from tree_leaves(item, name)
    # scalars / None carry no leaves


def tree_flatten(tree, prefix="") -> dict:
    return dict(tree_leaves(tree, prefix))


def tree_unflatten(template, flat: dict, prefix=""):
    """Rebuild a tree shaped like template, pulling leaf arrays from flat."""
    if isinstance(template, np.ndarray):
        arr = flat[prefix]
        if arr.shape != template.shape:
            raise ValueError(f"{prefix}: stored shape {arr.shape} != expected {template.shape}")
        return arr
    if dataclasses.is_dataclass(template):
        kwargs = {}
        for f in dataclasses.fields(template):
            name = f"{prefix}.{f.name}" if prefix else f.name
            kwargs[f.name] = tree_unflatten(getattr(template, f.name), flat, name)
        return type(template)(**kwargs)
    if isinstance(template, list):
        return [tree_unflatten(t, flat, f"{prefix}.{i}" if prefix else str(i))
                for i, t in enumerate(template)]
    if isinstance(template, tuple):
        return tuple(tree_unflatten(t, flat, f"{prefix}.{i}" if prefix else str(i))
                     for i, t in enumerate(template))
    return template
