"""Named traversal of nested weight containers.

Weight trees are dataclasses whose fields are numpy arrays, other weight
dataclasses, or lists of either; ints/strings ride along untouched. Leaves
get dotted names from the field path, which is what the optimizer and the
checkpoint archive key on. A dict is a tree keyed by name, so a flat
gradient dict's dotted keys go under its prefix. Weight dataclasses declare
plain fields only (no ClassVar or InitVar), so a walk reads the class's field
dict in declaration order; dataclasses.fields would build a tuple per node per
walk, and the model's entry walks the weights on every call.
"""
from __future__ import annotations

import dataclasses

import numpy as np


def tree_leaves(tree, prefix=""):
    """Yield (dotted_name, array) pairs in deterministic field order."""
    if isinstance(tree, np.ndarray):
        yield prefix, tree
    elif dataclasses.is_dataclass(tree):
        for field in tree.__dataclass_fields__:
            name = f"{prefix}.{field}" if prefix else field
            yield from tree_leaves(getattr(tree, field), name)
    elif isinstance(tree, (list, tuple)):
        for i, item in enumerate(tree):
            name = f"{prefix}.{i}" if prefix else str(i)
            yield from tree_leaves(item, name)
    elif isinstance(tree, dict):
        for key, item in tree.items():
            yield from tree_leaves(item, f"{prefix}.{key}" if prefix else key)
    # scalars / None carry no leaves


def tree_flatten(tree, prefix="") -> dict:
    return dict(tree_leaves(tree, prefix))


def tree_unflatten(template, flat: dict, prefix=""):
    """Rebuild a tree shaped like template, pulling leaf arrays from flat."""
    if isinstance(template, np.ndarray):
        if prefix not in flat:
            raise ValueError(f"{prefix}: missing from the stored arrays")
        arr = flat[prefix]
        if arr.shape != template.shape:
            raise ValueError(f"{prefix}: stored shape {arr.shape} != expected {template.shape}")
        return arr
    if dataclasses.is_dataclass(template):
        kwargs = {}
        for field in template.__dataclass_fields__:
            name = f"{prefix}.{field}" if prefix else field
            kwargs[field] = tree_unflatten(getattr(template, field), flat, name)
        return type(template)(**kwargs)
    if isinstance(template, list):
        return [tree_unflatten(t, flat, f"{prefix}.{i}" if prefix else str(i))
                for i, t in enumerate(template)]
    if isinstance(template, tuple):
        return tuple(tree_unflatten(t, flat, f"{prefix}.{i}" if prefix else str(i))
                     for i, t in enumerate(template))
    if isinstance(template, dict):
        return {k: tree_unflatten(t, flat, f"{prefix}.{k}" if prefix else k)
                for k, t in template.items()}
    return template
