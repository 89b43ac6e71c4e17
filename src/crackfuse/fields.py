"""The one check of values from outside: run configs, CLI flags, dataset and
checkpoint manifests. Each declares one table of Rules by key (a config
dataclass, each field's entry); only rules relating two fields stay as code.
A refusal reads "<key> is <value!r>, not <what>" or "<key> is missing", and
the caller prefixes the document (`checkpoint <path>: `, `config train.`).
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys
from fractions import Fraction
from typing import Callable, NamedTuple


class Rule(NamedTuple):
    valid: Callable[[object], bool]
    what: str
    default: object = ...  # what a document without the key reads; ... refuses that

    def optional(self, default):
        return self._replace(default=default)

    def check(self, key, value, error=ValueError):
        if not self.valid(value):
            raise error(f"{key} is {value!r}, not {self.what}")
        return value


def check_fields(doc: dict, table: dict) -> dict:
    """{key: doc's value, checked, or the rule's default} for each row of
    table, in order; ValueError at the first refusal."""
    out = {}
    for key, rule in table.items():
        if key not in doc and rule.default is ...:
            raise ValueError(f"{key} is missing")
        out[key] = rule.check(key, doc[key]) if key in doc else rule.default
    return out


def entry(default, rule: Rule):
    """A config dataclass field: its default and the rule check_config applies."""
    return dataclasses.field(default=default, metadata={"rule": rule})


def check_config(cfg) -> None:
    check_fields(vars(cfg), {f.name: f.metadata["rule"] for f in dataclasses.fields(cfg)})


def read_json_object(path, error, where):
    """The JSON object in the UTF-8 file at path. Raises error (an exception
    class) with a message that starts with where if the file cannot be read,
    is not JSON or holds something other than an object."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    # ValueError includes JSONDecodeError and UnicodeDecodeError; json raises
    # RecursionError for arrays or objects nested too deep
    except (OSError, ValueError, RecursionError) as e:
        raise error(f"{where}: {e}") from None
    if not isinstance(doc, dict):
        raise error(f"{where}: holds a {type(doc).__name__}, not a JSON object")
    return doc


def _finite(v) -> bool:
    # a bool is no number (JSON's true is no count or rate), nor an int no float holds
    return (type(v) is int or isinstance(v, float)) and abs(v) <= sys.float_info.max


def _factor(v) -> bool:
    try:
        return isinstance(v, str) and Fraction(v) >= 1
    except (ValueError, ZeroDivisionError):
        return False


def _file_name(v) -> bool:
    # a dataset id names files in the dataset and in the CLI's output directories
    return isinstance(v, str) and v not in ("", ".", "..") and not any(c in v for c in "/\\\0")


def integer(least) -> Rule:
    return Rule(lambda v: type(v) is int and v >= least, f"an integer >= {least}")


def above(low) -> Rule:
    return Rule(lambda v: _finite(v) and v > low, f"a finite number > {low}")


def at_least(low, high=math.inf) -> Rule:
    what = f"a finite number in [{low}, {high}]" if high < math.inf else f"a finite number >= {low}"
    return Rule(lambda v: _finite(v) and low <= v <= high, what)


def items(rule: Rule, what, kind=list, least=0, most=math.inf) -> Rule:
    """A kind (list or tuple) of least to most values that rule admits."""
    return Rule(lambda v: (isinstance(v, kind) and least <= len(v) <= most
                           and all(rule.valid(x) for x in v)), what)


def either(*rules: Rule) -> Rule:
    return Rule(lambda v: any(r.valid(v) for r in rules), " or ".join(r.what for r in rules))


def one_of(*choices) -> Rule:
    return Rule(lambda v: isinstance(v, str) and v in choices, f"one of {', '.join(choices)}")


TEXT = Rule(lambda v: isinstance(v, str), "a string")
PATH = Rule(lambda v: isinstance(v, str) and v != "" and "\0" not in v,
            "a non-empty path string without NUL bytes")
NAME = Rule(_file_name, "a file name: not empty, . or .., and without /, \\ or NUL")
OBJECT = Rule(lambda v: isinstance(v, dict), "a JSON object")
FACTOR = Rule(_factor, 'a rational >= 1 like "2" or "10/3"')
NULL = Rule(lambda v: v is None, "null")
NAN = Rule(lambda v: isinstance(v, float) and math.isnan(v), "NaN")
