"""Every single-edit mutation of two scenario configs against a committed table.

``golden/config_messages.json`` holds two base configs, the replacement
values, and for every case the outcome of ``cli.parse_config``: the
``ConfigError`` text, or ``ok:`` and the parsed fields that differ from the
unmutated base's.  A case is one edit of a base: a key or list item
deleted, a value replaced by one of the table's values, or the key
``unknown`` added to an object.

The table is check data: regenerate it (``PYTHONPATH=src python
tests/test_config_messages.py``) only in a change that alters a message on
purpose.
"""

import copy
import dataclasses
import json
import sys
from pathlib import Path

import pytest

from enclosure_kit import cli
from enclosure_kit.errors import ConfigError
from test_cli import error_location, json_at, key_paths, with_value

TABLE = Path(__file__).parent / "golden" / "config_messages.json"


def mutations(base, values):
    """(case name, mutated config) for every single edit of ``base``."""
    for path in key_paths(base):
        name = error_location(path)
        if path:
            raw = copy.deepcopy(base)
            del json_at(raw, path[:-1])[path[-1]]
            yield f"delete {name}", raw
        for label, value in values.items():
            yield f"set {name} = {label}", with_value(base, path, copy.deepcopy(value))
        if isinstance(json_at(base, path), dict):
            raw = copy.deepcopy(base)
            json_at(raw, path)["unknown"] = 1
            yield f"add unknown to {name}", raw


def fields(value, prefix=""):
    """Flatten parsed dataclasses, tuples and scalars into ``path: repr`` pairs."""
    if dataclasses.is_dataclass(value):
        yield prefix + "type", type(value).__name__
        for f in dataclasses.fields(value):
            yield from fields(getattr(value, f.name), f"{prefix}{f.name}.")
    elif isinstance(value, tuple):
        yield prefix + "len", repr(len(value))
        for i, item in enumerate(value):
            yield from fields(item, f"{prefix}{i}.")
    else:
        yield prefix[:-1], repr(value)


def outcome(raw, base_fields):
    try:
        config = cli.parse_config(raw)
    except ConfigError as exc:
        return f"ConfigError: {exc}"
    except Exception as exc:  # recorded, so that a leak shows in the table
        return f"{type(exc).__name__}: {exc}"
    changed = [f"{k}={v}" for k, v in fields(config) if base_fields.get(k) != v]
    return "ok: " + (", ".join(changed) or "unchanged")


def outcomes(table, base_name):
    base = table["bases"][base_name]
    base_fields = dict(fields(cli.parse_config(base)))
    return {
        f"{base_name} {case}": outcome(raw, base_fields)
        for case, raw in mutations(base, table["values"])
    }


@pytest.mark.parametrize("base_name", ["CHEAP_SWEEP", "RICH_CONFIG"])
def test_config_outcomes_match_table(base_name):
    table = json.loads(TABLE.read_text())
    want = {k: v for k, v in table["cases"].items() if k.startswith(base_name + " ")}
    got = outcomes(table, base_name)
    assert sorted(got) == sorted(want)
    wrong = [
        f"{case}\n  got:  {got[case]}\n  want: {want[case]}" for case in got if got[case] != want[case]
    ]
    assert not wrong, f"{len(wrong)} of {len(got)} cases differ:\n" + "\n".join(wrong[:10])


if __name__ == "__main__":
    table = json.loads(TABLE.read_text())
    table["cases"] = {k: v for name in table["bases"] for k, v in outcomes(table, name).items()}
    TABLE.write_text(json.dumps(table, indent=1) + "\n")
    print(f"wrote {len(table['cases'])} cases to {TABLE}", file=sys.stderr)
