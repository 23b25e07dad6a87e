"""Differential test of the exact JSON writer against the one it replaced.

``reference_to_json_dict`` is the earlier ``NonsignalingResource.to_json_dict``,
as it was: it read the ``Fraction`` dict view ``table`` and formatted
every entry.  The writer now reads ``numerators`` row by row; on the
tensor-table reference families (gapped and unsorted alphabets, int64 and
Python-int numerators, unchecked and checked tables) its ``json.dumps``
text must be the reference's, byte for byte, and it must leave the dict
view unbuilt.
"""
from __future__ import annotations

import json

import pytest

from boxnet.resource import NonsignalingResource, validate_nonsignaling

from test_tensor_table_reference import FAMILIES


def reference_to_json_dict(self: NonsignalingResource) -> dict:
    data = self._signature_json()
    data["table"] = {
        ",".join(map(str, x)): {
            ",".join(map(str, a)): f"{v.numerator}/{v.denominator}"
            for a, v in column.items()
        }
        for x, column in self.table.items()
    }
    if not self.nonsignaling_checked:
        data["unchecked"] = True
    return data


@pytest.mark.parametrize("name", FAMILIES)
def test_json_text_matches_the_view_based_writer(name):
    flags = set()
    for r, _ in FAMILIES[name]():
        for _ in range(2):   # unchecked as built, then checked if it passes
            text = json.dumps(r.to_json_dict())
            assert r._table is None
            assert text == json.dumps(reference_to_json_dict(r))
            flags.add(r.nonsignaling_checked)
            r._table = None
            validate_nonsignaling(r)
    assert flags == {True, False}
