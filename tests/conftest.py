"""Shared test helpers."""

import copy

import pytest


def relabelled_document(doc: dict, ids, digits: int | None = None) -> dict:
    """A copy of an automaton document with state s renamed ``ids[s]`` and,
    with ``digits``, every chance rounded to that many decimal digits."""
    doc = copy.deepcopy(doc)
    doc["start"] = ids[doc["start"]]
    for st in doc["states"]:
        st["id"] = ids[st["id"]]
    for edge in doc["edges"]:
        edge["from"] = ids[edge["from"]]
        for leg in edge["to"]:
            leg["state"] = ids[leg["state"]]
            if digits is not None:
                leg["prob"] = round(leg["prob"], digits)
    return doc


@pytest.fixture
def relabel():
    return relabelled_document
