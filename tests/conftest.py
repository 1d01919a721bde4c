"""Shared fixtures for the test suite."""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro.batch.store import _COUNTS, _EXISTS, _SCHEMA, _digest
from repro.batch.tasks import canonical_json
from repro.queries.cq import cq_from_structure
from repro.queries.parser import parse_boolean_cq, parse_path
from repro.structures.canonical import canonical_key
from repro.structures.generators import (
    cycle_structure,
    path_structure,
)
from repro.structures.operations import sum_with_multiplicities
from repro.structures.schema import Schema
from repro.structures.serialization import structure_to_dict


@pytest.fixture
def binary_rs_schema() -> Schema:
    """The workhorse schema {R/2, S/2}."""
    return Schema({"R": 2, "S": 2})


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xC0FFEE)


@pytest.fixture
def edge_query():
    return parse_boolean_cq("R(x,y)")


@pytest.fixture
def two_path_query():
    return parse_boolean_cq("R(x,y), R(y,z)")


@pytest.fixture
def example32_instance():
    """The paper's Example 32: q = w1+w2+2w3, v1 = 2w1+w2+3w3,
    v2 = 5w1+2w2+7w3 over connected non-isomorphic w1, w2, w3."""
    w1 = path_structure(["R"])
    w2 = path_structure(["R", "R"])
    w3 = cycle_structure(3)

    def make(*pairs):
        return cq_from_structure(sum_with_multiplicities(list(pairs)))

    q = make((1, w1), (1, w2), (2, w3))
    v1 = make((2, w1), (1, w2), (3, w3))
    v2 = make((5, w1), (2, w2), (7, w3))
    return [v1, v2], q


@pytest.fixture
def example13_paths():
    """Example 13: q = ABCD, V = {ABC, BC, BCD}."""
    views = [parse_path("A.B.C"), parse_path("B.C"), parse_path("B.C.D")]
    return views, parse_path("A.B.C.D")


def _write_v2_store(path, counts=(), exists=()):
    """Write a v2 single-file hom store, the layout the store used
    before sharding: the three shard tables in one WAL file stamped
    ``user_version=2``.  ``counts`` holds ``(source, target, count)``
    and ``exists`` ``(source, target, verdict)`` triples, recorded in
    order (rowid order is the recency the migration preserves)."""
    connection = sqlite3.connect(str(path))
    connection.execute("PRAGMA journal_mode=WAL")
    with connection:
        for statement in _SCHEMA:
            connection.execute(statement)
        connection.execute("PRAGMA user_version=2")
        for table, rows, encode in (
                (_COUNTS, counts, str),
                (_EXISTS, exists, lambda verdict: "1" if verdict else "0")):
            for source, target, value in rows:
                target_json = canonical_json(structure_to_dict(target))
                connection.execute(
                    "INSERT OR IGNORE INTO targets VALUES (?, ?)",
                    (_digest(target_json), target_json))
                connection.execute(
                    f"INSERT OR IGNORE INTO {table} VALUES (?, ?, ?)",
                    (canonical_key(source), _digest(target_json),
                     encode(value)))
    connection.close()


@pytest.fixture
def write_v2_store():
    """The v2 single-file writer the migration tests seed stores with:
    ``write_v2_store(path, counts=[...], exists=[...])``."""
    return _write_v2_store
