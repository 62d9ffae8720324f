"""Checks on the committed benchmark records, the BENCH_<n>.json files at the
root of the repository: a speedup counts only with unchanged output digests
and with no failed operation on either side.

Two record formats exist. Records from BENCH_9 on keep each digest set as
`seed<s>_digests`, either `{"parent": {workload: digest}, "change": {...}}`
or `{workload: {"parent": digest, "change": digest}}`, and each workload's
digests as `digests`, `{"parent": [...], "change": [...]}`. Records BENCH_2
to BENCH_6 carry per-workload `digests_equal_*` flags instead. Operation failures
are `failed_ops` (`{"parent": n, "change": n}`) and each run's `failed`."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"),
                 key=lambda p: int(p.stem.removeprefix("BENCH_")))


def _walk(node, path=()):
    """(key path, value) of node and of everything nested in it."""
    yield path, node
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        yield from _walk(value, path + (key,))


def digest_pairs(record: dict) -> list[tuple[str, object, object]]:
    """(where, parent digests, change digests) of every digest set: each
    `digests` and `*_digests` entry, at any depth."""
    pairs = []
    for keys, digests in _walk(record):
        if not (keys and str(keys[-1]).endswith("digests")):
            continue
        where = ".".join(map(str, keys))
        if set(digests) == {"parent", "change"}:
            pairs.append((where, digests["parent"], digests["change"]))
        else:
            pairs += [(f"{where}.{workload}", pc["parent"], pc["change"])
                      for workload, pc in digests.items()]
    return pairs


def _load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_records_are_found():
    assert {"BENCH_2.json", "BENCH_12.json"} <= {p.name for p in RECORDS}


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_digests_are_unchanged(path):
    record = _load(path)
    pairs = digest_pairs(record)
    assert pairs, "a record must show its output digests"
    for where, parent, change in pairs:
        assert parent and parent == change, where
    flags = [(keys, value) for keys, value in _walk(record)
             if keys and str(keys[-1]).startswith("digests_equal")]
    assert all(value is True for _, value in flags), flags


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_no_operation_failed(path):
    record = _load(path)
    failed_ops = [value for keys, value in _walk(record)
                  if keys and keys[-1] == "failed_ops"]
    run_failures = [value for keys, value in _walk(record)
                    if keys and keys[-1] == "failed"]
    assert failed_ops and run_failures
    assert all(value == {"parent": 0, "change": 0} for value in failed_ops)
    assert all(value == 0 for value in run_failures)
