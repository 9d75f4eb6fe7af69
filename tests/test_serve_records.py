"""A serve process stores each graph once, as the adjacency it colors.

Normalization turns a JSON edge list into an
:class:`~repro.serve.protocol.InstanceRecord`: the frozen adjacency with
one shared ``int`` per vertex.  The registry, the prepared cache and
the first validated ``Network`` all hold that one copy.
"""

from __future__ import annotations

import asyncio
import gc
import json
import pickle
import tracemalloc

import pytest

from repro.graphs import hard_clique_graph
from repro.serve import (
    ColoringServer,
    ServeClient,
    ServeConfig,
    execute_batch,
    normalize_instance_payload,
)
from repro.serve.cache import PreparedCache


def wire_payload(instance):
    """The payload as a server parses it: one ``int`` per occurrence."""
    return json.loads(json.dumps({
        "n": instance.n,
        "edges": [list(edge) for edge in instance.network.edges()],
        "delta": instance.delta,
        "uids": list(instance.network.uids),
    }))


def distinct_ints(adjacency):
    return len({id(v) for row in adjacency for v in row})


def test_stored_graph_retains_at_most_40_bytes_per_edge():
    import repro.serve.server as server_module

    instance = hard_clique_graph(136, 32, seed=1)
    payload = wire_payload(instance)
    edges = len(payload["edges"])
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        instance_hash, record = normalize_instance_payload(payload)
        prepared = server_module._Prepared(record)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert instance_hash == instance.canonical_hash()
    assert prepared.adjacency == record.adjacency
    assert (after - before) / edges <= 40


@pytest.fixture
def fresh_prepared(monkeypatch):
    import repro.serve.server as server_module

    cache = PreparedCache()
    monkeypatch.setattr(server_module, "_PREPARED", cache)
    return cache


# n > 256: ints past CPython's small-int cache are separate objects.
@pytest.fixture(scope="module")
def instance():
    return hard_clique_graph(48, 8, seed=1)


def spec(instance_hash):
    return {
        "key": "k", "instance_hash": instance_hash,
        "method": "baseline-brooks", "seed": None, "epsilon": 0.25,
        "options": {},
    }


@pytest.mark.parametrize("inline", [False, True])
def test_served_rows_share_one_int_per_vertex(
    tmp_path, fresh_prepared, instance, inline
):
    async def scenario():
        config = ServeConfig(unix_path=str(tmp_path / "s.sock"), jobs=0)
        server = ColoringServer(config)
        await server.start()
        client = ServeClient(unix_path=config.unix_path)
        await client.connect()
        try:
            request = {"op": "color", "method": "baseline-brooks"}
            if inline:
                request["instance"] = wire_payload(instance)
            else:
                registered = await client.request(
                    {"op": "register", "instance": wire_payload(instance)}
                )
                request["instance_hash"] = registered["instance_hash"]
            response = await client.request(request)
            assert response["ok"], response
            return server.registry.get(response["instance_hash"])
        finally:
            await client.close()
            await server.close()

    record = asyncio.run(scenario())
    assert distinct_ints(record.adjacency) <= instance.n
    (prepared,) = fresh_prepared._entries.values()
    assert distinct_ints(prepared.adjacency) <= instance.n


def test_unpickled_rows_are_reinterned(fresh_prepared, instance):
    instance_hash, record = normalize_instance_payload(wire_payload(instance))
    # What a pool worker receives: a fresh int per occurrence.
    shipped = pickle.loads(pickle.dumps({instance_hash: record}))
    assert distinct_ints(shipped[instance_hash].adjacency) > instance.n
    (entry,) = execute_batch([spec(instance_hash)], shipped, {instance_hash})
    assert entry["prepared"] == "build" and "result" in entry
    prepared = fresh_prepared._entries[instance_hash]
    assert prepared.adjacency == record.adjacency
    assert distinct_ints(prepared.adjacency) <= instance.n
