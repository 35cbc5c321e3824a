"""Embedding, subgraph extraction, retrieval, prompts."""

from __future__ import annotations

import numpy as np
import pytest

from floodloop import knowledge as k
from floodloop.errors import (
    DanglingEdge,
    EmptyQuery,
    EmptySeed,
    MissingTask,
)


def make_node(nid, ntype=k.NodeType.REGION):
    return k.Node(id=nid, type=ntype, attrs=(("label", nid),))


def path_graph(n):
    g = k.KnowledgeGraph()
    for i in range(n):
        g.add_node(make_node(f"n{i}"))
    for i in range(n - 1):
        g.add_edge(k.Edge(f"n{i}", f"n{i+1}", k.EdgeType.ADJACENT))
    return g


# --- embedding -----------------------------------------------------------------

def test_embed_deterministic():
    e = k.HashingEmbedder(32)
    a = e.embed("region 7 flooded under heavy rain")
    b = e.embed("region 7 flooded under heavy rain")
    assert np.array_equal(a, b)


def test_embed_unit_norm():
    e = k.HashingEmbedder(64)
    for text in ("a", "region 5", "pumps deployed three times", "x " * 100):
        assert np.linalg.norm(e.embed(text)) == pytest.approx(1.0, abs=1e-9)


def test_embed_one_token_difference():
    e = k.HashingEmbedder(64)
    a = e.embed("reroute buses around region 5")
    b = e.embed("reroute buses around region 6")
    assert float(np.dot(a, b)) < 1.0 - 1e-6


def test_embed_state_empty_rejected():
    with pytest.raises(EmptyQuery):
        k.embed_state("   ")
    with pytest.raises(EmptyQuery):
        k.HashingEmbedder().embed("!!!")


# --- subgraph extraction ------------------------------------------------------------

def test_hops_zero_single_seed():
    g = path_graph(4)
    sub = k.extract_subgraph(g, ["n1"], 0)
    assert set(sub.nodes) == {"n1"}
    assert sub.n_edges() == 0


def test_hops_beyond_diameter():
    g = path_graph(5)
    sub = k.extract_subgraph(g, ["n0"], 10)
    assert set(sub.nodes) == {f"n{i}" for i in range(5)}
    assert sub.n_edges() == 4


def test_bfs_frontier_oracle_random_graphs():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        g = k.KnowledgeGraph()
        for i in range(n):
            g.add_node(make_node(f"v{i}"))
        for _ in range(n * 2):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                g.add_edge(k.Edge(f"v{a}", f"v{b}", k.EdgeType.ADJACENT))
        seeds = [f"v{int(i)}" for i in rng.choice(n, size=min(3, n), replace=False)]
        hops = int(rng.integers(0, 4))

        expected = set(seeds)
        frontier = set(seeds)
        for _ in range(hops):
            frontier = {m for f in frontier for m in g.neighbors(f)} - expected
            expected |= frontier
        sub = k.extract_subgraph(g, seeds, hops)
        assert set(sub.nodes) == expected
        for edge in g.edges:  # induced: every original edge among retained nodes kept
            if edge.src in expected and edge.dst in expected:
                assert (edge.src, edge.dst, edge.type.value) in sub._edge_keys


def test_empty_seed_rejected():
    g = path_graph(3)
    with pytest.raises(EmptySeed):
        k.extract_subgraph(g, ["missing"], 1)


# --- retrieval ------------------------------------------------------------------------

def test_exact_match_ranks_first():
    store = k.SegmentStore(k.HashingEmbedder(32))
    store.add("seg:a", "flooding near the river")
    store.add("seg:b", "buses rerouted downtown")
    query = np.asarray(store.segments[0].embedding)
    ranked = k.retrieve_topk(query, store, 2)
    assert ranked[0][0].id == "seg:a"
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_k_larger_than_store():
    store = k.SegmentStore()
    store.add("seg:a", "alpha")
    store.add("seg:b", "beta")
    assert len(k.retrieve_topk(np.ones(64), store, 10)) == 2


def test_empty_store_empty_result():
    assert k.retrieve_topk(np.ones(64), k.SegmentStore(), 3) == []


def test_ranking_matches_exhaustive_sort():
    rng = np.random.default_rng(23)
    embedder = k.HashingEmbedder(16)
    for trial in range(10):
        store = k.SegmentStore(embedder)
        for i in range(50):
            words = rng.choice(["rain", "flood", "bus", "road", "pump", "region", str(i)], size=4)
            store.add(f"seg:{i:02d}", " ".join(words) + f" {trial}")
        query = embedder.embed("flood region bus")
        ranked = k.retrieve_topk(query, store, 50)

        def cosine(seg):
            e = np.asarray(seg.embedding)
            return float(np.dot(query, e) / (np.linalg.norm(query) * np.linalg.norm(e)))

        # brute-force oracle at float resolution: similarities must agree,
        # descend monotonically, and exact ties must break by ascending id
        for seg, sim in ranked:
            assert sim == pytest.approx(cosine(seg), abs=1e-9)
        for (sa, na), (sb, nb) in zip(ranked, ranked[1:]):
            assert nb <= na + 1e-12
            if nb == na:
                assert sa.id < sb.id
        expected_ids = {s.id for s in store.segments}
        assert {seg.id for seg, _ in ranked} == expected_ids


def test_ranking_exact_ties_break_by_id():
    embedder = k.HashingEmbedder(16)
    store = k.SegmentStore(embedder)
    store.add("seg:b", "identical flood note")
    store.add("seg:a", "identical flood note")
    store.add("seg:c", "identical flood note")
    query = embedder.embed("identical flood note")
    ranked = k.retrieve_topk(query, store, 3)
    assert [s.id for s, _ in ranked] == ["seg:a", "seg:b", "seg:c"]


def test_ranking_insertion_order_invariant():
    embedder = k.HashingEmbedder(16)
    texts = [(f"seg:{i}", f"note about region {i} and rain") for i in range(10)]
    a = k.SegmentStore(embedder)
    for sid, text in texts:
        a.add(sid, text)
    b = k.SegmentStore(embedder)
    for sid, text in reversed(texts):
        b.add(sid, text)
    query = embedder.embed("region rain")
    assert [s.id for s, _ in k.retrieve_topk(query, a, 5)] == [s.id for s, _ in k.retrieve_topk(query, b, 5)]


def test_bad_k():
    with pytest.raises(ValueError):
        k.retrieve_topk(np.ones(8), k.SegmentStore(), 0)


# --- prompts ---------------------------------------------------------------------------

def test_prompt_empty_channels_have_markers():
    p = k.build_prompt("step: 1", None, [], "do the thing")
    assert "## SUBGRAPH\n(none)" in p.text
    assert "## SEGMENTS\n(none)" in p.text
    assert "## FEEDBACK\n(none)" in p.text
    assert "## TASK\ndo the thing" in p.text


def test_prompt_byte_identical():
    g = path_graph(3)
    store = k.SegmentStore()
    store.add("seg:x", "alpha beta")
    segs = k.retrieve_topk(np.ones(64), store, 1)
    a = k.build_prompt("state", g, segs, "task", None)
    b = k.build_prompt("state", g, segs, "task", None)
    assert a.text == b.text
    assert a.text.encode() == b.text.encode()


def test_prompt_feedback_roundtrip():
    note = k.FeedbackNote(
        deviation_rms=0.1581,
        metric_deltas=(("c", 0.05), ("r", -0.12)),
        degraded_metrics=("c", "r"),
        rejected_reasons=("routing infeasible: region 3 fully flooded",),
    )
    p = k.build_prompt("state", None, [], "task", note)
    assert "0.158100" in p.text
    assert "degraded_metrics: c, r" in p.text
    assert "routing infeasible: region 3 fully flooded" in p.text


def test_prompt_requires_task():
    with pytest.raises(MissingTask):
        k.build_prompt("state", None, [], "  ")


# --- graph update -----------------------------------------------------------------------

def test_update_graph_empty_is_identity():
    g = path_graph(3)
    g2 = k.update_graph(g)
    assert set(g2.nodes) == set(g.nodes)
    assert g2.n_edges() == g.n_edges()


def test_update_graph_idempotent():
    g = path_graph(2)
    node = make_node("n0")
    g2 = k.update_graph(g, [node], [k.Edge("n0", "n1", k.EdgeType.ADJACENT)])
    assert g2.n_nodes() == g.n_nodes()
    assert g2.n_edges() == g.n_edges()


def test_update_graph_floodspot_reachable():
    g = path_graph(3)
    spot = make_node("floodspot:1", k.NodeType.FLOOD_SPOT)
    g2 = k.update_graph(g, [spot], [k.Edge("floodspot:1", "n1", k.EdgeType.RISKS)])
    assert g2.n_nodes() == g.n_nodes() + 1
    assert g2.n_edges() == g.n_edges() + 1
    sub = k.extract_subgraph(g2, ["n1"], 1)
    assert "floodspot:1" in sub.nodes
    # source graph untouched
    assert "floodspot:1" not in g.nodes


def test_update_graph_monotone_random():
    rng = np.random.default_rng(5)
    g = path_graph(4)
    for _ in range(20):
        n_before, e_before = g.n_nodes(), g.n_edges()
        nid = f"extra{int(rng.integers(0, 8))}"
        g = k.update_graph(g, [make_node(nid)], [k.Edge(nid, "n0", k.EdgeType.CONTAINS)])
        assert g.n_nodes() >= n_before
        assert g.n_edges() >= e_before


def test_dangling_edge_rejected():
    g = path_graph(2)
    with pytest.raises(DanglingEdge):
        k.update_graph(g, [], [k.Edge("n0", "ghost", k.EdgeType.ADJACENT)])


# --- files ---------------------------------------------------------------------------------

def test_graph_file_roundtrip(tmp_path):
    g = path_graph(3)
    g.add_node(make_node("floodspot:2", k.NodeType.FLOOD_SPOT))
    g.add_edge(k.Edge("floodspot:2", "n2", k.EdgeType.RISKS))
    path = tmp_path / "graph.json"
    k.save_graph(path, g)
    back = k.load_graph(path)
    assert set(back.nodes) == set(g.nodes)
    assert back._edge_keys == g._edge_keys
    assert {nid: n.attrs for nid, n in back.nodes.items()} == {nid: n.attrs for nid, n in g.nodes.items()}
    # files written while nodes carried a "feature" embedding still load
    data = k.graph_to_json(g)
    for rec in data["nodes"]:
        rec["feature"] = [0.6, 0.8]
    assert k.graph_from_json(data).nodes == g.nodes


def test_segments_file_roundtrip(tmp_path):
    store = k.SegmentStore()
    store.add("seg:1", "first note")
    store.add("seg:2", "second note")
    path = tmp_path / "segments.jsonl"
    k.save_segments(path, store)
    back = k.load_segments(path)
    assert [(s.id, s.text) for s in back.segments] == [(s.id, s.text) for s in store.segments]


def test_duplicate_segment_id_rejected():
    store = k.SegmentStore()
    store.add("seg:1", "first")
    with pytest.raises(ValueError):
        store.add("seg:1", "again")
