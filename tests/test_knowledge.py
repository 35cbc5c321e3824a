"""Embedding, subgraph extraction, retrieval, prompts."""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from floodloop import knowledge as k
from floodloop import mobility as mob
from floodloop.config import WorldConfig
from floodloop.errors import DanglingEdge, EmptyQuery
from floodloop.rng import pystream
from floodloop.semeval import scs, sds
from floodloop.state import StateSummary
from floodloop.world import build_world


def make_node(nid, ntype=k.NodeType.REGION):
    return k.Node(id=nid, type=ntype, attrs=(("label", nid),))


def path_graph(n):
    g = k.KnowledgeGraph()
    for i in range(n):
        g.add_nodes((make_node(f"n{i}"),))
    for i in range(n - 1):
        g.add_edges((k.Edge(f"n{i}", f"n{i+1}", k.EdgeType.ADJACENT),))
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
        k.embed_state("   ", k.HashingEmbedder(k.EMBED_DIM))
    with pytest.raises(EmptyQuery):
        k.HashingEmbedder(k.EMBED_DIM).embed("!!!")


# --- subgraph extraction ------------------------------------------------------------

def edge_lines(text):
    return [line for line in text.splitlines() if line.startswith("edge ")]


def test_hops_zero_single_seed():
    g = path_graph(4)
    keep = k.extract_subgraph(g, ["n1"], 0)
    assert keep == {"n1"}
    assert k.render_subgraph(g, keep) == "node n1 type=region label=n1"


def test_hops_beyond_diameter():
    g = path_graph(5)
    keep = k.extract_subgraph(g, ["n0"], 10)
    assert keep == {f"n{i}" for i in range(5)}
    assert len(edge_lines(k.render_subgraph(g, keep))) == 4


def test_bfs_frontier_oracle_random_graphs():
    rng = np.random.default_rng(17)
    for trial in range(20):
        n = int(rng.integers(5, 60))
        g = k.KnowledgeGraph()
        for i in range(n):
            g.add_nodes((make_node(f"v{i}"),))
        for _ in range(n * 2):
            a, b = rng.integers(0, n, size=2)
            if a != b:
                g.add_edges((k.Edge(f"v{a}", f"v{b}", k.EdgeType.ADJACENT),))
        seeds = [f"v{int(i)}" for i in rng.choice(n, size=min(3, n), replace=False)]
        hops = int(rng.integers(0, 4))

        expected = set(seeds)
        frontier = set(seeds)
        for _ in range(hops):
            frontier = {m for f in frontier for m in g.neighbors(f)} - expected
            expected |= frontier
        keep = k.extract_subgraph(g, seeds, hops)
        assert keep == expected
        # induced: exactly the original edges among retained nodes are rendered
        rendered = set(edge_lines(k.render_subgraph(g, keep)))
        assert rendered == {e.line() for e in g.edges if e.src in expected and e.dst in expected}


def test_absent_seeds_extract_nothing():
    g = path_graph(3)
    for seeds in ([], ["missing"]):
        keep = k.extract_subgraph(g, seeds, 1)
        assert keep == set()
        assert k.render_subgraph(g, keep) == "(none)"


# --- retrieval ------------------------------------------------------------------------

def test_exact_match_ranks_first():
    store = k.SegmentStore(k.HashingEmbedder(32))
    store.extend([("seg:a", "flooding near the river")])
    store.extend([("seg:b", "buses rerouted downtown")])
    query = store.embedder.embed(store.segments[0].text)
    ranked = k.retrieve_topk(query, store, 2)
    assert ranked[0][0].id == "seg:a"
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_k_larger_than_store():
    store = k.SegmentStore(k.HashingEmbedder(k.EMBED_DIM))
    store.extend([("seg:a", "alpha")])
    store.extend([("seg:b", "beta")])
    assert len(k.retrieve_topk(np.ones(64), store, 10)) == 2


def test_empty_store_empty_result():
    assert k.retrieve_topk(np.ones(64), k.SegmentStore(k.HashingEmbedder(k.EMBED_DIM)), 3) == []


def test_ranking_matches_exhaustive_sort():
    rng = np.random.default_rng(23)
    embedder = k.HashingEmbedder(16)
    for trial in range(10):
        store = k.SegmentStore(embedder)
        for i in range(50):
            words = rng.choice(["rain", "flood", "bus", "road", "pump", "region", str(i)], size=4)
            store.extend([(f"seg:{i:02d}", " ".join(words) + f" {trial}")])
        query = embedder.embed("flood region bus")
        ranked = k.retrieve_topk(query, store, 50)

        def cosine(seg):
            e = embedder.embed(seg.text)
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
    store.extend([("seg:b", "identical flood note")])
    store.extend([("seg:a", "identical flood note")])
    store.extend([("seg:c", "identical flood note")])
    query = embedder.embed("identical flood note")
    ranked = k.retrieve_topk(query, store, 3)
    assert [s.id for s, _ in ranked] == ["seg:a", "seg:b", "seg:c"]


def test_ranking_insertion_order_invariant():
    embedder = k.HashingEmbedder(16)
    texts = [(f"seg:{i}", f"note about region {i} and rain") for i in range(10)]
    a = k.SegmentStore(embedder)
    for sid, text in texts:
        a.extend([(sid, text)])
    b = k.SegmentStore(embedder)
    for sid, text in reversed(texts):
        b.extend([(sid, text)])
    query = embedder.embed("region rain")
    assert [s.id for s, _ in k.retrieve_topk(query, a, 5)] == [s.id for s, _ in k.retrieve_topk(query, b, 5)]


# --- prompts ---------------------------------------------------------------------------

def one_region_summary():
    return StateSummary(
        step=1,
        scenario_kind="extreme",
        intensity=0.5,
        region_flood=(0.5,),
        region_congestion=(0.5,),
        region_max_depth=(0.0,),
        region_blocked_roads=(0,),
        region_road_cells=(0,),
        region_worst_road=(None,),
        blocking_depth=0.3,
        flooded_regions=(),
        congested_regions=(),
        targeted_regions=(),
        spawned=0,
        arrived=0,
        cancelled=0,
        enroute=0,
    )


def test_prompt_empty_channels_have_markers():
    summary = one_region_summary()
    p = k.build_prompt(summary, k.KnowledgeGraph(), [], None, set())
    assert p.text.startswith(f"## STATE\n{summary.text}\n## SUBGRAPH\n")
    assert "## SUBGRAPH\n(none)" in p.text
    assert "## SEGMENTS\n(none)" in p.text
    assert "## FEEDBACK\n(none)" in p.text
    assert f"## TASK\n{k.TASK_DIRECTIVE}" in p.text
    assert p.summary is summary and p.feedback is None


def test_prompt_byte_identical():
    g = path_graph(3)
    store = k.SegmentStore(k.HashingEmbedder(k.EMBED_DIM))
    store.extend([("seg:x", "alpha beta")])
    segs = k.retrieve_topk(np.ones(64), store, 1)
    a = k.build_prompt(one_region_summary(), g, segs, None, set(g.nodes))
    b = k.build_prompt(one_region_summary(), g, segs, None, set(g.nodes))
    assert a.text == b.text
    assert a.text.encode() == b.text.encode()


def test_prompt_feedback_roundtrip():
    note = k.FeedbackNote(
        deviation_rms=0.1581,
        metric_deltas=(("c", 0.05), ("r", -0.12)),
        degraded_metrics=("c", "r"),
        rejected_reasons=("routing infeasible: region 3 fully flooded",),
    )
    p = k.build_prompt(one_region_summary(), k.KnowledgeGraph(), [], note, set())
    assert p.feedback is note
    assert "0.158100" in p.text
    assert "degraded_metrics: c, r" in p.text
    assert "routing infeasible: region 3 fully flooded" in p.text


# --- graph update -----------------------------------------------------------------------

def test_update_graph_empty_is_identity():
    g = path_graph(3)
    g2 = k.update_graph(g, [], [])
    assert set(g2.nodes) == set(g.nodes)
    assert len(g2.edges) == len(g.edges)


def test_update_graph_idempotent():
    g = path_graph(2)
    node = make_node("n0")
    g2 = k.update_graph(g, [node], [k.Edge("n0", "n1", k.EdgeType.ADJACENT)])
    assert len(g2.nodes) == len(g.nodes)
    assert len(g2.edges) == len(g.edges)


def test_update_graph_floodspot_reachable():
    g = path_graph(3)
    spot = make_node("floodspot:1", k.NodeType.FLOOD_SPOT)
    g2 = k.update_graph(g, [spot], [k.Edge("floodspot:1", "n1", k.EdgeType.RISKS)])
    assert len(g2.nodes) == len(g.nodes) + 1
    assert len(g2.edges) == len(g.edges) + 1
    assert "floodspot:1" in k.extract_subgraph(g2, ["n1"], 1)
    # source graph untouched
    assert "floodspot:1" not in g.nodes


def test_update_graph_monotone_random():
    rng = np.random.default_rng(5)
    g = path_graph(4)
    for _ in range(20):
        n_before, e_before = len(g.nodes), len(g.edges)
        nid = f"extra{int(rng.integers(0, 8))}"
        g = k.update_graph(g, [make_node(nid)], [k.Edge(nid, "n0", k.EdgeType.CONTAINS)])
        assert len(g.nodes) >= n_before
        assert len(g.edges) >= e_before


def test_dangling_edge_rejected():
    g = path_graph(2)
    with pytest.raises(DanglingEdge):
        k.update_graph(g, [], [k.Edge("n0", "ghost", k.EdgeType.ADJACENT)])


# --- files ---------------------------------------------------------------------------------
# The package only reads these files (`load_graph`, `load_segments`); the
# writers below make them in the format the readers expect.

def graph_to_json(graph: k.KnowledgeGraph) -> dict:
    return {
        "nodes": [
            {"id": n.id, "type": n.type.value, "attributes": dict(n.attrs)}
            for n in (graph.nodes[i] for i in sorted(graph.nodes))
        ],
        "edges": [
            {"src": e.src, "dst": e.dst, "type": e.type.value}
            for e in sorted(graph.edges, key=lambda e: (e.src, e.dst, e.type.value))
        ],
    }


def save_segments(path, store: k.SegmentStore) -> None:
    lines = [json.dumps({"id": s.id, "text": s.text}) for s in store.segments]
    path.write_text("\n".join(lines) + ("\n" if lines else ""))


def test_graph_file_roundtrip(tmp_path):
    g = path_graph(3)
    g.add_nodes((make_node("floodspot:2", k.NodeType.FLOOD_SPOT),))
    g.add_edges((k.Edge("floodspot:2", "n2", k.EdgeType.RISKS),))
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_to_json(g), indent=2))
    back = k.load_graph(path)
    assert set(back.nodes) == set(g.nodes)
    assert set(back.edges) == set(g.edges)
    assert {nid: n.attrs for nid, n in back.nodes.items()} == {nid: n.attrs for nid, n in g.nodes.items()}
    # files written while nodes carried a "feature" embedding still load
    data = graph_to_json(g)
    for rec in data["nodes"]:
        rec["feature"] = [0.6, 0.8]
    assert k.graph_from_json(data).nodes == g.nodes


def test_segments_file_roundtrip(tmp_path):
    store = k.SegmentStore(k.HashingEmbedder(k.EMBED_DIM))
    store.extend([("seg:1", "first note")])
    store.extend([("seg:2", "second note")])
    path = tmp_path / "segments.jsonl"
    save_segments(path, store)
    back = k.load_segments(path, k.HashingEmbedder(k.EMBED_DIM))
    assert [(s.id, s.text) for s in back.segments] == [(s.id, s.text) for s in store.segments]


def test_duplicate_segment_id_rejected():
    store = k.SegmentStore(k.HashingEmbedder(k.EMBED_DIM))
    store.extend([("seg:1", "first")])
    with pytest.raises(ValueError):
        store.extend([("seg:1", "again")])


# --- indexes against the per-call code they replaced -------------------------------------

class EmptySeed(Exception):
    """What `extract_subgraph` raised for a seed set with no node in the
    graph, before that case became an empty set; the oracle raises it."""


def per_call_extract(graph, seed_ids, hops):
    """`extract_subgraph` before the out-edge index, kept verbatim as the oracle."""
    if hops < 0:
        raise ValueError(f"hops must be >= 0, got {hops}")
    seeds = [s for s in seed_ids if s in graph.nodes]
    if not seeds:
        raise EmptySeed("no seed nodes present in the graph")
    retained = set(seeds)
    frontier = set(seeds)
    for _ in range(hops):
        nxt = set()
        for nid in frontier:
            nxt |= graph.neighbors(nid) - retained
        retained |= nxt
        frontier = nxt
        if not frontier:
            break
    sub = k.KnowledgeGraph()
    for nid in sorted(retained):
        sub.add_nodes((graph.nodes[nid],))
    for edge in graph.edges:
        if edge.src in retained and edge.dst in retained:
            sub.add_edges((edge,))
    return sub


def per_call_render(sub):
    """`render_subgraph` before the render index, kept verbatim as the oracle."""
    if sub is None or len(sub.nodes) == 0:
        return "(none)"
    lines = []
    for nid in sorted(sub.nodes):
        node = sub.nodes[nid]
        attrs = " ".join(f"{k}={v}" for k, v in node.attrs)
        lines.append(f"node {nid} type={node.type.value}" + (f" {attrs}" if attrs else ""))
    for edge in sorted(sub.edges, key=lambda e: (e.src, e.dst, e.type.value)):
        lines.append(f"edge {edge.src} -> {edge.dst} type={edge.type.value}")
    return "\n".join(lines)


def per_call_normalized(vec):
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0 else vec


def per_call_retrieve_topk(query, store, k):
    """`retrieve_topk` before segments were normalised once, kept verbatim as the oracle."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    q = per_call_normalized(np.asarray(query, dtype=np.float64))
    scored = []
    for seg in store.segments:
        e = per_call_normalized(np.asarray(store.embedder.embed(seg.text), dtype=np.float64))
        scored.append((seg, float(np.dot(q, e))))
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    return scored[:k]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


# ids whose string order differs from their numeric order
_IDS = ["n0", "n1", "n2", "n10", "n11", "n20", "region:1", "road:row:0", "floodspot:3"]
_EDGES = st.tuples(st.sampled_from(_IDS), st.sampled_from(_IDS), st.sampled_from(list(k.EdgeType)))
_SEEDS = st.lists(st.sampled_from(_IDS + ["ghost"]), max_size=4)
_TEXTS = st.lists(st.sampled_from(["region", "flood", "bus", "7", "42", "pump", "x-y"]), min_size=1, max_size=8).map(" ".join)
_DIMS = st.sampled_from([4, 16, 64])


@st.composite
def graphs(draw):
    """Every id of `_IDS` with a random type and attributes, and random
    edges among them: duplicates and self-loops included."""
    g = k.KnowledgeGraph()
    for nid in _IDS:
        attrs = draw(st.lists(st.tuples(st.sampled_from(["label", "region"]), st.sampled_from(["0", "7", "a b"])), max_size=2))
        g.add_nodes((k.Node(nid, draw(st.sampled_from(list(k.NodeType))), tuple(attrs)),))
    for src, dst, etype in draw(st.lists(_EDGES, max_size=30)):
        g.add_edges((k.Edge(src, dst, etype),))
    return g


def assert_extracts_like_per_call_code(graph, seeds, hops):
    assert k.render_subgraph(graph, set(graph.nodes)) == per_call_render(graph)
    try:
        expected = per_call_extract(graph, seeds, hops)
    except EmptySeed:
        assert k.extract_subgraph(graph, seeds, hops) == set()
        return
    keep = k.extract_subgraph(graph, seeds, hops)
    assert keep == set(expected.nodes)
    assert k.render_subgraph(graph, keep) == per_call_render(expected)
    # a graph built node by node: extracting from the extracted graph again
    again = list(expected.nodes)[:2]
    assert k.render_subgraph(expected, k.extract_subgraph(expected, again, hops)) == per_call_render(
        per_call_extract(expected, again, hops)
    )


@settings(max_examples=300, deadline=None)
@given(graphs(), st.data())
def test_subgraph_text_equals_per_call_code(g, data):
    hops = st.integers(0, 3)
    assert_extracts_like_per_call_code(g, data.draw(_SEEDS), data.draw(hops))
    # grow it after a render: a copy with new nodes and edges, then one edge in place
    spots = data.draw(st.lists(st.sampled_from(["floodspot:3", "floodspot:9"]), max_size=2))
    new_nodes = [k.Node(nid, k.NodeType.FLOOD_SPOT, (("region", "1"),)) for nid in spots]
    ids = sorted(set(_IDS) | set(spots))
    edge = st.tuples(st.sampled_from(ids), st.sampled_from(ids), st.sampled_from(list(k.EdgeType)))
    grown = k.update_graph(g, new_nodes, [k.Edge(*e) for e in data.draw(st.lists(edge, max_size=4))])
    assert_extracts_like_per_call_code(grown, data.draw(_SEEDS), data.draw(hops))
    grown.add_edges((k.Edge(*data.draw(edge)),))
    assert_extracts_like_per_call_code(grown, data.draw(_SEEDS), data.draw(hops))
    assert_extracts_like_per_call_code(g, data.draw(_SEEDS), data.draw(hops))


@settings(max_examples=200, deadline=None)
@given(st.lists(_TEXTS, max_size=25), st.data(), _DIMS)
def test_retrieval_equals_per_call_code_bitwise(texts, data, dim):
    embedder = k.HashingEmbedder(dim)
    store = k.SegmentStore(embedder)
    for i, text in zip(data.draw(st.permutations(range(len(texts)))), texts):
        store.extend([(f"seg:{i:02d}", text)])  # ids out of insertion order; equal texts tie exactly
    query = data.draw(
        st.one_of(_TEXTS.map(embedder.embed), hnp.arrays(np.float64, dim, elements=st.integers(-3, 3).map(float)))
    )
    top_k = data.draw(st.integers(1, 30))
    got = k.retrieve_topk(query, store, top_k)
    expected = per_call_retrieve_topk(query, store, top_k)
    assert [seg.id for seg, _ in got] == [seg.id for seg, _ in expected]
    assert [bits(sim) for _, sim in got] == [bits(sim) for _, sim in expected]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_TEXTS, min_size=2, max_size=6), min_size=1, max_size=5), _DIMS)
def test_scores_of_array_embeddings_equal_tuple_embeddings_bitwise(prompts, dim):
    embedder = k.HashingEmbedder(dim)

    def response_sets(as_row):
        return [tuple(as_row(embedder.embed(t)) for t in texts) for texts in prompts]

    arrays, tuples = response_sets(lambda v: v), response_sets(tuple)
    assert bits(scs(arrays)) == bits(scs(tuples))
    assert bits(sds(arrays)) == bits(sds(tuples))


@settings(max_examples=100, deadline=None)
@given(_TEXTS, _DIMS)
def test_memoised_vector_is_shared_and_read_only(text, dim):
    embedder = k.HashingEmbedder(dim)
    vec = embedder.embed(text)
    assert embedder.embed(text) is vec
    assert vec.tobytes() == k.HashingEmbedder(dim).embed(text).tobytes()
    with pytest.raises(ValueError):
        vec[0] = 1.0


# --- the retrieval shortlist ------------------------------------------------------------
#
# `retrieve_topk` shortlists with one matrix product, whose sums can differ
# in the last bits from the per-row `np.dot`, and re-scores the shortlist
# with `np.dot`; the ranking and every `sim` must stay those of the oracle.


class TableEmbedder:
    """Gives each text the vector its table holds: hand-built rows for a store."""

    def __init__(self, vectors: dict[str, np.ndarray]):
        self.vectors = vectors
        self.dim = len(next(iter(vectors.values())))

    def embed(self, text):
        return self.vectors[text]

    def embed_many(self, texts):
        return np.array([self.vectors[t] for t in texts]).reshape(len(texts), self.dim)


def near_tied_store(size):
    """A unit query and `size` unit rows, each a copy of one base row with
    one entry nudged by a few ulps, added in shuffled id order: their scores
    lie one ulp or a few apart, and the matrix product reorders them."""
    rng = np.random.default_rng(5)
    query = per_call_normalized(rng.standard_normal(k.EMBED_DIM))
    base = per_call_normalized(rng.standard_normal(k.EMBED_DIM))
    vectors = {}
    for j in range(size):
        v = base.copy()
        for _ in range(j // 2):
            v[j % k.EMBED_DIM] = np.nextafter(v[j % k.EMBED_DIM], np.inf if j % 2 else -np.inf)
        vectors[f"row {j}"] = v
    store = k.SegmentStore(TableEmbedder(vectors))
    for j in rng.permutation(size).tolist():
        store.extend([(f"seg:{j:02d}", f"row {j}")])
    return query, store


def assert_retrieves_like_per_call_code(query, store, top_k):
    got = k.retrieve_topk(query, store, top_k)
    expected = per_call_retrieve_topk(query, store, top_k)
    assert [seg.id for seg, _ in got] == [seg.id for seg, _ in expected]
    assert [bits(sim) for _, sim in got] == [bits(sim) for _, sim in expected]


def test_shortlist_keeps_rows_one_ulp_around_the_kth_score():
    query, store = near_tied_store(40)
    exact = [float(np.dot(query, u)) for u in store.units]
    distinct = sorted(set(exact))
    # a real check: exact scores one ulp apart and tied, which the matrix product reorders
    assert any(b == np.nextafter(a, np.inf) for a, b in zip(distinct, distinct[1:]))
    assert len(distinct) < len(exact)
    assert np.any(store.units @ query != np.array(exact))
    for top_k in range(1, len(store) + 2):
        assert_retrieves_like_per_call_code(query, store, top_k)


@pytest.mark.parametrize("size", [k.TOP_K - 1, k.TOP_K, k.TOP_K + 1])
def test_stores_just_below_at_and_above_k_retrieve_like_per_call_code(size):
    query, store = near_tied_store(size)
    assert_retrieves_like_per_call_code(query, store, k.TOP_K)
    assert len(k.retrieve_topk(query, store, k.TOP_K)) == min(size, k.TOP_K)


def test_a_store_grown_after_a_retrieval_is_searched_whole():
    embedder = k.HashingEmbedder(k.EMBED_DIM)
    store = k.SegmentStore(embedder)
    for i in range(12):
        store.extend([(f"seg:{i:02d}", f"region {i} reported standing water after rain")])
    query = embedder.embed("pumps cleared the flooded underpass")
    assert_retrieves_like_per_call_code(query, store, 3)
    store.extend([("seg:new", "pumps cleared the flooded underpass")])
    assert k.retrieve_topk(query, store, 3)[0][0].id == "seg:new"
    assert_retrieves_like_per_call_code(query, store, 3)


def test_a_zero_query_scores_every_segment_zero_and_ranks_by_id():
    query, store = near_tied_store(9)
    ranked = k.retrieve_topk(np.zeros(k.EMBED_DIM), store, 4)
    assert [seg.id for seg, _ in ranked] == ["seg:00", "seg:01", "seg:02", "seg:03"]
    assert [sim for _, sim in ranked] == [0.0] * 4
    assert_retrieves_like_per_call_code(np.zeros(k.EMBED_DIM), store, 4)


# --- bulk builds against the per-item code they replaced --------------------------------


class FormerEmbedder:
    """`HashingEmbedder` before `embed_many`, kept verbatim as the oracle."""

    def __init__(self, dim: int):
        self.dim = dim
        self._slots: dict[str, tuple[int, float]] = {}
        self._vectors: dict[str, np.ndarray] = {}

    def _slot(self, token: str) -> tuple[int, float]:
        h = int.from_bytes(hashlib.blake2b(token.encode(), digest_size=8).digest(), "big")
        slot = self._slots[token] = (h % self.dim, 1.0 if (h >> 63) & 1 else -1.0)
        return slot

    def embed(self, text: str) -> np.ndarray:
        vec = self._vectors.get(text)
        if vec is None:
            vec = self._vectors[text] = self._hash(text)
            vec.flags.writeable = False
        return vec

    def _hash(self, text: str) -> np.ndarray:
        tokens = k._TOKEN_RE.findall(text.lower())
        if not tokens:
            raise EmptyQuery("cannot embed empty text")
        slots = self._slots
        index, sign = zip(*[slots.get(token) or self._slot(token) for token in tokens])
        vec = np.bincount(index, weights=sign, minlength=self.dim)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            # pathological sign cancellation; pin a single deterministic axis
            h = int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")
            vec[h % self.dim] = 1.0
            norm = 1.0
        return vec / norm


def former_add_node(self, node):
    """`KnowledgeGraph.add_node` before `add_nodes`, kept verbatim as the oracle."""
    if node.id in self.nodes:
        return
    self.nodes[node.id] = node
    self._neighbors[node.id] = set()
    self._out[node.id] = {}
    self._rendered = None


def former_add_edge(self, edge):
    """`KnowledgeGraph.add_edge` before `add_edges`, kept verbatim as the oracle."""
    if edge.src not in self.nodes or edge.dst not in self.nodes:
        raise DanglingEdge(f"edge {edge.src}->{edge.dst} references a missing node")
    out = self._out[edge.src]
    key = (edge.dst, edge.type.value)
    if key in out:
        return
    out[key] = edge
    self.edges.append(edge)
    self._neighbors[edge.src].add(edge.dst)
    self._neighbors[edge.dst].add(edge.src)
    self._rendered = None


def former_default_pois(world, n_pois: int, seed: int) -> list[mob.Poi]:
    """`mobility.default_pois` before the road-cell mask, kept verbatim as the oracle."""
    rng = pystream(seed, "pois")
    road = world.road_cells()
    if not road:
        return []
    n = min(n_pois, len(road))
    n_clusters = max(1, n // mob.POI_CLUSTER_SIZE)
    centers = rng.sample(road, n_clusters)
    cells: set = set()
    for center in centers:
        nearby = [c for c in road if abs(c[0] - center[0]) + abs(c[1] - center[1]) <= mob.POI_CLUSTER_RADIUS]
        # the cap honours an n below the cluster size; otherwise it never binds, since
        # before cluster k < n // POI_CLUSTER_SIZE at most k * POI_CLUSTER_SIZE cells exist
        take = min(mob.POI_CLUSTER_SIZE, len(nearby), n - len(cells))
        cells.update(rng.sample(nearby, take))
    while len(cells) < n:
        cells.add(rng.choice(road))
    return [mob.Poi(cell=c, weight=float(rng.randint(1, 5))) for c in sorted(cells)]


# with EMBED_DIM slots both tokens hash to slot 31 with opposite signs
CANCELLING = "rain river"


def test_a_text_whose_tokens_cancel_is_pinned_to_one_axis_on_both_paths():
    embedder = k.HashingEmbedder(k.EMBED_DIM)
    (slot_a, sign_a), (slot_b, sign_b) = (embedder._slot(t) for t in CANCELLING.split())
    assert slot_a == slot_b and sign_a == -sign_b  # the counts cancel: the norm is zero
    h = int.from_bytes(hashlib.blake2b(CANCELLING.encode(), digest_size=8).digest(), "big")
    pinned = np.zeros(k.EMBED_DIM)
    pinned[h % k.EMBED_DIM] = 1.0
    assert embedder.embed(CANCELLING).tobytes() == pinned.tobytes()
    rows = k.HashingEmbedder(k.EMBED_DIM).embed_many(["flood", CANCELLING, "region 7", CANCELLING])
    assert rows[1].tobytes() == rows[3].tobytes() == pinned.tobytes()
    assert rows[1].tobytes() == FormerEmbedder(k.EMBED_DIM).embed(CANCELLING).tobytes()


_ANY_TEXTS = st.lists(st.one_of(_TEXTS, st.just(CANCELLING), st.text(max_size=30)), max_size=12)


@settings(max_examples=200, deadline=None)
@given(_ANY_TEXTS, _DIMS)
def test_embed_many_rows_equal_per_text_hashing_bitwise(texts, dim):
    former = FormerEmbedder(dim)
    embedder = k.HashingEmbedder(dim)
    empty = [i for i, text in enumerate(texts) if not k._TOKEN_RE.findall(text.lower())]
    if empty:
        with pytest.raises(EmptyQuery) as caught:
            embedder.embed_many(texts)
        assert caught.value.position == empty[0]
        return
    rows = embedder.embed_many(texts)
    assert rows.shape == (len(texts), dim)
    if texts:
        with pytest.raises(ValueError):
            rows[..., 0] = 1.0
    for text, row in zip(texts, rows):
        assert row.tobytes() == former._hash(text).tobytes() == embedder.embed(text).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_TEXTS, st.just(CANCELLING)), max_size=25), st.integers(0, 3), _DIMS)
def test_bulk_store_rows_equal_per_segment_normalisation_bitwise(texts, split, dim):
    store = k.SegmentStore(k.HashingEmbedder(dim))
    items = [(f"seg:{i:02d}", text) for i, text in enumerate(texts)]
    store.extend(items[:split])
    store.extend(items[split:])
    former = FormerEmbedder(dim)
    assert [(s.id, s.text) for s in store.segments] == items
    assert [u.tobytes() for u in store.units] == [per_call_normalized(former.embed(t)).tobytes() for t in texts]
    assert store.units.tobytes() == np.array(
        [per_call_normalized(former.embed(t)) for t in texts], dtype=np.float64
    ).reshape(len(texts), dim).tobytes()


def test_a_failed_extend_adds_nothing_and_names_the_segment():
    store = k.SegmentStore(k.HashingEmbedder(k.EMBED_DIM))
    store.extend([("seg:a", "flood")])
    for items, error, message in (
        ([("seg:b", "rain"), ("seg:a", "pump")], ValueError, "line 2: duplicate segment id 'seg:a'"),
        ([("seg:b", "rain"), ("seg:b", "pump")], ValueError, "line 2: duplicate segment id 'seg:b'"),
        ([("seg:b", "rain"), ("seg:c", "?!")], EmptyQuery, "line 2: segment 'seg:c' has no token to embed"),
    ):
        with pytest.raises(error) as caught:
            store.extend(items, ["line 1", "line 2"])
        assert str(caught.value) == message
        assert [s.id for s in store.segments] == ["seg:a"] and len(store.units) == 1 and store._ids == {"seg:a"}
    with pytest.raises(ValueError, match=r"^duplicate segment id 'seg:a'$"):
        store.extend([("seg:a", "again")])


_NODE_IDS = _IDS[:6]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(_NODE_IDS), max_size=4), min_size=1, max_size=4),
    st.lists(st.lists(_EDGES, max_size=12), min_size=1, max_size=4),
    st.booleans(),
)
def test_bulk_inserts_equal_one_at_a_time_inserts(node_batches, edge_batches, render_between):
    bulk, single = k.KnowledgeGraph(), k.KnowledgeGraph()
    for ids, edges in zip(node_batches, edge_batches):
        nodes = [make_node(nid) for nid in ids]
        edges = [k.Edge(*e) for e in edges]
        bulk.add_nodes(nodes)
        for node in nodes:
            former_add_node(single, node)
        errors = []
        for graph, insert in ((bulk, bulk.add_edges), (single, lambda es: [former_add_edge(single, e) for e in es])):
            try:
                insert(edges)
                errors.append(None)
            except DanglingEdge as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        assert bulk.nodes == single.nodes and list(bulk.nodes) == list(single.nodes)
        assert bulk.edges == single.edges
        assert bulk._neighbors == single._neighbors and bulk._out == single._out
        if render_between:
            assert bulk.render_index() == single.render_index()
    assert bulk.render_index() == single.render_index()
    assert k.render_subgraph(bulk, set(bulk.nodes)) == per_call_render(single)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 40), st.integers(4, 40), st.sampled_from([1, 4]), st.integers(1, 6),
    st.integers(0, 10_000), st.integers(0, 80),
)
def test_default_pois_equal_the_former_list_scan(width, height, n_regions, spacing, seed, n_pois):
    world = build_world(WorldConfig(width, height, n_regions, road_spacing=spacing), seed)
    assert mob.default_pois(world, n_pois, seed) == former_default_pois(world, n_pois, seed)
