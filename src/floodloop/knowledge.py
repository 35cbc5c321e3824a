"""Dual-channel knowledge indexing.

One channel is a typed graph (regions, roads, flood spots) from which
the ids of the seed regions' neighbourhood are extracted, none when no
seed is in the graph; the prompt renders them straight from the graph's
render index. The other is a text segment store with top-K cosine
retrieval. Both feed a hybrid prompt, whose text is rendered when built.

Embeddings come from deterministic feature hashing: no training, no
model downloads, yet identical text always maps to the identical unit
vector.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import AbstractSet, Iterable, Sequence

import numpy as np

from .errors import DanglingEdge, EmptyQuery
from .state import StateSummary

_TOKEN_RE = re.compile(r"[a-z0-9]+")

EMBED_DIM = 64  # entries of every embedding a run makes
TOP_K = 5  # segments retrieved into each prompt

TASK_DIRECTIVE = (
    "Coordinate flood dispatch for the coming cycle: lower flood exposure and "
    "congestion, avoid trip cancellations, and keep arrivals on time."
)


class HashingEmbedder:
    """Signed feature hashing of tokens into a unit vector of `dim`
    entries (`EMBED_DIM` in a run).

    Each token's (slot, sign) and each text's vector are computed once per
    embedder and memoised; feature hashing is a pure function of the text.
    The returned vectors are shared, so they are read-only.
    """

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
        tokens = _TOKEN_RE.findall(text.lower())
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


def embed_state(summary_text: str, embedder: HashingEmbedder) -> np.ndarray:
    """Encode a state summary into the query vector used for retrieval."""
    return embedder.embed(summary_text)


class NodeType(str, Enum):
    REGION = "region"
    ROAD = "road"
    FLOOD_SPOT = "flood_spot"


class EdgeType(str, Enum):
    ADJACENT = "adjacent"
    CONTAINS = "contains"
    RISKS = "risks"


@dataclass(frozen=True)
class Node:
    id: str
    type: NodeType
    attrs: tuple[tuple[str, str], ...]

    def line(self) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in self.attrs)
        return f"node {self.id} type={self.type.value}" + (f" {attrs}" if attrs else "")


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    type: EdgeType

    def line(self) -> str:
        return f"edge {self.src} -> {self.dst} type={self.type.value}"


# per node id, in id order: the node's line, then (dst, line) of its
# out-edges in (dst, type) order; concatenated, they render the graph
RenderIndex = dict[str, tuple[str, list[tuple[str, str]]]]


class KnowledgeGraph:
    """Typed directed graph; duplicate (src, dst, type) triples are ignored.

    Beside its node and edge lists it keeps an out-edge index, source ->
    (dst, type) -> edge, and a render index that is built on first use and
    dropped by any change.
    """

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.edges: list[Edge] = []
        self._neighbors: dict[str, set[str]] = {}
        self._out: dict[str, dict[tuple[str, str], Edge]] = {}
        self._rendered: RenderIndex | None = None

    def __contains__(self, node_id: str) -> bool:
        return node_id in self.nodes

    def n_nodes(self) -> int:
        return len(self.nodes)

    def n_edges(self) -> int:
        return len(self.edges)

    def add_node(self, node: Node) -> None:
        if node.id in self.nodes:
            return
        self.nodes[node.id] = node
        self._neighbors[node.id] = set()
        self._out[node.id] = {}
        self._rendered = None

    def add_edge(self, edge: Edge) -> None:
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

    def neighbors(self, node_id: str) -> set[str]:
        """Undirected neighbor view used by extraction."""
        return self._neighbors.get(node_id, set())

    def copy(self) -> "KnowledgeGraph":
        g = KnowledgeGraph()
        g.nodes = dict(self.nodes)
        g.edges = list(self.edges)
        g._neighbors = {k: set(v) for k, v in self._neighbors.items()}
        g._out = {k: dict(v) for k, v in self._out.items()}
        g._rendered = self._rendered  # never changed in place, only dropped
        return g

    def render_index(self) -> RenderIndex:
        if self._rendered is None:
            self._rendered = {
                nid: (self.nodes[nid].line(), [(dst, e.line()) for (dst, _), e in sorted(self._out[nid].items())])
                for nid in sorted(self.nodes)
            }
        return self._rendered


def update_graph(graph: KnowledgeGraph, new_nodes: Iterable[Node], new_edges: Iterable[Edge]) -> KnowledgeGraph:
    """Union update: G' = G + new nodes + new edges. Idempotent; existing
    ids and duplicate edge triples are left untouched."""
    out = graph.copy()
    for node in new_nodes:
        out.add_node(node)
    for edge in new_edges:
        out.add_edge(edge)
    return out


def _normalized(vec: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(vec))
    return vec / norm if norm > 0 else vec


def extract_subgraph(graph: KnowledgeGraph, seed_ids: Sequence[str], hops: int) -> set[str]:
    """Ids of every node within `hops` of the seeds present in the graph, if
    any: the node set of the subgraph `render_subgraph(graph, ids)` renders."""
    seeds = [s for s in seed_ids if s in graph.nodes]
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
    return retained


@dataclass(frozen=True)
class Segment:
    id: str
    text: str


class SegmentStore:
    """Flat store of text segments with their embeddings; ids are unique.

    Each segment's unit vector is computed once, when it is added; their
    stack, one row per segment, is built on first use and dropped by `add`.
    """

    def __init__(self, embedder: HashingEmbedder):
        self.embedder = embedder
        self.segments: list[Segment] = []
        self._units: list[np.ndarray] = []
        self._stacked: np.ndarray | None = None
        self._ids: set[str] = set()

    def __len__(self) -> int:
        return len(self.segments)

    def add(self, seg_id: str, text: str) -> Segment:
        if seg_id in self._ids:
            raise ValueError(f"duplicate segment id {seg_id!r}")
        seg = Segment(id=seg_id, text=text)
        self.segments.append(seg)
        # normalised again: for some texts that moves the last bits of the
        # embedder's unit vector, and the retrieval order and `sim=` text read these
        self._units.append(_normalized(self.embedder.embed(text)))
        self._stacked = None
        self._ids.add(seg_id)
        return seg

    def units(self) -> np.ndarray:
        if self._stacked is None:
            self._stacked = np.array(self._units, dtype=np.float64).reshape(len(self._units), self.embedder.dim)
        return self._stacked


# how far below the k-th shortlist score a row may score and still be
# re-scored: far above the ~1e-14 by which two summation orders of a
# dot product of unit vectors can differ
SHORTLIST_SLACK = 1e-9


def retrieve_topk(query: np.ndarray, store: SegmentStore, k: int) -> list[tuple[Segment, float]]:
    """Segments ranked by descending cosine similarity, ties by ascending id.

    One matrix product scores every segment and shortlists those within
    `SHORTLIST_SLACK` of the k-th best; only the shortlist is re-scored
    with the per-segment `np.dot` whose value the order and the prompt's
    `sim=` text show. Every member of the exact top k, and every exact tie
    with its last member, is on the shortlist.
    """
    q = _normalized(np.asarray(query, dtype=np.float64))
    units = store.units()
    approx = units @ q
    rows = range(len(approx))
    if 0 < k < len(approx):
        kth = np.partition(approx, len(approx) - k)[len(approx) - k]
        rows = np.flatnonzero(approx >= kth - SHORTLIST_SLACK).tolist()
    scored = [(store.segments[i], float(np.dot(q, store._units[i]))) for i in rows]
    scored.sort(key=lambda pair: (-pair[1], pair[0].id))
    return scored[:k]


@dataclass(frozen=True)
class FeedbackNote:
    """Symbolic failure feedback carried into the next cycle's prompt."""

    deviation_rms: float
    metric_deltas: tuple[tuple[str, float], ...]
    degraded_metrics: tuple[str, ...]
    rejected_reasons: tuple[str, ...]


@dataclass(frozen=True)
class HybridPrompt:
    """Canonical fusion of state, subgraph, retrieved text, task and feedback.

    `text` is the canonical serialization sent to external backends; equal
    inputs yield byte-identical text. `feedback` and the structured
    `summary` are kept so local backends can read them without parsing.
    """

    text: str
    feedback: FeedbackNote | None
    summary: StateSummary = field(compare=False)


def _render_feedback(note: FeedbackNote | None) -> str:
    if note is None:
        return "(none)"
    lines = [f"deviation_rms: {note.deviation_rms:.6f}"]
    deltas = " ".join(f"{k}={v:+.6f}" for k, v in note.metric_deltas)
    lines.append(f"metric_deltas: {deltas if deltas else '(none)'}")
    lines.append(f"degraded_metrics: {', '.join(note.degraded_metrics) if note.degraded_metrics else '(none)'}")
    if note.rejected_reasons:
        lines.append("rejected_instructions:")
        lines.extend(f"  - {r}" for r in note.rejected_reasons)
    else:
        lines.append("rejected_instructions: (none)")
    return "\n".join(lines)


def render_subgraph(graph: KnowledgeGraph, keep: AbstractSet[str]) -> str:
    """The subgraph of `graph` induced on `keep`: node lines in id order,
    then edge lines in (src, dst, type) order."""
    if not keep:
        return "(none)"
    index = graph.render_index()
    rendered = [index[nid] for nid in sorted(keep)]
    nodes = "\n".join(line for line, _ in rendered)
    edges = "\n".join(line for _, edge_lines in rendered for dst, line in edge_lines if dst in keep)
    return f"{nodes}\n{edges}" if edges else nodes


def render_segments(segments: Sequence[tuple[Segment, float]]) -> str:
    if not segments:
        return "(none)"
    return "\n".join(f"[{seg.id}] (sim={sim:.4f}) {seg.text}" for seg, sim in segments)


def build_prompt(
    summary: StateSummary,
    graph: KnowledgeGraph,
    segments: Sequence[tuple[Segment, float]],
    feedback: FeedbackNote | None,
    keep: AbstractSet[str],
) -> HybridPrompt:
    """Assemble the hybrid prompt; every section is always present, with an
    explicit (none) marker when a channel is empty. The subgraph section
    renders `graph` induced on `keep`."""
    sections = (
        ("STATE", summary.text),
        ("SUBGRAPH", render_subgraph(graph, keep)),
        ("SEGMENTS", render_segments(segments)),
        ("TASK", TASK_DIRECTIVE),
        ("FEEDBACK", _render_feedback(feedback)),
    )
    return HybridPrompt("".join(f"## {name}\n{body}\n" for name, body in sections), feedback, summary)


# --- snapshot files -------------------------------------------------------

def graph_from_json(data: dict) -> KnowledgeGraph:
    """The graph of a snapshot record: a JSON object with optional `nodes`
    and `edges` lists; any other top level is a `TypeError`."""
    if not isinstance(data, dict):
        raise TypeError(f"a graph snapshot must be a JSON object, got {type(data).__name__}")
    g = KnowledgeGraph()
    for rec in data.get("nodes", []):
        g.add_node(
            Node(
                id=rec["id"],
                type=NodeType(rec["type"]),
                attrs=tuple(sorted((str(k), str(v)) for k, v in rec.get("attributes", {}).items())),
            )
        )
    for rec in data.get("edges", []):
        g.add_edge(Edge(src=rec["src"], dst=rec["dst"], type=EdgeType(rec["type"])))
    return g


def load_graph(path: str | Path) -> KnowledgeGraph:
    return graph_from_json(json.loads(Path(path).read_text()))


def load_segments(path: str | Path, embedder: HashingEmbedder) -> SegmentStore:
    store = SegmentStore(embedder)
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        store.add(rec["id"], rec["text"])
    return store
