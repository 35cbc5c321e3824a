"""Dual-channel knowledge indexing.

One channel is a typed graph (regions, roads, flood spots) from which
the ids of the seed regions' neighbourhood are extracted, none when no
seed is in the graph; the prompt renders them straight from the graph's
render index. The other is a text segment store with top-K cosine
retrieval. Both feed a hybrid prompt, whose text is rendered when built.

Embeddings come from deterministic feature hashing: no training, no
model downloads, yet identical text always maps to the identical unit
vector. A run's fixed knowledge is built in bulk: the store embeds all
its segments in one hashing pass (`SegmentStore.extend`), and the graph
takes its nodes and edges in one insert pass each (`add_nodes`,
`add_edges`).
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
    """Signed feature hashing (Weinberger et al., ICML 2009) of tokens into
    unit vectors of `dim` entries (`EMBED_DIM` in a run).

    Each token's (slot, sign) is computed once per embedder and memoised.
    `embed_many` embeds a batch in one pass; `embed` is its one-text case
    and memoises each text's vector, since feature hashing is a pure
    function of the text. Every returned vector is read-only.
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
            vec = self._vectors[text] = self._hash((text,), [_TOKEN_RE.findall(text.lower())])
        return vec

    def embed_many(self, texts: Sequence[str]) -> np.ndarray:
        """The unit vectors of `texts`, one read-only row each, not memoised;
        row i equals `embed(texts[i])` bit for bit."""
        if not texts:
            return np.empty((0, self.dim))
        return self._hash(texts, list(map(_TOKEN_RE.findall, map(str.lower, texts)))).reshape(len(texts), self.dim)

    def _hash(self, texts: Sequence[str], tokens: Sequence[list[str]]) -> np.ndarray:
        """The unit vectors of `texts`, given each one's tokens: a vector for
        one text, one row each for more.

        Each token adds its sign at its slot: one `bincount` over
        `row * dim + slot` gives every text's counts. Those are sums of
        ±1, so exact integers, and so are the squared norms in any
        summation order; each row is therefore, bit for bit, its text's
        counts divided by their own norm. One text is normed with scalars,
        which cost less than the row-wise forms. A text with no token
        raises `EmptyQuery` carrying its position in `texts`.
        """
        n, dim = len(texts), self.dim
        if not all(tokens):
            raise EmptyQuery("cannot embed empty text", tokens.index([]))
        slots = self._slots
        index, sign = zip(*[slots.get(token) or self._slot(token) for row in tokens for token in row])
        if n > 1:
            index = np.add(index, np.repeat(np.arange(0, n * dim, dim), list(map(len, tokens))))
        counts = np.bincount(index, weights=sign, minlength=n * dim)
        rows = counts.reshape(n, dim)
        squares = [counts.dot(counts)] if n == 1 else np.einsum("ij,ij->i", rows, rows).tolist()
        if 0.0 in squares:
            for row in [row for row, square in enumerate(squares) if square == 0.0]:
                # pathological sign cancellation; pin a single deterministic axis
                h = int.from_bytes(hashlib.blake2b(texts[row].encode(), digest_size=8).digest(), "big")
                counts[row * dim + h % dim] = 1.0
                squares[row] = 1.0
        if n == 1:
            units = counts / np.sqrt(squares[0])
        else:
            units = rows / np.sqrt(squares)[:, None]
        units.flags.writeable = False
        return units


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

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Insert nodes in order; an id already present keeps its node."""
        known, neighbors, out = self.nodes, self._neighbors, self._out
        before = len(known)
        for node in nodes:
            if node.id not in known:
                known[node.id] = node
                neighbors[node.id] = set()
                out[node.id] = {}
        if len(known) > before:
            self._rendered = None

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Insert edges in order. An edge with an endpoint missing from the
        graph raises `DanglingEdge` once the edges before it are in."""
        nodes, out, neighbors, inserted = self.nodes, self._out, self._neighbors, self.edges
        before = len(inserted)
        try:
            for edge in edges:
                src, dst = edge.src, edge.dst
                if src not in nodes or dst not in nodes:
                    raise DanglingEdge(f"edge {src}->{dst} references a missing node")
                by_key = out[src]
                key = (dst, edge.type.value)
                if key not in by_key:
                    by_key[key] = edge
                    inserted.append(edge)
                    neighbors[src].add(dst)
                    neighbors[dst].add(src)
        finally:
            if len(inserted) > before:
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
    out.add_nodes(new_nodes)
    out.add_edges(new_edges)
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

    `units` holds each segment's unit vector as one row, in insertion
    order; `extend` computes the rows of its segments once and appends
    them.
    """

    def __init__(self, embedder: HashingEmbedder):
        self.embedder = embedder
        self.segments: list[Segment] = []
        self.units = np.empty((0, embedder.dim))
        self._ids: set[str] = set()

    def __len__(self) -> int:
        return len(self.segments)

    def extend(self, items: Iterable[tuple[str, str]], origins: Sequence[str] = ()) -> list[Segment]:
        """Add (id, text) segments in order, all or none.

        An id already in the store or repeated in `items` raises
        `ValueError`, a text with no token `EmptyQuery`; either names the
        segment's id, after its entry of `origins` (a file line, say) when
        given.
        """
        segments = [Segment(id=seg_id, text=text) for seg_id, text in items]

        def where(i: int) -> str:
            return f"{origins[i]}: " if origins else ""

        fresh: set[str] = set()
        for i, seg in enumerate(segments):
            if seg.id in self._ids or seg.id in fresh:
                raise ValueError(f"{where(i)}duplicate segment id {seg.id!r}")
            fresh.add(seg.id)
        try:
            vectors = self.embedder.embed_many([seg.text for seg in segments])
        except EmptyQuery as exc:
            i = exc.position
            raise EmptyQuery(f"{where(i)}segment {segments[i].id!r} has no token to embed", i) from None
        # normalised again, each row by its own `v.dot(v)` as `_normalized` does:
        # for some texts that moves the last bits of the embedder's unit
        # vector, and the retrieval order and `sim=` text read these
        norms = np.sqrt([v.dot(v) for v in vectors])
        self.units = np.concatenate((self.units, vectors / norms[:, None]))
        self.segments += segments
        self._ids |= fresh
        return segments


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
    units = store.units
    approx = units @ q
    rows = range(len(approx))
    if 0 < k < len(approx):
        kth = np.partition(approx, len(approx) - k)[len(approx) - k]
        rows = np.flatnonzero(approx >= kth - SHORTLIST_SLACK).tolist()
    scored = [(store.segments[i], float(np.dot(q, units[i]))) for i in rows]
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
    and `edges` lists; any other top level, or a node's `attributes` that
    is not an object, is a `TypeError`."""
    if not isinstance(data, dict):
        raise TypeError(f"a graph snapshot must be a JSON object, got {type(data).__name__}")
    g = KnowledgeGraph()
    g.add_nodes(map(_node_from_json, data.get("nodes", [])))
    g.add_edges(Edge(src=rec["src"], dst=rec["dst"], type=EdgeType(rec["type"])) for rec in data.get("edges", []))
    return g


def _node_from_json(rec: dict) -> Node:
    node_id, node_type, attributes = rec["id"], NodeType(rec["type"]), rec.get("attributes", {})
    if not isinstance(attributes, dict):
        raise TypeError(f"node {node_id!r}: attributes must be a JSON object, got {type(attributes).__name__}")
    return Node(id=node_id, type=node_type, attrs=tuple(sorted((str(k), str(v)) for k, v in attributes.items())))


def load_graph(path: str | Path) -> KnowledgeGraph:
    return graph_from_json(json.loads(Path(path).read_text()))


def load_segments(path: str | Path, embedder: HashingEmbedder) -> SegmentStore:
    """The store of a JSON-lines file of `{"id": ..., "text": ...}`
    records; blank lines are skipped. Every record error names the
    record's line: a line that is not JSON (`ValueError`, with json's
    column), a record that is not an object (`TypeError`) or lacks its id
    or text (`ValueError`), and, naming its id too, an id or text that is
    not a string, a repeated id and a text with no token."""
    origins, items = [], []
    for number, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"line {number}: {exc.msg} at column {exc.colno}") from None
        if not isinstance(rec, dict):
            raise TypeError(f"line {number}: a segment record must be a JSON object, got {type(rec).__name__}")
        missing = [key for key in ("id", "text") if key not in rec]
        if missing:
            raise ValueError(f"line {number}: segment record has no {' or '.join(missing)}")
        seg_id, text = rec["id"], rec["text"]
        if not isinstance(seg_id, str) or not isinstance(text, str):
            raise TypeError(
                f"line {number}: segment {seg_id!r} needs a string id and text, "
                f"got {type(seg_id).__name__} and {type(text).__name__}"
            )
        origins.append(f"line {number}")
        items.append((seg_id, text))
    store = SegmentStore(embedder)
    store.extend(items, origins)
    return store
