"""Seeded workload inputs and their serial reference answers.

Every input is a fixed-structure dataset analog (built with the registry's
fixed dataset seed) that the workload seed only *relabels* and *reorders*:
vertex ``v`` becomes ``BASE + offset + stride * v`` (ten decimal digits, so
integer order and string order agree and the compiled vertex order is
unchanged) and the edge list is shuffled.  The program therefore sees new
inputs on every seed but does the same work; the self-test checks that the
engine's frame and clique counts do not move.
"""

from __future__ import annotations

import random
from dataclasses import replace
from pathlib import Path

from repro.api import EnumerationOutcome, EnumerationRequest, MiningSession
from repro.datasets import load_dataset
from repro.uncertain.graph import UncertainGraph
from repro.uncertain.io import read_edge_list, write_edge_list

#: Dataset seed of every analog; the workload seed never changes structure.
DATASET_SEED = 2015

#: Label base: ten-digit labels keep string order equal to numeric order.
LABEL_BASE = 10**9


def analog(name: str, scale: float, *, seed: int, dataset_seed: int = DATASET_SEED) -> UncertainGraph:
    """Dataset analog ``name`` relabelled and reordered by ``seed``."""
    graph = load_dataset(name, scale=scale, seed=dataset_seed)
    rng = random.Random(f"{seed}:{name}:{scale}:{dataset_seed}")
    offset = rng.randrange(10**6)
    stride = rng.randrange(1, 64)
    label = {v: LABEL_BASE + offset + stride * v for v in graph.vertices()}
    vertices = list(graph.vertices())
    rng.shuffle(vertices)
    edges = list(graph.edges())
    rng.shuffle(edges)
    out = UncertainGraph()
    for v in vertices:
        out.add_vertex(label[v])
    for u, v, p in edges:
        if rng.random() < 0.5:
            u, v = v, u
        out.add_edge(label[u], label[v], p)
    return out


def write_graph(graph: UncertainGraph, path: Path, *, vertex_type: type) -> UncertainGraph:
    """Write ``graph`` as an edge list and return it as the reader sees it.

    A server reads edge-list files with string labels, so references for
    served graphs are computed on the read-back graph, not the original.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    write_edge_list(graph, path)
    return read_edge_list(path, vertex_type=vertex_type)


def reference(graph: UncertainGraph, request: EnumerationRequest) -> EnumerationOutcome:
    """The serial reference answer: a fresh session on the python kernel."""
    return MiningSession(graph).enumerate(replace(request, kernel="python", workers=1))
