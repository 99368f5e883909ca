"""Seeded synthetic graph dataset written in the TU file convention.

Each graph is a ring over 150-250 nodes plus as many random chords as ring
edges, so the mean degree is about 4. The sizes are spread evenly over that
range and shuffled, so every seed gives the same total of nodes and edges
and a run's figures do not move with the dataset's size. Class 1 draws its
chords between nodes far apart on the ring and skews its node labels
upward; class 0 keeps chords short. Node labels take 7 values. The program under test sees these
graphs only through ``graphdata.parse_tu_dataset``, so the generator depends
on nothing from the package.
"""

from pathlib import Path

import numpy as np

N_LABELS = 7
MIN_NODES, MAX_NODES = 150, 250


def _graph(rng, n, label):
    edges = {(i, (i + 1) % n) for i in range(n)}
    edges |= {(v, u) for u, v in edges}
    reach = n // 2 if label else 8
    while len(edges) < 4 * n:
        u = int(rng.integers(n))
        v = (u + int(rng.integers(2, reach + 1))) % n
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            edges.add((v, u))
    probs = np.arange(1, N_LABELS + 1, dtype=float)
    probs = probs if label else probs[::-1]
    node_labels = rng.choice(N_LABELS, size=n, p=probs / probs.sum())
    return sorted(edges), node_labels


def write_tu(folder, name, n_graphs, seed):
    """Write ``n_graphs`` graphs as ``name``'s TU files under ``folder``.

    Byte-identical output for the same arguments. Returns the folder.
    """
    rng = np.random.default_rng(seed)
    folder = Path(folder)
    folder.mkdir(parents=True, exist_ok=True)
    a_lines, ind_lines, node_lines, graph_lines = [], [], [], []
    sizes = rng.permutation(
        np.linspace(MIN_NODES, MAX_NODES, n_graphs).round().astype(int))
    offset = 0
    for g, n in enumerate(sizes.tolist()):
        label = g % 2
        edges, node_labels = _graph(rng, n, label)
        a_lines.extend(f"{offset + u + 1}, {offset + v + 1}" for u, v in edges)
        ind_lines.extend([str(g + 1)] * n)
        node_lines.extend(str(int(x)) for x in node_labels)
        graph_lines.append(str(label))
        offset += n
    for suffix, lines in (("A", a_lines), ("graph_indicator", ind_lines),
                          ("graph_labels", graph_lines),
                          ("node_labels", node_lines)):
        (folder / f"{name}_{suffix}.txt").write_text("\n".join(lines) + "\n")
    return folder
