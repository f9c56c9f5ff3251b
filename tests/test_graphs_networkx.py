"""Cross-checks of the graph substrate against networkx."""

import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.graphs.base import Hypercube, Mesh, Torus
from repro.graphs.networkx_adapter import bfs_distance, to_networkx

from .conftest import small_shapes


class TestMaterialization:
    def test_node_and_edge_counts(self):
        mesh = Mesh((3, 4))
        g = to_networkx(mesh)
        assert g.number_of_nodes() == 12
        assert g.number_of_edges() == mesh.num_edges()
        assert g.graph["kind"] == "mesh"
        assert g.graph["shape"] == (3, 4)

    def test_torus_matches_networkx_generator(self):
        torus = Torus((4, 5))
        ours = to_networkx(torus)
        reference = nx.grid_graph(dim=[5, 4], periodic=True)
        # networkx uses (col, row)-style tuples; compare by isomorphism.
        assert nx.is_isomorphic(ours, reference)

    def test_mesh_matches_networkx_generator(self):
        mesh = Mesh((4, 5))
        reference = nx.grid_graph(dim=[5, 4])
        assert nx.is_isomorphic(to_networkx(mesh), reference)

    def test_hypercube_matches_networkx_generator(self):
        cube = Hypercube(4)
        assert nx.is_isomorphic(to_networkx(cube), nx.hypercube_graph(4))

    def test_size_guard(self):
        with pytest.raises(ValueError):
            to_networkx(Torus((100, 100, 100)), max_nodes=1000)


class TestDistanceAgreement:
    @settings(max_examples=25, deadline=None)
    @given(small_shapes(max_dim=3, max_len=4), st.randoms(), st.booleans())
    def test_analytic_distance_equals_bfs(self, shape, rng, use_torus):
        graph = Torus(shape) if use_torus else Mesh(shape)
        g = to_networkx(graph)
        a = graph.index_node(rng.randrange(graph.size))
        b = graph.index_node(rng.randrange(graph.size))
        assert graph.distance(a, b) == nx.shortest_path_length(g, a, b)

    def test_bfs_distance_helper(self):
        assert bfs_distance(Mesh((4, 2, 3)), (0, 0, 1), (3, 0, 0)) == 4
        assert bfs_distance(Torus((4, 2, 3)), (0, 0, 1), (3, 0, 0)) == 2

    def test_connectedness(self):
        for graph in (Mesh((3, 3, 2)), Torus((3, 3, 2))):
            assert nx.is_connected(to_networkx(graph))


class TestWithoutNetworkx:
    def test_package_imports_and_embeds_without_networkx(self):
        # networkx is a dev extra, not an install requirement.  A None entry
        # in sys.modules makes every `import networkx` raise ImportError.
        script = (
            "import sys\n"
            "sys.modules['networkx'] = None\n"
            "import repro, repro.api, repro.cli\n"
            "print(repro.api.embed('torus:4x6', 'mesh:2x2x2x3').dilation())\n"
            "try:\n"
            "    repro.to_networkx(repro.Mesh((2, 2)))\n"
            "except ImportError:\n"
            "    print('needs networkx')\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        path = [src, os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines() == ["1", "needs networkx"]
