"""Tests for partition serialisation (save/load roundtrip)."""

import numpy as np
import pytest

from repro.core import DistributedNE
from repro.partitioners.hashing import RandomPartitioner
from repro.partitioners.io import load_partition, save_partition


class TestRoundtrip:
    def test_assignment_preserved(self, small_rmat, tmp_path):
        part = RandomPartitioner(8, seed=0).partition(small_rmat)
        path = tmp_path / "p.npz"
        save_partition(path, part)
        loaded = load_partition(path)
        assert np.array_equal(loaded.assignment, part.assignment)
        assert np.array_equal(loaded.graph.edges, part.graph.edges)

    def test_metadata_preserved(self, small_rmat, tmp_path):
        part = RandomPartitioner(8, seed=0).partition(small_rmat)
        path = tmp_path / "p.npz"
        save_partition(path, part)
        loaded = load_partition(path)
        assert loaded.method == "random"
        assert loaded.num_partitions == 8
        assert loaded.elapsed_seconds == pytest.approx(part.elapsed_seconds)

    def test_metrics_identical_after_roundtrip(self, small_rmat, tmp_path):
        part = DistributedNE(4, seed=0).partition(small_rmat)
        path = tmp_path / "p.npz"
        save_partition(path, part)
        loaded = load_partition(path)
        assert loaded.replication_factor() == pytest.approx(
            part.replication_factor())
        assert loaded.edge_balance() == pytest.approx(part.edge_balance())

    def test_extra_survives_json_encoding(self, small_rmat, tmp_path):
        """DistributedNE's extra contains nested dicts and numpy
        scalars; they must come back JSON-clean."""
        part = DistributedNE(4, seed=0).partition(small_rmat)
        path = tmp_path / "p.npz"
        save_partition(path, part)
        loaded = load_partition(path)
        assert loaded.extra["lambda"] == pytest.approx(0.1)
        assert "cluster" in loaded.extra
        assert loaded.extra["cluster"]["barriers"] == \
            part.extra["cluster"]["barriers"]

    def test_isolated_vertices_preserved(self, tmp_path):
        from repro.graph.csr import CSRGraph
        g = CSRGraph(np.array([[0, 1]]), num_vertices=10)
        part = RandomPartitioner(2, seed=0).partition(g)
        path = tmp_path / "p.npz"
        save_partition(path, part)
        loaded = load_partition(path)
        assert loaded.graph.num_vertices == 10

    def test_bad_version_rejected(self, small_rmat, tmp_path):
        import json
        part = RandomPartitioner(2, seed=0).partition(small_rmat)
        path = tmp_path / "p.npz"
        save_partition(path, part)
        # Corrupt the version field.
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["format_version"] = 999
        data["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                     dtype=np.uint8)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError):
            load_partition(path)

    @pytest.mark.parametrize("bad", ["5", 5.5, True])
    def test_non_integral_num_vertices_rejected(self, small_rmat, tmp_path,
                                                bad):
        """A crafted file's ``num_vertices`` is checked, not truncated."""
        import json
        part = RandomPartitioner(2, seed=0).partition(small_rmat)
        path = tmp_path / "p.npz"
        save_partition(path, part)
        data = dict(np.load(path))
        meta = json.loads(bytes(data["meta"]).decode())
        meta["num_vertices"] = bad
        data["meta"] = np.frombuffer(json.dumps(meta).encode(),
                                     dtype=np.uint8)
        np.savez_compressed(path, **data)
        with pytest.raises(ValueError, match="num_vertices must be an "
                           f"integer, got {bad!r}"):
            load_partition(path)
