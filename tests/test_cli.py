"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.graph.edgelist import save_edges_tsv
from repro.graph.generators import rmat_edges


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_partition_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "--dataset", "pokec", "--method", "nope"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "distributed_ne" in out
        assert "pokec" in out
        assert "roadnet-ca" in out

    def test_partition_dataset_and_inspect(self, tmp_path, capsys):
        out_path = tmp_path / "part.npz"
        code = main(["partition", "--dataset", "pokec",
                     "--method", "random", "-p", "4",
                     "--out", str(out_path)])
        assert code == 0
        assert out_path.exists()
        out = capsys.readouterr().out
        assert "replication factor" in out

        assert main(["inspect", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "method=random" in out

    def test_partition_from_edge_file(self, tmp_path, capsys):
        edges = rmat_edges(8, 4, seed=0)
        path = tmp_path / "edges.tsv"
        save_edges_tsv(path, edges)
        code = main(["partition", "--edges", str(path),
                     "--method", "dbh", "-p", "4"])
        assert code == 0
        assert "method=dbh" in capsys.readouterr().out

    def test_out_of_range_execution_argument_exits_2(self, tmp_path, caplog):
        """A value the partitioner constructor rejects is a usage error
        (message, exit 2), not a traceback."""
        path = tmp_path / "edges.tsv"
        save_edges_tsv(path, rmat_edges(8, 4, seed=0))
        with caplog.at_level("ERROR", logger="repro.cli"):
            code = main(["partition", "--edges", str(path),
                         "--method", "distributed_ne", "-p", "4",
                         "--backend", "processes", "--step-timeout", "-1"])
        assert code == 2
        assert "step_timeout must be positive or None" in caplog.text

    def test_experiment_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "Distributed NE" in out

    def test_experiment_theorem2(self, capsys):
        assert main(["experiment", "theorem2"]) == 0
        assert "upper_bound" in capsys.readouterr().out

    def test_experiment_fig6(self, capsys):
        assert main(["experiment", "fig6", "--dataset", "flickr",
                     "-p", "4"]) == 0
        assert "lambda" in capsys.readouterr().out

    @pytest.fixture
    def saved_partition(self, tmp_path):
        out_path = tmp_path / "part.npz"
        main(["partition", "--dataset", "flickr", "--method", "grid",
              "-p", "4", "--out", str(out_path)])
        return out_path

    def test_app_sssp(self, saved_partition, capsys):
        capsys.readouterr()
        assert main(["app", "sssp", str(saved_partition),
                     "--source", "1"]) == 0
        out = capsys.readouterr().out
        assert "sssp from 1" in out
        assert "communication" in out

    def test_app_wcc(self, saved_partition, capsys):
        capsys.readouterr()
        assert main(["app", "wcc", str(saved_partition)]) == 0
        assert "components" in capsys.readouterr().out

    def test_app_pagerank(self, saved_partition, capsys):
        capsys.readouterr()
        assert main(["app", "pagerank", str(saved_partition),
                     "--iterations", "3"]) == 0
        assert "top vertex" in capsys.readouterr().out

    def test_bench_perf_writes_every_kept_row_measured(self, tmp_path, capsys):
        """``bench perf`` writes one measured row per kept kernel; the
        widths are constants, so a width flag is a usage error."""
        out_path = tmp_path / "kernels.json"
        assert main(["bench", "perf", "--scales", "9",
                     "--out", str(out_path)]) == 0
        rows = json.loads(out_path.read_text())["kernels"]
        assert sorted(row["kernel"] for row in rows) == sorted([
            "dne_one_hop", "dne_two_hop", "dne_two_hop_conflict",
            "dne_selection", "dne_boundary_fold", "hdrf", "fennel",
            "hdrf_p256", "ne_expand", "gather_sum", "gather_min",
            "csr_build", "serving_lookup", "all_gather_sum"])
        for row in rows:
            assert row["repeats"] >= 3 and row["rate"] > 0, row
            assert row["python_seconds"] <= row["python_median_seconds"]
            assert row["vectorized_seconds"] <= \
                row["vectorized_median_seconds"]
            assert min(row["python_spread"], row["vectorized_spread"]) >= 0
        assert "written to" in capsys.readouterr().out
        with pytest.raises(SystemExit) as exc:
            main(["bench", "perf", "--wide-partitions", "8"])
        assert exc.value.code == 2
