"""CLI driver (python -m repro)."""

import pytest

from repro.cli import build_dist_parser, build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.dataset == "reddit-sim"
        assert args.sampling_rate == 0.1
        assert args.partition_objective == "volume"

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--dataset", "imagenet"])

    def test_rejects_unknown_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--model", "transformer"])


SMALL = [
    "--scale", "0.05", "--n-partitions", "2", "--n-epochs", "3",
    "--eval-every", "2", "--quiet", "--n-hidden", "8",
]


class TestEndToEnd:
    def test_sage_bns(self, capsys):
        assert main(SMALL + ["--sampling-rate", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "test score" in out
        assert "comm / epoch" in out

    def test_vanilla_p1(self, capsys):
        assert main(SMALL + ["--sampling-rate", "1.0"]) == 0

    def test_gcn_model(self, capsys):
        assert main(SMALL + ["--model", "gcn"]) == 0

    def test_gat_model(self, capsys):
        assert main(SMALL + ["--model", "gat", "--n-layers", "2"]) == 0

    def test_bes_sampler(self, capsys):
        assert main(SMALL + ["--sampler", "bes", "--sampling-rate", "0.3"]) == 0

    def test_dropedge_sampler(self, capsys):
        assert main(SMALL + ["--sampler", "dropedge", "--sampling-rate", "0.5"]) == 0

    def test_random_partition(self, capsys):
        assert main(SMALL + ["--partition-method", "random"]) == 0

    def test_cut_objective(self, capsys):
        assert main(SMALL + ["--partition-objective", "cut"]) == 0


DIST_SMALL = [
    "dist-train", "--scale", "0.05", "--n-partitions", "2",
    "--n-epochs", "2", "--n-hidden", "8", "--dropout", "0.0", "--quiet",
]


class TestDistTrain:
    def test_dist_parser_defaults(self):
        args = build_dist_parser().parse_args([])
        assert args.transport == "multiprocess"
        assert args.schedule == "synchronous"

    def test_rejects_unknown_transport(self):
        with pytest.raises(SystemExit):
            build_dist_parser().parse_args(["--transport", "carrier-pigeon"])

    def test_rejects_the_removed_allreduce_flag(self):
        """The ring is the only AllReduce; ``--allreduce`` is gone."""
        with pytest.raises(SystemExit):
            build_dist_parser().parse_args(["--allreduce", "ring"])

    def test_rejects_unknown_schedule(self):
        with pytest.raises(SystemExit):
            build_dist_parser().parse_args(["--schedule", "eager"])

    @pytest.mark.parametrize("subcommand", [[], ["dist-train"]])
    def test_rejects_the_removed_kernel_backend_flag(self, subcommand, capsys):
        """The fused kernel is the only SpMM kernel; ``--kernel-backend``
        is gone from both subcommands."""
        with pytest.raises(SystemExit) as exc:
            main(subcommand + ["--kernel-backend", "numpy"])
        assert exc.value.code == 2
        assert "--kernel-backend" in capsys.readouterr().err

    def test_pipelined_schedule_end_to_end(self, capsys):
        assert main(DIST_SMALL + ["--transport", "local",
                                  "--schedule", "pipelined",
                                  "--sampling-rate", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "pipelined" in out
        assert "blocked in recv" in out

    def test_local_transport_end_to_end(self, capsys):
        assert main(DIST_SMALL + ["--transport", "local"]) == 0
        out = capsys.readouterr().out
        assert "dist-train summary" in out
        assert "bytes [reduce]" in out

    def test_multiprocess_transport_end_to_end(self, capsys):
        assert main(DIST_SMALL + ["--transport", "multiprocess",
                                  "--sampling-rate", "0.5"]) == 0
        out = capsys.readouterr().out
        assert "multiprocess" in out
