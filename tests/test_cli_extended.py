"""CLI: the pipelining / scheduling / checkpointing / spectral flags."""

import pytest

from repro.cli import build_parser, main

SMALL = [
    "--scale", "0.05", "--n-partitions", "2", "--n-epochs", "3",
    "--eval-every", "2", "--quiet", "--n-hidden", "8",
]


class TestParserFlags:
    def test_new_defaults(self):
        args = build_parser().parse_args([])
        assert not args.pipelined
        assert args.patience == 0
        assert args.lr_schedule == "none"
        assert args.save_checkpoint is None and args.resume is None

    def test_spectral_method_accepted(self):
        args = build_parser().parse_args(["--partition-method", "spectral"])
        assert args.partition_method == "spectral"

    def test_rejects_unknown_schedule(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--lr-schedule", "exponential"])


class TestEndToEnd:
    def test_pipelined(self, capsys):
        assert main(SMALL + ["--pipelined"]) == 0
        assert "test score" in capsys.readouterr().out

    def test_pipelined_gat_rejected(self, capsys):
        assert main(SMALL + ["--pipelined", "--model", "gat"]) == 2
        assert "not supported" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ["--sampler", "importance"], ["--sampler", "bes"],
        ["--mode", "scale"], ["--p-min", "0.05"],
    ])
    def test_gat_rejects_options_it_cannot_honour(self, capsys, flags):
        assert main(SMALL + ["--model", "gat"] + flags) == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "not supported" in err

    def test_gat_honours_patience(self, capsys):
        # A vanishing lr freezes the model, so the second evaluation
        # cannot improve on the first and patience 1 stops the run there.
        argv = [
            "--scale", "0.05", "--n-partitions", "2", "--n-hidden", "8",
            "--model", "gat", "--n-epochs", "6", "--eval-every", "1",
            "--patience", "1", "--lr", "1e-12",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "epoch    1" in out and "epoch    2" not in out

    def test_gat_honours_lr_schedule_and_kernel_backend(self, capsys):
        argv = SMALL + ["--model", "gat", "--lr-schedule", "cosine",
                        "--kernel-backend", "split"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "kernel backend" in out and "split" in out

    def test_spectral_partition(self, capsys):
        assert main(SMALL + ["--partition-method", "spectral"]) == 0

    def test_step_schedule(self, capsys):
        assert main(SMALL + ["--lr-schedule", "step"]) == 0

    def test_cosine_schedule_with_patience(self, capsys):
        assert main(SMALL + ["--lr-schedule", "cosine", "--patience", "2"]) == 0

    def test_checkpoint_roundtrip(self, tmp_path, capsys):
        ck = str(tmp_path / "model")
        assert main(SMALL + ["--save-checkpoint", ck]) == 0
        assert main(SMALL + ["--resume", ck + ".npz"]) == 0

    def test_resume_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(SMALL + ["--resume", str(tmp_path / "nope")])
