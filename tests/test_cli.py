"""End-to-end tests of the command-line front end, run in process, and one
import check in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import qaelab.core as core_mod
import qaelab.iqae as iqae_mod
from qaelab import cli
from qaelab.bench import CSV_HEADER, table_configs

from digest import assert_sha256


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# ---------------------------------------------------------------------------
# mlqae
# ---------------------------------------------------------------------------


class TestMlqaeCommand:
    ARGS = ("mlqae", "--qubits", "6", "--a", "0.125", "--m", "3",
            "--shots", "256", "--seed", "5")

    def test_success_output_shape(self, capsys):
        rc, out, err = run_cli(capsys, *self.ARGS)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "a_hat,theta_hat,oracle_calls,log_likelihood"
        a_hat, theta_hat, calls, ll = lines[1].split(",")
        assert abs(float(a_hat) - 0.125) < 0.05
        assert int(calls) == 18 * 256  # depth-3 doubling schedule
        assert float(ll) < 0.0
        assert lines[2].startswith("mlqae: a_hat = ")

    def test_stdout_is_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS)
        assert out1 == out2

    def test_schedule_flag_changes_cost(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS, "--schedule", "lis")
        assert rc == 0
        calls = int(out.splitlines()[1].split(",")[2])
        assert calls == 16 * 256  # 1+3+5+7 for the linear ladder at m=3

    def test_statevector_backend(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS, "--backend", "sv")
        assert rc == 0
        assert abs(float(out.splitlines()[1].split(",")[0]) - 0.125) < 0.05

    @pytest.mark.parametrize("qubits", ["64", "1100"])
    def test_large_domain_prints_what_a_small_one_does(self, capsys, qubits):
        # a = 1/8 is the same theta on any domain, so the same draws
        _, want, _ = run_cli(capsys, *self.ARGS)
        rc, out, _ = run_cli(capsys, "mlqae", "--qubits", qubits, *self.ARGS[3:])
        assert rc == 0
        assert out == want

    @pytest.mark.parametrize("argv,digest", [
        (ARGS, "2644623ccd97f9e2bc249e7c1753a693f3b37be6e6fab2e986c3a0534b08c3a5"),
        (("mlqae", "--qubits", "6", "--a", "0.125", "--m", "4", "--shots", "100",
          "--seed", "7", "--schedule", "lis"),
         "d1f04f4863b1c30bfad9bea3c2f7b5874174c1416715372134440f4dab320add"),
        (("mlqae", "--qubits", "6", "--a", "0.375", "--m", "3", "--shots", "64",
          "--seed", "3", "--backend", "sv"),
         "1796189503c86590ed055800d5c892494a2587cfff810cbb55bc0fd7a0edfa08"),
        (("mlqae", "--qubits", "5", "--a", "0.25", "--m", "6", "--shots", "32",
          "--seed", "11", "--schedule", "lis", "--backend", "sv"),
         "21ebcfc9fa26f8601e91ca987afa32198e8910398c9bf636bb1fd18fc5962603"),
        (("mlqae", "--qubits", "8", "--a", "0", "--m", "4", "--shots", "128", "--seed", "1"),
         "773ee5643ef16c7a433018e546727d6480d5ba694b413fa42fb2abbc9b09325c"),
        (("mlqae", "--qubits", "8", "--a", "1", "--m", "4", "--shots", "128", "--seed", "2",
          "--schedule", "lis"),
         "2649552fc76dfa875d044b70b21667bfb0ac191ffd5be15fcbe39a7f852af27d"),
        (("mlqae", "--qubits", "20", "--a", "0.125", "--m", "10", "--shots", "16",
          "--seed", "4"),
         "e81f19c27c2f44384075f7699d348ec8382c0324eac75682445339e098993356"),
    ], ids=["args", "lis", "sv", "lis-sv", "a0", "a1-lis", "n20-m10"])
    def test_stdout_is_pinned(self, capsys, argv, digest):
        """The printed estimate, calls and log-likelihood, to 10 digits."""
        rc, out, _ = run_cli(capsys, *argv)
        assert rc == 0
        assert_sha256(out, digest, " ".join(argv))

    def test_unrepresentable_amplitude(self, capsys):
        rc, out, err = run_cli(
            capsys, "mlqae", "--qubits", "4", "--a", "0.1",
            "--m", "3", "--shots", "16", "--seed", "0",
        )
        assert rc == 1
        assert "not representable" in err

    def test_amplitude_out_of_range(self, capsys):
        rc, _, err = run_cli(
            capsys, "mlqae", "--qubits", "4", "--a", "1.5",
            "--m", "3", "--shots", "16", "--seed", "0",
        )
        assert rc == 1
        assert "--a" in err

    @pytest.mark.parametrize("qubits,a", [("-1", "0.5"), ("0", "1")])
    def test_non_positive_qubits_blame_qubits(self, capsys, qubits, a):
        rc, _, err = run_cli(
            capsys, "mlqae", "--qubits", qubits, "--a", a,
            "--m", "3", "--shots", "16", "--seed", "0",
        )
        assert rc == 1
        assert f"--qubits: need at least one domain qubit, got qubits={qubits}" in err
        assert "--a" not in err

    @pytest.mark.parametrize("estimator", [
        ("mlqae", "--m", "3"),
        ("iqae", "--epsilon", "0.01", "--alpha", "0.05"),
    ])
    def test_statevector_too_large_to_index_blames_qubits(self, capsys, estimator):
        rc, out, err = run_cli(
            capsys, *estimator, "--qubits", "200", "--a", "0.125",
            "--shots", "16", "--seed", "0", "--backend", "sv",
        )
        assert rc == 1 and out == ""
        assert ("--qubits: n=200 needs a statevector of 2**201 float64 amplitudes "
                "(2**204 bytes), more than numpy can index") in err

    def test_statevector_beyond_physical_memory_blames_qubits(self, capsys, monkeypatch):
        physical = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
        n = next(n for n in range(1, 59) if (1 << n) * 8 > physical)

        def no_allocation(*args):  # fail here, not by exhausting memory
            raise AssertionError("the refused oracle reached an allocation")

        monkeypatch.setattr(core_mod, "_prepare_slice", no_allocation)
        rc, out, err = run_cli(
            capsys, "iqae", "--epsilon", "0.01", "--alpha", "0.05",
            "--qubits", str(n), "--a", "0.125", "--shots", "16", "--seed", "0",
            "--backend", "sv",
        )
        assert rc == 1 and out == ""
        assert f"--qubits: n={n} needs 2**{n} * 8 bytes" in err
        assert "physical memory" in err

    @pytest.mark.parametrize("knob,need", [
        (("mlqae", "--m", "40"), "--m 40: n=4 needs up to 549755813888 iterates"),
        (("mlqae", "--m", "30"), "--m 30: n=4 needs up to 536870912 iterates"),
        (("iqae", "--epsilon", "1e-9", "--alpha", "0.05"),
         "--epsilon 1e-09: n=4 needs up to 392699081 iterates"),
    ])
    def test_statevector_beyond_the_work_budget_blames_the_knob(
            self, capsys, monkeypatch, knob, need):
        def no_allocation(*args):  # fail here, not after hours of iterates
            raise AssertionError("the refused run reached an allocation")

        monkeypatch.setattr(core_mod, "_prepare_slice", no_allocation)
        rc, out, err = run_cli(
            capsys, *knob, "--qubits", "4", "--a", "0.25", "--shots", "16",
            "--seed", "0", "--backend", "sv",
        )
        assert rc == 1 and out == ""
        assert err.startswith(f"qaelab: error: {need}, about 2**")
        assert "more than the statevector budget of 2**37" in err


# ---------------------------------------------------------------------------
# iqae
# ---------------------------------------------------------------------------


class TestIqaeCommand:
    ARGS = ("iqae", "--qubits", "6", "--a", "0.125", "--epsilon", "0.01",
            "--alpha", "0.05", "--shots", "128", "--seed", "9")

    def test_success_output_shape(self, capsys):
        rc, out, err = run_cli(capsys, *self.ARGS)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "a_hat,a_lo,a_hi,oracle_calls,rounds"
        a_hat, a_lo, a_hi, calls, rounds = lines[1].split(",")
        assert float(a_lo) <= float(a_hat) <= float(a_hi)
        assert float(a_hi) - float(a_lo) <= 0.02
        assert int(calls) > 0 and int(rounds) > 0
        assert lines[2].startswith("iqae: a_hat = ")

    def test_trace_prints_one_line_per_round(self, capsys):
        rc, out, _ = run_cli(capsys, *self.ARGS, "--trace")
        assert rc == 0
        lines = out.splitlines()
        trace = [ln for ln in lines if ln.startswith("round ")]
        header_at = lines.index("a_hat,a_lo,a_hi,oracle_calls,rounds")
        assert len(trace) == header_at  # all trace lines precede the summary
        rounds = int(lines[header_at + 1].split(",")[4])
        assert len(trace) == rounds
        assert "k=" in trace[0] and "half_plane=" in trace[0]

    @pytest.mark.parametrize("qubits", ["64", "1100"])
    def test_large_domain_prints_what_a_small_one_does(self, capsys, qubits):
        _, want, _ = run_cli(capsys, *self.ARGS, "--trace")
        rc, out, _ = run_cli(capsys, "iqae", "--qubits", qubits, *self.ARGS[3:], "--trace")
        assert rc == 0
        assert out == want

    @pytest.mark.parametrize("argv,digest", [
        (ARGS, "a15bf8b43986a352ac82fba87b50bbbe5b0d9d1030f229ca15ea95cf5dc1212f"),
        (("iqae", "--qubits", "6", "--a", "0.375", "--epsilon", "0.005", "--alpha", "0.05",
          "--shots", "64", "--seed", "3", "--backend", "sv"),
         "f33f3bc6e301cc3fa3b960d3fe871b568e027ea955a1b15e703d2479c8747b03"),
    ], ids=["args", "sv"])
    def test_trace_stdout_is_pinned(self, capsys, argv, digest):
        """Both traces hold rounds on each half-plane, so their half_plane
        fields depend on the parity of every round's half-turn index."""
        rc, out, _ = run_cli(capsys, *argv, "--trace")
        assert rc == 0
        assert "half_plane=lower" in out and "half_plane=upper" in out
        assert_sha256(out, digest, " ".join(argv) + " --trace")

    def test_collapse_is_named_on_stderr(self, capsys):
        rc, out, err = run_cli(capsys, "iqae", "--qubits", "10", "--a", "0.125",
                               "--epsilon", "0.01", "--alpha", "0.05",
                               "--shots", "1024", "--seed", "46")
        assert rc == 0
        a_hat, a_lo, a_hi, calls, rounds = out.splitlines()[1].split(",")
        assert a_lo == a_hi and rounds == "2"
        assert err == (
            "iqae: round 2's interval was disjoint from the running one, "
            "so the run stopped on a zero-width interval\n"
        )
        _, _, err = run_cli(capsys, *self.ARGS)
        assert err == ""

    def test_cap_returns_partial_result_and_code_3(self, capsys, monkeypatch):
        monkeypatch.setattr(iqae_mod, "CAP_MULTIPLIER", 0)
        rc, out, err = run_cli(capsys, *self.ARGS)
        assert rc == 3
        assert out.splitlines()[0] == "a_hat,a_lo,a_hi,oracle_calls,rounds"
        assert "rounds" in err  # cap diagnostic goes to stderr


# ---------------------------------------------------------------------------
# mci
# ---------------------------------------------------------------------------


class TestMciCommand:
    def test_success_output_shape(self, capsys):
        rc, out, _ = run_cli(
            capsys, "mci", "--a", "0.125", "--samples", "512",
            "--reps", "20", "--seed", "3",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "samples,reps,mean_a,std_a,mean_err_pct,max_err_pct"
        samples, reps, mean_a, std_a, mean_err, max_err = lines[1].split(",")
        assert (samples, reps) == ("512", "20")
        assert abs(float(mean_a) - 0.125) < 0.02
        assert 0.0 <= float(mean_err) <= float(max_err)
        assert lines[2].startswith("mci: mean a = ")

    def test_zero_amplitude_reports_nan_errors(self, capsys):
        rc, out, _ = run_cli(
            capsys, "mci", "--a", "0", "--samples", "64",
            "--reps", "5", "--seed", "3",
        )
        assert rc == 0
        fields = out.splitlines()[1].split(",")
        assert float(fields[2]) == 0.0
        assert fields[4] == "nan" and fields[5] == "nan"


# ---------------------------------------------------------------------------
# usage errors and help
# ---------------------------------------------------------------------------


class TestUsage:
    def test_no_arguments(self, capsys):
        rc, _, err = run_cli(capsys)
        assert rc == 1
        assert "error" in err

    def test_unknown_subcommand(self, capsys):
        rc, _, err = run_cli(capsys, "estimate")
        assert rc == 1

    def test_unknown_flag(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--fast")
        assert rc == 1

    def test_missing_required_flag(self, capsys):
        rc, _, err = run_cli(capsys, "mlqae", "--qubits", "4")
        assert rc == 1
        assert "required" in err

    def test_bad_flag_value_type(self, capsys):
        rc, _, err = run_cli(
            capsys, "mci", "--a", "0.1", "--samples", "many",
            "--reps", "5", "--seed", "3",
        )
        assert rc == 1

    MLQAE = ("mlqae", "--qubits", "4", "--a", "0.25", "--m", "3",
             "--shots", "16", "--seed", "0")
    IQAE = ("iqae", "--qubits", "4", "--a", "0.25", "--epsilon", "0.01",
            "--alpha", "0.05", "--shots", "16", "--seed", "0")
    MCI = ("mci", "--a", "0.25", "--samples", "64", "--reps", "4", "--seed", "0")

    @pytest.mark.parametrize("base,flag,value,message", [
        (MLQAE, "--m", "-1", "depth must be non-negative, got -1"),
        (MLQAE, "--shots", "0", "shots must be positive, got 0"),
        (MLQAE, "--seed", "-1", "expected non-negative integer"),
        (IQAE, "--epsilon", "0.7", "epsilon must be in (0, 0.5), got 0.7"),
        (IQAE, "--alpha", "2", "alpha must be in (0, 1), got 2.0"),
        (IQAE, "--shots", "0", "shots must be positive, got 0"),
        (MCI, "--a", "1.5", "a_true=1.5 outside [0, 1]"),
        (MCI, "--samples", "0", "samples must be positive, got 0"),
        (MCI, "--reps", "0", "repetitions must be positive, got 0"),
        (MCI, "--seed", "-1", "expected non-negative integer"),
        (MLQAE, "--m", "1024", "depth 1024 is too deep: its top multiplier 2m + 1 has no float"),
        (MLQAE, "--shots", str(10**20), f"shots must be at most 2**63 - 1, got {10**20}"),
        (IQAE, "--shots", str(10**20), f"shots must be at most 2**63 - 1, got {10**20}"),
        (MCI, "--samples", str(10**20), f"samples must be at most 2**63 - 1, got {10**20}"),
    ])
    def test_estimator_check_names_its_flag(self, capsys, base, flag, value, message):
        argv = list(base)
        argv[argv.index(flag) + 1] = value
        rc, out, err = run_cli(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert err.splitlines() == [
            f"qaelab: error: {flag}: {message}",
            "try 'qaelab --help' or 'qaelab COMMAND --help'",
        ]

    def test_run_time_value_error_prints_the_hint(self, capsys, tmp_path):
        # at alpha = 1e-200 the Clopper-Pearson inverse gives up mid-run; a
        # sweep file with the same alpha passes the parse-time checks and
        # fails the same way.  The message names the flag, or the file and
        # its key.
        config = tmp_path / "tiny.conf"
        config.write_text(
            "algorithm = iqae\nqubits = 4\na = 0.25\nshots = 4\nreps = 1\n"
            "epsilon = 0.05\nalpha = 1e-200\n",
            encoding="utf-8",
        )
        for argv, source, shots in [
            (("iqae", "--qubits", "4", "--a", "0.25", "--epsilon", "0.05",
              "--alpha", "1e-200", "--shots", "4", "--seed", "0"), "--alpha", 20),
            (("sweep", "--config", str(config)), f"{config}: alpha", 8),
        ]:
            rc, out, err = run_cli(capsys, *argv)
            assert rc == 1
            assert out == ""
            assert err.splitlines() == [
                f"qaelab: error: {source}: no lower bound for hits=3, shots={shots} "
                "at alpha=2.5e-201",
                "try 'qaelab --help' or 'qaelab COMMAND --help'",
            ]

    @pytest.mark.parametrize("command", [
        ("sweep", "--config", "sweep.conf", "--out"),
        ("reproduce", "--table", "5", "--out"),
    ])
    def test_jobs_flag_is_gone(self, capsys, tmp_path, command):
        rc, _, err = run_cli(capsys, *command, str(tmp_path), "--jobs", "2")
        assert rc == 1
        assert "unrecognized arguments: --jobs 2" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [("--help",), ("mlqae", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


GOOD_CONFIG = """\
# small iterative-estimator sweep
algorithm = iqae
qubits = 4
a = 0.125        # 2 of 16 states
shots = 16,32
reps = 4
seed = 11
epsilon = 0.02
"""


class TestSweepCommand:
    def write(self, tmp_path, text):
        path = tmp_path / "sweep.conf"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_to_stdout(self, capsys, tmp_path):
        rc, out, _ = run_cli(capsys, "sweep", "--config",
                             self.write(tmp_path, GOOD_CONFIG))
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "16"
        assert lines[2].split(",")[0] == "32"

    def test_collapsed_runs_are_counted_on_stderr(self, capsys, tmp_path):
        # table 5's sweep at 1024 shots; its repetition 15 collapses
        config = ("algorithm = iqae\nqubits = 10\na = 0.125\nshots = 1024\n"
                  "reps = 16\nseed = 1734\nepsilon = 0.01\n")
        rc, out, err = run_cli(capsys, "sweep", "--config", self.write(tmp_path, config))
        assert rc == 0
        assert len(out.splitlines()) == 2
        assert err == (
            "sweep: 1 IQAE runs stopped on a zero-width interval after a "
            "disjoint round; their estimates are included\n"
        )
        _, _, err = run_cli(capsys, "sweep", "--config", self.write(tmp_path, GOOD_CONFIG))
        assert err == ""

    def test_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "result.csv"
        rc, out, _ = run_cli(
            capsys, "sweep", "--config", self.write(tmp_path, GOOD_CONFIG),
            "--out", str(out_path),
        )
        assert rc == 0
        assert f"wrote {out_path}" in out
        assert out_path.read_text().splitlines()[0] == CSV_HEADER

    def test_unwritable_out_names_the_flag_before_the_sweep_runs(
            self, capsys, tmp_path, monkeypatch):
        def no_sweep(config):
            raise AssertionError("the sweep ran before --out was opened")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out_path = tmp_path / "missing" / "x.csv"
        rc, out, err = run_cli(
            capsys, "sweep", "--config", self.write(tmp_path, GOOD_CONFIG),
            "--out", str(out_path),
        )
        assert rc == 1 and out == ""
        assert err.splitlines() == [
            f"qaelab: error: --out: [Errno 2] No such file or directory: '{out_path}'",
            "try 'qaelab --help' or 'qaelab COMMAND --help'",
        ]

    @pytest.mark.parametrize("earlier", [b"an earlier result\n", None], ids=["existing", "new"])
    def test_failed_sweep_keeps_an_existing_out_file(self, capsys, tmp_path, earlier):
        # the Clopper-Pearson inverse gives up mid-sweep at this alpha; a new
        # --out path is left absent, an existing file byte for byte as it was
        config = GOOD_CONFIG + "alpha = 1e-300\n"
        out_path = tmp_path / "result.csv"
        if earlier is not None:
            out_path.write_bytes(earlier)
        rc, out, err = run_cli(
            capsys, "sweep", "--config", self.write(tmp_path, config),
            "--out", str(out_path),
        )
        assert rc == 1 and out == ""
        assert ": alpha: no lower bound" in err
        if earlier is None:
            assert not out_path.exists()
        else:
            assert out_path.read_bytes() == earlier

    @pytest.mark.parametrize("qubits", [64, 1100])
    def test_large_domain_gives_the_small_csv(self, capsys, tmp_path, qubits):
        _, want, _ = run_cli(capsys, "sweep", "--config", self.write(tmp_path, GOOD_CONFIG))
        config = GOOD_CONFIG.replace("qubits = 4", f"qubits = {qubits}")
        rc, out, _ = run_cli(capsys, "sweep", "--config", self.write(tmp_path, config))
        assert rc == 0
        assert out == want

    def test_missing_file(self, capsys):
        rc, _, err = run_cli(capsys, "sweep", "--config", "/no/such/file.conf")
        assert rc == 1
        assert "cannot read config file" in err

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("algorithm = iqae\nqubits\n", ":2: expected 'key = value'"),
            ("algorithm = iqae\ncolour = red\n", ":2: unknown key 'colour'"),
            ("algorithm = iqae\nqubits =\n", ":2: empty value for 'qubits'"),
            ("algorithm = iqae\nqubits = four\n", ":2: bad value 'four'"),
            ("qubits = 4\n", "missing required key 'algorithm'"),
            ("algorithm = iqae\nqubits = 0\n", "qubits must be positive"),
            ("algorithm = iqae\nqubits = 4\na = 0.1\n", "not representable"),
            ("algorithm = iqae\nqubits = 4\nepsilon = 0.9\n", "epsilon must be in (0, 0.5)"),
            ("algorithm = iqae\nqubits = 4\nalpha = 1.5\n", "alpha must be in (0, 1)"),
            ("algorithm = iqae\nqubits = 4\nratio = 2\n", "unknown key 'ratio'"),
            ("algorithm = mci\nreps = 3\nreps = 2\nshots = 16\n",
             ":3: duplicate key 'reps' (first on line 2)"),
            ("algorithm = mlqae\nqubits = 4\nm = -1\n", "depth must be non-negative"),
            ("algorithm = mlqae\nqubits = 4\nschedule = cubic\n", "unknown schedule kind"),
            ("algorithm = mlqae\nqubits = 200\nbackend = sv\n",
             ": qubits: n=200 needs a statevector of 2**201 float64 amplitudes"),
            ("algorithm = mlqae\nqubits = 4\nm = 1024\n", ": depth 1024 is too deep"),
            # a cell's call counts must sum to a finite float over its repetitions
            ("algorithm = mlqae\nqubits = 4\na = 0.25\nshots = 16\nreps = 1\nm = 1023\n",
             ": depth 1023 at 16 shots and 1 repetitions makes at least 2**1028 oracle calls"),
            ("algorithm = mlqae\nqubits = 4\na = 0.25\nshots = 16\nreps = 2\nm = 1020\n",
             ": depth 1020 at 16 shots and 2 repetitions makes at least 2**1026 oracle calls"),
            ("algorithm = mlqae\nqubits = 4\na = 0.25\nshots = 16\nreps = 2\nm = 1018\n",
             ": depth 1018 at 16 shots and 2 repetitions makes at least 2**1024 oracle calls"),
            ("algorithm = mci\nshots = 16,100000000000000000000\n",
             ": shots must be at most 2**63 - 1, got 100000000000000000000"),
        ],
    )
    def test_malformed_config(self, capsys, tmp_path, text, fragment):
        path = self.write(tmp_path, text)
        rc, _, err = run_cli(capsys, "sweep", "--config", path)
        assert rc == 1
        assert fragment in err
        assert path in err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerifyCommand:
    def test_all_checks_pass(self, capsys):
        rc, out, _ = run_cli(capsys, "verify")
        assert rc == 0
        lines = out.splitlines()
        assert all(ln.startswith("ok  ") for ln in lines[:-1])
        assert "FAIL" not in out
        assert lines[-1] == "all 10 checks passed"
        assert any(ln.startswith("ok   batched cell seeding") for ln in lines)
        assert any(ln.startswith("ok   lockstep likelihood maximizer") for ln in lines)


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


class TestReproduceCommand:
    def test_writes_table(self, capsys, tmp_path):
        rc, out, err = run_cli(
            capsys, "reproduce", "--table", "5", "--out", str(tmp_path),
        )
        assert rc == 0
        assert "wrote" in out
        assert (tmp_path / "table5.csv").exists()
        assert err == (
            "reproduce: table5.csv: 1 IQAE runs stopped on a zero-width interval "
            "after a disjoint round; their estimates are included\n"
        )

    @pytest.mark.parametrize("table,collapsed", [(5, 1), (7, 2)])
    def test_sweep_of_a_tables_config_writes_what_reproduce_writes(
            self, capsys, tmp_path, table, collapsed):
        [(filename, config)] = table_configs(table)
        conf = tmp_path / f"table{table}.conf"
        conf.write_text("".join(
            f"{key} = {','.join(map(str, value)) if key == 'shots' else value}\n"
            for key, (field, _) in cli._CONFIG_KEYS.items()
            for value in [getattr(config, field)]
        ), encoding="utf-8")
        assert cli.parse_config_file(conf) == config
        counts = (f"{collapsed} IQAE runs stopped on a zero-width interval after a "
                  "disjoint round; their estimates are included\n")

        rc, out, err = run_cli(capsys, "reproduce", "--table", str(table),
                               "--out", str(tmp_path / "reproduced"))
        assert (rc, err) == (0, f"reproduce: {filename}: {counts}")
        swept = tmp_path / "swept.csv"
        rc, out, err = run_cli(capsys, "sweep", "--config", str(conf), "--out", str(swept))
        assert (rc, out, err) == (0, f"wrote {swept}\n", f"sweep: {counts}")
        assert swept.read_bytes() == (tmp_path / "reproduced" / filename).read_bytes()

    def test_out_that_is_a_file_names_the_flag(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        out_path.write_text("kept\n", encoding="utf-8")
        rc, out, err = run_cli(
            capsys, "reproduce", "--table", "5", "--out", str(out_path),
        )
        assert rc == 1 and out == ""
        assert err.splitlines() == [
            f"qaelab: error: --out: [Errno 17] File exists: '{out_path}'",
            "try 'qaelab --help' or 'qaelab COMMAND --help'",
        ]
        assert out_path.read_text(encoding="utf-8") == "kept\n"

    def test_invalid_table_number(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "reproduce", "--table", "9", "--out", str(tmp_path),
        )
        assert rc == 1

    def test_missing_output_directory_flag(self, capsys):
        rc, _, err = run_cli(capsys, "reproduce", "--table", "5")
        assert rc == 1
        assert "required" in err

    def test_cap_exits_3_without_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(iqae_mod, "CAP_MULTIPLIER", 0)
        rc, _, err = run_cli(
            capsys, "reproduce", "--table", "5", "--out", str(tmp_path),
        )
        assert rc == 3
        assert "iteration cap" in err
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# import cost
# ---------------------------------------------------------------------------


def run_fresh_python(code):
    """Run ``code`` in a new interpreter that imports qaelab from this tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120,
    )


def test_cli_import_leaves_scipy_stats_out():
    """``scipy.stats`` takes most of a second to import, and every qaelab
    call would pay it; only the tests use it."""
    proc = run_fresh_python("import qaelab.cli, sys; assert 'scipy.stats' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


NO_SCIPY_SCRIPT = """
import contextlib, io, sys
from qaelab import cli

def check(step):
    loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
    assert not loaded, f"after {step}: {loaded[:5]}"

check("import qaelab.cli")
for argv in (
    ["--help"],
    ["mlqae", "--qubits", "6", "--a", "0.125", "--m", "3", "--shots", "16", "--seed", "1"],
    ["mci", "--a", "0.125", "--samples", "64", "--reps", "4", "--seed", "1"],
):
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            rc = exc.code
    assert rc == 0, (argv, rc)
    check(argv[0])
"""


def test_commands_without_an_interval_leave_scipy_out():
    """``scipy.special`` takes about 0.4 s to import and only a
    Clopper-Pearson bound needs it, so it loads on the first interval."""
    proc = run_fresh_python(NO_SCIPY_SCRIPT)
    assert proc.returncode == 0, proc.stderr
