"""Command line interface: subcommands, exit codes, output contracts."""

import importlib
import json
import socket
import struct
import subprocess
import sys
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from oracle_locc import cli as cli_module
from oracle_locc import locc, oracle, quantum
from oracle_locc.cli import _Check, main
from oracle_locc.locc import OPERATOR_BUILDERS, run_bytes, step7_operator
from oracle_locc.oracle import (
    FunctionTable,
    OracleSchmidtForm,
    SchmidtTerm,
    build_partition,
    oracle_matrix,
    schmidt_decompose_oracle,
)
from oracle_locc.quantum import LocalOperator

from conftest import ROOT, cli_command, src_env

IDENTITY2 = '{"M": 2, "N": 2, "table": [0, 1]}'
SWAP2 = '{"M": 2, "N": 2, "table": [1, 0]}'
CONSTANT22 = '{"M": 2, "N": 2, "table": [0, 0]}'
THREE_CYCLE = '{"M": 3, "N": 3, "table": [1, 2, 0]}'
NON_PERM = '{"M": 3, "N": 3, "table": [0, 0, 1]}'
BEYOND_DENSE_CAP = json.dumps({"M": 80, "N": 80, "table": list(range(80))})  # M*N > 4096
# The CLI with the frame cap lowered to 4 KiB: the handshake still fits, but
# the step-1 OP_REQUEST of a permutation at M = N = 24 (about 9 KB) does not.
LOW_FRAME_CAP_CLI = (
    "import oracle_locc.netsim as netsim; netsim.MAX_FRAME_BYTES = 4096; "
    "from oracle_locc.cli import main; raise SystemExit(main())"
)
PERMUTATION24 = json.dumps({"M": 24, "N": 24, "table": [(x + 1) % 24 for x in range(24)]})

PER_TABLE_CHECKS = [
    "oracle_matrix_is_permutation_unitary",
    "schmidt_rank_and_reconstruction",
    "entangle_ebits_equal_log2_n_f",
    "forward_protocol_decodes_exactly",
    "backward_protocol_decodes_exactly",
    "locc_branches_match_direct_oracle",
]
CHECK_NAMES = {
    *PER_TABLE_CHECKS,
    "bidirectional_protocol_decodes_exactly",
    "resource_ledger_accounting",
    "phase_exponential_shifts_basis",
    "minimal_oracle_dressing_matches",
}


def cli(*argv):
    """Invoke the CLI in-process; argparse SystemExits become return codes."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)


def run_script(*argv, env_extra=None, check=False):
    command, env = cli_command()
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [*command, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    if check and proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return proc


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        assert cli("verify", "--max-m", "2", "--max-n", "2", "--trials", "2") == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["max_m", "max_n", "seed", "tables", "checks", "passed"]
        assert report["passed"] is True
        assert report["tables"] == 8  # every f: Z_m -> Z_n with m, n <= 2
        assert {c["name"] for c in report["checks"]} == CHECK_NAMES
        for check in report["checks"]:
            assert list(check) == ["name", "cases", "max_deviation", "passed"]
            assert check["passed"] is True
            assert check["cases"] > 0

    def test_single_table_restriction(self, capsys):
        assert cli("verify", "--f", THREE_CYCLE) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tables"] == 1

    def test_corrupt_inline_table_is_a_usage_error(self, capsys):
        assert cli("verify", "--f", '{"M": 2, "N": 2}') == 2
        assert cli("verify", "--f", '{"M": 2, "N": 2, "table": [0, 5]}') == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_table_beyond_the_dense_cap_is_a_usage_error(self, capsys):
        assert cli("verify", "--f", BEYOND_DENSE_CAP) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_nan_deviation_fails_its_check(self):
        check = _Check("nan_probe")
        for deviation in (0.0, float("nan"), 0.0):
            check.record(deviation)
        assert np.isnan(check.max_deviation)
        assert check.passed is False

    def test_wrong_step7_sign_fails_the_branch_check(self, monkeypatch, capsys):
        # The branch check must run the scripted builders.  A wrong sign is
        # invisible while n_f <= 2, where exp(i pi) = exp(-i pi), so the bounds
        # reach n_f = 3.  The ledger check's sampled runs end in a wrong state too.
        def wrong_sign(f, s):
            op = step7_operator(f, s)
            return LocalOperator("A", source=op.source, phases=op.phases.conj())

        monkeypatch.setitem(OPERATOR_BUILDERS, "step7_phase_fix", wrong_sign)
        assert cli("verify", "--max-m", "3", "--max-n", "3") == 1
        captured = capsys.readouterr()
        failed = [c["name"] for c in json.loads(captured.out)["checks"] if not c["passed"]]
        assert failed == ["locc_branches_match_direct_oracle", "resource_ledger_accounting"]
        assert captured.err.startswith("verification failed: locc_branches_match_direct_oracle")

    def test_wrong_schmidt_coefficients_fail_even_when_the_sum_is_right(self, monkeypatch):
        # Doubled coefficients with halved control operators reconstruct U
        # exactly; only the comparison with the numeric singular values sees it.
        def doubled(f):
            form = schmidt_decompose_oracle(f)
            terms = tuple(SchmidtTerm(2 * t.coefficient, t.control_op / 2, t.target_op)
                          for t in form.terms)
            return OracleSchmidtForm(form.f, form.partition, terms)

        def schmidt_check(tables):
            checks = cli_module._check_tables(tables, np.random.default_rng(0))
            return next(c for c in checks if c.name == "schmidt_rank_and_reconstruction")

        f = FunctionTable(3, 3, (1, 2, 1))
        assert schmidt_check([f]).passed
        monkeypatch.setattr(cli_module, "schmidt_decompose_oracle", doubled)
        assert np.max(np.abs(doubled(f).reconstruct() - oracle_matrix(f))) <= 1e-12
        check = schmidt_check([f])
        assert check.name == "schmidt_rank_and_reconstruction"
        assert not check.passed

    def test_per_table_pass_builds_each_oracle_and_svd_once(self, monkeypatch):
        # Counted at every binding, so a call from inside the library counts too.
        counts = Counter()

        def counted(name, function):
            def wrapper(*args):
                counts[name] += 1
                return function(*args)
            return wrapper

        for module, name in ((oracle, "oracle_matrix"), (quantum, "schmidt_values")):
            wrapper = counted(name, getattr(module, name))
            monkeypatch.setattr(module, name, wrapper)
            monkeypatch.setattr(cli_module, name, wrapper)
        tables = cli_module._sweep_tables(4, 4, 12, np.random.default_rng(5))
        checks = cli_module._check_tables(tables, np.random.default_rng(7))
        assert [c.name for c in checks] == PER_TABLE_CHECKS
        assert all(c.passed for c in checks)
        assert counts == {"oracle_matrix": len(tables), "schmidt_values": len(tables)}

    def test_branch_check_builds_each_tables_operators_once(self, monkeypatch):
        # Steps 1, 4 and 5 once, steps 3 and 7 once per ancilla value, for both inputs.
        calls = []
        for name, builder in list(OPERATOR_BUILDERS.items()):
            def counted(*args, _builder=builder):
                calls.append(args)
                return _builder(*args)
            monkeypatch.setitem(OPERATOR_BUILDERS, name, counted)
        rng = np.random.default_rng(8)
        for f in cli_module._sweep_tables(4, 4, 12, np.random.default_rng(6)):
            calls.clear()
            assert all(c.passed for c in cli_module._check_tables([f], rng))
            assert len(calls) == 3 + 2 * build_partition(f).n_values

    def test_wrong_final_state_fails_the_ledger_check(self, monkeypatch, capsys):
        # The sampled run's final A, B state, which the branch check never sees,
        # must equal the direct oracle action.
        with_ancillas = locc._with_ancillas
        monkeypatch.setattr(locc, "_with_ancillas",
                            lambda ab, n, r, s: with_ancillas(ab.conj(), n, r, s))
        assert cli("verify", "--seed", "3") == 1
        captured = capsys.readouterr()
        failed = [c["name"] for c in json.loads(captured.out)["checks"] if not c["passed"]]
        assert failed == ["resource_ledger_accounting"]

    def test_the_ledger_check_never_builds_a_dense_returned_state(self, monkeypatch, capsys):
        monkeypatch.setattr(locc._BlockState, "amps", property(lambda state: pytest.fail("densified")))
        assert cli("verify", "--seed", "3") == 0
        report = json.loads(capsys.readouterr().out)
        assert [c["passed"] for c in report["checks"] if c["name"] == "resource_ledger_accounting"] == [True]

    def test_missing_table_file_is_a_usage_error(self, capsys, tmp_path):
        assert cli("verify", "--f", str(tmp_path / "absent.json")) == 2

    def test_non_utf8_table_file_is_a_usage_error(self, capsys, tmp_path):
        table = tmp_path / "table.json"
        table.write_bytes(b'{"M": 1, "N": 1, "table": [0]}\xff')
        assert cli("verify", "--f", str(table)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read") and captured.err.count("\n") == 1

    def test_nonpositive_bounds_are_a_usage_error(self):
        assert cli("verify", "--max-m", "0") == 2

    def test_bounds_beyond_the_dense_cap_are_a_usage_error(self, capsys):
        assert cli("verify", "--max-m", "100", "--max-n", "100", "--trials", "2") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "dense oracle cap" in captured.err

    def test_out_flag_writes_the_report_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        assert (
            cli("verify", "--max-m", "2", "--max-n", "2", "--trials", "1",
                "--out", str(target)) == 0
        )
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["passed"] is True


class TestCapacities:
    def test_identity_two(self, capsys):
        assert cli("capacities", "--f", IDENTITY2) == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == [
            "n_f", "log2_n_f", "schmidt_rank", "ebits_measured",
            "bidirectional_bits_if_permutation",
        ]
        assert report["n_f"] == 2
        assert report["log2_n_f"] == 1.0
        assert report["schmidt_rank"] == 2
        assert abs(report["ebits_measured"] - 1.0) <= 1e-10
        assert report["bidirectional_bits_if_permutation"] == 2.0

    def test_constant_function_has_no_bidirectional_entry(self, capsys):
        assert cli("capacities", "--f", CONSTANT22) == 0
        report = json.loads(capsys.readouterr().out)
        assert "bidirectional_bits_if_permutation" not in report
        assert report["n_f"] == 1
        assert report["schmidt_rank"] == 1
        assert abs(report["ebits_measured"]) <= 1e-10

    def test_non_square_table(self, capsys):
        assert cli("capacities", "--f", '{"M": 4, "N": 3, "table": [0, 1, 2, 0]}') == 0
        report = json.loads(capsys.readouterr().out)
        assert report["n_f"] == report["schmidt_rank"] == 3
        assert abs(report["log2_n_f"] - np.log2(3)) <= 1e-12

    def test_table_beyond_the_dense_cap_is_a_usage_error(self, capsys):
        assert cli("capacities", "--f", BEYOND_DENSE_CAP) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_table_from_file(self, tmp_path, capsys):
        path = tmp_path / "f.json"
        path.write_text(THREE_CYCLE)
        assert cli("capacities", "--f", str(path)) == 0
        assert json.loads(capsys.readouterr().out)["n_f"] == 3


class TestRun:
    def test_locc_emits_a_transcript(self, capsys):
        assert cli("run", "--f", THREE_CYCLE, "--seed", "3") == 0
        transcript = json.loads(capsys.readouterr().out)
        assert list(transcript) == ["f", "seed", "r", "s", "steps", "ledger"]
        assert transcript["seed"] == 3
        assert transcript["f"] == {"M": 3, "N": 3, "table": [1, 2, 0]}
        assert [s["step"] for s in transcript["steps"]] == [1, 2, 3, 4, 5, 6, 7]
        assert 0 <= transcript["r"] < 3 and 0 <= transcript["s"] < 3
        assert transcript["ledger"]["bits_forward_wire"] == 2

    def test_entangle_reports_ebits(self, capsys):
        assert cli("run", "--protocol", "entangle", "--f", IDENTITY2) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["protocol"] == "entangle"
        assert abs(report["ebits"] - 1.0) <= 1e-10

    def test_forward_backward_succeed(self, capsys):
        for protocol in ("forward", "backward"):
            assert cli("run", "--protocol", protocol, "--f", NON_PERM, "--seed", "9") == 0
            report = json.loads(capsys.readouterr().out)
            assert report["protocol"] == protocol
            assert report["success"] is True
            assert report["decoded"] == report["r" if protocol == "forward" else "s"]

    def test_bidirectional_on_a_permutation(self, capsys):
        assert cli("run", "--protocol", "bidirectional", "--f", THREE_CYCLE, "--seed", "1") == 0
        report = json.loads(capsys.readouterr().out)
        assert report["success"] is True
        assert report["decoded"] == [report["r"], report["s"]]

    def test_bidirectional_rejects_non_permutation(self, capsys):
        assert cli("run", "--protocol", "bidirectional", "--f", NON_PERM) == 2
        assert "permutation" in capsys.readouterr().err

    def test_transport_is_an_argparse_usage_error(self, capsys):
        assert cli("run", "--transport", "socket", "--f", IDENTITY2) == 2
        assert "unrecognized arguments: --transport" in capsys.readouterr().err

    @pytest.mark.parametrize("protocol, sent", [
        ("forward", ["r"]), ("backward", ["s"]), ("bidirectional", ["r", "s"]),
    ])
    def test_message_protocols_share_one_result_shape(self, capsys, protocol, sent):
        assert cli("run", "--protocol", protocol, "--f", THREE_CYCLE, "--seed", "4") == 0
        report = json.loads(capsys.readouterr().out)
        assert list(report) == ["protocol", "f", "seed", *sent, "decoded", "success",
                                "probabilities"]
        assert report["decoded"] == (report[sent[0]] if len(sent) == 1 else
                                     [report["r"], report["s"]])

    def test_unknown_protocol_is_an_argparse_error(self, capsys):
        assert cli("run", "--protocol", "telepathy", "--f", IDENTITY2) == 2

    def test_missing_subcommand(self):
        assert cli() == 2


class TestUsageErrors:
    """Bad arguments end in exit 2 and one `error:` line, before any work is done."""

    @pytest.mark.parametrize("argv", [
        ("run", "--f", IDENTITY2, "--seed", "-1"),
        ("serve", "--f", IDENTITY2, "--seed", "-1", "--timeout", "1"),
        ("verify", "--max-m", "1", "--max-n", "1", "--seed", "-1"),
    ])
    def test_negative_seed(self, capsys, argv):
        assert cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --seed") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ("serve", "--f", IDENTITY2, "--port", "70000"),
        ("serve", "--f", IDENTITY2, "--port", "-1"),
        ("connect", "--role", "alice", "--f", IDENTITY2, "--port", "70000"),  # would wrap to 4464
        ("serve", "--f", IDENTITY2, "--timeout", "-1"),
        ("serve", "--f", IDENTITY2, "--timeout", "0"),
        ("connect", "--role", "bob", "--f", IDENTITY2, "--port", "1", "--timeout", "nan"),
        ("connect", "--role", "bob", "--f", IDENTITY2, "--port", "1", "--timeout", "inf"),
        ("verify", "--max-m", "4", "--max-n", "4", "--trials", "-3"),
    ])
    def test_number_out_of_range(self, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("reached before the options were checked")

        for name in ("serve_socket", "connect_socket", "_sweep_tables"):
            monkeypatch.setattr(cli_module, name, never)
        assert cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {argv[-2]} must") and captured.err.count("\n") == 1

    def test_out_into_a_missing_directory(self, capsys, tmp_path):
        out = tmp_path / "missing" / "x.json"
        assert cli("verify", "--max-m", "1", "--max-n", "1", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write") and captured.err.count("\n") == 1


class TestRunBudget:
    """run and serve refuse a table whose run would exceed MAX_RUN_BYTES, before drawing its input."""

    def test_an_oversize_table_exits_2_in_one_line_before_any_allocation(self, tmp_path, capsys):
        table = tmp_path / "permutation4096.json"
        table.write_text(json.dumps({"M": 4096, "N": 4096,
                                     "table": [(5 * x + 3) % 4096 for x in range(4096)]}))
        proc = run_script("run", "--f", str(table))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == (f"error: a run of this table needs {run_bytes(4096, 4096, 4096)} "
                               f"bytes, over the {cli_module.MAX_RUN_BYTES}-byte cap\n")
        for argv in (("run",), ("serve", "--timeout", "1")):
            tracemalloc.start()
            try:
                assert cli(*argv, "--f", str(table)) == 2
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 4 << 20  # the input state alone would take 256 MiB
        assert capsys.readouterr().err.count("needs") == 2

    def test_a_table_at_a_lowered_cap_still_runs(self, monkeypatch, capsys):
        footprint = run_bytes(3, 3, 3)
        monkeypatch.setattr(cli_module, "MAX_RUN_BYTES", footprint)
        assert cli("run", "--f", THREE_CYCLE, "--seed", "11") == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 11
        monkeypatch.setattr(cli_module, "MAX_RUN_BYTES", footprint - 1)
        assert cli("run", "--f", THREE_CYCLE, "--seed", "11") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: a run of this table needs {footprint} bytes, "
                                f"over the {footprint - 1}-byte cap\n")

    def test_a_128_by_128_permutation_runs_in_under_a_second(self, tmp_path, capsys, monkeypatch):
        # The returned state's dense form, 4.3 GB, is never built: run prints the transcript alone.
        monkeypatch.setattr(locc._BlockState, "amps", property(lambda state: pytest.fail("densified")))
        M = 128
        f = FunctionTable(M, M, tuple((5 * x + 3) % M for x in range(M)))
        table = tmp_path / "permutation128.json"
        table.write_text(f.to_json())
        assert run_bytes(M, M, M) <= cli_module.MAX_RUN_BYTES
        start = time.perf_counter()
        assert cli("run", "--f", str(table), "--seed", "5") == 0
        elapsed = time.perf_counter() - start
        state = quantum.random_state((M, M), ("A", "B"), np.random.default_rng(5))
        assert capsys.readouterr().out == locc.run_locc(f, state, 5)[1].to_json() + "\n"
        assert elapsed < 1.0, f"run took {elapsed:.2f} s"

    def test_other_protocols_take_no_budget(self, monkeypatch, capsys):
        monkeypatch.setattr(cli_module, "MAX_RUN_BYTES", 0)
        assert cli("run", "--protocol", "forward", "--f", THREE_CYCLE) == 0


def serve_connect(command, env, table, clients, serve_args=()):
    """A `serve` process and one `connect` process per (role, table) in clients.

    Returns the (returncode, stderr) of the referee, then of each client, in
    that order; the referee's `listening on` line is read off its stderr.
    """
    server = subprocess.Popen(
        [*command, "serve", "--f", table, "--port", "0", "--timeout", "20", *serve_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    procs = [server]
    try:
        announcement = server.stderr.readline()
        assert announcement.startswith("listening on ")
        port = int(announcement.strip().rsplit(":", 1)[1])
        for role, client_table in clients:
            procs.append(subprocess.Popen(
                [*command, "connect", "--role", role, "--f", client_table,
                 "--port", str(port), "--timeout", "20"],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
            ))
        errors = [proc.communicate(timeout=60)[1] for proc in procs]
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()
    return [(proc.returncode, err) for proc, err in zip(procs, errors)]


class TestScriptProcess:
    """End-to-end through the CLI as its own OS process (`conftest.cli_command`).

    The tests run the `oracle-locc` script when it is on PATH and
    `python -m oracle_locc` otherwise.
    """

    def test_script_is_installed(self):
        """The declared `oracle-locc` entry point behaves as the installed script would.

        An install turns the `[project.scripts]` target of pyproject.toml into a
        launcher that runs `sys.exit(target())`. This test builds that launcher
        from the declared target and checks that the target imports and is
        callable, that the launcher's output equals `cli_command()`'s, and that
        the launcher passes `main`'s return code through as its exit code. It
        does not look for the script on PATH: whether someone ran `pip install`
        is a fact about the machine, not the checkout. When the script is on
        PATH, `cli_command()` runs it, so the comparison covers it as well.
        """
        tomllib = pytest.importorskip("tomllib")
        scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
        assert "oracle-locc" in scripts
        module, attr = scripts["oracle-locc"].split(":")
        assert callable(getattr(importlib.import_module(module), attr))
        launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"

        def launch(*argv):
            launched = subprocess.run(
                [sys.executable, "-c", launcher, *argv],
                capture_output=True, text=True, env=src_env(), timeout=120,
            )
            reference = run_script(*argv)
            assert (launched.returncode, launched.stdout, launched.stderr) == (
                reference.returncode, reference.stdout, reference.stderr)
            return launched

        ran = launch("run", "--f", THREE_CYCLE, "--seed", "11")
        assert ran.returncode == 0 and json.loads(ran.stdout)["seed"] == 11
        refused = launch("capacities", "--f", BEYOND_DENSE_CAP)
        assert refused.returncode == 2 and refused.stdout == ""
        assert refused.stderr.startswith("error: ") and refused.stderr.count("\n") == 1

    def test_run_output_is_deterministic(self):
        first = run_script("run", "--f", THREE_CYCLE, "--seed", "11", check=True)
        second = run_script("run", "--f", THREE_CYCLE, "--seed", "11", check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["seed"] == 11

    def test_log_env_var_enables_stderr_logging(self):
        quiet = run_script("verify", "--f", IDENTITY2, check=True)
        loud = run_script(
            "verify", "--f", IDENTITY2, env_extra={"ORACLE_LOCC_LOG": "INFO"}, check=True
        )
        assert quiet.stderr == ""
        assert "INFO" in loud.stderr
        assert quiet.stdout == loud.stdout

    def test_serve_connect_matches_run(self):
        command, env = cli_command()
        server = subprocess.Popen(
            [*command, "serve", "--f", THREE_CYCLE, "--seed", "11", "--port", "0",
             "--timeout", "20"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            announcement = server.stderr.readline()
            assert announcement.startswith("listening on ")
            port = int(announcement.strip().rsplit(":", 1)[1])
            clients = [
                subprocess.Popen(
                    [*command, "connect", "--role", role, "--f", THREE_CYCLE,
                     "--port", str(port), "--timeout", "20"],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    text=True,
                    env=env,
                )
                for role in ("alice", "bob")
            ]
            for client in clients:
                client.communicate(timeout=60)
                assert client.returncode == 0
            out, _err = server.communicate(timeout=60)
            assert server.returncode == 0
        finally:
            server.kill()
            server.wait()
        direct = run_script("run", "--f", THREE_CYCLE, "--seed", "11", check=True)
        assert out == direct.stdout  # byte-identical transcripts across transports

    def test_protocol_error_in_serve_connect_is_one_line_per_process(self):
        # Alice declares a different table, so the referee's handshake fails.
        command, env = cli_command()
        results = serve_connect(command, env, IDENTITY2, (("alice", SWAP2), ("bob", IDENTITY2)))
        for returncode, err in results:
            assert returncode == 1, err
            assert err.count("\n") == 1 and "Traceback" not in err, err
            assert err.startswith("protocol error: HandshakeMismatch: "), err
            assert "alice's function table differs from the referee's" in err, err

    def test_hostile_frame_to_serve_is_one_protocol_error_line(self):
        # A kind that is a JSON list once made decode_wire raise TypeError, and serve print a traceback.
        body = b'{"seq": 1, "sender": "alice", "kind": ["HANDSHAKE"], "payload": {}}'
        command, env = cli_command()
        server = subprocess.Popen(
            [*command, "serve", "--f", IDENTITY2, "--port", "0", "--timeout", "20"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            announcement = server.stderr.readline()
            assert announcement.startswith("listening on ")
            port = int(announcement.strip().rsplit(":", 1)[1])
            # Both clients send it, so the outcome does not depend on accept order.
            clients = [socket.create_connection(("127.0.0.1", port), timeout=20) for _ in range(2)]
            try:
                for client in clients:
                    client.sendall(struct.pack("<I", len(body)) + body)
                out, err = server.communicate(timeout=60)
            finally:
                for client in clients:
                    client.close()
        finally:
            server.kill()
            server.wait()
        assert server.returncode == 1, err
        assert out == ""
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("protocol error: WireFormatError: unknown message kind"), err

    def test_party_failure_in_serve_connect_names_its_cause_in_every_process(self):
        # Under the 4 KiB cap Alice cannot encode her step-1 frame.  Her ERROR
        # frame tells the referee, which tells Bob.
        low_cap = [sys.executable, "-c", LOW_FRAME_CAP_CLI]
        referee, alice, bob = serve_connect(
            low_cap, src_env(), PERMUTATION24,
            (("alice", PERMUTATION24), ("bob", PERMUTATION24)), serve_args=("--seed", "1"),
        )
        for returncode, err in (referee, bob):
            assert returncode == 3, err
            assert err.count("\n") == 1 and "Traceback" not in err, err
            assert err.startswith(
                "transport error: alice failed: WireFormatError: frame length "), err
            assert err.endswith(" exceeds the 4096-byte cap\n"), err
        returncode, err = alice
        assert returncode == 1, err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("protocol error: WireFormatError: frame length "), err

    def test_party_failure_is_one_line_naming_its_cause(self):
        proc = subprocess.run(
            [sys.executable, "-c", LOW_FRAME_CAP_CLI, "run", "--f", PERMUTATION24, "--seed", "1"],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("transport error: alice failed: WireFormatError")

    def test_serve_on_a_busy_port_is_one_transport_error_line(self, capsys):
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            port = busy.getsockname()[1]
            assert cli("serve", "--f", IDENTITY2, "--port", str(port), "--timeout", "1") == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        assert captured.err.startswith(f"transport error: cannot listen on 127.0.0.1:{port}: ")

    def test_connect_to_dead_port_is_a_transport_error(self):
        import socket as socketlib

        probe = socketlib.socket()
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
        probe.close()
        proc = run_script(
            "connect", "--role", "alice", "--f", IDENTITY2,
            "--port", str(dead_port), "--timeout", "1",
        )
        assert proc.returncode == 3
        assert "transport error" in proc.stderr
