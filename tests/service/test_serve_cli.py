"""CLI surface of the service tier: ``serve`` and ``run service-load``."""

import json
import os
import signal
import subprocess
import sys
import time

from repro.cli import main
from repro.crypto.bignum import backend


REPO_SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src"
)


class TestServiceLoadExperiment:
    def test_listed(self, capsys):
        assert main(["list"]) == 0
        assert "service-load" in capsys.readouterr().out

    def test_fast_run_reports_every_verdict(self, capsys):
        assert main(["run", "service-load", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "===== service-load:" in out
        assert "reconciles exactly: yes" in out
        assert "identical to equivalent batch run: yes" in out
        assert "batch-attested PoCs:" in out
        assert "clean shutdown: yes" in out
        assert "NO" not in out


class TestServeCommand:
    def test_serve_writes_metrics_snapshot_on_shutdown(
        self, capsys, tmp_path
    ):
        """Satellite: --metrics-out must work under serve, not just run."""
        metrics = tmp_path / "serve.json"
        assert main([
            "serve",
            "--sessions", "2",
            "--events", "6",
            "--cycle", "10",
            "--cdr-period", "5",
            "--metrics-out", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "reconciles exactly: yes" in out
        assert str(metrics) in out
        snapshot = json.loads(metrics.read_text())
        assert snapshot["accounting"]["reconciles"]
        assert snapshot["ingest"]["accepted_events"] == 12
        assert snapshot["attestation"]["claims_attested"] >= 1
        assert snapshot["settlements"] >= 2
        # No silent fallback: the run names its exponentiation path.
        assert snapshot["crypto"]["backend"] == backend()

    def test_serve_without_metrics_out_still_reports(self, capsys):
        assert main(["serve", "--sessions", "1", "--events", "3"]) == 0
        out = capsys.readouterr().out
        assert "charging service up" in out
        assert "reconciles exactly: yes" in out

    def test_invalid_configuration_fails_cleanly(self, capsys):
        assert main(["serve", "--sessions", "0"]) == 2
        assert "invalid serve" in capsys.readouterr().err

    def test_sigterm_triggers_graceful_snapshot(self, tmp_path):
        """Satellite: a signal-stopped service leaves a full snapshot."""
        metrics = tmp_path / "sig.json"
        env = dict(os.environ, PYTHONPATH=REPO_SRC)
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--sessions", "2",
                "--events", "4",
                "--linger", "60",
                "--metrics-out", str(metrics),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        try:
            # Wait for the load to finish and the linger phase to start,
            # then stop the service the way an init system would.
            for line in proc.stdout:
                if "serving for up to" in line:
                    break
            proc.send_signal(signal.SIGTERM)
            out_rest = proc.stdout.read()
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert "shutdown (SIGTERM)" in out_rest
        assert "metrics snapshot written" in out_rest
        deadline = time.time() + 5
        while not metrics.exists() and time.time() < deadline:
            time.sleep(0.05)
        snapshot = json.loads(metrics.read_text())
        assert snapshot["accounting"]["reconciles"]
        assert snapshot["ingest"]["accepted_events"] == 8
