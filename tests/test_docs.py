"""Documentation stays healthy: links, file references and API names
resolve, cli.md tracks the CLI.

The cheap parts of the CI docs job, run in tier-1 so a broken link, a
dangling file reference in code, a doc naming a ``repro.…`` function
that no longer exists (``check_docs.py --links`` checks all three) or
a CLI flag change without a
``docs/cli.md`` regeneration fails locally too. The README quickstart snippets (which actually simulate) run only
in the CI docs job — see ``tools/check_docs.py --quickstart``.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_docs  # noqa: E402


def _run_tool(script, *args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / script), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=120,
    )


class TestDocs:
    def test_readme_and_docs_exist(self):
        assert (REPO_ROOT / "README.md").exists()
        assert (REPO_ROOT / "docs" / "architecture.md").exists()
        assert (REPO_ROOT / "docs" / "cli.md").exists()

    def test_internal_links_resolve(self):
        result = _run_tool("check_docs.py", "--links")
        assert result.returncode == 0, result.stderr

    def test_reference_check_flags_dangling_refs(self, tmp_path):
        # The planted names are split so that this file's own source,
        # which the real check scans, carries no dangling reference.
        def ref(*parts):
            return "".join(parts)

        (tmp_path / "results").mkdir()
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "src").mkdir()
        (tmp_path / "README.md").write_text("")
        (tmp_path / "results" / "ok.csv").write_text("")
        (tmp_path / "results" / "ok.txt").write_text("")
        (tmp_path / "results" / "half.csv").write_text("")
        (tmp_path / "benchmarks" / ref("bench", "_ok.py")).write_text("")
        good = [
            ref("README", ".md"), ref("results", "/ok.*"),
            ref("results", "/ok.{csv,txt}"), ref("bench", "_ok.py"),
            ref("benchmarks", "/bench_ok.py"), ref("results", "/{name}.csv"),
        ]
        bad = [
            ref("DESIGN", ".md"), ref("results", "/cache_affinity.*"),
            ref("bench", "_cache_affinity.py"),
            ref("tests", "/test_gone.py"), ref("results", "/half.{csv,txt}"),
        ]
        (tmp_path / "src" / "mod.py").write_text(
            '"""' + " ".join(f"see ``{name}``." for name in good + bad)
            + '"""\n'
        )
        errors = check_docs.check_refs(tmp_path)
        assert [error.split("-> ")[1] for error in errors] == bad

    def test_api_name_check_flags_unresolved_names(self, tmp_path):
        good = [
            "repro.parallel", "repro.cluster.simulate_multichip_gcn",
            "repro.serve.service.InferenceService._serve_sharded",
        ]
        bad = [
            "repro.serve.service._serve_sharded", "repro.no_such_module",
            "repro.cluster.multichip.ClusterConfig.no_such_field",
        ]
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            " ".join(f"`{name}`" for name in good)
        )
        (tmp_path / "docs" / "cli.md").write_text(
            "\n".join(f"| row | `{name}` |" for name in bad)
        )
        errors = check_docs.check_api_names(tmp_path)
        assert [error.split("-> ")[1] for error in errors] == bad
        assert errors[0].startswith("docs/cli.md:1:")

    def test_cli_reference_in_sync(self):
        result = _run_tool("gen_cli_docs.py", "--check")
        assert result.returncode == 0, (
            result.stderr
            + "\nregenerate with: PYTHONPATH=src python tools/gen_cli_docs.py"
        )

    def test_readme_has_quickstart_fence(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "```python" in text
        assert "bench-rebalance" in text, (
            "README must document the perf-harness CLI entry point"
        )
