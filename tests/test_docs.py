"""Documentation integrity: files exist, the API index regenerates,
and nothing points at the retired benchmark harness."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


class TestDocFiles:
    def test_required_documents_exist(self):
        for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/API.md"):
            path = ROOT / name
            assert path.exists(), f"missing {name}"
            assert len(path.read_text()) > 500

    def test_design_lists_every_bench(self):
        design = (ROOT / "DESIGN.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_e*.py")):
            assert bench.name in design, f"{bench.name} missing from DESIGN.md"

    def test_experiments_covers_every_bench(self):
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        for bench in sorted((ROOT / "benchmarks").glob("bench_e*.py")):
            assert bench.name in experiments, f"{bench.name} missing from EXPERIMENTS.md"


class TestApiIndex:
    def load_generator(self):
        spec = importlib.util.spec_from_file_location(
            "gen_api_docs", ROOT / "tools" / "gen_api_docs.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def test_builds_and_mentions_core_symbols(self):
        gen = self.load_generator()
        text = gen.build()
        for symbol in ("VanAttaArray", "simulate_link", "LinkBudget",
                       "ReaderReceiver", "SlottedAlohaInventory"):
            assert symbol in text, f"{symbol} missing from API index"

    def test_committed_index_is_current(self):
        gen = self.load_generator()
        assert (ROOT / "docs" / "API.md").read_text() == gen.build()


class TestNoRetiredHarness:
    # The pre-perfbench harness scripts, their numbered records and the
    # viewer subcommand that rendered them; the lint modes and the lint
    # provenance that campaign runs no longer carry, and the second lint
    # CLI. Root-level Markdown notes other than the user-facing documents
    # (change log, roadmap, planning notes) keep their history, and
    # perfbench's README explains why its numbers differ.
    RETIRED = re.compile(
        r"bench_(?:perf|compare)|BENCH_\d|\bobs\s+timeline"
        r"|(?:lint[_-]|tree_)finger(?:print)|lint_base(?:line)"
        r"|--update-base(?:line)|render_sa(?:rif)|\brepro\s+lint\b"
    )
    CHECKED_ROOT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")

    def exempt(self, name):
        if name.startswith("perfbench/"):
            return True
        return ("/" not in name and name.endswith(".md")
                and name not in self.CHECKED_ROOT_DOCS)

    def tracked_files(self):
        try:
            out = subprocess.run(
                ["git", "ls-files", "-z"], cwd=ROOT, capture_output=True,
                check=True,
            ).stdout
        except (OSError, subprocess.CalledProcessError):
            pytest.skip("not a git checkout")
        return [name for name in out.decode().split("\0") if name]

    def test_no_tracked_file_points_at_it(self):
        stale = []
        for name in self.tracked_files():
            if self.exempt(name):
                continue
            path = ROOT / name
            if not path.is_file():
                continue
            text = path.read_text(encoding="utf-8", errors="ignore")
            for lineno, line in enumerate(text.splitlines(), 1):
                if self.RETIRED.search(line):
                    stale.append(f"{name}:{lineno}: {line.strip()}")
        assert stale == [], "\n".join(stale)
