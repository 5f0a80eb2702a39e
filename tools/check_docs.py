"""Documentation health checks: links, file references and API names
resolve, quickstart runs.

Two independent checks, both exercised by CI's docs job (and the link
half by ``tests/test_docs.py``):

* ``--links``: every relative markdown link in ``README.md`` and
  ``docs/*.md`` must point at an existing file or directory (external
  ``http(s)://`` / ``mailto:`` links and pure ``#anchor`` links are
  skipped — the repo is developed offline). Every repo-relative file
  reference in the code under ``src/``, ``tests/``, ``benchmarks/``
  and ``tools/`` — markdown files, ``results/`` artifacts, benchmark
  and test modules — must resolve too. Globs
  (``results/mixed_load.*``) and brace lists
  (``results/straggler.{csv,txt}``) must match at least one file.
  Every backticked dotted ``repro.…`` name in ``README.md`` and
  ``docs/*.md`` must resolve as well: the longest importable module
  prefix is imported (with ``src/`` put on the path here) and the rest
  looked up attribute by attribute, so a doc row naming a function
  that moved or was deleted fails.
* ``--quickstart``: every ``python`` code fence in ``README.md`` is
  executed (in order, in one namespace per fence) with ``src/`` on the
  path, so the advertised snippets can never rot.

With no flags, both checks run. Exit code 0 = healthy.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# [text](target) — excluding images; target split from an optional title.
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
# File references in code: markdown files (bare names resolve at the
# repo root or under docs/), results/ artifacts, and benchmark/test
# modules (bare bench_*/test_* names resolve under benchmarks/ and
# tests/).
_REF = re.compile(
    r"(?<![\w./{}*-])("
    r"(?:[\w-]+/)*[\w*.-]*[\w*]\.md"
    r"|results/[\w.*{},/-]*"
    r"|(?:benchmarks/|tests/)?(?:bench|test)_[\w*]+\.py"
    r")(?![\w/])"
)
_BRACES = re.compile(r"\{([^{}]*)\}")
# A whole backticked dotted name under the package: `repro.a.b`.
_API = re.compile(r"`(repro(?:\.\w+)+)`")
REF_DIRS = ("src", "tests", "benchmarks", "tools")


def _doc_files(root=REPO_ROOT):
    docs = [root / "README.md"]
    docs.extend(sorted((root / "docs").glob("*.md")))
    return [path for path in docs if path.exists()]


def check_links():
    """Verify relative links in README.md and docs/*.md; returns errors."""
    errors = []
    for doc in _doc_files():
        text = doc.read_text()
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link "
                    f"-> {target}"
                )
    return errors


def _expand(ref):
    """The concrete glob patterns one reference stands for.

    ``{a,b}`` brace lists expand to one pattern each; a brace group
    without a comma is a format template (``{name}``), not a file
    name, so the reference is skipped (empty list).
    """
    match = _BRACES.search(ref)
    if match is None:
        return [ref]
    if "," not in match.group(1):
        return []
    head, tail = ref[:match.start()], ref[match.end():]
    return [
        pattern
        for option in match.group(1).split(",")
        for pattern in _expand(head + option + tail)
    ]


def _candidates(pattern):
    """Repo-relative places one reference pattern may resolve to."""
    if "/" in pattern:
        return [pattern]
    if pattern.startswith("bench_"):
        return [f"benchmarks/{pattern}"]
    if pattern.startswith("test_"):
        return [f"tests/{pattern}"]
    return [pattern, f"docs/{pattern}"]


def _exists(root, candidate):
    if "*" in candidate:
        return any(root.glob(candidate))
    return (root / candidate).exists()


def check_refs(root=REPO_ROOT):
    """Verify repo-relative file references in code; returns errors."""
    root = Path(root)
    errors = []
    for name in REF_DIRS:
        for source in sorted((root / name).rglob("*.py")):
            text = source.read_text()
            for match in _REF.finditer(text):
                ref = match.group(1).rstrip(".,")
                if all(
                    any(_exists(root, c) for c in _candidates(pattern))
                    for pattern in _expand(ref)
                ):
                    continue
                line = text.count("\n", 0, match.start()) + 1
                errors.append(
                    f"{source.relative_to(root)}:{line}: unresolved "
                    f"file reference -> {ref}"
                )
    return errors


def _resolves(dotted):
    """Whether a dotted ``repro.…`` name names a real module or attribute."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            obj = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            # Only "this prefix is not a module" moves on to a shorter
            # one; a missing dependency inside a real module surfaces.
            if not (module_name + ".").startswith(f"{exc.name}."):
                raise
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


def check_api_names(root=REPO_ROOT):
    """Verify backticked ``repro.…`` names in the docs; returns errors."""
    root = Path(root)
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    errors = []
    for doc in _doc_files(root):
        text = doc.read_text()
        for match in _API.finditer(text):
            if _resolves(match.group(1)):
                continue
            line = text.count("\n", 0, match.start()) + 1
            errors.append(
                f"{doc.relative_to(root)}:{line}: unresolved API name "
                f"-> {match.group(1)}"
            )
    return errors


def check_quickstart():
    """Run every python fence in README.md in a subprocess; returns errors."""
    readme = REPO_ROOT / "README.md"
    fences = _FENCE.findall(readme.read_text())
    if not fences:
        return ["README.md: no ```python quickstart fence found"]
    errors = []
    for index, code in enumerate(fences):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".py", delete=False
        ) as handle:
            handle.write(code)
            script = handle.name
        try:
            result = subprocess.run(
                [sys.executable, script],
                cwd=REPO_ROOT,
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
                capture_output=True,
                text=True,
                timeout=300,
            )
            if result.returncode != 0:
                errors.append(
                    f"README.md python fence #{index + 1} failed "
                    f"(exit {result.returncode}):\n{result.stderr.strip()}"
                )
        except subprocess.TimeoutExpired:
            errors.append(
                f"README.md python fence #{index + 1} timed out (300 s)"
            )
        finally:
            Path(script).unlink(missing_ok=True)
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--links", action="store_true",
                        help="only check markdown links, file "
                             "references in code and API names in docs")
    parser.add_argument("--quickstart", action="store_true",
                        help="only run the README python fences")
    args = parser.parse_args(argv)
    run_links = args.links or not args.quickstart
    run_quickstart = args.quickstart or not args.links

    errors = []
    if run_links:
        errors.extend(check_links())
        errors.extend(check_refs())
        errors.extend(check_api_names())
    if run_quickstart:
        errors.extend(check_quickstart())
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        checked = [
            name for name, on in (
                ("links", run_links), ("quickstart", run_quickstart)
            ) if on
        ]
        print(f"docs healthy ({', '.join(checked)} ok)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
