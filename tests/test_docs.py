"""Documentation is part of tier-1: fences and the API reference.

The heavy lifting lives in ``docs/check_docs.py`` (also run as a
standalone CI step); these tests pull the same checks into the default
test run so docs drift fails locally, before a push.
"""

import importlib.util
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_checker():
    spec = importlib.util.spec_from_file_location(
        "check_docs", os.path.join(REPO, "docs", "check_docs.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checker():
    return _load_checker()


def test_required_docs_exist():
    for name in ("ARCHITECTURE.md", "serving.md", "api.md"):
        assert os.path.exists(os.path.join(REPO, "docs", name)), name


def test_all_fences_match_implementation(checker, capsys):
    assert checker.main([]) == 0
    assert "fences match" in capsys.readouterr().out


def test_checker_flags_scripts_importing_missing_names(
    checker, tmp_path, monkeypatch, capsys
):
    """Example and benchmark scripts are gated like python fences."""
    script = tmp_path / "stale_example.py"
    script.write_text(
        "import numpy as np\n"
        "from repro.core import CircuitObjective, no_such_objective\n"
    )
    monkeypatch.setattr(checker, "script_files", lambda: [str(script)])
    assert checker.main([]) == 1
    err = capsys.readouterr().err
    assert "stale_example.py" in err
    assert "no attribute 'no_such_objective'" in err
    assert "CircuitObjective" not in err


def test_api_reference_matches_route_table():
    """docs/api.md == the Markdown rendered from the live route table."""
    from repro.serve.openapi import generate_markdown

    with open(os.path.join(REPO, "docs", "api.md")) as fh:
        committed = fh.read()
    assert committed == generate_markdown(), (
        "docs/api.md is out of date; regenerate with "
        "`python -m repro.serve.openapi --markdown --out docs/api.md`"
    )


def test_checker_catches_drift(checker, tmp_path):
    """The gate itself must fail on the failure modes it exists for."""
    errors = []
    checker.check_python(
        "from repro.library import no_such_name\n", "x.md:1", errors
    )
    assert any("no attribute 'no_such_name'" in e for e in errors)

    errors = []
    checker.check_bash(
        "python -m repro.cli library query --db x --no-such-flag 1\n",
        "x.md:1", errors,
    )
    assert any("does not parse" in e for e in errors)

    errors = []
    checker.check_bash(
        "curl -s 'http://localhost:8080/v1/bogus?width=3'\n", "x.md:1", errors
    )
    assert any("matches no serve route" in e for e in errors)

    errors = []
    checker.check_bash(
        "curl -s 'http://localhost:8080/v1/best?no_such_param=1'\n",
        "x.md:1", errors,
    )
    assert any("not declared" in e for e in errors)

    errors = []
    checker.check_bash("python scripts/gone_forever.py\n", "x.md:1", errors)
    assert any("does not exist" in e for e in errors)

    errors = []
    checker.check_json("{not json}", "x.md:1", errors)
    assert any("not valid JSON" in e for e in errors)

    # Multi-line continuation + env prefix + placeholder parse cleanly.
    errors = []
    checker.check_bash(
        "PYTHONPATH=src python -m repro.cli library show \\\n"
        "    --db designs.sqlite <design-id>\n",
        "x.md:1", errors,
    )
    assert errors == []
