"""The public API surface: dir(repro) == docs/API.md, config entry points."""

import pathlib
import re

import repro
from repro.core.config import RunConfig
from repro.experiments.runner import resolve_run_config

API_MD = pathlib.Path(__file__).resolve().parent.parent / "docs" / "API.md"


def documented_surface() -> list[str]:
    text = API_MD.read_text()
    match = re.search(
        r"<!-- api-surface:begin -->\s*```text\n(.*?)```",
        text,
        flags=re.DOTALL,
    )
    assert match, "docs/API.md must contain the api-surface block"
    return sorted(name for name in re.split(r"[\s,]+", match.group(1)) if name)


class TestSurface:
    def test_dir_matches_docs_exactly(self):
        assert dir(repro) == documented_surface()

    def test_dir_matches_all(self):
        assert dir(repro) == sorted(repro.__all__)

    def test_every_export_resolves(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None, name

    def test_no_underscore_leaks(self):
        leaked = [
            n for n in dir(repro) if n.startswith("_") and n != "__version__"
        ]
        assert leaked == []

    def test_observability_surface_present(self):
        for name in ("Tracer", "Span", "span", "MetricsRegistry",
                     "render_span_tree", "RunConfig", "run_sweep",
                     "SweepResult", "SweepJobResult"):
            assert name in repro.__all__, name


class TestRunConfigShims:
    def test_config_passthrough_is_silent(self, recwarn):
        config = RunConfig(scale=0.02)
        assert resolve_run_config(config) is config
        assert resolve_run_config(None).scale == RunConfig().scale
        deprecations = [
            w for w in recwarn.list if w.category is DeprecationWarning
        ]
        assert deprecations == []

    def test_experiment_entry_points_accept_config(self):
        from repro.experiments import table2

        rows = table2.run(
            testcases=table2.PAPER_TESTCASES[:1],
            config=RunConfig(scale=1.0 / 384.0),
        )
        assert len(rows) == 1
