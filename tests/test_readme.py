import json
import re
from pathlib import Path

from logan import ComparisonReport, ClusterReport, GridResult
from logan.io import write_jsonl
from logan.synthetic import PlantedBiasSpec, generate

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block():
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_use_runs(tmp_path):
    """The "Library use" snippet runs as written on rows in the JSONL shape."""
    path = tmp_path / "rows.jsonl"
    write_jsonl(generate(PlantedBiasSpec(n_per_component=60, seed=0)), path)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    scope = {"rows": rows}
    exec(library_use_block(), scope)
    assert isinstance(scope["grid"], GridResult)
    assert all(isinstance(r, ClusterReport) for r in scope["reports"])
    assert len(scope["reports"]) == scope["grid"].chosen.model.n_clusters
    assert isinstance(scope["comparison"], ComparisonReport)
