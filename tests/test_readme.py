import contextlib
import io
import re
from pathlib import Path

from hierdp import SynthSpec, privatize, serialize_hierarchy, synth_hierarchy, uniform_allocation

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_examples_run(tmp_path, monkeypatch):
    # the files the first example opens: a tree and an earlier release of it
    h = synth_hierarchy(SynthSpec(seed=1))
    (tmp_path / "counts.csv").write_text(serialize_hierarchy(h))
    earlier = privatize(h, uniform_allocation(h.depth, 1.0), seed=0, hier=False)
    (tmp_path / "released.csv").write_text(earlier.to_csv())
    monkeypatch.chdir(tmp_path)

    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert len(blocks) == 3
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue().startswith("node_id,parent_id,level,count\n")


def test_public_names_resolve():
    import hierdp

    names = hierdp.__all__
    assert [n for n in names if not hasattr(hierdp, n)] == []
    assert names == sorted(names)
    assert len(set(names)) == len(names)


def test_layout_lists_every_module():
    layout = re.search(r"^## Layout\n\n```\n(.*?)^```$", README.read_text(), re.M | re.S)
    listed = set(re.findall(r"^  (\w+\.py)\s", layout.group(1), re.M))
    package = README.parent / "src" / "hierdp"
    assert listed == {p.name for p in package.glob("*.py")} - {"__init__.py"}
