"""README's code and tables match the package as written, so the
documented API and command line cannot drift from it."""

import importlib
import os
import re

from enkf_lab.cli import _REGISTRY, cli_main, load_config
from test_cli import MINIMAL_CONFIGS, write_config

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def read_readme():
    with open(README) as fh:
        return fh.read()


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", read_readme(), flags=re.S)
    assert blocks, "README has no python block"
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {"__name__": "readme"})


def test_readme_json_blocks_load_as_configs(tmp_path):
    blocks = re.findall(r"```json\n(.*?)```", read_readme(), flags=re.S)
    assert blocks, "README has no json block"
    for i, block in enumerate(blocks):
        path = tmp_path / f"block{i}.json"
        path.write_text(block)
        load_config(str(path))


def test_readme_subcommand_table_matches_the_parser(capsys):
    assert cli_main(["--help"]) == 0
    parser_names = re.search(r"\{([^}]*)\}", capsys.readouterr().out).group(1).split(",")
    section = read_readme().split("## Command line", 1)[1].split("\n## ", 1)[0]
    table_names = re.findall(r"^\| `([^`]+)` \|", section, flags=re.M)
    assert table_names == parser_names


def test_writes_column_matches_the_files_each_subcommand_writes(tmp_path):
    # run each subcommand on its minimal config; besides manifest.json it
    # writes exactly the files its "writes" cell names, <k> standing for a seed
    section = read_readme().split("## Command line", 1)[1].split("\n## ", 1)[0]
    writes = dict(re.findall(r"^\| `([^`]+)` \| [^|]* \| (.*) \|$", section, flags=re.M))
    for experiment, spec in _REGISTRY.items():
        out = tmp_path / experiment
        path = write_config(tmp_path, MINIMAL_CONFIGS[experiment])
        assert cli_main([spec.subcommand, "--config", path, "--out", str(out)]) == 0
        names = set(os.listdir(out)) - {"manifest.json"}
        for pattern in re.findall(r"`([^`]+)`", writes[spec.subcommand]):
            matched = {n for n in names if re.fullmatch(re.escape(pattern).replace("<k>", r"\d+"), n)}
            assert matched, f"{spec.subcommand} wrote no {pattern}"
            names -= matched
        assert not names, f"{spec.subcommand} wrote files its README row does not name: {sorted(names)}"


def test_library_tour_names_every_public_name():
    # each module's row names every entry of its __all__, so a public name
    # cannot be added or dropped without the README following
    tour = read_readme().split("## Library tour", 1)[1].split("\n## ", 1)[0]
    rows = dict(re.findall(r"^\| `(enkf_lab\.\w+)` \| (.*) \|$", tour, flags=re.M))
    assert rows, "README's Library tour has no module rows"
    for module in rows:
        for name in getattr(importlib.import_module(module), "__all__", ()):
            assert re.search(rf"\b{name}\b", rows[module]), f"README's {module} row does not name {name}"
