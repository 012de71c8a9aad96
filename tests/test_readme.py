"""The README's stated values: its library example and its cap examples."""

import json
import re
from pathlib import Path

from dbcayley.cli import EXIT_OK, EXIT_RESOURCE, main

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    """The python block of the README's ``## Library`` section."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_states_true_values():
    names: dict = {}
    exec(compile(library_block(), str(README), "exec"), names)
    result = names["result"]
    assert result.diameter == 2
    assert result.histogram == [1, 7, 16]
    assert names["report"].ok
    best = names["best"]
    assert (best.ell, best.degree) == (9, 671)
    row = names["row"]
    assert (row.our_name, row.our_order) == ("thm1", 1029)
    assert row.competitor_orders["vetrik"] == 1024
    assert row.winner == "thm1"


def test_cap_examples(capsys):
    # refused at the default cap by its 192,937,984 vertices
    assert main(["verify", "thm3:k=3,l=10,t=2,m=3"]) == EXIT_RESOURCE
    assert "192937984" in capsys.readouterr().err

    assert main(["verify", "cor:k=3,l=11", "--cap", "4000000000"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["order"] == 3_623_878_656
    assert payload["degree"] == 2879
    assert payload["diameter"] == 3
    assert payload["histogram"] == [1, 2879, 6665184, 3617210592]

    # under the vertex cap, refused on its arcs
    assert main(["export", "cor:k=3", "edge-list"]) == EXIT_RESOURCE
    assert "arcs" in capsys.readouterr().err
