"""Shared helpers for the benchmark suite.

Each benchmark regenerates one of the paper's tables or figures, times the
regeneration with pytest-benchmark, prints the rows/series next to the
paper's reported values, and checks them against the golden copy
committed under ``benchmarks/output/``.
"""

from __future__ import annotations

import pathlib

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def record(name: str, text: str) -> None:
    """Print a regenerated table and check it against its golden file.

    ``benchmarks/output/<name>.txt`` is the committed golden copy, and
    the regenerated text must equal it byte for byte. Only a missing
    golden is written, so regenerating one means deleting the file and
    re-running its benchmark.
    """
    print()
    print(text)
    path = OUTPUT_DIR / f"{name}.txt"
    produced = text + "\n"
    if not path.exists():
        OUTPUT_DIR.mkdir(exist_ok=True)
        path.write_bytes(produced.encode("utf-8"))
        return
    # Bytes, not read_text(): newline translation must not hide a change.
    assert path.read_bytes().decode("utf-8") == produced, (
        f"{name} no longer matches {path}; delete the file and re-run to "
        "regenerate it if the change is intended"
    )
