"""Regenerate the README's generated blocks from the registries they render.

Two blocks of ``README.md`` are written by code, never by hand, each between
a begin and an end marker comment: the telemetry counter glossary
(:func:`repro.telemetry.names.render_glossary`) and the snapshot
dtype-contract table (:func:`repro.fastpath.dtypes.render_contract`)::

    python -m repro.devtools.readme                    # print both blocks
    python -m repro.devtools.readme --write README.md  # rewrite them in place

Tier-1 tests assert that the committed README equals the rendered blocks.
No package ``__init__`` imports this module, so ``python -m`` runs it as a
fresh ``__main__``.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from repro.fastpath.dtypes import render_contract
from repro.telemetry.names import render_glossary

__all__ = ["Block", "BLOCKS", "CONTRACT", "GLOSSARY", "replace_block", "update_readme", "main"]


class Block(NamedTuple):
    """One generated README block: its two marker lines and its renderer."""

    begin: str
    end: str
    render: Callable[[], str]


GLOSSARY = Block(
    "<!-- counter-glossary:begin (generated from repro/telemetry/names.py) -->",
    "<!-- counter-glossary:end -->",
    render_glossary,
)
CONTRACT = Block(
    "<!-- dtype-contract:begin (generated from repro/fastpath/dtypes.py) -->",
    "<!-- dtype-contract:end -->",
    render_contract,
)
BLOCKS = (GLOSSARY, CONTRACT)


def replace_block(text: str, block: Block) -> str:
    """``text`` with the lines between ``block``'s markers re-rendered.

    Raises
    ------
    ValueError
        If either marker is missing, or the end marker precedes the begin.
    """
    begin = text.find(block.begin)
    end = text.find(block.end)
    if begin < 0 or end < begin:
        raise ValueError(f"README markers not found: expected {block.begin!r} ... {block.end!r}")
    return f"{text[: begin + len(block.begin)]}\n{block.render()}\n{text[end:]}"


def update_readme(text: str) -> str:
    """``text`` with every generated block re-rendered."""
    for block in BLOCKS:
        text = replace_block(text, block)
    return text


def main(argv: Sequence[str] | None = None) -> int:
    """Print every generated block, or rewrite a file's blocks in place."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.readme",
        description="Render the README's generated blocks from their registries.",
    )
    parser.add_argument(
        "--write",
        metavar="PATH",
        default=None,
        help="rewrite PATH's generated blocks in place (default: print them)",
    )
    options = parser.parse_args(argv)
    if options.write is None:
        print("\n\n".join(f"{block.begin}\n{block.render()}\n{block.end}" for block in BLOCKS))
        return 0
    path = Path(options.write)
    path.write_text(update_readme(path.read_text(encoding="utf-8")), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
