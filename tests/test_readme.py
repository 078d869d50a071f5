"""The README's library example runs as written, and its config block lists exactly
the keys and choices the config parsers accept."""

import re
from pathlib import Path

import numpy as np
import pytest

from tdsim.cli import _CONVERTERS, ConfigError, parse_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_starts_in_plus():
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    names = {}
    exec(compile(block, str(README), "exec"), names)
    expect = np.zeros(names["atoms"].n)
    expect[0] = 1.0
    np.testing.assert_allclose(names["td"].amplitudes, expect, rtol=0, atol=1e-12)


def config_block_lines():
    """The lines of the README's example config file."""
    [block] = re.findall(r"### Config files\n.*?```\n(.*?)```",
                         README.read_text(encoding="utf-8"), re.S)
    return block.splitlines()


def config_block_choices():
    """``key -> [choice, ...]`` from the ``# a | b | c`` comments of the config block."""
    choices = {}
    for line in config_block_lines():
        key, _, comment = line.partition("#")
        listed = comment.split("(")[0].split("|")
        if len(listed) > 1:
            choices[key.partition("=")[0].strip()] = [c.strip() for c in listed]
    return choices


@pytest.mark.parametrize("key", ["solver", "kernel", "section_axis", "geometry"])
def test_config_block_lists_the_accepted_choices(key):
    listed = config_block_choices()[key]
    with pytest.raises(ConfigError) as rejected:  # the message names every accepted choice
        parse_config({key: "?"})
    assert str(rejected.value) == f"{key} must be one of {sorted(set(listed))}, got '?'"
    assert len(set(listed)) == len(listed)


def test_config_block_lists_every_accepted_key_once():
    keys = [line.partition("#")[0].partition("=")[0].strip() for line in config_block_lines()]
    assert sorted(keys) == sorted(_CONVERTERS)
