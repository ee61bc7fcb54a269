import re

from objassoc import config as config_module
from objassoc.config import RunConfig, config_from_text, config_to_text


def documented_defaults() -> str:
    """The indented ``key = value`` block of the config module's docstring."""
    block = re.search(r"Keys and defaults:\n\n((?:    \S.*\n)+)", config_module.__doc__)
    return "".join(line[4:] + "\n" for line in block.group(1).splitlines())


def test_default_text_matches_the_documented_block():
    assert config_to_text(RunConfig()) == documented_defaults()


def test_default_text_round_trips():
    text = config_to_text(RunConfig())
    assert config_from_text(text) == RunConfig()
    assert config_to_text(config_from_text(text)) == text


def test_non_default_config_round_trips():
    custom = RunConfig(
        group_size=4,
        group_overlap=1,
        gmm_base_cov_pos_sigma=0.4,
        assoc_gibbs_sweeps=3,
        assoc_seed=11,
        refine_a_deg=30.0,
        refine_b_m=0.5,
    )
    assert config_from_text(config_to_text(custom)) == custom
