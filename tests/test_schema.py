"""EncoderConfig + TrainPlan are the one config schema: RunConfig, the
SentenceEncoder parameters and the CLI config flags are derived from it."""

from dataclasses import fields

from cmlmkit.cli import build_parser
from cmlmkit.config import RunConfig
from cmlmkit.estimators import SentenceEncoder
from cmlmkit.losses import CMLM_VARIANTS
from cmlmkit.model import POOLING_KINDS, EncoderConfig
from cmlmkit.training import STRATEGIES, TrainPlan

RUN_KEYS = {f.name for f in fields(RunConfig)}

# flags of the two training subcommands that set no config key
NOT_CONFIG = {
    "train": {"help", "config", "resume"},
    "ablate-n": {"help", "config", "values", "variants", "steps", "eval_pairs",
                 "out"},
}


def subcommand_actions(name):
    parser = build_parser()
    sub = next(a for a in parser._actions if a.dest == "command")
    return sub.choices[name]._actions


def test_run_config_keys_are_the_schema_fields():
    schema = [f.name for f in fields(EncoderConfig)] + \
        [f.name for f in fields(TrainPlan)]
    assert [f.name for f in fields(RunConfig)] == schema


def test_run_config_defaults_are_the_schema_defaults():
    config = RunConfig()
    assert config.encoder_config() == EncoderConfig(vocab_size=256)
    assert config.train_plan() == TrainPlan()


def test_sentence_encoder_params_are_the_run_config_keys():
    params = SentenceEncoder().get_params()
    assert set(params) == RUN_KEYS - {"corpus_path"} | {"representation"}
    defaults = RunConfig()
    for key in RUN_KEYS - {"corpus_path"}:
        assert params[key] == getattr(defaults, key)


def test_config_flag_dests_are_run_config_keys():
    for name, others in NOT_CONFIG.items():
        dests = {a.dest for a in subcommand_actions(name)}
        assert dests - others <= RUN_KEYS, name
        assert {"corpus_path", "seed", "n_projections", "num_mask"} <= dests


def test_cli_choices_are_the_owning_constants():
    for name in NOT_CONFIG:
        choices = {a.dest: a.choices for a in subcommand_actions(name)
                   if a.choices}
        assert set(choices["strategy"]) == set(STRATEGIES) | {"cmlm"}
        assert tuple(choices["pooling"]) == POOLING_KINDS
        assert tuple(choices["variant"]) == CMLM_VARIANTS
