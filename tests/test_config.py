"""Configuration defaults, validation, and the key=value file format."""

import math
import subprocess
from dataclasses import fields

import pytest

from iotsim import bench
from iotsim.cli import _config_from_args, build_parser
from iotsim.config import (
    OPTIONS,
    ConfigError,
    SimConfig,
    SpawnTrigger,
    config_to_file_text,
    read_config_file,
)


def test_defaults():
    cfg = SimConfig()
    assert cfg.num_ses == 1000
    assert cfg.mobile_fraction == 0.5
    assert cfg.speed_min == 1.0
    assert cfg.speed_max == 14.0
    assert cfg.interaction_range == 250.0
    assert cfg.forwarding_threshold == 200.0
    assert cfg.density == 1e-4
    assert cfg.total_timesteps == 900
    assert cfg.ttl == 4
    assert cfg.dissemination_prob == 0.6
    assert cfg.cache_capacity == 256
    assert cfg.num_lps == 1
    assert cfg.l1_schedule == ()
    assert cfg.l1_fine_steps_per_timestep == 100
    assert cfg.l1_grid_side == 10
    assert cfg.l1_transport == "tcp"


def test_world_side_from_density():
    cfg = SimConfig(num_ses=1000, density=1e-4)
    assert cfg.world_side == pytest.approx(math.sqrt(1000 / 1e-4))
    world = cfg.make_world()
    assert world.width == world.height == cfg.world_side


@pytest.mark.parametrize(
    "kw",
    [
        {"num_ses": 0},
        {"mobile_fraction": -0.1},
        {"mobile_fraction": 1.5},
        {"speed_min": 0.0},
        {"speed_min": 5.0, "speed_max": 4.0},
        {"interaction_range": 0.0},
        {"forwarding_threshold": -1.0},
        {"density": 0.0},
        {"total_timesteps": 0},
        {"ttl": -1},
        {"dissemination_prob": 1.1},
        {"cache_capacity": -1},
        {"generation_prob": -0.2},
        {"num_lps": 0},
        {"num_lps": 11, "num_ses": 10},
        {"l1_fine_steps_per_timestep": 0},
        {"l1_grid_side": 1},
        {"l1_transport": "carrier-pigeon"},
    ],
)
def test_validation_rejects(kw):
    with pytest.raises(ConfigError):
        SimConfig(**kw)


FLOAT_FIELDS = [f.name for f in fields(SimConfig) if isinstance(getattr(SimConfig(), f.name), float)]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_validation_rejects_non_finite_floats(name, value):
    with pytest.raises(ConfigError, match=f"^{name} must be finite"):
        SimConfig(**{name: value})


INT_FIELDS = [f.name for f in fields(SimConfig) if f.type == "int"]


@pytest.mark.parametrize(
    "kw, field",
    [
        *(({name: 2.5}, name) for name in INT_FIELDS),
        *(({name: True}, name) for name in INT_FIELDS),
        ({"seed": "1"}, "seed"),
        ({"l1_schedule": ((1.5, 0, 1),)}, "at_timestep"),
        ({"l1_schedule": ((1, False, 1),)}, "lp_id"),
        ({"l1_schedule": ((1, 0, 1.0),)}, "entity_count"),
        ({"l1_schedule": ((1, 0),)}, "l1_schedule"),
        ({"l1_schedule": ((1, 0, 1, 1),)}, "l1_schedule"),
        ({"l1_schedule": (5,)}, "l1_schedule"),
        # The other annotated types are checked too; a float field takes an int, but no bool.
        ({"density": "1e-4"}, "density"),
        ({"forwarding_threshold": "1"}, "forwarding_threshold"),
        ({"mobile_fraction": True}, "mobile_fraction"),
        ({"deliver_once": "false"}, "deliver_once"),
        ({"deliver_once": 0}, "deliver_once"),
        ({"l1_transport": 5}, "l1_transport"),
    ],
)
def test_validation_rejects_non_integers_for_int_fields(kw, field):
    with pytest.raises(ConfigError, match=field):
        SimConfig(**kw)


def test_trigger_parse():
    trig = SpawnTrigger.parse("10:2:5")
    assert trig == SpawnTrigger(at_timestep=10, lp_id=2, entity_count=5)
    with pytest.raises(ConfigError):
        SpawnTrigger.parse("10:2")
    with pytest.raises(ConfigError):
        SpawnTrigger.parse("ten:2:5")


def test_trigger_bounds_checked_against_run():
    good = SimConfig(num_lps=4, total_timesteps=20, l1_schedule=(SpawnTrigger(19, 3, 1),))
    assert good.l1_schedule == (SpawnTrigger(19, 3, 1),)
    with pytest.raises(ConfigError):
        SimConfig(total_timesteps=20, l1_schedule=(SpawnTrigger(20, 0, 1),))
    with pytest.raises(ConfigError):
        SimConfig(num_lps=2, l1_schedule=(SpawnTrigger(0, 2, 1),))
    with pytest.raises(ConfigError):
        SimConfig(l1_schedule=(SpawnTrigger(0, 0, 0),))


def test_trigger_tuples_are_coerced():
    cfg = SimConfig(l1_schedule=((5, 0, 3),))
    assert cfg.l1_schedule == (SpawnTrigger(5, 0, 3),)


def test_options_cover_every_field():
    mapped = {field_name for field_name, _ in OPTIONS.values()}
    assert mapped == {f.name for f in fields(SimConfig)}


def test_config_file_round_trip(tmp_path, monkeypatch):
    # A sweep child is given its config as flags: they must round-trip too.
    argv = []

    def capture(cmd, **kw):
        argv[:] = cmd
        return subprocess.CompletedProcess(cmd, 1, "", "captured")

    monkeypatch.setattr(subprocess, "run", capture)
    path = tmp_path / "run.cfg"
    for cfg in (
        SimConfig(
            num_ses=64,
            mobile_fraction=0.25,
            total_timesteps=12,
            deliver_once=True,
            num_lps=2,
            l1_schedule=(SpawnTrigger(3, 1, 2), SpawnTrigger(7, 0, 1)),
            l1_transport="loopback",
            seed=99,
        ),
        SimConfig(density=1e-05, seed=-3),
    ):
        path.write_text(config_to_file_text(cfg))
        updates = read_config_file(path)
        assert SimConfig(**updates) == cfg

        with pytest.raises(RuntimeError, match="captured"):
            bench._run_in_subprocess(cfg)
        assert argv[1:4] == ["-m", "iotsim", "simulate"]
        args = build_parser().parse_args(argv[3:])
        assert _config_from_args(args) == cfg
    assert "--density=1e-05" in argv and "--seed=-3" in argv and "--l1-schedule=" in argv


def test_config_file_comments_and_errors(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\nses=10\ntimesteps = 5\n")
    updates = read_config_file(path)
    assert updates == {"num_ses": 10, "total_timesteps": 5}

    path.write_text("bogus-key=1\n")
    with pytest.raises(ConfigError, match="unknown option"):
        read_config_file(path)

    path.write_text("just a line\n")
    with pytest.raises(ConfigError, match="key=value"):
        read_config_file(path)

    path.write_text("ses=abc\n")
    with pytest.raises(ConfigError):
        read_config_file(path)

    # A key given twice is refused, naming both lines, not read last-wins.
    path.write_text("ses=10\n# again\nses=20\n")
    with pytest.raises(ConfigError, match="run.cfg:3: 'ses' is already given on line 1$"):
        read_config_file(path)


def test_bool_option_forms(tmp_path):
    path = tmp_path / "run.cfg"
    for text, want in (("true", True), ("0", False), ("Yes", True), ("off", False)):
        path.write_text(f"deliver-once={text}\n")
        assert read_config_file(path) == {"deliver_once": want}
    path.write_text("deliver-once=maybe\n")
    with pytest.raises(ConfigError, match="run.cfg:1: bad boolean 'maybe'"):
        read_config_file(path)
