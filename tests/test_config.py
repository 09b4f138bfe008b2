import pytest

from rhdlab.cli import main as cli_main
from rhdlab.config import _SCHEMA, ConfigError, default_config, load_config

# values outside most domains, the last an integer past the float range:
# every key either accepts one or refuses it at load with an error naming
# the key
BAD_VALUES = ("garbage", "nan", "inf", "-inf", "", "-1", "0", "9" * 400)
FREE_TEXT = {("output", "dir")}


def test_printed_reference_loads_to_the_defaults(tmp_path, capsys):
    assert cli_main(["config-reference"]) == 0
    path = tmp_path / "reference.ini"
    path.write_text(capsys.readouterr().out)
    assert load_config(path).raw == default_config().raw


@pytest.mark.parametrize("section", sorted(_SCHEMA))
def test_every_key_is_checked_at_load(tmp_path, section):
    for key in _SCHEMA[section]:
        for value in BAD_VALUES:
            path = tmp_path / "walk.ini"
            path.write_text(f"[{section}]\n{key} = {value}\n")
            try:
                cfg = load_config(path)
            except ConfigError as exc:
                assert f"{section}.{key}" in str(exc), (key, value, exc)
                continue
            assert (section, key) in FREE_TEXT or value not in (
                "nan", "inf", "-inf"), (key, value)
            assert cfg.raw[section][key] == value


def test_malformed_ini_exits_2_naming_the_file(tmp_path, capsys):
    # a file the INI parser refuses (here an unclosed section header on its
    # first line) is a configuration error, not a traceback
    path = tmp_path / "broken.ini"
    path.write_text("[grid\npoints_per_axis = 16\n")
    with pytest.raises(ConfigError, match="no section headers"):
        load_config(path)
    assert cli_main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}: " in err and "no section headers" in err
    assert not (tmp_path / "out").exists()
