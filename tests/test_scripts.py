import importlib.util
import json
import tempfile
from pathlib import Path

from paharq import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reproduce_figures", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_quick_run_leaves_no_temp_files(tmp_path, monkeypatch):
    script = load_script()
    temp = tmp_path / "tmp"
    temp.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(temp))
    configs = {}

    def fake_main(argv):
        if "--config" in argv:
            path = Path(argv[argv.index("--config") + 1])
            configs[argv[0]] = json.loads(path.read_text())
        return 0

    monkeypatch.setattr(script, "cli_main", fake_main)
    assert script.run(tmp_path / "out", seed=1, workers=1, quick=True) == 0
    assert configs == {command: overrides for command, overrides
                       in script.QUICK_OVERRIDES.items() if overrides}
    assert list(temp.iterdir()) == []


def test_every_command_gets_only_flags_it_takes(tmp_path, monkeypatch):
    script = load_script()
    parser = cli._build_parser()
    parsed = {}

    def fake_main(argv):
        parsed[argv[0]] = parser.parse_args(argv)  # a usage error exits 1
        return 0

    monkeypatch.setattr(script, "cli_main", fake_main)
    assert script.run(tmp_path / "out", seed=5, workers=1, quick=True) == 0
    assert set(parsed) == {"fig3", "fig4", "fig5", "headline", "mc-verify"}
    assert {command for command, args in parsed.items()
            if getattr(args, "seed", None) == 5} == {"fig4", "mc-verify"}


def test_quick_overrides_are_valid_configs(tmp_path):
    # a config error, such as a grid value given twice, would make the
    # quick run exit 1
    script = load_script()
    for command, overrides in script.QUICK_OVERRIDES.items():
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(overrides))
        cli._load_config(command, str(path))
